// Snapshot persistence for the Dynamic Data Cube.
//
// The cube's logical content is fully determined by its nonzero cells, so a
// snapshot is a compact, versioned binary stream of (cell, value) records
// plus the domain geometry and options. Loading decodes the record section
// and bulk-builds the cube once (DynamicDataCube::FromRecords), so the
// loaded cube answers exactly as the saved one; record order is free and
// repeated records sum. See docs/SNAPSHOT_FORMAT.md.
//
// Format (little-endian, fixed-width):
//   magic "DDCSNAP2" (8 bytes)
//   int32  dims
//   int64  side
//   int64  origin[dims]
//   int32  bc_fanout, int8 use_fenwick, int8 bc_dense, int32 elide_levels
//   int64  record_count
//   record_count x { int64 cell[dims]; int64 value; }
// DDCSNAP1 files (no bc_dense byte) still load, with bc_dense off.

#ifndef DDC_DDC_SNAPSHOT_H_
#define DDC_DDC_SNAPSHOT_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "ddc/dynamic_data_cube.h"

namespace ddc {

// Writes a snapshot of `cube` to `out`. Returns false on stream failure.
bool WriteSnapshot(const DynamicDataCube& cube, std::ostream* out);

// Reads a snapshot written by WriteSnapshot. Returns nullptr on a
// malformed stream (bad magic, truncation, geometry that fails validation).
std::unique_ptr<DynamicDataCube> ReadSnapshot(std::istream* in);

// Convenience file wrappers.
bool SaveSnapshotToFile(const DynamicDataCube& cube, const std::string& path);
std::unique_ptr<DynamicDataCube> LoadSnapshotFromFile(const std::string& path);

}  // namespace ddc

#endif  // DDC_DDC_SNAPSHOT_H_
