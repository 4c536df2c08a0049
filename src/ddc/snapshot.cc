#include "ddc/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <system_error>
#include <vector>

#include "common/bit_util.h"
#include "fault/failpoint.h"

namespace ddc {

namespace {

constexpr char kMagicV1[8] = {'D', 'D', 'C', 'S', 'N', 'A', 'P', '1'};
constexpr char kMagicV2[8] = {'D', 'D', 'C', 'S', 'N', 'A', 'P', '2'};

// Records are decoded at most this many bytes at a time, so a corrupt
// record_count costs one chunk of memory before the stream runs dry.
constexpr size_t kDecodeChunkBytes = size_t{1} << 20;

// Records are encoded into blocks of this many words before each write.
constexpr size_t kWriteBlockWords = size_t{1} << 13;

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(std::istream* in, T* value) {
  in->read(reinterpret_cast<char*>(value), sizeof(*value));
  return in->good();
}

}  // namespace

bool WriteSnapshot(const DynamicDataCube& cube, std::ostream* out) {
  const DdcOptions& options = cube.options();
  std::string header(kMagicV2, sizeof(kMagicV2));
  AppendPod<int32_t>(&header, cube.dims());
  AppendPod<int64_t>(&header, cube.side());
  for (Coord c : cube.DomainLo()) AppendPod<int64_t>(&header, c);
  AppendPod<int32_t>(&header, options.bc_fanout);
  AppendPod<int8_t>(&header, options.use_fenwick ? 1 : 0);
  AppendPod<int8_t>(&header, options.bc_dense ? 1 : 0);
  AppendPod<int32_t>(&header, options.elide_levels);

  // One walk writes the records in blocks after a placeholder count, which
  // is patched once the walk is done. A stream that cannot seek keeps every
  // record in the block and writes it after the true count instead.
  const std::streampos start = out->tellp();
  const bool seekable = start != std::streampos(-1);
  const std::streamoff count_at = static_cast<std::streamoff>(header.size());
  if (seekable) {
    AppendPod<int64_t>(&header, 0);
    out->write(header.data(), static_cast<std::streamsize>(header.size()));
  }
  const size_t stride = static_cast<size_t>(cube.dims()) + 1;
  std::vector<int64_t> block;
  const auto flush = [&] {
    out->write(reinterpret_cast<const char*>(block.data()),
               static_cast<std::streamsize>(block.size() * sizeof(int64_t)));
    block.clear();
  };
  int64_t count = 0;
  cube.ForEachNonZero([&](const Cell& cell, int64_t value) {
    block.insert(block.end(), cell.begin(), cell.end());
    block.push_back(value);
    ++count;
    if (seekable && block.size() >= kWriteBlockWords - stride) flush();
  });
  if (seekable) {
    flush();
    const std::streampos end = out->tellp();
    out->seekp(start + count_at);
    out->write(reinterpret_cast<const char*>(&count), sizeof(count));
    out->seekp(end);
  } else {
    AppendPod<int64_t>(&header, count);
    out->write(header.data(), static_cast<std::streamsize>(header.size()));
    flush();
  }
  return out->good();
}

std::unique_ptr<DynamicDataCube> ReadSnapshot(std::istream* in) {
  char magic[8];
  in->read(magic, sizeof(magic));
  if (!in->good()) return nullptr;
  const bool v2 = std::memcmp(magic, kMagicV2, sizeof(magic)) == 0;
  if (!v2 && std::memcmp(magic, kMagicV1, sizeof(magic)) != 0) {
    return nullptr;
  }
  int32_t dims = 0;
  int64_t side = 0;
  if (!ReadPod(in, &dims) || !ReadPod(in, &side)) return nullptr;
  if (dims < 1 || dims > 20 || side < 2 || !IsPowerOfTwo(side)) {
    return nullptr;
  }
  Cell origin(static_cast<size_t>(dims));
  for (int i = 0; i < dims; ++i) {
    Coord& lo = origin[static_cast<size_t>(i)];
    // The domain's last cell, lo + side - 1, must be representable.
    if (!ReadPod(in, &lo) || lo > INT64_MAX - (side - 1)) return nullptr;
  }
  DdcOptions options;
  int8_t use_fenwick = 0;
  int8_t bc_dense = 0;
  if (!ReadPod(in, &options.bc_fanout) || !ReadPod(in, &use_fenwick) ||
      (v2 && !ReadPod(in, &bc_dense)) ||
      !ReadPod(in, &options.elide_levels)) {
    return nullptr;
  }
  // Bound the fanout: values beyond 1024 are never produced by this library
  // and would let a corrupted stream trigger huge node allocations.
  if (options.bc_fanout < 2 || options.bc_fanout > 1024 ||
      options.elide_levels < 0 || options.elide_levels >= 62) {
    return nullptr;
  }
  if (v2 && (use_fenwick & ~1) != 0) return nullptr;
  if (v2 && (bc_dense & ~1) != 0) return nullptr;
  options.use_fenwick = use_fenwick != 0;
  options.bc_dense = bc_dense != 0;

  int64_t count = 0;
  if (!ReadPod(in, &count) || count < 0) return nullptr;

  // Decode the record section in bounded chunks. A well-formed snapshot
  // only records cells inside its declared domain; anything else is
  // corruption, and rejecting it also keeps a hostile stream from driving
  // domain growth.
  const size_t stride = static_cast<size_t>(dims) + 1;
  const uint64_t record_bytes = stride * sizeof(int64_t);
  const uint64_t chunk_records = kDecodeChunkBytes / record_bytes;
  std::vector<int64_t> records;
  // Where the stream can tell how many bytes are left, a count they cannot
  // hold is rejected up front and a plausible one sizes the buffer exactly.
  const std::streampos here = in->tellg();
  if (here != std::streampos(-1) && in->seekg(0, std::ios::end)) {
    const std::streamoff bytes_left = in->tellg() - here;
    in->seekg(here);
    if (static_cast<uint64_t>(count) >
        static_cast<uint64_t>(bytes_left) / record_bytes) {
      return nullptr;
    }
    records.reserve(static_cast<size_t>(count) * stride);
  }
  in->clear();
  for (uint64_t left = static_cast<uint64_t>(count); left > 0;) {
    const uint64_t n = std::min(left, chunk_records);
    const size_t at = records.size();
    records.resize(at + n * stride);
    in->read(reinterpret_cast<char*>(records.data() + at),
             static_cast<std::streamsize>(n * stride * sizeof(int64_t)));
    if (!in->good()) return nullptr;
    for (size_t r = at; r < records.size(); r += stride) {
      for (size_t i = 0; i < static_cast<size_t>(dims); ++i) {
        const uint64_t rel = static_cast<uint64_t>(records[r + i]) -
                             static_cast<uint64_t>(origin[i]);
        if (rel >= static_cast<uint64_t>(side)) return nullptr;
      }
    }
    left -= n;
  }
  // Restore the exact domain placement so prefix-sum anchors match the
  // original cube; repeated records sum in the builder's ordering pass.
  return DynamicDataCube::FromRecords(dims, side, options, std::move(origin),
                                      std::move(records));
}

bool SaveSnapshotToFile(const DynamicDataCube& cube, const std::string& path) {
  // Write-to-temp + rename: the old snapshot stays intact until the new one
  // is fully on disk. Writing over `path` directly would let a crash (or
  // the wal.checkpoint.tear failpoint) destroy the only snapshot while the
  // log holds just post-checkpoint records — unrecoverable data loss.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    if (!WriteSnapshot(cube, &out) || !out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (DDC_FAULTPOINT("wal.checkpoint.tear")) {
    // Simulate a crash mid-checkpoint: the temp file is torn at a
    // fault-chosen byte and never renamed. The previous snapshot (if any)
    // survives untouched, which is the property this failpoint exists to
    // prove.
    std::error_code ec;
    const auto size = std::filesystem::file_size(tmp, ec);
    if (!ec && size > 0) {
      std::filesystem::resize_file(
          tmp, fault::RandBelow(static_cast<uint64_t>(size)), ec);
    }
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::unique_ptr<DynamicDataCube> LoadSnapshotFromFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return nullptr;
  return ReadSnapshot(&in);
}

}  // namespace ddc
