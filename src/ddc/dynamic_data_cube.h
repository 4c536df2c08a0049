// DynamicDataCube: the paper's primary contribution (Section 4), wrapped
// with the Section 5 capabilities — growth of the cube in any direction and
// graceful handling of sparse/clustered data.
//
// The cube manages a domain [origin, origin + side) in global coordinates
// (origin may become negative after growth). Updates outside the current
// domain trigger growth: the side doubles, moving the origin toward the new
// cell, until the cell fits. Growth direction is chosen per dimension from
// the data, not a priori — the star-catalog behaviour the paper motivates.
// Re-rooting bulk-builds the new tree from the nonzero cells only (lazy
// structure), so growing a sparse cube costs O(nnz * polylog) per doubling
// and empty space costs nothing, in contrast to the prefix-sum methods
// which must materialize and recompute the full bounding box (Figure 16).
//
// Range mutations (DESIGN.md §12): RangeAdd(box, v) is sublinear in the
// box. The box decomposes into 2^d signed corner deltas (the d-dimensional
// difference array of Mishra, arXiv 1311.6093) held in an *overlay* of 2^d
// auxiliary DdcCore trees beside the primary tree; each corner lands as a
// polylog point descent, so a range-add costs O(4^d log^d n) regardless of
// how many cells the box covers. Reads compose the two layers: Get adds the
// overlay's difference-array prefix at the cell, PrefixSum adds the 2^d
// weighted overlay prefixes, and re-rooting rebuilds the overlay trees from
// a global corner map kept in domain-independent coordinates. RangeSet is
// inherently per-cell and expands through the point pipeline.

#ifndef DDC_DDC_DYNAMIC_DATA_CUBE_H_
#define DDC_DDC_DYNAMIC_DATA_CUBE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cube_interface.h"
#include "common/cube_lifecycle.h"
#include "common/md_array.h"
#include "ddc/ddc_core.h"
#include "ddc/ddc_options.h"

namespace ddc {

class DynamicDataCube : public CubeInterface {
 public:
  // Domain starts at [origin, origin + initial_side) with origin at the
  // global origin. `initial_side` must be a power of two >= 2.
  DynamicDataCube(int dims, int64_t initial_side, DdcOptions options = {});

  // Places the initial domain at an explicit origin (used e.g. to restore
  // snapshots with their exact domain geometry).
  DynamicDataCube(int dims, int64_t initial_side, DdcOptions options,
                  Cell origin);

  // Not copyable or movable: the core holds a back-pointer to this object's
  // operation counters.
  DynamicDataCube(const DynamicDataCube&) = delete;
  DynamicDataCube& operator=(const DynamicDataCube&) = delete;

  // Out-of-line: RangeOverlay is an incomplete type here.
  ~DynamicDataCube() override;

  // Bulk-builds a cube from a dense array: its nonzero cells go through
  // DdcCore::BuildFromCells (each stored value written once). The array
  // must be a power-of-two cube of side >= 2; the resulting domain is
  // anchored at the origin.
  static std::unique_ptr<DynamicDataCube> FromArray(
      const MdArray<int64_t>& array, DdcOptions options = {});

  // Bulk-builds a cube over the domain [origin, origin + side) from
  // `records`: dims coordinates (global, every cell inside the domain)
  // followed by the value, record after record. Order is free and repeated
  // cells sum, as a loop of Add would (see DdcCore::BuildFromCells).
  static std::unique_ptr<DynamicDataCube> FromRecords(
      int dims, int64_t side, DdcOptions options, Cell origin,
      std::vector<int64_t> records);

  int dims() const override { return dims_; }
  Cell DomainLo() const override { return origin_; }
  Cell DomainHi() const override;

  // Set/Add grow the domain automatically when `cell` lies outside it.
  void Set(const Cell& cell, int64_t value) override;
  void Add(const Cell& cell, int64_t delta) override;
  // Adds `delta` to every cell of the closed box, growing the domain to
  // contain it first (unlike the fixed-domain cubes, which clip). Sublinear
  // in the box: 2^d signed corner deltas land in the overlay trees, each a
  // batched polylog descent. A no-op for an empty box or zero delta.
  void RangeAdd(const Box& box, int64_t delta) override;
  // Sets every cell of the box to `value` through the per-cell point
  // pipeline (range-set cannot be sublinear: each cell's prior value must
  // be discarded individually). Grows to contain the box when `value` is
  // nonzero; a zero-valued range-set clips to the current domain instead —
  // out-of-domain cells already read 0, so growth would only materialize
  // empty space (mirroring how point Set(cell, 0) outside the domain is a
  // no-op).
  void RangeSet(const Box& box, int64_t value) override;
  // Batched writes. The batch is first grown into the domain (growth
  // happens up front, so a batch straddling a re-root sees a stable
  // geometry — including the high corners of range mutations), then folded
  // into a coalesce program (common/mutation.h): point runs collapse to one
  // net delta per distinct cell and land in one shared tree descent
  // (DdcCore::AddBatch); each range mutation is a barrier applied between
  // runs. Results are identical to applying the mutations in a loop.
  // Returns false (nothing applied) on a malformed batch (point mutations
  // carry dims() coordinates, range mutations 2*dims()).
  bool ApplyBatch(std::span<const Mutation> batch) override;
  // Get/PrefixSum/RangeSum treat cells outside the domain as zero.
  int64_t Get(const Cell& cell) const override;
  int64_t PrefixSum(const Cell& cell) const override;
  // Single range sum (inclusion-exclusion over prefix sums, as in the
  // base). Overridden only to feed the workload recorder — every executed
  // read range, single or batched, lands in the heatmap sketch.
  int64_t RangeSum(const Box& box) const override;
  // Batched range sums. Each range decomposes into at most 2^d signed
  // corner prefix sums (Figure 4); corners shared between ranges (adjacent
  // rollup slices share an entire corner set) are deduplicated, and the
  // surviving unique corners are resolved in one shared tree descent
  // (DdcCore::PrefixSumBatch). Results are identical to per-range RangeSum.
  void RangeSumBatch(std::span<const Box> ranges,
                     std::span<int64_t> out) const override;
  // Includes the overlay trees' storage once any range-add has landed.
  int64_t StorageCells() const override;
  std::string name() const override { return "dynamic_data_cube"; }

  // Sum over the entire cube; O(1). The overlay's contribution is tracked
  // as a scalar at range-add time.
  int64_t TotalSum() const { return core_->TotalSum() + range_total_; }

  int64_t side() const { return core_->side(); }
  // Side of the leaf blocks (see DdcCore::min_box_side).
  int64_t min_box_side() const { return core_->min_box_side(); }
  const DdcOptions& options() const { return options_; }

  // Number of re-rooting doublings performed so far.
  int64_t growth_doublings() const { return growth_doublings_; }

  // Grows the domain (if needed) until `cell` is inside it.
  void EnsureContains(const Cell& cell);

  // The inverse of growth: rebuilds the cube into the smallest power-of-two
  // domain (side >= min_side) containing every nonzero cell. Useful after
  // mass deletions or when data has drifted away from the original domain.
  // Costs O(nnz * polylog); an empty cube shrinks to side min_side at the
  // current origin.
  void ShrinkToFit(int64_t min_side = 2);

  // Structural statistics of the primary tree.
  DdcStats Stats() const { return core_->Stats(); }

  // Planned shape of a RangeSumBatch call: runs only the phase-1 corner
  // decomposition (no tree descent, no mutation of any counter), so EXPLAIN
  // can print the decomposition without executing it. The counts match what
  // an immediately following RangeSumBatch on the same ranges would record.
  struct RangeSumPlan {
    int64_t ranges = 0;          // Ranges non-empty after domain clipping.
    int64_t corner_terms = 0;    // Signed corner terms before dedup.
    int64_t unique_corners = 0;  // Distinct prefix-sum descents.
    int64_t corners_deduped = 0; // corner_terms - unique_corners.
    int64_t overlay_trees = 0;   // Overlay descents per unique corner.
    int64_t descent_levels = 0;  // Current primary-tree depth.
  };
  RangeSumPlan PlanRangeSumBatch(std::span<const Box> ranges) const;

  // Observer for primary-tree node/leaf-block touches (see
  // DdcCore::set_node_visit_listener); survives growth and shrink
  // re-rooting. Pass an empty function to detach.
  void SetNodeVisitListener(DdcCore::NodeVisitListener listener);

  // Lifecycle hub for re-rooting events: every subscriber is notified once
  // per growth doubling (new_side == 2 * old_side) and once per
  // ShrinkToFit rebuild (new_side <= old_side), after the new core is in
  // place and the old tree's arena has been retired. DurableCube uses it
  // to schedule checkpoints and CachedCube to flush its entries. Callbacks run on the mutating thread — under whatever lock
  // the caller holds — so they must be cheap and must not re-enter the
  // cube (see common/cube_lifecycle.h for the full contract).
  CubeLifecycle& lifecycle() { return lifecycle_; }

  // Invokes fn(cell, value) for every *logically* nonzero cell (primary
  // tree plus overlay), in global coordinates. With range-adds applied this
  // enumerates the journal of range boxes cell-by-cell, so it costs up to
  // Theta(sum of box volumes) — snapshotting flattens the overlay into
  // plain points, which keeps the snapshot format oblivious to ranges.
  void ForEachNonZero(
      const std::function<void(const Cell&, int64_t)>& fn) const;

 private:
  struct RangeOverlay;

  bool InDomain(const Cell& cell) const;
  Cell ToLocal(const Cell& cell) const { return CellSub(cell, origin_); }
  OpCounters* CountersPtr() {
    return options_.enable_counters ? &counters_ : nullptr;
  }
  void ReattachListener();
  // The one re-root body: rebuilds the tree into a fresh arena+core of
  // `new_side` anchored at `new_origin` by one bulk build over the shifted
  // nonzero cells, then swaps the pair in (retiring the old tree
  // wholesale), restores the node-visit listener, and fires
  // lifecycle().Notify. Growth and both shrink paths funnel through here.
  void ReRootInto(int64_t new_side, Cell new_origin, ReRootReason reason);

  // Applies one range-add whose box already lies inside the domain:
  // accumulates the 2^d signed corner deltas into the global corner map,
  // journals the box, bumps range_total_, and lands the corners in the
  // overlay trees (one AddBatch per tree). Creates the overlay lazily.
  void ApplyRangeAddInDomain(const Box& box, int64_t delta);
  // Point-batch tail of ApplyBatch: coalesced cells -> net deltas -> one
  // core AddBatch.
  void ApplyCoalescedPoints(std::vector<CoalescedCell>& points);
  // Overlay read paths; all take LOCAL coordinates and return 0 when no
  // overlay exists.
  int64_t OverlayValueLocal(const Cell& local) const;
  int64_t OverlayPrefixLocal(const Cell& local) const;
  // out[i] += overlay prefix at locals[i], batched per overlay tree.
  void OverlayPrefixBatchLocal(std::span<const Cell> locals,
                               std::span<int64_t> out) const;
  // Rebuilds the overlay trees for a new geometry from the global corner
  // map (the stored per-tree values depend on local coordinates, so trees
  // cannot be copied across a re-root).
  void RebuildOverlay(int64_t new_side, const Cell& new_origin);

  int dims_;
  DdcOptions options_;
  Cell origin_;
  // All structure memory for core_ lives in arena_; re-rooting replaces both
  // together so an entire retired tree is freed by dropping one arena.
  // Declared before core_ so the core is destroyed first.
  std::unique_ptr<Arena> arena_;
  std::unique_ptr<DdcCore> core_;
  int64_t growth_doublings_ = 0;
  DdcCore::NodeVisitListener node_visit_listener_;
  CubeLifecycle lifecycle_;
  // Range-add overlay (created by the first range-add; null until then so
  // point-only cubes pay nothing). See DESIGN.md §12.
  std::unique_ptr<RangeOverlay> overlay_;
  // SUM over all applied range-adds of delta * box cells: TotalSum() =
  // primary total + this.
  int64_t range_total_ = 0;
};

}  // namespace ddc

#endif  // DDC_DDC_DYNAMIC_DATA_CUBE_H_
