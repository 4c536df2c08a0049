#include "ddc/dynamic_data_cube.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/check.h"
#include "obs/trace.h"
#include "obs/workload_recorder.h"

namespace ddc {

namespace {

// Registry handles (resolved once; recording is guarded by obs::Enabled()).
obs::Histogram& UpdateNsHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.update.ns");
  return h;
}
obs::Histogram& UpdateDepthHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.update.depth");
  return h;
}
obs::Histogram& UpdateBatchSizeHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.update.batch.size");
  return h;
}
obs::Histogram& PrefixSumNsHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.query.prefix_sum_ns");
  return h;
}
obs::Histogram& QueryDepthHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.query.depth");
  return h;
}
obs::Histogram& BatchSizeHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.query.batch.size");
  return h;
}
obs::Counter& BatchCornerTerms() {
  static obs::Counter& c = *obs::MetricsRegistry::Default().GetCounter(
      "ddc.query.batch.corner_terms");
  return c;
}
obs::Counter& BatchCornersDeduped() {
  static obs::Counter& c = *obs::MetricsRegistry::Default().GetCounter(
      "ddc.query.batch.corners_deduped");
  return c;
}
obs::Histogram& RangeAddNsHist() {
  static obs::Histogram& h = *obs::MetricsRegistry::Default().GetHistogram(
      "ddc.update.range_add.ns");
  return h;
}
obs::Counter& RangeAddCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.update.range_adds");
  return c;
}
obs::Counter& ReRootCounter() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.reroots");
  return c;
}
obs::Histogram& ReRootNsHist() {
  static obs::Histogram& h =
      *obs::MetricsRegistry::Default().GetHistogram("ddc.reroot.ns");
  return h;
}

}  // namespace

// The range-add overlay (DESIGN.md §12). A range-add of v on the closed box
// [l..h] is the d-dimensional difference array D: for every subset S of the
// dimensions, D gains (-1)^|S| * v at the corner whose i-th coordinate is
// l[i] for i not in S and h[i]+1 for i in S. The overlay value at a cell x
// is then SUM(D[p] : p <= x), and the overlay's prefix sum over [0..c]
// expands (per the identity prod(c_i + 1 - p_i) = sum over subsets T of
// prod_{i in T}(-p_i) * prod_{i not in T}(c_i + 1)) into 2^d weighted
// prefix sums, one per tree:
//
//   OverlayPrefix(c) = sum over T of prod_{i not in T}(c_i + 1)
//                        * PrefixSum_{tree T}(c)
//
// where tree T stores D[p] * prod_{i in T}(-p_i) at p. Every corner lands
// in every tree as one point delta, so a range-add is 2^d corners x 2^d
// trees of polylog point descents — O(4^d log^d n), independent of the box
// volume. Corners with a coordinate at h[i]+1 == side fall outside the
// local domain; they are excluded from the trees (no in-domain query point
// ever dominates them) but retained in the global-coordinate `corners` map
// so a growth re-root can re-materialize them.
struct DynamicDataCube::RangeOverlay {
  // Net corner deltas in GLOBAL coordinates; entries that cancel to zero
  // are erased. This map, not the trees, is the durable truth: re-rooting
  // rebuilds every tree from it (the per-tree stored values depend on local
  // coordinates, which a re-root changes).
  std::unordered_map<Cell, int64_t, CellHash> corners;
  // Journal of applied range-add boxes (global coordinates). Only used to
  // enumerate candidate cells in ForEachNonZero; values come from the
  // trees, so stale (cancelled-out) boxes merely cost iteration time.
  std::vector<Box> boxes;
  // Tree memory, retired wholesale on re-root like the primary arena.
  std::unique_ptr<Arena> arena;
  // 2^d trees; index T's bit i set means dimension i contributes -p_i.
  std::vector<std::unique_ptr<DdcCore>> trees;
};

namespace {

// prod_{i in T}(-p[i]) — the weight tree T applies to a corner delta at p.
int64_t CornerWeight(uint32_t tree_mask, const Cell& p) {
  int64_t w = 1;
  for (int i = 0; tree_mask >> i != 0; ++i) {
    if (tree_mask & (1u << i)) w *= -p[static_cast<size_t>(i)];
  }
  return w;
}

// prod_{i not in T}(c[i] + 1) — the query-side weight of tree T at c.
int64_t QueryWeight(uint32_t tree_mask, int dims, const Cell& c) {
  int64_t w = 1;
  for (int i = 0; i < dims; ++i) {
    if (!(tree_mask & (1u << i))) w *= c[static_cast<size_t>(i)] + 1;
  }
  return w;
}

}  // namespace

DynamicDataCube::~DynamicDataCube() = default;

DynamicDataCube::DynamicDataCube(int dims, int64_t initial_side,
                                 DdcOptions options)
    : DynamicDataCube(dims, initial_side, options, UniformCell(dims, 0)) {}

DynamicDataCube::DynamicDataCube(int dims, int64_t initial_side,
                                 DdcOptions options, Cell origin)
    : dims_(dims),
      options_(options),
      origin_(std::move(origin)),
      arena_(std::make_unique<Arena>()),
      core_(std::make_unique<DdcCore>(dims, initial_side, options,
                                      CountersPtr(), arena_.get())) {
  DDC_CHECK(static_cast<int>(origin_.size()) == dims_);
}

std::unique_ptr<DynamicDataCube> DynamicDataCube::FromArray(
    const MdArray<int64_t>& array, DdcOptions options) {
  const Shape& shape = array.shape();
  const int dims = shape.dims();
  const Coord side = shape.extent(0);
  for (int i = 1; i < dims; ++i) DDC_CHECK(shape.extent(i) == side);
  auto cube = std::make_unique<DynamicDataCube>(dims, side, options);
  std::vector<int64_t> records;
  array.ForEach([&](const Cell& cell, const int64_t& value) {
    if (value == 0) return;
    records.insert(records.end(), cell.begin(), cell.end());
    records.push_back(value);
  });
  cube->core_->BuildFromCells(std::move(records));
  return cube;
}

std::unique_ptr<DynamicDataCube> DynamicDataCube::FromRecords(
    int dims, int64_t side, DdcOptions options, Cell origin,
    std::vector<int64_t> records) {
  auto cube = std::make_unique<DynamicDataCube>(dims, side, options,
                                                std::move(origin));
  const size_t stride = static_cast<size_t>(dims) + 1;
  DDC_CHECK(records.size() % stride == 0);
  for (size_t at = 0; at < records.size(); at += stride) {
    for (size_t i = 0; i < static_cast<size_t>(dims); ++i) {
      records[at + i] -= cube->origin_[i];  // BuildFromCells checks bounds.
    }
  }
  cube->core_->BuildFromCells(std::move(records));
  return cube;
}

Cell DynamicDataCube::DomainHi() const {
  Cell hi = origin_;
  for (int i = 0; i < dims_; ++i) hi[static_cast<size_t>(i)] += side() - 1;
  return hi;
}

bool DynamicDataCube::InDomain(const Cell& cell) const {
  DDC_CHECK(static_cast<int>(cell.size()) == dims_);
  for (int i = 0; i < dims_; ++i) {
    size_t ui = static_cast<size_t>(i);
    const Coord rel = cell[ui] - origin_[ui];
    if (rel < 0 || rel >= side()) return false;
  }
  return true;
}

void DynamicDataCube::ReRootInto(int64_t new_side, Cell new_origin,
                                 ReRootReason reason) {
  const int64_t old_side = side();
  obs::TraceSpan span("ddc.reroot", old_side, new_side, &ReRootNsHist());
  if (obs::Enabled()) ReRootCounter().Increment();
  // Re-root into a fresh arena: the retired tree (old nodes, faces, leaf
  // blocks) is freed wholesale when the old arena is dropped below.
  auto new_arena = std::make_unique<Arena>();
  auto new_core = std::make_unique<DdcCore>(dims_, new_side, options_,
                                            CountersPtr(), new_arena.get());
  const Cell shift = CellSub(origin_, new_origin);
  std::vector<int64_t> records;
  core_->ForEachNonZero([&](const Cell& local, int64_t value) {
    for (size_t i = 0; i < local.size(); ++i) {
      records.push_back(local[i] + shift[i]);
    }
    records.push_back(value);
  });
  new_core->BuildFromCells(std::move(records));
  core_ = std::move(new_core);    // Retires the old core first...
  arena_ = std::move(new_arena);  // ...then drops its backing arena.
  ReattachListener();
  // The overlay trees store local-coordinate-dependent values, so the new
  // geometry needs them rebuilt from the global corner map.
  RebuildOverlay(new_side, new_origin);
  origin_ = std::move(new_origin);
  lifecycle_.Notify(ReRootEvent{reason, old_side, new_side});
}

void DynamicDataCube::EnsureContains(const Cell& cell) {
  DDC_CHECK(static_cast<int>(cell.size()) == dims_);
  while (!InDomain(cell)) {
    // Double the cube, moving the origin toward the out-of-range cell: in
    // every dimension where the cell lies below the current origin the old
    // region becomes the upper half, otherwise the lower half. This is the
    // "growth in any direction" of Section 5.
    const int64_t old_side = side();
    Cell new_origin = origin_;
    for (int i = 0; i < dims_; ++i) {
      size_t ui = static_cast<size_t>(i);
      if (cell[ui] < origin_[ui]) new_origin[ui] -= old_side;
    }
    ReRootInto(old_side * 2, std::move(new_origin), ReRootReason::kGrowth);
    ++growth_doublings_;
  }
}

void DynamicDataCube::ShrinkToFit(int64_t min_side) {
  DDC_CHECK(min_side >= 2 && IsPowerOfTwo(min_side));
  // Bounding box of the populated cells.
  bool any = false;
  Cell lo;
  Cell hi;
  const auto widen = [&](const Cell& local) {
    if (!any) {
      lo = local;
      hi = local;
      any = true;
    } else {
      lo = CellMin(lo, local);
      hi = CellMax(hi, local);
    }
  };
  core_->ForEachNonZero(
      [&](const Cell& local, int64_t) { widen(local); });
  if (overlay_ != nullptr) {
    // Live corner deltas bound the region where the overlay is nonzero
    // (every nonzero overlay cell is dominated-by/dominates some corner of
    // a contributing box), so shrinking to the corner hull is exact — and
    // boxes whose corners cancelled out no longer pin the domain.
    for (const auto& [corner, delta] : overlay_->corners) {
      (void)delta;
      widen(ToLocal(corner));
    }
  }
  if (!any) {
    ReRootInto(min_side, origin_, ReRootReason::kShrink);
    return;
  }
  Coord max_extent = 1;
  for (int i = 0; i < dims_; ++i) {
    size_t ui = static_cast<size_t>(i);
    max_extent = std::max(max_extent, hi[ui] - lo[ui] + 1);
  }
  const int64_t new_side = std::max(min_side, CeilPowerOfTwo(max_extent));
  if (new_side >= side()) return;  // Nothing to gain.
  ReRootInto(new_side, CellAdd(origin_, lo), ReRootReason::kShrink);
}

void DynamicDataCube::Add(const Cell& cell, int64_t delta) {
  if (delta == 0) return;
  obs::ScopedLatencyTimer timer(&UpdateNsHist());
  EnsureContains(cell);
  if (obs::Enabled()) UpdateDepthHist().Record(core_->DescentLevels());
  core_->Add(ToLocal(cell), delta);
}

void DynamicDataCube::Set(const Cell& cell, int64_t value) {
  Add(cell, value - Get(cell));
}

void DynamicDataCube::ApplyCoalescedPoints(
    std::vector<CoalescedCell>& points) {
  std::vector<Cell> cells;
  std::vector<int64_t> deltas;
  cells.reserve(points.size());
  deltas.reserve(points.size());
  for (CoalescedCell& c : points) {
    // A kSet run resolves against the cell's current value — which, because
    // steps apply in order, is exactly the value the sequential semantics
    // prescribe at this point of the batch (overlay included: Get composes
    // both layers).
    const int64_t net = c.has_set
                            ? c.set_value + c.pending_add - Get(c.cell)
                            : c.pending_add;
    if (net == 0) continue;
    // Rebase to local coordinates in place and hand the cell's storage to
    // the descent — one allocation per distinct cell for the whole batch.
    for (size_t i = 0; i < c.cell.size(); ++i) c.cell[i] -= origin_[i];
    cells.push_back(std::move(c.cell));
    deltas.push_back(net);
  }
  if (cells.empty()) return;
  core_->AddBatch(cells, deltas);
}

void DynamicDataCube::ApplyRangeAddInDomain(const Box& box, int64_t delta) {
  obs::ScopedLatencyTimer timer(&RangeAddNsHist());
  if (obs::Enabled()) RangeAddCounter().Increment();
  if (overlay_ == nullptr) {
    overlay_ = std::make_unique<RangeOverlay>();
    overlay_->arena = std::make_unique<Arena>();
    const uint32_t num_trees = 1u << dims_;
    overlay_->trees.reserve(num_trees);
    for (uint32_t t = 0; t < num_trees; ++t) {
      // Overlay descents deliberately skip the op counters: the Table 2 /
      // op-count experiments measure the primary tree's costs.
      overlay_->trees.push_back(std::make_unique<DdcCore>(
          dims_, side(), options_, /*counters=*/nullptr,
          overlay_->arena.get()));
    }
  }
  overlay_->boxes.push_back(box);
  range_total_ += delta * box.NumCells();

  // The 2^d signed corner deltas of the difference array, in local
  // coordinates. All corners of one box are distinct (h[i]+1 > l[i]), so
  // no within-call coalescing is needed.
  const Cell l = ToLocal(box.lo);
  const Cell h = ToLocal(box.hi);
  const uint32_t num_corners = 1u << dims_;
  std::vector<Cell> corners;
  std::vector<int64_t> corner_deltas;  // Raw D deltas (tree weight applied below).
  corners.reserve(num_corners);
  corner_deltas.reserve(num_corners);
  for (uint32_t mask = 0; mask < num_corners; ++mask) {
    Cell p(static_cast<size_t>(dims_));
    bool in_local_domain = true;
    for (int i = 0; i < dims_; ++i) {
      const size_t ui = static_cast<size_t>(i);
      p[ui] = (mask & (1u << i)) ? h[ui] + 1 : l[ui];
      in_local_domain = in_local_domain && p[ui] < side();
    }
    const int64_t d_delta =
        (std::popcount(mask) % 2 == 0) ? delta : -delta;
    // The global map keeps every corner — including those at h[i]+1 ==
    // side, which the trees cannot hold — so growth can re-materialize
    // them later.
    const Cell global = CellAdd(p, origin_);
    auto [it, inserted] = overlay_->corners.try_emplace(global, 0);
    it->second += d_delta;
    if (it->second == 0) overlay_->corners.erase(it);
    if (in_local_domain) {
      corners.push_back(std::move(p));
      corner_deltas.push_back(d_delta);
    }
  }

  // Land the corners in every tree, one batched descent per tree — the
  // same shared-scratch walk point batches use.
  const uint32_t num_trees = 1u << dims_;
  std::vector<Cell> tree_cells;
  std::vector<int64_t> tree_deltas;
  for (uint32_t t = 0; t < num_trees; ++t) {
    tree_cells.clear();
    tree_deltas.clear();
    for (size_t k = 0; k < corners.size(); ++k) {
      const int64_t w = CornerWeight(t, corners[k]) * corner_deltas[k];
      if (w == 0) continue;  // A corner on a zero axis contributes nothing.
      tree_cells.push_back(corners[k]);
      tree_deltas.push_back(w);
    }
    if (!tree_cells.empty()) {
      overlay_->trees[t]->AddBatch(tree_cells, tree_deltas);
    }
  }
}

void DynamicDataCube::RangeAdd(const Box& box, int64_t delta) {
  DDC_CHECK(box.dims() == dims_ &&
            box.hi.size() == static_cast<size_t>(dims_));
  if (box.IsEmpty() || delta == 0) return;
  obs::TraceSpan span("ddc.range_add", box.NumCells());
  EnsureContains(box.lo);
  EnsureContains(box.hi);
  ApplyRangeAddInDomain(box, delta);
}

void DynamicDataCube::RangeSet(const Box& box, int64_t value) {
  DDC_CHECK(box.dims() == dims_ &&
            box.hi.size() == static_cast<size_t>(dims_));
  const Mutation m = MakeRangeSet(box.lo, box.hi, value);
  (void)ApplyBatch(std::span<const Mutation>(&m, 1));
}

bool DynamicDataCube::ApplyBatch(std::span<const Mutation> batch) {
  if (!BatchWellFormed(batch, dims())) return false;
  if (batch.empty()) return true;
  obs::TraceSpan span("ddc.apply_batch", static_cast<int64_t>(batch.size()));
  if (obs::Enabled()) {
    UpdateBatchSizeHist().Record(static_cast<int64_t>(batch.size()));
  }
  // Grow first: the shared descents below need every cell in-domain, and a
  // re-root mid-descent would invalidate already-rebased local offsets.
  // This is also what makes a batch straddling growth correct: geometry is
  // settled before any delta lands. Range boxes grow only when they will
  // materialize values (nonzero range-add / range-set); a zero-valued or
  // empty range op clips to the domain instead, so `SET 0 IN [huge box]`
  // cannot balloon the domain.
  for (const Mutation& m : batch) {
    if (!m.is_range()) {
      EnsureContains(m.cell);
    } else if (m.delta != 0 && !m.box().IsEmpty()) {
      EnsureContains(m.cell);
      EnsureContains(m.hi);
    }
  }

  if (obs::Enabled()) {
    // Fold the executed mutations into the hot-range sketch (a point op is
    // a 1-cell box). Geometry is already settled, so these are the ranges
    // that actually land. BatchScope: one flush for the whole batch.
    obs::WorkloadRecorder::BatchScope scope(obs::WorkloadRecorder::Default(),
                                            /*mutations=*/true, dims_);
    for (const Mutation& m : batch) {
      const int64_t* lo = m.cell.data();
      const int64_t* hi = m.is_range() ? m.hi.data() : m.cell.data();
      scope.Record(lo, hi);
    }
  }

  if (!BatchHasRange(batch)) {
    // Point-only fast path: one coalesce, one shared descent.
    std::vector<CoalescedCell> coalesced = CoalesceMutations(batch);
    if (obs::Enabled()) {
      span.set_arg1(static_cast<int64_t>(coalesced.size()));
      UpdateDepthHist().Record(core_->DescentLevels());
    }
    ApplyCoalescedPoints(coalesced);
    return true;
  }

  // Mixed batch: run the coalesce program step by step. Each range op is a
  // barrier; the point runs between barriers still share one descent each.
  for (CoalescedStep& step : BuildCoalesceProgram(batch)) {
    ApplyCoalescedPoints(step.points);
    if (!step.has_range) continue;
    const Mutation& r = step.range;
    const Box target = r.box();
    if (target.IsEmpty()) continue;
    if (r.kind == MutationKind::kRangeAdd) {
      if (r.delta != 0) ApplyRangeAddInDomain(target, r.delta);
      continue;
    }
    // kRangeSet: inherently per-cell (each cell's prior value must be
    // individually discarded), expanded through the same coalesced-point
    // pipeline as point sets. Zero-valued sets clip (see growth note
    // above); nonzero ones were grown into the domain.
    const Box clipped =
        r.delta == 0 ? IntersectBoxes(target, Box{DomainLo(), DomainHi()})
                     : target;
    if (clipped.IsEmpty()) continue;
    std::vector<CoalescedCell> sets;
    sets.reserve(static_cast<size_t>(clipped.NumCells()));
    ForEachCellInBox(clipped, [&sets, &r](const Cell& c) {
      sets.push_back(CoalescedCell{c, 0, /*has_set=*/true, r.delta});
    });
    ApplyCoalescedPoints(sets);
  }
  if (obs::Enabled()) UpdateDepthHist().Record(core_->DescentLevels());
  return true;
}

int64_t DynamicDataCube::OverlayValueLocal(const Cell& local) const {
  if (overlay_ == nullptr) return 0;
  // Tree 0 (T = empty set, weight 1) stores the raw difference array D; the
  // overlay value at a cell is D's dominated-sum, i.e. tree 0's prefix.
  return overlay_->trees[0]->PrefixSum(local);
}

int64_t DynamicDataCube::OverlayPrefixLocal(const Cell& local) const {
  if (overlay_ == nullptr) return 0;
  int64_t total = 0;
  for (uint32_t t = 0; t < overlay_->trees.size(); ++t) {
    total += QueryWeight(t, dims_, local) * overlay_->trees[t]->PrefixSum(local);
  }
  return total;
}

void DynamicDataCube::OverlayPrefixBatchLocal(std::span<const Cell> locals,
                                              std::span<int64_t> out) const {
  if (overlay_ == nullptr || locals.empty()) return;
  std::vector<int64_t> tree_prefix(locals.size());
  for (uint32_t t = 0; t < overlay_->trees.size(); ++t) {
    overlay_->trees[t]->PrefixSumBatch(locals, tree_prefix);
    for (size_t k = 0; k < locals.size(); ++k) {
      out[k] += QueryWeight(t, dims_, locals[k]) * tree_prefix[k];
    }
  }
}

void DynamicDataCube::RebuildOverlay(int64_t new_side,
                                     const Cell& new_origin) {
  if (overlay_ == nullptr) return;
  auto new_arena = std::make_unique<Arena>();
  std::vector<std::unique_ptr<DdcCore>> new_trees;
  const uint32_t num_trees = 1u << dims_;
  new_trees.reserve(num_trees);
  for (uint32_t t = 0; t < num_trees; ++t) {
    new_trees.push_back(std::make_unique<DdcCore>(dims_, new_side, options_,
                                                  /*counters=*/nullptr,
                                                  new_arena.get()));
    std::vector<int64_t> records;
    for (const auto& [global, d_delta] : overlay_->corners) {
      Cell local = CellSub(global, new_origin);
      bool in_domain = true;
      for (int i = 0; i < dims_; ++i) {
        const Coord c = local[static_cast<size_t>(i)];
        // Every live corner sits at or above the nonzero hull, which both
        // growth and shrink preserve; only the high face (== new_side) can
        // fall outside, and no in-domain query point dominates it.
        DDC_CHECK(c >= 0);
        in_domain = in_domain && c < new_side;
      }
      if (!in_domain) continue;
      const int64_t w = CornerWeight(t, local) * d_delta;
      if (w == 0) continue;
      records.insert(records.end(), local.begin(), local.end());
      records.push_back(w);
    }
    new_trees.back()->BuildFromCells(std::move(records));
  }
  overlay_->trees = std::move(new_trees);
  overlay_->arena = std::move(new_arena);
}

int64_t DynamicDataCube::StorageCells() const {
  int64_t cells = core_->StorageCells();
  if (overlay_ != nullptr) {
    for (const auto& tree : overlay_->trees) cells += tree->StorageCells();
  }
  return cells;
}

int64_t DynamicDataCube::Get(const Cell& cell) const {
  if (!InDomain(cell)) return 0;
  const Cell local = ToLocal(cell);
  return core_->Get(local) + OverlayValueLocal(local);
}

int64_t DynamicDataCube::PrefixSum(const Cell& cell) const {
  DDC_CHECK(InDomain(cell));
  obs::ScopedLatencyTimer timer(&PrefixSumNsHist());
  if (obs::Enabled()) QueryDepthHist().Record(core_->DescentLevels());
  if (obs::CostLedger* l = obs::ActiveLedger()) {
    l->tree_depth = std::max(
        l->tree_depth, static_cast<int64_t>(core_->DescentLevels()));
  }
  const Cell local = ToLocal(cell);
  return core_->PrefixSum(local) + OverlayPrefixLocal(local);
}

int64_t DynamicDataCube::RangeSum(const Box& box) const {
  if (obs::Enabled()) {
    obs::WorkloadRecorder::Default().RecordRead(box.lo.data(),
                                                box.hi.data(), dims_);
  }
  return CubeInterface::RangeSum(box);
}

void DynamicDataCube::RangeSumBatch(std::span<const Box> ranges,
                                    std::span<int64_t> out) const {
  DDC_CHECK(ranges.size() == out.size());
  if (ranges.empty()) return;
  obs::TraceSpan span("ddc.range_sum_batch",
                      static_cast<int64_t>(ranges.size()));
  if (obs::Enabled()) {
    obs::WorkloadRecorder::BatchScope scope(obs::WorkloadRecorder::Default(),
                                            /*mutations=*/false, dims_);
    for (const Box& r : ranges) {
      scope.Record(r.lo.data(), r.hi.data());
    }
  }

  // Phase 1: decompose every (clipped) range into signed corner terms,
  // deduplicating corners across the whole batch. A rollup's adjacent
  // slices share half their corners (next.lo - 1 == prev.hi), so the
  // number of distinct prefix sums is typically far below 2^d per range.
  struct Term {
    size_t query;
    size_t corner;  // Index into `corners`.
    int sign;
  };
  std::vector<Cell> corners;
  std::vector<Term> terms;
  std::unordered_map<Cell, size_t, CellHash> corner_index;
  const Box domain{DomainLo(), DomainHi()};
  const int d = dims_;
  const uint32_t num_corners = 1u << d;
  corners.reserve(ranges.size() * num_corners);
  terms.reserve(ranges.size() * num_corners);
  corner_index.reserve(ranges.size() * num_corners);
  Cell corner(static_cast<size_t>(d));
  for (size_t q = 0; q < ranges.size(); ++q) {
    out[q] = 0;
    const Box clipped = IntersectBoxes(ranges[q], domain);
    if (clipped.IsEmpty()) continue;
    for (uint32_t mask = 0; mask < num_corners; ++mask) {
      // Bit i set: take lo[i]-1 in dimension i; clear: take hi[i].
      bool below_anchor = false;
      for (int i = 0; i < d; ++i) {
        size_t ui = static_cast<size_t>(i);
        if (mask & (1u << i)) {
          corner[ui] = clipped.lo[ui] - 1;
          if (corner[ui] < domain.lo[ui]) {
            below_anchor = true;
            break;
          }
        } else {
          corner[ui] = clipped.hi[ui];
        }
      }
      if (below_anchor) continue;  // Empty prefix region contributes zero.
      const Cell local = ToLocal(corner);
      auto [it, inserted] = corner_index.try_emplace(local, corners.size());
      if (inserted) corners.push_back(local);
      terms.push_back(
          {q, it->second, (std::popcount(mask) % 2 == 0) ? 1 : -1});
    }
  }

  // Phase 2: resolve every unique corner in one shared descent.
  if (obs::Enabled()) {
    BatchSizeHist().Record(static_cast<int64_t>(ranges.size()));
    BatchCornerTerms().Add(static_cast<int64_t>(terms.size()));
    // Corners the dedup map collapsed: descents the batch did NOT pay for.
    BatchCornersDeduped().Add(
        static_cast<int64_t>(terms.size() - corners.size()));
    span.set_arg1(static_cast<int64_t>(corners.size()));
  }
  if (obs::CostLedger* l = obs::ActiveLedger()) {
    l->corner_terms += static_cast<int64_t>(terms.size());
    l->unique_corners += static_cast<int64_t>(corners.size());
    l->corners_deduped +=
        static_cast<int64_t>(terms.size() - corners.size());
    if (overlay_ != nullptr && !corners.empty()) {
      l->overlay_terms += static_cast<int64_t>(overlay_->trees.size());
    }
    l->tree_depth = std::max(
        l->tree_depth, static_cast<int64_t>(core_->DescentLevels()));
  }
  std::vector<int64_t> prefix(corners.size());
  core_->PrefixSumBatch(corners, prefix);
  // The overlay's contribution to each unique corner rides the same
  // dedup: one extra batched descent per overlay tree.
  OverlayPrefixBatchLocal(corners, prefix);

  // Phase 3: recombine.
  for (const Term& t : terms) {
    out[t.query] += t.sign * prefix[t.corner];
  }
}

DynamicDataCube::RangeSumPlan DynamicDataCube::PlanRangeSumBatch(
    std::span<const Box> ranges) const {
  // Phase 1 of RangeSumBatch, count-only: same clipping, same skip rules,
  // same dedup keying — so the plan matches what an execution would record
  // — but no descent and no counter/recorder traffic.
  RangeSumPlan plan;
  plan.descent_levels = core_->DescentLevels();
  if (overlay_ != nullptr) {
    plan.overlay_trees = static_cast<int64_t>(overlay_->trees.size());
  }
  const Box domain{DomainLo(), DomainHi()};
  const int d = dims_;
  const uint32_t num_corners = 1u << d;
  std::unordered_set<Cell, CellHash> unique;
  Cell corner(static_cast<size_t>(d));
  for (const Box& range : ranges) {
    const Box clipped = IntersectBoxes(range, domain);
    if (clipped.IsEmpty()) continue;
    ++plan.ranges;
    for (uint32_t mask = 0; mask < num_corners; ++mask) {
      bool below_anchor = false;
      for (int i = 0; i < d; ++i) {
        size_t ui = static_cast<size_t>(i);
        if (mask & (1u << i)) {
          corner[ui] = clipped.lo[ui] - 1;
          if (corner[ui] < domain.lo[ui]) {
            below_anchor = true;
            break;
          }
        } else {
          corner[ui] = clipped.hi[ui];
        }
      }
      if (below_anchor) continue;
      ++plan.corner_terms;
      if (unique.insert(ToLocal(corner)).second) ++plan.unique_corners;
    }
  }
  plan.corners_deduped = plan.corner_terms - plan.unique_corners;
  if (plan.unique_corners == 0) plan.overlay_trees = 0;
  return plan;
}

void DynamicDataCube::SetNodeVisitListener(
    DdcCore::NodeVisitListener listener) {
  node_visit_listener_ = std::move(listener);
  ReattachListener();
}

void DynamicDataCube::ReattachListener() {
  core_->set_node_visit_listener(
      node_visit_listener_ ? &node_visit_listener_ : nullptr);
}

void DynamicDataCube::ForEachNonZero(
    const std::function<void(const Cell&, int64_t)>& fn) const {
  if (overlay_ == nullptr) {
    core_->ForEachNonZero([&](const Cell& local, int64_t value) {
      fn(CellAdd(local, origin_), value);
    });
    return;
  }
  // Logical enumeration = primary nonzero cells with the overlay folded in,
  // plus journal-box cells the primary tree does not hold. Each cell is
  // emitted at most once; cells whose two layers cancel are skipped.
  std::unordered_set<Cell, CellHash> seen;
  core_->ForEachNonZero([&](const Cell& local, int64_t value) {
    seen.insert(local);
    const int64_t v = value + OverlayValueLocal(local);
    if (v != 0) fn(CellAdd(local, origin_), v);
  });
  const Box local_domain{UniformCell(dims_, 0),
                         UniformCell(dims_, side() - 1)};
  for (const Box& box : overlay_->boxes) {
    const Box local_box{ToLocal(box.lo), ToLocal(box.hi)};
    // Journal boxes can poke outside the domain after a shrink; the
    // clipped-away region is provably zero (shrink keeps the corner hull).
    const Box clipped = IntersectBoxes(local_box, local_domain);
    ForEachCellInBox(clipped, [&](const Cell& local) {
      if (!seen.insert(local).second) return;
      const int64_t v = OverlayValueLocal(local);
      if (v != 0) fn(CellAdd(local, origin_), v);
    });
  }
}

}  // namespace ddc
