#include "ddc/ddc_core.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/kernels.h"

namespace ddc {

namespace {

// Drops coordinate `skip_dim`, yielding the transverse position used to
// index a face store.
Cell Transverse(const Cell& offset, int skip_dim) {
  Cell out;
  out.reserve(offset.size() - 1);
  for (size_t i = 0; i < offset.size(); ++i) {
    if (static_cast<int>(i) == skip_dim) continue;
    out.push_back(offset[i]);
  }
  return out;
}

// Allocation-free variant for the batched descent's hot loop: writes the
// transverse position into a caller-owned buffer that keeps its capacity
// across calls.
void TransverseInto(const Cell& offset, int skip_dim, Cell& out) {
  out.clear();
  for (size_t i = 0; i < offset.size(); ++i) {
    if (static_cast<int>(i) == skip_dim) continue;
    out.push_back(offset[i]);
  }
}

// Counting-sorts `items` (each carrying a `home` child mask) so every
// child's items form one contiguous run, using the caller's reusable
// scratch buffers. Shared by the batched query and batched update descents.
template <typename Item>
void CountingSortByHome(std::span<Item> items, std::vector<Item>& sorted,
                        std::vector<size_t>& begin,
                        std::vector<size_t>& cursor, uint32_t num_children) {
  std::fill(begin.begin(), begin.end(), size_t{0});
  for (const Item& item : items) ++begin[item.home + 1];
  for (uint32_t m = 0; m < num_children; ++m) begin[m + 1] += begin[m];
  sorted.resize(items.size());
  std::copy(begin.begin(), begin.end() - 1, cursor.begin());
  for (size_t q = 0; q < items.size(); ++q) {
    sorted[cursor[items[q].home]++] = std::move(items[q]);
  }
  std::move(sorted.begin(), sorted.end(), items.begin());
}

}  // namespace

// Thread-local scratch for the const batched-query descent: capacity
// persists across PrefixSumBatch calls (and across the cubes one thread
// serves), so steady-state batches run allocation-free. `busy` falls back
// to a fresh local scratch on reentrancy instead of corrupting a walk.
struct DdcCore::BatchTls {
  BatchScratch scratch;
  std::vector<BatchItem> items;
  bool busy = false;
};

DdcCore::BatchTls& DdcCore::GetBatchTls() {
  thread_local BatchTls tls;
  return tls;
}

size_t DdcCore::update_scratch_bytes() const {
  return update_items_.capacity() * sizeof(UpdateItem) +
         update_scratch_.sorted.capacity() * sizeof(UpdateItem) +
         update_scratch_.begin.capacity() * sizeof(size_t) +
         update_scratch_.cursor.capacity() * sizeof(size_t) +
         update_scratch_.deltas.capacity() * sizeof(int64_t);
}

obs::Counter& DdcCore::ObsValuesRead() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.values_read");
  return c;
}

obs::Counter& DdcCore::ObsValuesWritten() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.values_written");
  return c;
}

obs::Counter& DdcCore::ObsNodesVisited() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.nodes_visited");
  return c;
}

obs::Counter& DdcCore::ObsFaceLookups() {
  static obs::Counter& c =
      *obs::MetricsRegistry::Default().GetCounter("ddc.face_lookups");
  return c;
}

DdcCore::DdcCore(int dims, int64_t side, const DdcOptions& options,
                 OpCounters* counters, Arena* arena)
    : dims_(dims), side_(side), options_(options), counters_(counters) {
  DDC_CHECK(dims_ >= 1 && dims_ <= kMaxDims);
  DDC_CHECK(side_ >= 2 && IsPowerOfTwo(side_));
  DDC_CHECK(options_.elide_levels >= 0 && options_.elide_levels < 62);
  num_children_ = 1u << dims_;
  // Side 2^(h+1), clamped to the cube side and to the leaf-block cell
  // budget, but never below 2 (the paper's full tree).
  leaf_bits_ = std::min({options_.elide_levels + 1, FloorLog2(side_),
                         std::max(1, kLeafBlockBudgetBits / dims_)});
  min_box_side_ = int64_t{1} << leaf_bits_;
  leaf_cells_ = int64_t{1} << (leaf_bits_ * dims_);
  // Nested face cores inherit this leaf side: with one dimension fewer
  // they would otherwise take larger blocks than the cube they serve.
  options_.elide_levels = leaf_bits_ - 1;
  if (arena == nullptr) {
    owned_arena_ = std::make_unique<Arena>();
    arena = owned_arena_.get();
  }
  arena_ = arena;
}

DdcCore::Node* DdcCore::EnsureNode(Node** slot) {
  if (*slot == nullptr) {
    Node* node = arena_->Create<Node>();
    node->boxes = arena_->CreateArray<BoxData>(num_children_);
    *slot = node;
  }
  return *slot;
}

DdcCore::BoxData* DdcCore::EnsureBox(Node* node, uint32_t mask,
                                     int64_t box_side) {
  BoxData* box = &node->boxes[mask];
  if (!box->present) {
    box->present = true;
    if (dims_ > 1) {
      box->faces = arena_->CreateArray<FaceStore>(static_cast<size_t>(dims_));
      for (int j = 0; j < dims_; ++j) {
        box->faces[j].Init(arena_, dims_ - 1, box_side, options_, counters_);
      }
    }
  }
  return box;
}

int64_t* DdcCore::NewLeafBlock() {
  const size_t bytes = static_cast<size_t>(leaf_cells_) * sizeof(int64_t);
  void* block = arena_->Allocate(bytes, std::min(bytes, Arena::kMaxAlign));
  std::memset(block, 0, bytes);
  return static_cast<int64_t*>(block);
}

int64_t* DdcCore::EnsureRaw(Node* node, uint32_t mask) {
  if (node->child_raw == nullptr) {
    node->child_raw = arena_->CreateArray<int64_t*>(num_children_);
  }
  int64_t*& slot = node->child_raw[mask];
  if (slot == nullptr) slot = NewLeafBlock();
  return slot;
}

void DdcCore::Add(const Cell& cell, int64_t delta) {
  DDC_DCHECK(static_cast<int>(cell.size()) == dims_);
  if (delta == 0) return;
  total_ += delta;
  if (side_ <= min_box_side_) {
    if (root_raw_ == nullptr) root_raw_ = NewLeafBlock();
    CountNode(root_raw_);
    root_raw_[LeafIndex(cell)] += delta;
    CountWrite(1);
    return;
  }
  EnsureNode(&root_);
  AddRec(root_, side_, cell, delta);
}

void DdcCore::AddRec(Node* node, int64_t node_side,
                     const Cell& offset_in_node, int64_t delta) {
  CountNode(node);
  const int64_t k = node_side / 2;
  uint32_t mask = 0;
  Cell box_offset = offset_in_node;
  for (int i = 0; i < dims_; ++i) {
    size_t ui = static_cast<size_t>(i);
    if (box_offset[ui] >= k) {
      mask |= 1u << i;
      box_offset[ui] -= k;
    }
  }

  BoxData* box = EnsureBox(node, mask, k);
  box->subtotal += delta;
  CountWrite(1);
  // One point update per row-sum group: the dimension-j line sum through the
  // updated cell changes by delta (Section 4.2).
  for (int j = 0; j < dims_ && dims_ > 1; ++j) {
    box->faces[j].Add(Transverse(box_offset, j), delta);
  }

  if (k > min_box_side_) {
    if (node->child_nodes == nullptr) {
      node->child_nodes = arena_->CreateArray<Node*>(num_children_);
    }
    Node* child = EnsureNode(&node->child_nodes[mask]);
    AddRec(child, k, box_offset, delta);
  } else {
    int64_t* raw = EnsureRaw(node, mask);
    CountNode(raw);
    raw[LeafIndex(box_offset)] += delta;
    CountWrite(1);
  }
}

void DdcCore::AddBatch(std::span<const Cell> cells,
                       std::span<const int64_t> deltas) {
  DDC_CHECK(cells.size() == deltas.size());
  if (cells.empty()) return;
  if (side_ <= min_box_side_) {
    // Whole cube is one leaf block: the batch costs one block visit.
    bool touched = false;
    for (size_t q = 0; q < cells.size(); ++q) {
      DDC_DCHECK(static_cast<int>(cells[q].size()) == dims_);
      if (deltas[q] == 0) continue;
      if (root_raw_ == nullptr) root_raw_ = NewLeafBlock();
      if (!touched) {
        CountNode(root_raw_);
        touched = true;
      }
      total_ += deltas[q];
      root_raw_[LeafIndex(cells[q])] += deltas[q];
      CountWrite(1);
    }
    return;
  }
  // The items buffer and the counting-sort scratch are members: consecutive
  // batches on one cube (the ApplyBatch steady state) reuse the grown
  // capacity instead of paying a heap round-trip per batch.
  std::vector<UpdateItem>& items = update_items_;
  items.clear();
  items.reserve(cells.size());
  for (size_t q = 0; q < cells.size(); ++q) {
    DDC_DCHECK(static_cast<int>(cells[q].size()) == dims_);
    if (deltas[q] == 0) continue;
    total_ += deltas[q];
    items.push_back(UpdateItem{cells[q], deltas[q], 0});
  }
  if (items.empty()) return;
  EnsureNode(&root_);
  update_scratch_.begin.resize(num_children_ + 1);
  update_scratch_.cursor.resize(num_children_);
  AddBatchRec(root_, side_, items, update_scratch_);
}

void DdcCore::AddBatchRec(Node* node, int64_t node_side,
                          std::span<UpdateItem> items,
                          UpdateScratch& scratch) {
  // Once the descent has fanned out to a single item there is nothing left
  // to share; the plain point-update descent finishes the path without the
  // grouping machinery.
  if (items.size() == 1) {
    AddRec(node, node_side, items[0].offset, items[0].delta);
    return;
  }
  // The node (and its box array) is visited once for the whole group, as in
  // the batched query descent.
  CountNode(node);
  const int64_t k = node_side / 2;
  for (UpdateItem& item : items) {
    uint32_t mask = 0;
    for (int i = 0; i < dims_; ++i) {
      size_t ui = static_cast<size_t>(i);
      if (item.offset[ui] >= k) {
        mask |= 1u << i;
        item.offset[ui] -= k;
      }
    }
    item.home = mask;
  }
  CountingSortByHome(items, scratch.sorted, scratch.begin, scratch.cursor,
                     num_children_);

  // Contiguous per-item deltas in sorted order: each group's subtotal then
  // collapses to one vectorized block sum instead of a strided struct walk.
  // Only worth the extra pass while the node still holds a crowd; deeper
  // nodes with small groups keep the scalar loop.
  const bool use_delta_buffer = !kernels::UseScalar() && items.size() >= 32;
  if (use_delta_buffer) {
    scratch.deltas.resize(items.size());
    for (size_t q = 0; q < items.size(); ++q) {
      scratch.deltas[q] = items[q].delta;
    }
  }

  // Pass 1: every group's node-local writes (box subtotal + face adds)
  // before any recursion — the node's box array stays hot across groups,
  // and the delta buffer is free again for deeper nodes by the time pass 2
  // descends.
  size_t lo = 0;
  while (lo < items.size()) {
    const uint32_t mask = items[lo].home;
    size_t hi = lo + 1;
    while (hi < items.size() && items[hi].home == mask) ++hi;
    const auto group = items.subspan(lo, hi - lo);

    int64_t group_sum;
    if (use_delta_buffer) {
      group_sum = kernels::Sum(scratch.deltas.data() + lo, hi - lo);
    } else {
      group_sum = 0;
      for (const UpdateItem& item : group) group_sum += item.delta;
    }
    lo = hi;
    BoxData* box = EnsureBox(node, mask, k);
    box->subtotal += group_sum;  // One write absorbs the whole group.
    CountWrite(1);

    if (dims_ > 1) {
      // All updates sharing a dimension-j line land on one face cell
      // (Section 4.2), so a large group needs one FaceStore::Add per
      // distinct line, not per update. The accumulator map only pays for
      // itself on groups big enough to contain shared lines, though: its
      // clear() walks a bucket array sized by the largest group ever seen,
      // which would swamp the many small groups at deep levels.
      constexpr size_t kFaceAccMinGroup = 16;
      if (group.size() < kFaceAccMinGroup) {
        for (const UpdateItem& item : group) {
          for (int j = 0; j < dims_; ++j) {
            TransverseInto(item.offset, j, scratch.transverse);
            box->faces[j].Add(scratch.transverse, item.delta);
          }
        }
      } else {
        auto& acc = scratch.face_acc;
        for (int j = 0; j < dims_; ++j) {
          acc.clear();
          for (const UpdateItem& item : group) {
            // operator[] only copies the scratch key when the line is new;
            // repeat lines (the coalescing payoff) stay allocation-free.
            TransverseInto(item.offset, j, scratch.transverse);
            acc[scratch.transverse] += item.delta;
          }
          for (const auto& [line, line_delta] : acc) {
            if (line_delta != 0) box->faces[j].Add(line, line_delta);
          }
        }
      }
    }
  }

  // Pass 2: descend per group. Before one group's subtree runs, the next
  // group's level-(L+1) target is prefetched, so its miss latency overlaps
  // the current group's work.
  lo = 0;
  while (lo < items.size()) {
    const uint32_t mask = items[lo].home;
    size_t hi = lo + 1;
    while (hi < items.size() && items[hi].home == mask) ++hi;
    const auto group = items.subspan(lo, hi - lo);
    lo = hi;

    if (lo < items.size()) {
      const uint32_t next_mask = items[lo].home;
      if (k > min_box_side_) {
        if (node->child_nodes != nullptr) {
          kernels::PrefetchRead(node->child_nodes[next_mask]);
        }
      } else if (node->child_raw != nullptr) {
        kernels::PrefetchRead(node->child_raw[next_mask]);
      }
    }

    if (k > min_box_side_) {
      if (node->child_nodes == nullptr) {
        node->child_nodes = arena_->CreateArray<Node*>(num_children_);
      }
      Node* child = EnsureNode(&node->child_nodes[mask]);
      AddBatchRec(child, k, group, scratch);
    } else {
      int64_t* raw = EnsureRaw(node, mask);
      CountNode(raw);
      for (const UpdateItem& item : group) {
        raw[LeafIndex(item.offset)] += item.delta;
      }
      CountWrite(static_cast<int64_t>(group.size()));
    }
  }
}

// ---------------------------------------------------------------------------
// Bulk build.

namespace {

constexpr size_t kNoLists = static_cast<size_t>(-1);

// The builder order on `dims` local coordinates (see BuildFromCells): the
// highest differing tree bit decides, ties between dimensions going to the
// higher dimension; cells inside one leaf block compare row-major.
bool TreeLess(const int64_t* a, const int64_t* b, int dims, int low_bits) {
  if (dims == 1) return a[0] < b[0];
  uint64_t best = 0;
  int best_dim = -1;
  for (int i = 0; i < dims; ++i) {
    const uint64_t x =
        (static_cast<uint64_t>(a[i]) ^ static_cast<uint64_t>(b[i])) >>
        low_bits;
    // msb(x) >= msb(best): x is not below best's highest bit.
    if (x != 0 && !(x < best && x < (x ^ best))) {
      best = x;
      best_dim = i;
    }
  }
  if (best_dim >= 0) return a[best_dim] < b[best_dim];
  for (int i = 0; i < dims; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

}  // namespace

void DdcCore::BuildFromCells(std::vector<int64_t> records) {
  DDC_CHECK(total_ == 0 && root_ == nullptr && root_raw_ == nullptr);
  const size_t stride = static_cast<size_t>(dims_) + 1;
  DDC_CHECK(records.size() % stride == 0);
  OrderRecords(records);
  CellBuildScratch scratch(dims_);
  BuildFromSortedCells(records.data(), records.size() / stride, scratch);
}

void DdcCore::OrderRecords(std::vector<int64_t>& records) const {
  const size_t stride = static_cast<size_t>(dims_) + 1;
  const size_t n = records.size() / stride;
  const int low_bits = FloorLog2(min_box_side_);
  const auto less = [&](const int64_t* a, const int64_t* b) {
    return TreeLess(a, b, dims_, low_bits);
  };
  bool ordered = true;
  for (size_t q = 0; q < n; ++q) {
    const int64_t* r = records.data() + q * stride;
    for (int i = 0; i < dims_; ++i) DDC_CHECK(r[i] >= 0 && r[i] < side_);
    if (ordered && q > 0 && !less(r - stride, r)) ordered = false;
  }
  if (!ordered) {
    DDC_CHECK(n <= UINT32_MAX);
    std::vector<uint32_t> order(n);
    const int64_t* base = records.data();
    const int side_bits = FloorLog2(side_);
    if (dims_ * side_bits <= 64) {
      // The builder order as one integer: the tree bits interleaved level
      // by level (dimension dims-1 first), then the leaf-block offsets
      // row-major. On the durable_ingest restart (2-D, range-add overlay
      // cells out of order) this sort keeps recovery_s about 15% below
      // the comparator sort's; DESIGN.md §10 has the measurement.
      std::vector<std::pair<uint64_t, uint32_t>> keyed(n);
      for (size_t q = 0; q < n; ++q) {
        const int64_t* r = base + q * stride;
        uint64_t key = 0;
        for (int b = side_bits - 1; b >= low_bits; --b) {
          for (int i = dims_ - 1; i >= 0; --i) {
            key = (key << 1) | ((static_cast<uint64_t>(r[i]) >> b) & 1u);
          }
        }
        for (int i = 0; i < dims_; ++i) {
          key = (key << low_bits) |
                static_cast<uint64_t>(r[i] & (min_box_side_ - 1));
        }
        keyed[q] = {key, static_cast<uint32_t>(q)};
      }
      std::sort(keyed.begin(), keyed.end());
      for (size_t q = 0; q < n; ++q) order[q] = keyed[q].second;
    } else {
      for (size_t q = 0; q < n; ++q) order[q] = static_cast<uint32_t>(q);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return less(base + a * stride, base + b * stride);
      });
    }
    std::vector<int64_t> sorted(records.size());
    for (size_t q = 0; q < n; ++q) {
      std::copy_n(base + order[q] * stride, stride,
                  sorted.data() + q * stride);
    }
    records.swap(sorted);
  }
  // Repeats are now adjacent: sum them, and drop cells that sum to zero.
  size_t kept = 0;
  for (size_t q = 0; q < n;) {
    const int64_t* r = records.data() + q * stride;
    int64_t sum = r[dims_];
    size_t next = q + 1;
    for (; next < n; ++next) {
      const int64_t* s = records.data() + next * stride;
      if (!std::equal(r, r + dims_, s)) break;
      sum += s[dims_];
    }
    if (sum != 0) {
      int64_t* out = records.data() + kept * stride;
      if (kept != q) std::copy_n(r, dims_, out);
      out[dims_] = sum;
      ++kept;
    }
    q = next;
  }
  records.resize(kept * stride);
}

void DdcCore::BuildFromSortedCells(const int64_t* records, size_t count,
                                   CellBuildScratch& scratch) {
  DDC_CHECK(total_ == 0 && root_ == nullptr && root_raw_ == nullptr);
  if (count == 0) return;
  const size_t stride = static_cast<size_t>(dims_) + 1;
  for (size_t q = 0; q < count; ++q) {
    DDC_DCHECK(q == 0 || TreeLess(records + (q - 1) * stride,
                                  records + q * stride, dims_,
                                  FloorLog2(min_box_side_)));
    total_ += records[q * stride + dims_];
  }
  if (side_ <= min_box_side_) {
    root_raw_ = NewLeafBlock();
    FillRawBlock(root_raw_, records, count);
    return;
  }
  EnsureNode(&root_);
  BuildNodeFromCells(root_, side_, records, count, scratch,
                     /*want_lists=*/false);
}

void DdcCore::BuildNodeFromCells(Node* node, int64_t node_side,
                                 const int64_t* records, size_t count,
                                 CellBuildScratch& scratch, bool want_lists) {
  CountNode(node);
  const int64_t k = node_side / 2;
  const size_t stride = static_cast<size_t>(dims_) + 1;
  const auto home = [&](const int64_t* r) {
    uint32_t mask = 0;
    for (int i = 0; i < dims_; ++i) {
      if (r[i] & k) mask |= 1u << i;
    }
    return mask;
  };
  std::vector<size_t>& box_lists =
      scratch.levels[static_cast<size_t>(dims_)].box_lists;
  const size_t lists_base = box_lists.size();
  if (want_lists) box_lists.resize(lists_base + num_children_, kNoLists);
  // Builder order keeps each child's records contiguous.
  size_t lo = 0;
  while (lo < count) {
    const uint32_t mask = home(records + lo * stride);
    size_t hi = lo + 1;
    while (hi < count && home(records + hi * stride) == mask) ++hi;
    const size_t lists = BuildBoxFromCells(node, mask, k, records + lo * stride,
                                           hi - lo, scratch, want_lists);
    if (want_lists) box_lists[lists_base + mask] = lists;
    lo = hi;
  }
  if (want_lists) {
    MergeBoxLists(k, lists_base, scratch);
    box_lists.resize(lists_base);
  }
}

size_t DdcCore::BuildBoxFromCells(Node* node, uint32_t mask, int64_t k,
                                  const int64_t* records, size_t count,
                                  CellBuildScratch& scratch, bool keep_lists) {
  const size_t stride = static_cast<size_t>(dims_) + 1;
  BoxData* box = EnsureBox(node, mask, k);
  int64_t subtotal = 0;
  for (size_t q = 0; q < count; ++q) subtotal += records[q * stride + dims_];
  box->subtotal = subtotal;
  CountWrite(1);

  std::vector<int64_t>& pool = scratch.levels[static_cast<size_t>(dims_)].pool;
  const size_t lists = pool.size();
  if (k > min_box_side_) {
    if (node->child_nodes == nullptr) {
      node->child_nodes = arena_->CreateArray<Node*>(num_children_);
    }
    Node* child = EnsureNode(&node->child_nodes[mask]);
    // A lone cell's line sums are its own projections; a crowd's are the
    // child boxes' lists merged on the way back up. (Projecting and
    // sorting every box's records instead, as leaf boxes do, made restarts
    // about 50-60% slower; DESIGN.md §10.)
    const bool merge = dims_ > 1 && count > 1;
    BuildNodeFromCells(child, k, records, count, scratch, merge);
    if (dims_ > 1 && !merge) AppendLeafLists(records, count, k, scratch);
  } else {
    FillRawBlock(EnsureRaw(node, mask), records, count);
    if (dims_ > 1) AppendLeafLists(records, count, k, scratch);
  }
  if (dims_ == 1) return kNoLists;

  // The faces read the lists in place: nested face cores build on their
  // own (d-1)-dimensional pool, so this one stays put.
  size_t at = lists + static_cast<size_t>(dims_);
  for (int j = 0; j < dims_; ++j) {
    const size_t n = static_cast<size_t>(pool[lists + static_cast<size_t>(j)]);
    box->faces[j].BuildFromSorted(pool.data() + at, n, scratch);
    at += n * static_cast<size_t>(dims_);
  }
  if (!keep_lists) pool.resize(lists);
  return lists;
}

void DdcCore::FillRawBlock(int64_t* raw, const int64_t* records,
                           size_t count) {
  CountNode(raw);
  const size_t stride = static_cast<size_t>(dims_) + 1;
  for (size_t q = 0; q < count; ++q) {
    const int64_t* r = records + q * stride;
    int64_t index = 0;
    for (int i = 0; i < dims_; ++i) {
      index = (index << leaf_bits_) | (r[i] & (min_box_side_ - 1));
    }
    DDC_DCHECK(raw[index] == 0);  // Records are distinct.
    raw[index] = r[dims_];
  }
  CountWrite(leaf_cells_);
}

void DdcCore::AppendLeafLists(const int64_t* records, size_t count, int64_t k,
                              CellBuildScratch& scratch) const {
  CellBuildScratch::Level& level = scratch.levels[static_cast<size_t>(dims_)];
  std::vector<int64_t>& pool = level.pool;
  const size_t stride = static_cast<size_t>(dims_) + 1;
  const size_t entry = static_cast<size_t>(dims_);  // d-1 coords + sum.
  const int tdims = dims_ - 1;
  const int low_bits = FloorLog2(min_box_side_);
  const size_t head = pool.size();
  if (count == 1) {
    // A lone cell: each face holds its projection, already in order.
    pool.resize(head + static_cast<size_t>(dims_), 1);
    for (int j = 0; j < dims_; ++j) {
      for (int i = 0; i < dims_; ++i) {
        if (i != j) pool.push_back(records[i] & (k - 1));
      }
      pool.push_back(records[dims_]);
    }
    return;
  }
  pool.resize(head + static_cast<size_t>(dims_), 0);
  for (int j = 0; j < dims_; ++j) {
    // Project onto face j, order, and sum the entries sharing a line.
    level.leaf.clear();
    for (size_t q = 0; q < count; ++q) {
      const int64_t* r = records + q * stride;
      for (int i = 0; i < dims_; ++i) {
        if (i != j) level.leaf.push_back(r[i] & (k - 1));
      }
      level.leaf.push_back(r[dims_]);
    }
    level.order.resize(count);
    for (size_t q = 0; q < count; ++q) level.order[q] = static_cast<uint32_t>(q);
    const int64_t* leaf = level.leaf.data();
    std::sort(level.order.begin(), level.order.end(),
              [&](uint32_t a, uint32_t b) {
                return TreeLess(leaf + a * entry, leaf + b * entry, tdims,
                                low_bits);
              });
    int64_t emitted = 0;
    size_t last = kNoLists;  // Pool offset of the entry being summed.
    for (uint32_t q : level.order) {
      const int64_t* e = leaf + q * entry;
      if (last != kNoLists &&
          std::equal(e, e + tdims, pool.data() + last)) {
        pool[last + static_cast<size_t>(tdims)] += e[tdims];
        continue;
      }
      if (last != kNoLists && pool[last + static_cast<size_t>(tdims)] == 0) {
        pool.resize(last);  // The previous line summed to zero.
        --emitted;
      }
      last = pool.size();
      pool.insert(pool.end(), e, e + entry);
      ++emitted;
    }
    if (last != kNoLists && pool[last + static_cast<size_t>(tdims)] == 0) {
      pool.resize(last);
      --emitted;
    }
    pool[head + static_cast<size_t>(j)] = emitted;
  }
}

void DdcCore::MergeBoxLists(int64_t k, size_t lists_base,
                            CellBuildScratch& scratch) const {
  CellBuildScratch::Level& level = scratch.levels[static_cast<size_t>(dims_)];
  std::vector<int64_t>& pool = level.pool;
  const std::vector<size_t>& box_lists = level.box_lists;
  const size_t d = static_cast<size_t>(dims_);
  const size_t entry = d;
  const int tdims = dims_ - 1;
  const int low_bits = FloorLog2(min_box_side_);

  // Where list j of box `mask` starts, and its length.
  const auto list = [&](uint32_t mask, int j) -> std::pair<size_t, size_t> {
    const size_t base = box_lists[lists_base + mask];
    if (base == kNoLists) return {0, 0};
    size_t at = base + d;
    for (int i = 0; i < j; ++i) {
      at += static_cast<size_t>(pool[base + static_cast<size_t>(i)]) * entry;
    }
    return {at, static_cast<size_t>(pool[base + static_cast<size_t>(j)])};
  };
  size_t first = kNoLists;
  size_t bound = d;
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    const size_t base = box_lists[lists_base + mask];
    if (base == kNoLists) continue;
    first = std::min(first, base);
    for (int j = 0; j < dims_; ++j) bound += list(mask, j).second * entry;
  }
  DDC_DCHECK(first != kNoLists);
  // Merged output goes past the box lists, written through a pointer into
  // room sized by the bound (the inputs sit below it, so they stay put).
  const size_t out = pool.size();
  pool.resize(out + bound);
  int64_t* w = pool.data() + out + d;
  const uint32_t num_transverse = num_children_ / 2;
  for (int j = 0; j < dims_; ++j) {
    const int64_t* list_begin = w;
    // Transverse child digits in ascending order; the two boxes that differ
    // only along j cover the same lines and merge.
    for (uint32_t t = 0; t < num_transverse; ++t) {
      const uint32_t low = t & ((1u << j) - 1);
      const uint32_t m0 = low | ((t >> j) << (j + 1));
      auto [a_at, a_n] = list(m0, j);
      auto [b_at, b_n] = list(m0 | (1u << j), j);
      const int64_t* a = pool.data() + a_at;
      const int64_t* b = pool.data() + b_at;
      const int64_t* a_end = a + a_n * entry;
      const int64_t* b_end = b + b_n * entry;
      const auto emit = [&](const int64_t* e, int64_t sum) {
        if (sum == 0) return;
        for (int p = 0; p < tdims; ++p) *w++ = e[p] + ((t >> p) & 1u ? k : 0);
        *w++ = sum;
      };
      while (a != a_end && b != b_end) {
        if (TreeLess(a, b, tdims, low_bits)) {
          emit(a, a[tdims]);
          a += entry;
        } else if (TreeLess(b, a, tdims, low_bits)) {
          emit(b, b[tdims]);
          b += entry;
        } else {
          emit(a, a[tdims] + b[tdims]);
          a += entry;
          b += entry;
        }
      }
      for (; a != a_end; a += entry) emit(a, a[tdims]);
      for (; b != b_end; b += entry) emit(b, b[tdims]);
    }
    pool[out + static_cast<size_t>(j)] =
        static_cast<int64_t>(w - list_begin) / static_cast<int64_t>(entry);
  }
  pool.resize(static_cast<size_t>(w - pool.data()));
  // Move the region's lists down over the box lists they replace.
  const size_t merged = pool.size() - out;
  std::copy(pool.begin() + static_cast<std::ptrdiff_t>(out), pool.end(),
            pool.begin() + static_cast<std::ptrdiff_t>(first));
  pool.resize(first + merged);
}

int64_t DdcCore::PrefixSum(const Cell& cell) const {
  DDC_DCHECK(static_cast<int>(cell.size()) == dims_);
  if (root_raw_ != nullptr) return RawPrefix(root_raw_, cell);
  if (root_ == nullptr) return 0;
  return PrefixSumRec(root_, side_, cell);
}

int64_t DdcCore::PrefixSumRec(const Node* node, int64_t node_side,
                              const Cell& offset_in_node) const {
  CountNode(node);
  const int64_t k = node_side / 2;
  int64_t sum = 0;
  Cell clamped(static_cast<size_t>(dims_));
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    if (!node->boxes[mask].present) continue;  // All-zero region.
    // Classify the target against this box (Figure 10): before the box in
    // some dimension -> no contribution; covered -> descend; completely
    // after -> subtotal; otherwise one row-sum value.
    bool before = false;
    bool covered = true;
    int first_beyond = -1;
    for (int i = 0; i < dims_; ++i) {
      size_t ui = static_cast<size_t>(i);
      const Coord rel =
          offset_in_node[ui] - ((mask & (1u << i)) ? k : 0);
      if (rel < 0) {
        before = true;
        break;
      }
      if (rel >= k) {
        covered = false;
        clamped[ui] = k - 1;
        if (first_beyond < 0) first_beyond = i;
      } else {
        clamped[ui] = rel;
      }
    }
    if (before) continue;

    if (covered) {
      if (k <= min_box_side_) {
        // Raw leaf block: sum the covered prefix of A cells directly (the
        // Section 4.4 compensation for the elided levels).
        const int64_t* raw =
            node->child_raw != nullptr ? node->child_raw[mask] : nullptr;
        DDC_DCHECK(raw != nullptr);
        sum += RawPrefix(raw, clamped);
      } else {
        const Node* child =
            node->child_nodes != nullptr ? node->child_nodes[mask] : nullptr;
        DDC_DCHECK(child != nullptr);
        sum += PrefixSumRec(child, k, clamped);
      }
      continue;
    }

    if (first_beyond >= 0) {
      // When the clamped offset is the all-maxed corner the needed stored
      // value is the subtotal S itself; serve it from the O(1) cache (this
      // subsumes the paper's "target completely after the box" case).
      bool all_maxed = true;
      for (int i = 0; i < dims_; ++i) {
        if (clamped[static_cast<size_t>(i)] != k - 1) {
          all_maxed = false;
          break;
        }
      }
      if (all_maxed || dims_ == 1) {
        sum += node->boxes[mask].subtotal;
        CountRead(1);
      } else {
        // The needed row-sum value has coordinate first_beyond maxed; read
        // it from that face as a (d-1)-dimensional prefix query.
        CountFaceLookup();
        sum += node->boxes[mask].faces[first_beyond].PrefixSum(
            Transverse(clamped, first_beyond));
      }
    }
  }
  return sum;
}

void DdcCore::PrefixSumBatch(std::span<const Cell> cells,
                             std::span<int64_t> out) const {
  DDC_CHECK(cells.size() == out.size());
  if (cells.empty()) return;
  if (root_raw_ != nullptr) {
    for (size_t q = 0; q < cells.size(); ++q) {
      DDC_DCHECK(static_cast<int>(cells[q].size()) == dims_);
      out[q] = RawPrefix(root_raw_, cells[q]);
    }
    return;
  }
  if (root_ == nullptr) {
    std::fill(out.begin(), out.end(), int64_t{0});
    return;
  }
  // PrefixSumBatch is const (ConcurrentCube runs it from parallel readers),
  // so reusable scratch lives in thread-local storage rather than in the
  // cube. The busy flag covers reentrancy (a nested cube's batch issued
  // from inside an outer batch): the inner call falls back to fresh local
  // buffers instead of clobbering the outer call's scratch.
  BatchTls& tls = GetBatchTls();
  BatchTls local;
  BatchTls& use = tls.busy ? local : tls;
  use.busy = true;
  std::vector<BatchItem>& items = use.items;
  items.resize(cells.size());
  for (size_t q = 0; q < cells.size(); ++q) {
    DDC_DCHECK(static_cast<int>(cells[q].size()) == dims_);
    out[q] = 0;
    items[q].offset = cells[q];
    items[q].out = &out[q];
  }
  BatchScratch& scratch = use.scratch;
  scratch.begin.resize(num_children_ + 1);
  scratch.cursor.resize(num_children_);
  scratch.clamped.resize(static_cast<size_t>(dims_));
  PrefixSumBatchRec(root_, side_, items, scratch);
  use.busy = false;
}

void DdcCore::PrefixSumBatchRec(const Node* node, int64_t node_side,
                                std::span<BatchItem> items,
                                BatchScratch& scratch) const {
  // The node (and its box array) is visited once for the whole group — this
  // shared visit is the point of batching.
  CountNode(node);
  const int64_t k = node_side / 2;
  Cell& clamped = scratch.clamped;
  for (size_t q = 0; q < items.size(); ++q) {
    BatchItem& item = items[q];
    // The child containing the target: exactly the mask whose box classifies
    // as "covered" in the Figure 10 walk.
    uint32_t home_mask = 0;
    for (int i = 0; i < dims_; ++i) {
      if (item.offset[static_cast<size_t>(i)] >= k) home_mask |= 1u << i;
    }
    item.home = home_mask;

    // Accumulate this item's contributions from every other present box
    // (before / partial / completely-after), as in PrefixSumRec.
    for (uint32_t mask = 0; mask < num_children_; ++mask) {
      if (mask == home_mask || !node->boxes[mask].present) continue;
      bool before = false;
      int first_beyond = -1;
      for (int i = 0; i < dims_; ++i) {
        size_t ui = static_cast<size_t>(i);
        const Coord rel =
            item.offset[ui] - ((mask & (1u << i)) ? k : 0);
        if (rel < 0) {
          before = true;
          break;
        }
        if (rel >= k) {
          clamped[ui] = k - 1;
          if (first_beyond < 0) first_beyond = i;
        } else {
          clamped[ui] = rel;
        }
      }
      if (before) continue;
      DDC_DCHECK(first_beyond >= 0);  // mask != home_mask => not covered.
      bool all_maxed = true;
      for (int i = 0; i < dims_; ++i) {
        if (clamped[static_cast<size_t>(i)] != k - 1) {
          all_maxed = false;
          break;
        }
      }
      if (all_maxed || dims_ == 1) {
        *item.out += node->boxes[mask].subtotal;
        CountRead(1);
      } else {
        CountFaceLookup();
        TransverseInto(clamped, first_beyond, scratch.transverse);
        *item.out += node->boxes[mask].faces[first_beyond].PrefixSum(
            scratch.transverse);
      }
    }

    // Rebase the offset into home-child coordinates for the descent.
    for (int i = 0; i < dims_; ++i) {
      if (home_mask & (1u << i)) item.offset[static_cast<size_t>(i)] -= k;
    }
  }

  // Counting sort the group by home child so each child is descended once,
  // with its queries contiguous. The scratch buffers are free again by the
  // time the recursion below re-enters this function. A one-item group is
  // already sorted — deep levels are dominated by them, so skipping the
  // sort there matters.
  if (items.size() > 1) {
    CountingSortByHome(items, scratch.sorted, scratch.begin, scratch.cursor,
                       num_children_);
  }

  // Groups are contiguous runs of equal `home`; rediscover them by scanning
  // (begin/cursor are clobbered once the recursion reuses the scratch).
  size_t lo = 0;
  while (lo < items.size()) {
    const uint32_t mask = items[lo].home;
    size_t hi = lo + 1;
    while (hi < items.size() && items[hi].home == mask) ++hi;
    auto group = items.subspan(lo, hi - lo);
    lo = hi;

    // Prefetch the next group's level-(L+1) target so its cache miss
    // overlaps this group's descent.
    if (lo < items.size()) {
      const uint32_t next_mask = items[lo].home;
      if (node->boxes[next_mask].present) {
        if (k <= min_box_side_) {
          if (node->child_raw != nullptr) {
            kernels::PrefetchRead(node->child_raw[next_mask]);
          }
        } else if (node->child_nodes != nullptr) {
          kernels::PrefetchRead(node->child_nodes[next_mask]);
        }
      }
    }

    if (!node->boxes[mask].present) continue;  // All-zero region: adds 0.
    if (k <= min_box_side_) {
      const int64_t* raw =
          node->child_raw != nullptr ? node->child_raw[mask] : nullptr;
      DDC_DCHECK(raw != nullptr);
      for (BatchItem& item : group) {
        *item.out += RawPrefix(raw, item.offset);
      }
    } else {
      const Node* child =
          node->child_nodes != nullptr ? node->child_nodes[mask] : nullptr;
      DDC_DCHECK(child != nullptr);
      PrefixSumBatchRec(child, k, group, scratch);
    }
  }
}

int64_t DdcCore::RawPrefix(const int64_t* raw, const Cell& offset) const {
  if (kernels::UseScalar()) return RawPrefixScalarRef(raw, offset);
  CountNode(raw);  // A leaf block is one secondary-storage unit.
  // Row-major leaf blocks keep the innermost dimension contiguous, so the
  // Section 4.4 dominance sum is an odometer over the outer dimensions with
  // one vectorized block sum per inner run. Counter semantics match the
  // scalar reference: one node, one read per cell summed.
  const int outer = dims_ - 1;
  const size_t run =
      static_cast<size_t>(offset[static_cast<size_t>(outer)]) + 1;
  int64_t sum = 0;
  int64_t reads = static_cast<int64_t>(run);
  std::array<int64_t, kMaxDims> cursor{};  // Outer coordinates.
  int64_t base = 0;
  while (true) {
    sum += kernels::Sum(raw + base, run);
    int dim = outer - 1;
    for (; dim >= 0; --dim) {
      const size_t ud = static_cast<size_t>(dim);
      const int shift = leaf_bits_ * (outer - dim);
      base += int64_t{1} << shift;
      if (++cursor[ud] <= offset[ud]) break;
      base -= cursor[ud] << shift;  // Rewind this dimension, carry outward.
      cursor[ud] = 0;
    }
    if (dim < 0) break;
  }
  for (int i = 0; i < outer; ++i) reads *= offset[static_cast<size_t>(i)] + 1;
  CountRead(reads);
  return sum;
}

int64_t DdcCore::RawPrefixScalarRef(const int64_t* raw,
                                    const Cell& offset) const {
  CountNode(raw);  // A leaf block is one secondary-storage unit.
  int64_t sum = 0;
  Cell cursor(static_cast<size_t>(dims_), 0);
  int64_t reads = 0;
  while (true) {
    sum += raw[LeafIndex(cursor)];
    ++reads;
    int dim = dims_ - 1;
    while (dim >= 0) {
      size_t ud = static_cast<size_t>(dim);
      if (++cursor[ud] <= offset[ud]) break;
      cursor[ud] = 0;
      --dim;
    }
    if (dim < 0) break;
  }
  CountRead(reads);
  return sum;
}

int64_t DdcCore::Get(const Cell& cell) const {
  DDC_DCHECK(static_cast<int>(cell.size()) == dims_);
  if (root_raw_ != nullptr) {
    CountRead(1);
    return root_raw_[LeafIndex(cell)];
  }
  const Node* node = root_;
  int64_t node_side = side_;
  Cell offset = cell;
  while (node != nullptr) {
    const int64_t k = node_side / 2;
    uint32_t mask = 0;
    for (int i = 0; i < dims_; ++i) {
      size_t ui = static_cast<size_t>(i);
      if (offset[ui] >= k) {
        mask |= 1u << i;
        offset[ui] -= k;
      }
    }
    if (!node->boxes[mask].present) return 0;
    if (k <= min_box_side_) {
      const int64_t* raw =
          node->child_raw != nullptr ? node->child_raw[mask] : nullptr;
      if (raw == nullptr) return 0;
      CountRead(1);
      return raw[LeafIndex(offset)];
    }
    node = node->child_nodes != nullptr ? node->child_nodes[mask] : nullptr;
    node_side = k;
  }
  return 0;
}

int64_t DdcCore::StorageCells() const {
  if (root_raw_ != nullptr) return leaf_cells_;
  if (root_ == nullptr) return 0;
  return NodeStorage(root_, side_);
}

int64_t DdcCore::NodeStorage(const Node* node, int64_t node_side) const {
  const int64_t k = node_side / 2;
  int64_t total = 0;
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    const BoxData& box = node->boxes[mask];
    if (!box.present) continue;
    total += 1;  // Subtotal.
    for (int j = 0; j < dims_ && dims_ > 1; ++j) {
      total += box.faces[j].StorageCells();
    }
    if (k <= min_box_side_) {
      if (node->child_raw != nullptr && node->child_raw[mask] != nullptr) {
        total += leaf_cells_;
      }
    } else if (node->child_nodes != nullptr &&
               node->child_nodes[mask] != nullptr) {
      total += NodeStorage(node->child_nodes[mask], k);
    }
  }
  return total;
}

DdcStats DdcCore::Stats() const {
  DdcStats stats;
  if (root_raw_ != nullptr) {
    stats.raw_blocks = 1;
    stats.raw_cells = leaf_cells_;
    stats.nonzero_cells = static_cast<int64_t>(
        std::count_if(root_raw_, root_raw_ + leaf_cells_,
                      [](int64_t v) { return v != 0; }));
    return stats;
  }
  if (root_ == nullptr) return stats;
  NodeStats(root_, side_, &stats);
  return stats;
}

void DdcCore::NodeStats(const Node* node, int64_t node_side,
                        DdcStats* stats) const {
  ++stats->nodes;
  const int64_t k = node_side / 2;
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    if (!node->boxes[mask].present) continue;
    ++stats->boxes;
    if (dims_ > 1) stats->face_stores += dims_;
    if (k <= min_box_side_) {
      const int64_t* raw =
          node->child_raw != nullptr ? node->child_raw[mask] : nullptr;
      if (raw != nullptr) {
        ++stats->raw_blocks;
        stats->raw_cells += leaf_cells_;
        stats->nonzero_cells += static_cast<int64_t>(std::count_if(
            raw, raw + leaf_cells_, [](int64_t v) { return v != 0; }));
      }
    } else if (node->child_nodes != nullptr &&
               node->child_nodes[mask] != nullptr) {
      NodeStats(node->child_nodes[mask], k, stats);
    }
  }
}

void DdcCore::ForEachNonZero(
    const std::function<void(const Cell&, int64_t)>& fn) const {
  Cell anchor(static_cast<size_t>(dims_), 0);
  Cell cell(static_cast<size_t>(dims_), 0);
  if (root_raw_ != nullptr) {
    BlockForEachNonZero(root_raw_, anchor, cell, fn);
    return;
  }
  if (root_ == nullptr) return;
  NodeForEachNonZero(root_, side_, anchor, cell, fn);
}

void DdcCore::NodeForEachNonZero(
    const Node* node, int64_t node_side, Cell& anchor, Cell& cell,
    const std::function<void(const Cell&, int64_t)>& fn) const {
  const int64_t k = node_side / 2;
  for (uint32_t mask = 0; mask < num_children_; ++mask) {
    if (!node->boxes[mask].present) continue;
    for (int i = 0; i < dims_; ++i) {
      if (mask & (1u << i)) anchor[static_cast<size_t>(i)] += k;
    }
    if (k <= min_box_side_) {
      if (node->child_raw != nullptr && node->child_raw[mask] != nullptr) {
        BlockForEachNonZero(node->child_raw[mask], anchor, cell, fn);
      }
    } else if (node->child_nodes != nullptr &&
               node->child_nodes[mask] != nullptr) {
      NodeForEachNonZero(node->child_nodes[mask], k, anchor, cell, fn);
    }
    for (int i = 0; i < dims_; ++i) {
      if (mask & (1u << i)) anchor[static_cast<size_t>(i)] -= k;
    }
  }
}

void DdcCore::BlockForEachNonZero(
    const int64_t* raw, const Cell& anchor, Cell& cell,
    const std::function<void(const Cell&, int64_t)>& fn) const {
  for (int64_t index = 0; index < leaf_cells_; ++index) {
    if (raw[index] == 0) continue;
    // Row-major: the last dimension owns the lowest bits of the index.
    int64_t rest = index;
    for (int i = dims_ - 1; i >= 0; --i) {
      const size_t ui = static_cast<size_t>(i);
      cell[ui] = anchor[ui] + (rest & (min_box_side_ - 1));
      rest >>= leaf_bits_;
    }
    fn(cell, raw[index]);
  }
}

}  // namespace ddc
