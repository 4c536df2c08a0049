#include "bctree/bc_tree.h"

#include <cstring>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/kernels.h"

namespace ddc {

namespace {

// Smallest power-of-two alignment that keeps a sum array of `sums_bytes`
// inside one cache line (or line-aligned when it fills one or more whole
// lines). 16 is the floor so small-fanout slabs stay naturally aligned for
// their pointer halves too.
size_t NodeSlabAlign(size_t sums_bytes) {
  size_t align = 16;
  while (align < sums_bytes && align < Arena::kMaxAlign) align <<= 1;
  return align;
}

}  // namespace

BcTree::BcTree(int64_t capacity, int fanout, Arena* arena, BcLayout layout)
    : capacity_(capacity), fanout_(fanout), layout_(layout) {
  DDC_CHECK(capacity_ >= 1);
  DDC_CHECK(fanout_ >= 2);
  if (arena == nullptr) {
    owned_arena_ = std::make_unique<Arena>();
    arena = owned_arena_.get();
  }
  arena_ = arena;
  height_ = 1;
  root_span_ = fanout_;
  while (root_span_ < capacity_) {
    root_span_ *= fanout_;
    ++height_;
  }
  log2_fanout_ = IsPowerOfTwo(fanout_) ? FloorLog2(fanout_) : -1;
  if (layout_ == BcLayout::kDense) {
    // BFS slot count of the full conceptual tree: 1 + f + ... + f^(h-1).
    int64_t level_slots = 1;
    for (int level = 0; level < height_; ++level) {
      dense_slots_ += level_slots;
      level_slots *= fanout_;
    }
  }
}

BcTree::Node* BcTree::NewNode(bool is_leaf) {
  const size_t f = static_cast<size_t>(fanout_);
  const size_t sums_bytes = f * sizeof(int64_t);
  const size_t bytes = is_leaf ? sums_bytes : sums_bytes + f * sizeof(Node*);
  void* slab = arena_->Allocate(bytes, NodeSlabAlign(sums_bytes));
  std::memset(slab, 0, bytes);
  // The cache-line contract: a node's sum array either fits entirely inside
  // one 64-byte line or starts exactly on a line boundary.
  DDC_DCHECK(sums_bytes >= 64
                 ? reinterpret_cast<uintptr_t>(slab) % 64 == 0
                 : reinterpret_cast<uintptr_t>(slab) % 64 + sums_bytes <= 64);
  allocated_entries_ += fanout_;
  return static_cast<Node*>(slab);
}

void BcTree::EnsureDense() {
  if (dense_ != nullptr) return;
  const size_t entries =
      static_cast<size_t>(dense_slots_) * static_cast<size_t>(fanout_);
  dense_ = static_cast<int64_t*>(
      arena_->AllocateAligned(entries * sizeof(int64_t)));
  std::memset(dense_, 0, entries * sizeof(int64_t));
  allocated_entries_ += dense_slots_ * fanout_;
}

// ---------------------------------------------------------------------------
// Bulk build.

BcTree::Node* BcTree::BuildSortedRange(const int64_t* pairs, size_t count,
                                       int64_t lo, int64_t span,
                                       int64_t* subtree_total) {
  // Parent before children, as the update path allocates them.
  const bool is_leaf = span == fanout_;
  Node* node = NewNode(is_leaf);
  int64_t* sums = NodeSums(node);
  int64_t total = 0;
  if (is_leaf) {
    for (size_t q = 0; q < count; ++q) {
      sums[pairs[2 * q] - lo] = pairs[2 * q + 1];
      total += pairs[2 * q + 1];
    }
    *subtree_total = total;
    return node;
  }
  const int64_t child_span = span / fanout_;
  size_t q = 0;
  while (q < count) {
    const int64_t child = (pairs[2 * q] - lo) / child_span;
    size_t end = q + 1;
    while (end < count && (pairs[2 * end] - lo) / child_span == child) ++end;
    int64_t child_total = 0;
    NodeChildren(node)[child] =
        BuildSortedRange(pairs + 2 * q, end - q, lo + child * child_span,
                         child_span, &child_total);
    sums[child] = child_total;
    total += child_total;
    q = end;
  }
  *subtree_total = total;
  return node;
}

void BcTree::BuildSortedDense(std::span<const int64_t> pairs) {
  EnsureDense();
  const int64_t f = fanout_;
  // Leaf level: slots [first_leaf, dense_slots_), leaf i holds indices
  // [i*f, (i+1)*f).
  const int64_t first_leaf = dense_slots_ - root_span_ / f;
  for (size_t q = 0; q < pairs.size(); q += 2) {
    dense_[first_leaf * f + pairs[q]] = pairs[q + 1];
  }
  // Interior levels, bottom-up: each STS is the (vectorized) total of the
  // child slot it summarizes.
  for (int64_t slot = first_leaf - 1; slot >= 0; --slot) {
    int64_t* sums = dense_ + slot * f;
    const int64_t first_child = slot * f + 1;
    for (int64_t c = 0; c < f; ++c) {
      sums[c] = kernels::Sum(dense_ + (first_child + c) * f,
                             static_cast<size_t>(f));
    }
  }
  total_ = kernels::Sum(dense_, static_cast<size_t>(f));
}

void BcTree::BuildFromSorted(std::span<const int64_t> pairs) {
  DDC_CHECK(root_ == nullptr && dense_ == nullptr && total_ == 0);
  DDC_CHECK(pairs.size() % 2 == 0);
  for (size_t q = 0; q < pairs.size(); q += 2) {
    DDC_CHECK(pairs[q] >= 0 && pairs[q] < capacity_);
    DDC_CHECK(q == 0 || pairs[q - 2] < pairs[q]);
  }
  if (pairs.empty()) return;
  if (layout_ == BcLayout::kDense) {
    BuildSortedDense(pairs);
  } else {
    root_ = BuildSortedRange(pairs.data(), pairs.size() / 2, 0, root_span_,
                             &total_);
  }
  CountWrite(allocated_entries_);
}

// ---------------------------------------------------------------------------
// Update path.

template <bool kPow2>
void BcTree::AddFast(int64_t index, int64_t delta) {
  if (root_ == nullptr) root_ = NewNode(/*is_leaf=*/height_ == 1);
  Node* node = root_;
  int64_t offset = index;
  int shift = kPow2 ? log2_fanout_ * (height_ - 1) : 0;
  int64_t child_span = root_span_ / fanout_;
  for (int level = height_; level > 1; --level) {
    CountNode();
    size_t child;
    if constexpr (kPow2) {
      child = static_cast<size_t>(offset >> shift);
      offset &= (int64_t{1} << shift) - 1;
      shift -= log2_fanout_;
    } else {
      child = static_cast<size_t>(offset / child_span);
      offset %= child_span;
      child_span /= fanout_;
    }
    // One STS adjusted per visited node (the subtree containing the changed
    // cell), exactly as in the paper's bottom-up walkthrough.
    NodeSums(node)[child] += delta;
    CountWrite(1);
    Node*& slot = NodeChildren(node)[child];
    if (slot == nullptr) slot = NewNode(/*is_leaf=*/level == 2);
    node = slot;
  }
  CountNode();
  NodeSums(node)[static_cast<size_t>(offset)] += delta;
  CountWrite(1);
}

void BcTree::AddScalarRef(int64_t index, int64_t delta) {
  if (root_ == nullptr) root_ = NewNode(/*is_leaf=*/height_ == 1);
  Node* node = root_;
  int64_t span = root_span_;
  int64_t offset = index;
  while (span > fanout_) {
    CountNode();
    const int64_t child_span = span / fanout_;
    const size_t child = static_cast<size_t>(offset / child_span);
    NodeSums(node)[child] += delta;
    CountWrite(1);
    Node*& slot = NodeChildren(node)[child];
    if (slot == nullptr) slot = NewNode(/*is_leaf=*/child_span == fanout_);
    node = slot;
    offset %= child_span;
    span = child_span;
  }
  CountNode();
  NodeSums(node)[static_cast<size_t>(offset)] += delta;
  CountWrite(1);
}

void BcTree::AddDense(int64_t index, int64_t delta) {
  EnsureDense();
  const int64_t f = fanout_;
  int64_t slot = 0;
  int64_t offset = index;
  int shift = log2_fanout_ > 0 ? log2_fanout_ * (height_ - 1) : 0;
  int64_t child_span = root_span_ / f;
  for (int level = height_; level > 1; --level) {
    CountNode();
    int64_t child;
    if (log2_fanout_ > 0) {
      child = offset >> shift;
      offset &= (int64_t{1} << shift) - 1;
      shift -= log2_fanout_;
    } else {
      child = offset / child_span;
      offset %= child_span;
      child_span /= f;
    }
    dense_[slot * f + child] += delta;
    CountWrite(1);
    slot = slot * f + 1 + child;
  }
  CountNode();
  dense_[slot * f + offset] += delta;
  CountWrite(1);
}

void BcTree::Add(int64_t index, int64_t delta) {
  DDC_CHECK(index >= 0 && index < capacity_);
  if (delta == 0) return;
  total_ += delta;
  if (layout_ == BcLayout::kDense) {
    AddDense(index, delta);
    return;
  }
  if (kernels::UseScalar()) {
    AddScalarRef(index, delta);
    return;
  }
  if (log2_fanout_ > 0) {
    AddFast<true>(index, delta);
  } else {
    AddFast<false>(index, delta);
  }
}

// ---------------------------------------------------------------------------
// Query path.

template <bool kPow2>
int64_t BcTree::CumulativeSumFast(int64_t index) const {
  const Node* node = root_;
  int64_t offset = index;
  int shift = kPow2 ? log2_fanout_ * (height_ - 1) : 0;
  int64_t child_span = root_span_ / fanout_;
  int64_t sum = 0;
  const size_t f = static_cast<size_t>(fanout_);
  for (int level = height_; level > 1; --level) {
    CountNode();
    size_t child;
    if constexpr (kPow2) {
      child = static_cast<size_t>(offset >> shift);
      offset &= (int64_t{1} << shift) - 1;
      shift -= log2_fanout_;
    } else {
      child = static_cast<size_t>(offset / child_span);
      offset %= child_span;
      child_span /= fanout_;
    }
    // Every STS preceding the descended branch, as one predicated line scan.
    sum += kernels::MaskedPrefixSum(NodeSums(node), f, child);
    CountRead(static_cast<int64_t>(child));
    const Node* next = NodeChildren(node)[child];
    if (next == nullptr) return sum;  // Unmaterialized subtree: all zero.
    node = next;
  }
  CountNode();
  sum += kernels::MaskedPrefixSum(NodeSums(node), f,
                                  static_cast<size_t>(offset) + 1);
  CountRead(offset + 1);
  return sum;
}

int64_t BcTree::CumulativeSumScalarRef(int64_t index) const {
  const Node* node = root_;
  int64_t span = root_span_;
  int64_t offset = index;
  int64_t sum = 0;
  while (true) {
    CountNode();
    if (span == fanout_) {
      // Leaf: sum of the individual row values up to and including `offset`.
      for (int64_t i = 0; i <= offset; ++i) {
        sum += NodeSums(node)[static_cast<size_t>(i)];
      }
      CountRead(offset + 1);
      return sum;
    }
    const int64_t child_span = span / fanout_;
    const size_t child = static_cast<size_t>(offset / child_span);
    // Add every STS preceding the branch we descend.
    for (size_t i = 0; i < child; ++i) {
      sum += NodeSums(node)[i];
    }
    CountRead(static_cast<int64_t>(child));
    if (NodeChildren(node)[child] == nullptr) {
      return sum;  // Unmaterialized subtree: all zero.
    }
    node = NodeChildren(node)[child];
    offset %= child_span;
    span = child_span;
  }
}

int64_t BcTree::CumulativeSumDense(int64_t index) const {
  if (dense_ == nullptr) return 0;
  const int64_t f = fanout_;
  int64_t slot = 0;
  int64_t offset = index;
  int shift = log2_fanout_ > 0 ? log2_fanout_ * (height_ - 1) : 0;
  int64_t child_span = root_span_ / f;
  int64_t sum = 0;
  for (int level = height_; level > 1; --level) {
    CountNode();
    int64_t child;
    if (log2_fanout_ > 0) {
      child = offset >> shift;
      offset &= (int64_t{1} << shift) - 1;
      shift -= log2_fanout_;
    } else {
      child = offset / child_span;
      offset %= child_span;
      child_span /= f;
    }
    sum += kernels::MaskedPrefixSum(dense_ + slot * f, static_cast<size_t>(f),
                                    static_cast<size_t>(child));
    CountRead(child);
    slot = slot * f + 1 + child;
  }
  CountNode();
  sum += kernels::MaskedPrefixSum(dense_ + slot * f, static_cast<size_t>(f),
                                  static_cast<size_t>(offset) + 1);
  CountRead(offset + 1);
  return sum;
}

int64_t BcTree::CumulativeSum(int64_t index) const {
  DDC_CHECK(index >= 0 && index < capacity_);
  if (layout_ == BcLayout::kDense) return CumulativeSumDense(index);
  if (root_ == nullptr) return 0;
  if (kernels::UseScalar()) return CumulativeSumScalarRef(index);
  if (log2_fanout_ > 0) return CumulativeSumFast<true>(index);
  return CumulativeSumFast<false>(index);
}

int64_t BcTree::ValueDense(int64_t index) const {
  if (dense_ == nullptr) return 0;
  const int64_t f = fanout_;
  int64_t slot = 0;
  int64_t offset = index;
  int64_t child_span = root_span_ / f;
  for (int level = height_; level > 1; --level) {
    const int64_t child = offset / child_span;
    offset %= child_span;
    child_span /= f;
    slot = slot * f + 1 + child;
  }
  CountRead(1);
  return dense_[slot * f + offset];
}

int64_t BcTree::Value(int64_t index) const {
  DDC_CHECK(index >= 0 && index < capacity_);
  if (layout_ == BcLayout::kDense) return ValueDense(index);
  if (root_ == nullptr) return 0;
  const Node* node = root_;
  int64_t span = root_span_;
  int64_t offset = index;
  while (span > fanout_) {
    const int64_t child_span = span / fanout_;
    const size_t child = static_cast<size_t>(offset / child_span);
    if (NodeChildren(node)[child] == nullptr) return 0;
    node = NodeChildren(node)[child];
    offset %= child_span;
    span = child_span;
  }
  CountRead(1);
  return NodeSums(node)[static_cast<size_t>(offset)];
}

// ---------------------------------------------------------------------------
// Invariant checking.

int64_t BcTree::NodeTotal(const Node* node) const {
  int64_t total = 0;
  for (int64_t i = 0; i < fanout_; ++i) {
    total += NodeSums(node)[static_cast<size_t>(i)];
  }
  return total;
}

bool BcTree::CheckNode(const Node* node, int64_t span) const {
  if (span == fanout_) return true;  // Leaf: nothing below to cross-check.
  const int64_t child_span = span / fanout_;
  for (int64_t i = 0; i < fanout_; ++i) {
    const Node* child = NodeChildren(node)[static_cast<size_t>(i)];
    const int64_t sts = NodeSums(node)[static_cast<size_t>(i)];
    if (child == nullptr) {
      if (sts != 0) return false;
      continue;
    }
    if (NodeTotal(child) != sts) return false;
    if (!CheckNode(child, child_span)) return false;
  }
  return true;
}

bool BcTree::CheckInvariants() const {
  if (layout_ == BcLayout::kDense) {
    if (dense_ == nullptr) return total_ == 0;
    const int64_t f = fanout_;
    if (kernels::Sum(dense_, static_cast<size_t>(f)) != total_) return false;
    const int64_t first_leaf = dense_slots_ - root_span_ / f;
    for (int64_t slot = 0; slot < first_leaf; ++slot) {
      for (int64_t c = 0; c < f; ++c) {
        const int64_t child_slot = slot * f + 1 + c;
        if (dense_[slot * f + c] !=
            kernels::Sum(dense_ + child_slot * f, static_cast<size_t>(f))) {
          return false;
        }
      }
    }
    return true;
  }
  if (root_ == nullptr) return total_ == 0;
  if (NodeTotal(root_) != total_) return false;
  return CheckNode(root_, root_span_);
}

}  // namespace ddc
