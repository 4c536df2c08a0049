#include "ddc/face_store.h"

#include <vector>

#include "bctree/bc_tree.h"
#include "bctree/fenwick_tree.h"
#include "common/check.h"
#include "ddc/ddc_core.h"

namespace ddc {

void FaceStore::Init(Arena* arena, int transverse_dims, int64_t side,
                     const DdcOptions& options, OpCounters* counters) {
  DDC_CHECK(transverse_dims >= 1);
  DDC_CHECK(side >= 2);
  DDC_DCHECK(bc_ == nullptr && fenwick_ == nullptr && nested_ == nullptr);
  if (transverse_dims == 1) {
    // The Section 4.1 base case: individual row sums in a B_c tree (or a
    // Fenwick tree under the ablation option).
    if (options.use_fenwick) {
      fenwick_ = arena->Create<FenwickTree>(side);
      fenwick_->set_counters(counters);
    } else {
      bc_ = arena->Create<BcTree>(
          side, options.bc_fanout, arena,
          options.bc_dense ? BcLayout::kDense : BcLayout::kSparse);
      bc_->set_counters(counters);
    }
    return;
  }
  // Section 4.2's secondary trees: a nested (d-1)-dimensional cube sharing
  // the owning cube's arena.
  nested_ = arena->Create<DdcCore>(transverse_dims, side, options, counters,
                                   arena);
}

FaceStore::Owned FaceStore::Create(int transverse_dims, int64_t side,
                                   const DdcOptions& options,
                                   OpCounters* counters) {
  Owned owned;
  owned.arena = std::make_unique<Arena>();
  owned.store = owned.arena->Create<FaceStore>();
  owned.store->Init(owned.arena.get(), transverse_dims, side, options,
                    counters);
  return owned;
}

void FaceStore::Add(const Cell& y, int64_t delta) {
  if (nested_ != nullptr) {
    nested_->Add(y, delta);
    return;
  }
  DDC_DCHECK(y.size() == 1);
  if (bc_ != nullptr) {
    bc_->Add(y[0], delta);
  } else {
    fenwick_->Add(y[0], delta);
  }
}

int64_t FaceStore::PrefixSum(const Cell& y) const {
  if (nested_ != nullptr) return nested_->PrefixSum(y);
  DDC_DCHECK(y.size() == 1);
  if (bc_ != nullptr) return bc_->CumulativeSum(y[0]);
  return fenwick_->CumulativeSum(y[0]);
}

int64_t FaceStore::StorageCells() const {
  if (nested_ != nullptr) return nested_->StorageCells();
  if (bc_ != nullptr) return bc_->StorageCells();
  return fenwick_->StorageCells();
}

void FaceStore::BuildFromSorted(const int64_t* entries, size_t count,
                                CellBuildScratch& scratch) {
  if (count == 0) return;
  if (nested_ != nullptr) {
    nested_->BuildFromSortedCells(entries, count, scratch);
    return;
  }
  if (bc_ != nullptr) {
    bc_->BuildFromSorted({entries, 2 * count});
    return;
  }
  // A Fenwick tree stores its whole capacity anyway, so the pairs scatter
  // into one O(capacity) propagation pass.
  std::vector<int64_t> values(static_cast<size_t>(fenwick_->capacity()));
  for (size_t q = 0; q < count; ++q) {
    values[static_cast<size_t>(entries[2 * q])] = entries[2 * q + 1];
  }
  fenwick_->BuildFrom(values);
}

}  // namespace ddc
