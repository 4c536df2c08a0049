// Direct unit tests of the FaceStore abstraction (Section 4.2): every face
// implementation must behave as the prefix-sum structure of its line-sum
// array.

#include "ddc/face_store.h"

#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "common/md_array.h"
#include "common/shape.h"
#include "ddc/ddc_core.h"

namespace ddc {
namespace {

// Reference: dense line-sum array with brute-force prefix sums.
class ReferenceFace {
 public:
  ReferenceFace(int dims, int64_t side) : g_(Shape::Cube(dims, side)) {}

  void Add(const Cell& y, int64_t delta) { g_.at(y) += delta; }

  int64_t PrefixSum(const Cell& y) const {
    int64_t sum = 0;
    g_.ForEach([&](const Cell& c, const int64_t& v) {
      if (DominatedBy(c, y)) sum += v;
    });
    return sum;
  }

 private:
  MdArray<int64_t> g_;
};

struct FaceParam {
  int transverse_dims;
  int64_t side;
  bool use_fenwick;
};

class FaceStoreTest : public ::testing::TestWithParam<FaceParam> {};

TEST_P(FaceStoreTest, MatchesReferenceOnRandomOps) {
  const FaceParam p = GetParam();
  DdcOptions options;
  options.use_fenwick = p.use_fenwick;
  FaceStore::Owned store =
      FaceStore::Create(p.transverse_dims, p.side, options, nullptr);
  ReferenceFace reference(p.transverse_dims, p.side);

  const Shape shape = Shape::Cube(p.transverse_dims, p.side);
  std::mt19937_64 rng(static_cast<uint64_t>(p.transverse_dims * 100 + p.side));
  std::uniform_int_distribution<int64_t> pick(0, shape.num_cells() - 1);
  std::uniform_int_distribution<int64_t> delta(-9, 9);

  for (int op = 0; op < 150; ++op) {
    const Cell y = shape.CellAt(pick(rng));
    const int64_t d = delta(rng);
    store->Add(y, d);
    reference.Add(y, d);
    const Cell probe = shape.CellAt(pick(rng));
    ASSERT_EQ(store->PrefixSum(probe), reference.PrefixSum(probe))
        << CellToString(probe) << " op " << op;
  }
}

TEST_P(FaceStoreTest, BuildFromCellsMatchesIncremental) {
  const FaceParam p = GetParam();
  DdcOptions options;
  options.use_fenwick = p.use_fenwick;
  const Shape shape = Shape::Cube(p.transverse_dims, p.side);
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int64_t> value(-5, 5);
  std::vector<int64_t> records;
  auto incremental =
      FaceStore::Create(p.transverse_dims, p.side, options, nullptr);
  Cell c(static_cast<size_t>(p.transverse_dims), 0);
  do {
    const int64_t v = value(rng);
    if (v == 0) continue;
    records.insert(records.end(), c.begin(), c.end());
    records.push_back(v);
    incremental->Add(c, v);
  } while (shape.NextCell(&c));

  // A 1-D face takes ascending (position, sum) pairs directly; a nested
  // face takes cells in its core's builder order, which a throwaway core's
  // ordering pass produces.
  auto bulk = FaceStore::Create(p.transverse_dims, p.side, options, nullptr);
  if (p.transverse_dims > 1) {
    DdcCore order(p.transverse_dims, p.side, options, nullptr);
    order.BuildFromCells(records);
    records.clear();
    order.ForEachNonZero([&](const Cell& cell, int64_t v) {
      records.insert(records.end(), cell.begin(), cell.end());
      records.push_back(v);
    });
  }
  CellBuildScratch scratch(p.transverse_dims);
  bulk->BuildFromSorted(records.data(), records.size() / (c.size() + 1),
                        scratch);

  Cell probe(static_cast<size_t>(p.transverse_dims), 0);
  do {
    ASSERT_EQ(bulk->PrefixSum(probe), incremental->PrefixSum(probe))
        << CellToString(probe);
  } while (shape.NextCell(&probe));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, FaceStoreTest,
    ::testing::Values(FaceParam{1, 2, false}, FaceParam{1, 16, false},
                      FaceParam{1, 16, true}, FaceParam{2, 4, false},
                      FaceParam{2, 8, false}, FaceParam{3, 4, false},
                      FaceParam{3, 4, true}));

TEST(FaceStoreTest, EmptyStoreAnswersZero) {
  auto store = FaceStore::Create(2, 8, DdcOptions{}, nullptr);
  EXPECT_EQ(store->PrefixSum({7, 7}), 0);
  EXPECT_EQ(store->StorageCells(), 0);
}

TEST(FaceStoreTest, CountersRouteToOwner) {
  OpCounters counters;
  auto store = FaceStore::Create(1, 64, DdcOptions{}, &counters);
  store->Add({10}, 5);
  EXPECT_GT(counters.values_written, 0);
  const int64_t writes = counters.values_written;
  store->PrefixSum({20});
  EXPECT_GT(counters.values_read, 0);
  EXPECT_EQ(counters.values_written, writes);  // Queries don't write.
}

}  // namespace
}  // namespace ddc
