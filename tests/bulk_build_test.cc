// Tests for the bottom-up bulk loaders: BcTree::BuildFromSorted, and the one
// sparse builder DdcCore::BuildFromCells behind DynamicDataCube::FromArray,
// FromRecords (snapshot loading) and growth re-rooting.

#include <algorithm>
#include <chrono>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bctree/bc_tree.h"
#include "common/op_counter.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"

namespace ddc {
namespace {

// (index, value) pairs of the nonzero entries, as BuildFromSorted takes.
std::vector<int64_t> NonzeroPairs(const std::vector<int64_t>& values) {
  std::vector<int64_t> pairs;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] == 0) continue;
    pairs.push_back(static_cast<int64_t>(i));
    pairs.push_back(values[i]);
  }
  return pairs;
}

TEST(BcTreeBuildFromSortedTest, MatchesIncrementalConstruction) {
  for (int fanout : {2, 3, 8}) {
    for (int64_t capacity : {1, 5, 8, 9, 64, 100}) {
      std::mt19937_64 rng(static_cast<uint64_t>(fanout * 1000 + capacity));
      std::uniform_int_distribution<int64_t> value(-9, 9);
      std::vector<int64_t> values(static_cast<size_t>(capacity));
      for (auto& v : values) v = value(rng);

      BcTree bulk(capacity, fanout);
      bulk.BuildFromSorted(NonzeroPairs(values));
      BcTree incremental(capacity, fanout);
      for (int64_t i = 0; i < capacity; ++i) {
        incremental.Add(i, values[static_cast<size_t>(i)]);
      }

      ASSERT_TRUE(bulk.CheckInvariants())
          << "fanout=" << fanout << " capacity=" << capacity;
      ASSERT_EQ(bulk.TotalSum(), incremental.TotalSum());
      // Nonzero inputs: exactly the incremental tree's nodes.
      ASSERT_EQ(bulk.StorageCells(), incremental.StorageCells());
      for (int64_t i = 0; i < capacity; ++i) {
        ASSERT_EQ(bulk.CumulativeSum(i), incremental.CumulativeSum(i))
            << "i=" << i << " fanout=" << fanout << " cap=" << capacity;
      }
    }
  }
}

TEST(BcTreeBuildFromSortedTest, SparseInputStaysLazy) {
  BcTree tree(4096, 8);
  tree.BuildFromSorted(std::vector<int64_t>{17, 5, 4000, 7});
  EXPECT_EQ(tree.CumulativeSum(4095), 12);
  EXPECT_EQ(tree.CumulativeSum(16), 0);
  EXPECT_EQ(tree.CumulativeSum(17), 5);
  // Only two root-to-leaf paths materialized.
  EXPECT_LE(tree.StorageCells(), 2 * 4 * 8);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BcTreeBuildFromSortedTest, EmptyBuildsNothing) {
  for (BcLayout layout : {BcLayout::kSparse, BcLayout::kDense}) {
    BcTree tree(64, 4, nullptr, layout);
    tree.BuildFromSorted({});
    EXPECT_EQ(tree.StorageCells(), 0);
    EXPECT_EQ(tree.CumulativeSum(63), 0);
  }
}

TEST(BcTreeBuildFromSortedTest, CancellingLeafValuesAreKept) {
  BcTree tree(8, 4);
  tree.BuildFromSorted(std::vector<int64_t>{0, 3, 1, -3});
  EXPECT_EQ(tree.TotalSum(), 0);
  EXPECT_EQ(tree.CumulativeSum(0), 3);
  EXPECT_EQ(tree.CumulativeSum(1), 0);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BcTreeBuildFromSortedTest, CountsEveryStoredEntryOnce) {
  for (BcLayout layout : {BcLayout::kSparse, BcLayout::kDense}) {
    OpCounters counters;
    BcTree tree(100, 8, nullptr, layout);
    tree.set_counters(&counters);
    tree.BuildFromSorted(std::vector<int64_t>{1, 1, 2, 2, 3, 3, 99, 4});
    EXPECT_EQ(tree.CumulativeSum(99), 10);
    EXPECT_EQ(tree.Value(2), 2);
    EXPECT_EQ(counters.values_written, tree.StorageCells());
  }
}

TEST(BcTreeBuildFromSortedTest, UpdatesAfterBulkBuildWork) {
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<int64_t> value(-5, 5);
  std::vector<int64_t> values(256);
  for (auto& v : values) v = value(rng);
  BcTree tree(256, 8);
  tree.BuildFromSorted(NonzeroPairs(values));
  std::uniform_int_distribution<int64_t> index(0, 255);
  for (int op = 0; op < 200; ++op) {
    const int64_t i = index(rng);
    const int64_t d = value(rng);
    tree.Add(i, d);
    values[static_cast<size_t>(i)] += d;
    const int64_t probe = index(rng);
    int64_t expected = 0;
    for (int64_t j = 0; j <= probe; ++j) {
      expected += values[static_cast<size_t>(j)];
    }
    ASSERT_EQ(tree.CumulativeSum(probe), expected);
  }
  EXPECT_TRUE(tree.CheckInvariants());
}

struct BuildParam {
  int dims;
  int64_t side;
  int elide_levels;
  bool use_fenwick;
};

class DdcBuildFromArrayTest : public ::testing::TestWithParam<BuildParam> {};

TEST_P(DdcBuildFromArrayTest, MatchesIncrementalConstruction) {
  const BuildParam p = GetParam();
  const Shape shape = Shape::Cube(p.dims, p.side);
  WorkloadGenerator gen(shape, static_cast<uint64_t>(p.dims * 100 + p.side));
  // Strictly positive values: with cancellations a line sum can be zero,
  // in which case bulk build (correctly) materializes *less* than repeated
  // Adds and exact storage equality no longer holds (covered separately in
  // CancellingValuesMayMaterializeLess).
  MdArray<int64_t> array = gen.RandomDenseArray(1, 9);

  DdcOptions options;
  options.elide_levels = p.elide_levels;
  options.use_fenwick = p.use_fenwick;
  auto bulk = DynamicDataCube::FromArray(array, options);

  DynamicDataCube incremental(p.dims, p.side, options);
  array.ForEach(
      [&](const Cell& c, const int64_t& v) { incremental.Add(c, v); });

  EXPECT_EQ(bulk->TotalSum(), incremental.TotalSum());
  EXPECT_EQ(bulk->StorageCells(), incremental.StorageCells());
  Cell probe(static_cast<size_t>(p.dims), 0);
  do {
    ASSERT_EQ(bulk->PrefixSum(probe), incremental.PrefixSum(probe))
        << CellToString(probe);
  } while (shape.NextCell(&probe));
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, DdcBuildFromArrayTest,
    ::testing::Values(BuildParam{1, 16, 0, false}, BuildParam{2, 2, 0, false},
                      BuildParam{2, 8, 0, false}, BuildParam{2, 16, 0, false},
                      BuildParam{2, 16, 2, false}, BuildParam{3, 8, 0, false},
                      BuildParam{3, 8, 1, false}, BuildParam{4, 4, 0, false},
                      BuildParam{2, 16, 0, true}, BuildParam{3, 8, 0, true}));

TEST(DdcBuildFromArrayTest, CancellingValuesMayMaterializeLess) {
  const Shape shape = Shape::Cube(2, 8);
  WorkloadGenerator gen(shape, 208);
  MdArray<int64_t> array = gen.RandomDenseArray(-9, 9);
  auto bulk = DynamicDataCube::FromArray(array);
  DynamicDataCube incremental(2, 8);
  array.ForEach(
      [&](const Cell& c, const int64_t& v) { incremental.Add(c, v); });
  // Answers identical; bulk storage never exceeds the incremental one.
  EXPECT_LE(bulk->StorageCells(), incremental.StorageCells());
  Cell probe(2, 0);
  do {
    ASSERT_EQ(bulk->PrefixSum(probe), incremental.PrefixSum(probe));
  } while (shape.NextCell(&probe));
}

TEST(DdcBuildFromArrayTest, SparseArrayBuildsSparseStructure) {
  MdArray<int64_t> array(Shape::Cube(2, 256));
  array.at({10, 20}) = 5;
  array.at({200, 100}) = 7;
  auto cube = DynamicDataCube::FromArray(array);
  EXPECT_EQ(cube->TotalSum(), 12);
  EXPECT_EQ(cube->Get({10, 20}), 5);
  // Two paths' worth of structure, far below the dense footprint.
  EXPECT_LT(cube->StorageCells(), 2000);
}

TEST(DdcBuildFromArrayTest, UpdatesAfterBulkBuild) {
  const Shape shape = Shape::Cube(2, 32);
  WorkloadGenerator gen(shape, 9);
  MdArray<int64_t> array = gen.RandomDenseArray(0, 9);
  auto cube = DynamicDataCube::FromArray(array);
  NaiveCube naive(shape);
  array.ForEach([&](const Cell& c, const int64_t& v) { naive.Set(c, v); });

  for (int i = 0; i < 200; ++i) {
    const Cell c = gen.UniformCell();
    const int64_t d = gen.Value(-9, 9);
    cube->Add(c, d);
    naive.Add(c, d);
    const Box box = gen.UniformBox();
    ASSERT_EQ(cube->RangeSum(box), naive.RangeSum(box)) << i;
  }
}

TEST(DdcBuildFromArrayTest, AllZeroArray) {
  MdArray<int64_t> array(Shape::Cube(3, 8));
  auto cube = DynamicDataCube::FromArray(array);
  EXPECT_EQ(cube->TotalSum(), 0);
  EXPECT_EQ(cube->PrefixSum({7, 7, 7}), 0);
}

// Bulk construction writes asymptotically fewer values than repeated Add.
TEST(DdcBuildFromArrayTest, BulkWritesFewerValues) {
  const Shape shape = Shape::Cube(2, 64);
  WorkloadGenerator gen(shape, 13);
  MdArray<int64_t> array = gen.RandomDenseArray(1, 9);

  auto bulk = DynamicDataCube::FromArray(array);
  const int64_t bulk_writes = bulk->counters().values_written;

  DynamicDataCube incremental(2, 64);
  array.ForEach(
      [&](const Cell& c, const int64_t& v) { incremental.Add(c, v); });
  const int64_t incremental_writes = incremental.counters().values_written;
  EXPECT_LT(bulk_writes, incremental_writes / 2);
}

// ---------------------------------------------------------------------------
// Differential wall: BuildFromCells against per-cell Add and the NaiveCube
// oracle.

enum class Faces { kSparse, kDense, kFenwick };

struct WallParam {
  int dims;
  int64_t side;
  int elide_levels;
  Faces faces;
};

DdcOptions WallOptions(const WallParam& p) {
  DdcOptions options;
  options.elide_levels = p.elide_levels;
  options.bc_dense = p.faces == Faces::kDense;
  options.use_fenwick = p.faces == Faces::kFenwick;
  return options;
}

// `count` random records (global coordinates inside [origin, origin+side),
// values in [lo, hi]); about one in eight repeats an earlier cell.
std::vector<int64_t> RandomRecords(int dims, int64_t side, const Cell& origin,
                                   int count, int64_t lo, int64_t hi,
                                   std::mt19937_64& rng) {
  std::uniform_int_distribution<int64_t> coord(0, side - 1);
  std::uniform_int_distribution<int64_t> value(lo, hi);
  const size_t stride = static_cast<size_t>(dims) + 1;
  std::vector<int64_t> records;
  for (int q = 0; q < count; ++q) {
    const size_t n = records.size() / stride;
    if (n > 0 && rng() % 8 == 0) {
      const size_t from = static_cast<size_t>(rng() % n) * stride;
      records.insert(records.end(),
                     records.begin() + static_cast<std::ptrdiff_t>(from),
                     records.begin() + static_cast<std::ptrdiff_t>(from) +
                         dims);
    } else {
      for (int i = 0; i < dims; ++i) {
        records.push_back(origin[static_cast<size_t>(i)] + coord(rng));
      }
    }
    records.push_back(value(rng));
  }
  return records;
}

// Replays `records` through per-cell Add (the pre-builder load path).
void AddRecords(const std::vector<int64_t>& records, int dims,
                DynamicDataCube* cube) {
  const size_t stride = static_cast<size_t>(dims) + 1;
  for (size_t at = 0; at < records.size(); at += stride) {
    const Cell cell(records.begin() + static_cast<std::ptrdiff_t>(at),
                    records.begin() + static_cast<std::ptrdiff_t>(at) + dims);
    cube->Add(cell, records[at + static_cast<size_t>(dims)]);
  }
}

// Every answer of `cube` equals the oracle, which holds the same cells in
// coordinates local to the cube's domain.
void ExpectMatchesOracle(const DynamicDataCube& cube, const NaiveCube& oracle,
                         std::mt19937_64& rng) {
  const int dims = cube.dims();
  const Cell lo = cube.DomainLo();
  WorkloadGenerator gen(Shape::Cube(dims, cube.side()), rng());
  for (int probe = 0; probe < 64; ++probe) {
    Box local = gen.UniformBox();
    Box global = local;
    for (size_t i = 0; i < static_cast<size_t>(dims); ++i) {
      global.lo[i] += lo[i];
      global.hi[i] += lo[i];
    }
    ASSERT_EQ(cube.RangeSum(global), oracle.RangeSum(local))
        << local.ToString();
    const Cell c = gen.UniformCell();
    ASSERT_EQ(cube.Get(CellAdd(c, lo)), oracle.Get(c)) << CellToString(c);
  }
}

class BuildFromCellsWall : public ::testing::TestWithParam<WallParam> {};

TEST_P(BuildFromCellsWall, MatchesPerCellAddAndOracle) {
  const WallParam p = GetParam();
  const DdcOptions options = WallOptions(p);
  std::mt19937_64 rng(static_cast<uint64_t>(
      p.dims * 1000 + p.side + p.elide_levels * 7 +
      static_cast<int>(p.faces) * 13));
  // A negative origin, so the global-to-local shift is exercised too.
  const Cell origin = UniformCell(p.dims, -p.side / 2 - 3);
  int64_t cells = 1;
  for (int i = 0; i < p.dims; ++i) cells *= p.side;
  const int count = static_cast<int>(std::min<int64_t>(cells / 3 + 1, 300));
  for (const bool signed_values : {false, true}) {
    const std::vector<int64_t> records = RandomRecords(
        p.dims, p.side, origin, count, signed_values ? -9 : 1, 9, rng);
    auto bulk = DynamicDataCube::FromRecords(p.dims, p.side, options, origin,
                                             records);
    DynamicDataCube per_cell(p.dims, p.side, options, origin);
    AddRecords(records, p.dims, &per_cell);
    NaiveCube oracle(Shape::Cube(p.dims, p.side));
    const size_t stride = static_cast<size_t>(p.dims) + 1;
    for (size_t at = 0; at < records.size(); at += stride) {
      Cell local(records.begin() + static_cast<std::ptrdiff_t>(at),
                 records.begin() + static_cast<std::ptrdiff_t>(at) + p.dims);
      oracle.Add(CellSub(local, origin), records[at + stride - 1]);
    }

    EXPECT_EQ(bulk->TotalSum(), per_cell.TotalSum());
    ExpectMatchesOracle(*bulk, oracle, rng);
    if (signed_values) {
      // Cancelling repeats and line sums are never materialized.
      EXPECT_LE(bulk->StorageCells(), per_cell.StorageCells());
    } else {
      EXPECT_EQ(bulk->StorageCells(), per_cell.StorageCells());
      // Each stored value is written exactly once.
      EXPECT_EQ(bulk->counters().values_written, bulk->StorageCells());
    }
  }
}

std::vector<WallParam> WallParams() {
  std::vector<WallParam> params;
  for (int dims = 1; dims <= 4; ++dims) {
    for (int elide = 0; elide <= 2; ++elide) {
      for (Faces faces : {Faces::kSparse, Faces::kDense, Faces::kFenwick}) {
        if (dims == 1 && faces != Faces::kSparse) continue;  // No faces.
        const int64_t side = dims <= 2 ? 64 : (dims == 3 ? 16 : 8);
        params.push_back({dims, side, elide, faces});
      }
    }
    // The whole cube is one leaf block (side <= min_box_side).
    params.push_back({dims, 4, 1, Faces::kSparse});
    params.push_back({dims, 2, 0, Faces::kSparse});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BuildFromCellsWall,
                         ::testing::ValuesIn(WallParams()));

// Growth re-roots rebuild through BuildFromCells; a grown cube must still
// answer as the oracle and hold exactly what a per-cell build of its final
// domain holds.
TEST(BuildFromCellsGrowth, GrownDomainsMatchPerCellBuild) {
  for (int dims = 1; dims <= 3; ++dims) {
    for (int elide = 0; elide <= 2; ++elide) {
      DdcOptions options;
      options.elide_levels = elide;
      std::mt19937_64 rng(static_cast<uint64_t>(dims * 10 + elide));
      DynamicDataCube grown(dims, 2, options);
      const int64_t spread = dims == 3 ? 24 : 90;
      const Cell spread_lo = UniformCell(dims, -spread / 2);
      const std::vector<int64_t> records =
          RandomRecords(dims, spread, spread_lo, 200, 1, 9, rng);
      AddRecords(records, dims, &grown);
      ASSERT_GT(grown.growth_doublings(), 0);

      DynamicDataCube per_cell(dims, grown.side(), options, grown.DomainLo());
      AddRecords(records, dims, &per_cell);
      EXPECT_EQ(grown.StorageCells(), per_cell.StorageCells())
          << "dims=" << dims << " elide=" << elide;
      NaiveCube oracle(Shape::Cube(dims, grown.side()));
      const size_t stride = static_cast<size_t>(dims) + 1;
      for (size_t at = 0; at < records.size(); at += stride) {
        Cell global(records.begin() + static_cast<std::ptrdiff_t>(at),
                    records.begin() + static_cast<std::ptrdiff_t>(at) + dims);
        oracle.Add(CellSub(global, grown.DomainLo()), records[at + dims]);
      }
      ExpectMatchesOracle(grown, oracle, rng);
    }
  }
}

// Builder order is the order ForEachNonZero reports, so a rebuild from an
// enumeration skips the sort and reproduces the cube exactly.
TEST(BuildFromCellsOrder, EnumerationRoundTrips) {
  std::mt19937_64 rng(5);
  for (int dims = 1; dims <= 4; ++dims) {
    const int64_t side = dims <= 2 ? 128 : 16;
    const Cell origin = UniformCell(dims, 0);
    auto cube = DynamicDataCube::FromRecords(
        dims, side, {}, origin,
        RandomRecords(dims, side, origin, 400, -9, 9, rng));
    std::vector<int64_t> records;
    cube->ForEachNonZero([&](const Cell& cell, int64_t value) {
      records.insert(records.end(), cell.begin(), cell.end());
      records.push_back(value);
    });
    std::vector<int64_t> reversed;
    const size_t stride = static_cast<size_t>(dims) + 1;
    for (size_t at = records.size(); at > 0; at -= stride) {
      reversed.insert(reversed.end(),
                      records.begin() + static_cast<std::ptrdiff_t>(at - stride),
                      records.begin() + static_cast<std::ptrdiff_t>(at));
    }
    auto again = DynamicDataCube::FromRecords(dims, side, {}, origin, records);
    auto from_reversed =
        DynamicDataCube::FromRecords(dims, side, {}, origin, reversed);
    for (const auto* rebuilt : {again.get(), from_reversed.get()}) {
      EXPECT_EQ(rebuilt->StorageCells(), cube->StorageCells());
      std::vector<int64_t> seen;
      rebuilt->ForEachNonZero([&](const Cell& cell, int64_t value) {
        seen.insert(seen.end(), cell.begin(), cell.end());
        seen.push_back(value);
      });
      EXPECT_EQ(seen, records) << "dims=" << dims;
    }
  }
}

// Domains whose builder-order key needs more than 64 bits (d * log2(side)
// > 64) are ordered by the comparator sort instead of the key sort; the
// result must match per-cell Add all the same.
TEST(BuildFromCellsOrder, WideDomainsUseComparatorOrder) {
  std::mt19937_64 rng(64);
  for (const auto& [dims, side_bits, count] :
       {std::tuple{2, 33, 200}, std::tuple{3, 22, 12}}) {
    const int64_t side = int64_t{1} << side_bits;
    ASSERT_GT(dims * side_bits, 64);
    const Cell origin = UniformCell(dims, -(side / 2));
    const std::vector<int64_t> records =
        RandomRecords(dims, side, origin, count, 1, 9, rng);
    auto bulk =
        DynamicDataCube::FromRecords(dims, side, {}, origin, records);
    DynamicDataCube per_cell(dims, side, {}, origin);
    AddRecords(records, dims, &per_cell);
    EXPECT_EQ(bulk->StorageCells(), per_cell.StorageCells());
    EXPECT_EQ(bulk->TotalSum(), per_cell.TotalSum());
    const size_t stride = static_cast<size_t>(dims) + 1;
    for (size_t at = 0; at + stride <= records.size(); at += stride) {
      const Cell c(records.begin() + static_cast<std::ptrdiff_t>(at),
                   records.begin() + static_cast<std::ptrdiff_t>(at) + dims);
      ASSERT_EQ(bulk->Get(c), per_cell.Get(c)) << CellToString(c);
      ASSERT_EQ(bulk->RangeSum(Box{origin, c}),
                per_cell.RangeSum(Box{origin, c}))
          << CellToString(c);
    }
  }
}

// Minimum build time over a few runs, in seconds.
double MinBuildSeconds(int64_t side, const std::vector<int64_t>& records,
                       int64_t* storage_cells) {
  double best = 1e9;
  for (int run = 0; run < 3; ++run) {
    std::vector<int64_t> copy = records;
    const auto t0 = std::chrono::steady_clock::now();
    auto cube = DynamicDataCube::FromRecords(2, side, {}, UniformCell(2, 0),
                                             std::move(copy));
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    *storage_cells = cube->StorageCells();
    EXPECT_EQ(cube->counters().values_written, *storage_cells);
  }
  return best;
}

// A sparse cube in a huge domain costs in proportion to what it stores:
// 1k cells at side 2^20 against the same 1k cells at side 2^10. A builder
// that touched the domain (a dense k-vector per face) would take ~1000x
// longer on the big side; the build time must instead track StorageCells.
TEST(BuildFromCellsScaling, SparseHugeDomainFollowsStorage) {
  std::mt19937_64 rng(2020);
  std::uniform_int_distribution<int64_t> coord(0, 1023);
  std::vector<int64_t> small;
  std::vector<int64_t> huge;
  for (int q = 0; q < 1000; ++q) {
    const int64_t x = coord(rng);
    const int64_t y = coord(rng);
    small.insert(small.end(), {x, y, 1});
    // The same pattern spread over the 2^20 domain.
    huge.insert(huge.end(), {x << 10, y << 10, 1});
  }
  int64_t small_storage = 0;
  int64_t huge_storage = 0;
  const double small_s = MinBuildSeconds(int64_t{1} << 10, small,
                                         &small_storage);
  const double huge_s = MinBuildSeconds(int64_t{1} << 20, huge,
                                        &huge_storage);
  const double storage_ratio = static_cast<double>(huge_storage) /
                               static_cast<double>(small_storage);
  EXPECT_LT(storage_ratio, 8.0);
  // Generous slack for a noisy host; domain-proportional work would be
  // hundreds of times over.
  EXPECT_LT(huge_s, 10.0 * storage_ratio * small_s + 0.01)
      << "small " << small_s << " s, huge " << huge_s << " s";
}

}  // namespace
}  // namespace ddc
