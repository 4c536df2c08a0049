#include "ddc/ddc_core.h"

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_util.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "paper_example.h"

namespace ddc {
namespace {

using testing_support::kTargetCell;
using testing_support::kTargetRegionSum;
using testing_support::LoadPaperArray;

TEST(DdcCoreTest, PaperWalkthrough) {
  // The paper's full tree: at the default shape an 8x8 cube is one block.
  DynamicDataCube cube(2, 8, {.elide_levels = 0});
  LoadPaperArray(&cube);
  EXPECT_EQ(cube.PrefixSum({3, 3}), 51);
  EXPECT_EQ(cube.PrefixSum(kTargetCell), kTargetRegionSum);
  cube.Set(kTargetCell, 6);
  EXPECT_EQ(cube.PrefixSum(kTargetCell), kTargetRegionSum + 1);
  EXPECT_EQ(cube.Get(kTargetCell), 6);
}

TEST(DdcCoreTest, EmptyCube) {
  DdcCore core(3, 16, DdcOptions{}, nullptr);
  EXPECT_EQ(core.PrefixSum({15, 15, 15}), 0);
  EXPECT_EQ(core.Get({0, 0, 0}), 0);
  EXPECT_EQ(core.TotalSum(), 0);
  EXPECT_EQ(core.StorageCells(), 0);
}

TEST(DdcCoreTest, TotalSumIsMaintained) {
  DdcCore core(2, 32, DdcOptions{}, nullptr);
  core.Add({0, 0}, 5);
  core.Add({31, 31}, 7);
  core.Add({16, 3}, -2);
  EXPECT_EQ(core.TotalSum(), 10);
  EXPECT_EQ(core.PrefixSum({31, 31}), 10);
}

struct CoreParam {
  int dims;
  int64_t side;
  int elide_levels;
  bool use_fenwick;
  int bc_fanout;
};

class DdcCoreRandomTest : public ::testing::TestWithParam<CoreParam> {};

TEST_P(DdcCoreRandomTest, AgreesWithNaive) {
  const CoreParam p = GetParam();
  DdcOptions options;
  options.elide_levels = p.elide_levels;
  options.use_fenwick = p.use_fenwick;
  options.bc_fanout = p.bc_fanout;
  const Shape shape = Shape::Cube(p.dims, p.side);
  NaiveCube naive(shape);
  DdcCore core(p.dims, p.side, options, nullptr);
  WorkloadGenerator gen(shape, static_cast<uint64_t>(
                                   p.dims * 7919 + p.side * 13 +
                                   p.elide_levels * 3 + (p.use_fenwick ? 1 : 0)));
  for (int i = 0; i < 120; ++i) {
    UpdateOp op{gen.UniformCell(), gen.Value(-9, 9)};
    naive.Add(op.cell, op.delta);
    core.Add(op.cell, op.delta);
    const Cell probe = gen.UniformCell();
    ASSERT_EQ(core.PrefixSum(probe), naive.PrefixSum(probe))
        << CellToString(probe) << " after op " << i;
    ASSERT_EQ(core.Get(op.cell), naive.Get(op.cell));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimSideSweep, DdcCoreRandomTest,
    ::testing::Values(
        CoreParam{1, 2, 0, false, 8}, CoreParam{1, 64, 0, false, 8},
        CoreParam{2, 2, 0, false, 8}, CoreParam{2, 4, 0, false, 8},
        CoreParam{2, 16, 0, false, 8}, CoreParam{2, 64, 0, false, 2},
        CoreParam{3, 8, 0, false, 8}, CoreParam{3, 16, 0, false, 4},
        CoreParam{4, 4, 0, false, 8}, CoreParam{4, 8, 0, false, 8},
        // Section 4.4 space optimization: elided levels.
        CoreParam{2, 32, 1, false, 8}, CoreParam{2, 32, 2, false, 8},
        CoreParam{2, 32, 3, false, 8}, CoreParam{3, 16, 1, false, 8},
        CoreParam{3, 16, 2, false, 8},
        // Fenwick ablation.
        CoreParam{2, 32, 0, true, 8}, CoreParam{3, 8, 0, true, 8}));

// Answer-equivalence across every elision level h: the optimization trades
// space and query cost but never answers (Section 4.4).
TEST(DdcCoreTest, ElisionLevelsAreAnswerEquivalent) {
  const Shape shape = Shape::Cube(2, 64);
  WorkloadGenerator gen(shape, 99);
  std::vector<UpdateOp> ops = gen.UniformUpdates(200, -9, 9);

  DdcOptions base;
  base.elide_levels = 0;
  DdcCore reference(2, 64, base, nullptr);
  for (const UpdateOp& op : ops) reference.Add(op.cell, op.delta);

  for (int h = 1; h <= 5; ++h) {
    DdcOptions options;
    options.elide_levels = h;
    DdcCore core(2, 64, options, nullptr);
    for (const UpdateOp& op : ops) core.Add(op.cell, op.delta);
    WorkloadGenerator probes(shape, 100 + static_cast<uint64_t>(h));
    for (int i = 0; i < 100; ++i) {
      const Cell probe = probes.UniformCell();
      ASSERT_EQ(core.PrefixSum(probe), reference.PrefixSum(probe))
          << "h=" << h << " " << CellToString(probe);
    }
  }
}

// Storage decreases as h grows (the Table 2 motivation): the lowest tree
// levels are the dense ones.
TEST(DdcCoreTest, ElisionSavesStorage) {
  const Shape shape = Shape::Cube(2, 64);
  WorkloadGenerator gen(shape, 7);
  std::vector<UpdateOp> ops = gen.UniformUpdates(2000, 1, 9);

  int64_t prev = INT64_MAX;
  for (int h = 0; h <= 3; ++h) {
    DdcOptions options;
    options.elide_levels = h;
    DdcCore core(2, 64, options, nullptr);
    for (const UpdateOp& op : ops) core.Add(op.cell, op.delta);
    EXPECT_LT(core.StorageCells(), prev) << "h=" << h;
    prev = core.StorageCells();
  }
}

TEST(DdcCoreTest, ForEachNonZeroEnumeratesExactly) {
  const Shape shape = Shape::Cube(2, 32);
  DdcCore core(2, 32, DdcOptions{}, nullptr);
  std::map<std::pair<Coord, Coord>, int64_t> reference;
  WorkloadGenerator gen(shape, 17);
  for (int i = 0; i < 100; ++i) {
    Cell c = gen.UniformCell();
    int64_t d = gen.Value(-3, 3);
    core.Add(c, d);
    reference[{c[0], c[1]}] += d;
    if (reference[{c[0], c[1]}] == 0) reference.erase({c[0], c[1]});
  }
  std::map<std::pair<Coord, Coord>, int64_t> seen;
  core.ForEachNonZero([&](const Cell& c, int64_t v) {
    EXPECT_TRUE(seen.emplace(std::make_pair(c[0], c[1]), v).second)
        << "duplicate " << CellToString(c);
  });
  EXPECT_EQ(seen, reference);
}

// Sparse clustered cubes: storage is proportional to populated regions,
// not the domain (Section 5's clustered-data claim).
TEST(DdcCoreTest, ClusteredDataStaysSparse) {
  const int64_t side = 4096;
  DdcCore core(2, side, DdcOptions{}, nullptr);
  ClusteredGenerator gen(Shape::Cube(2, side), 4, 0.002, 23);
  for (int i = 0; i < 1000; ++i) {
    core.Add(gen.NextCell(), 1);
  }
  // The dense array would be 16.7M cells; the clustered cube stays far
  // below 1% of that.
  EXPECT_LT(core.StorageCells(), side * side / 100);
  EXPECT_EQ(core.TotalSum(), 1000);
}

// Cost counters: updates and queries stay polylog. For d=2, n=1024 the
// bound O(log^2 n) with modest constants.
TEST(DdcCoreTest, PolylogCosts) {
  OpCounters counters;
  DdcCore core(2, 1024, DdcOptions{}, &counters);
  WorkloadGenerator gen(Shape::Cube(2, 1024), 31);
  for (const UpdateOp& op : gen.UniformUpdates(400, 1, 9)) {
    core.Add(op.cell, op.delta);
  }
  // log2(1024) = 10; allow generous constants: per level, one subtotal +
  // d B_c-tree updates of O(log k) writes each.
  counters.Reset();
  core.Add({0, 0}, 1);
  EXPECT_LE(counters.values_written, 250);

  counters.Reset();
  core.PrefixSum({1023, 1023});
  EXPECT_LE(counters.values_read, 50);  // All-subtotal fast path.

  counters.Reset();
  core.PrefixSum({513, 511});
  EXPECT_LE(counters.values_read, 800);  // O(log^2 n) with B_c constants.
}

TEST(DdcCoreTest, MinBoxSideClamping) {
  DdcOptions options;
  options.elide_levels = 10;  // Larger than the tree: whole cube raw.
  DdcCore core(2, 16, options, nullptr);
  EXPECT_EQ(core.min_box_side(), 16);
  core.Add({3, 3}, 5);
  EXPECT_EQ(core.PrefixSum({15, 15}), 5);
  EXPECT_EQ(core.StorageCells(), 256);  // One dense raw block.
}

// ---------------------------------------------------------------------------
// Flat leaf blocks at the default shape (elide_levels = 2: blocks of side 8,
// min_box_side^d cells each) against NaiveCube.

Cell RandomCell(std::mt19937_64& rng, int dims, Coord lo, Coord hi) {
  std::uniform_int_distribution<Coord> coord(lo, hi);
  Cell cell(static_cast<size_t>(dims));
  for (Coord& c : cell) c = coord(rng);
  return cell;
}

// Every read path of `core` agrees with `naive` on `probes`, and the
// enumeration, statistics and a bulk-built twin agree with it too.
void ExpectCoreMatchesNaive(const DdcCore& core, const NaiveCube& naive,
                            const std::vector<Cell>& probes) {
  std::vector<int64_t> batch(probes.size());
  core.PrefixSumBatch(probes, batch);
  for (size_t i = 0; i < probes.size(); ++i) {
    const int64_t expected = naive.PrefixSum(probes[i]);
    ASSERT_EQ(core.PrefixSum(probes[i]), expected) << CellToString(probes[i]);
    ASSERT_EQ(batch[i], expected) << CellToString(probes[i]);
    ASSERT_EQ(core.Get(probes[i]), naive.Get(probes[i]));
  }
  std::vector<int64_t> records;
  int64_t nonzero = 0;
  core.ForEachNonZero([&](const Cell& c, int64_t v) {
    EXPECT_EQ(v, naive.Get(c)) << CellToString(c);
    records.insert(records.end(), c.begin(), c.end());
    records.push_back(v);
    ++nonzero;
  });
  int64_t expected_nonzero = 0;
  for (int64_t i = 0; i < naive.array().size(); ++i) {
    if (naive.array().at_linear(i) != 0) ++expected_nonzero;
  }
  EXPECT_EQ(nonzero, expected_nonzero);
  EXPECT_EQ(core.Stats().nonzero_cells, expected_nonzero);

  DdcCore built(core.dims(), core.side(), DdcOptions{}, nullptr);
  built.BuildFromCells(std::move(records));
  // Adds whose deltas cancelled leave materialized zero regions behind; the
  // bulk build allocates only what the nonzero cells need.
  EXPECT_LE(built.StorageCells(), core.StorageCells());
  for (const Cell& probe : probes) {
    ASSERT_EQ(built.PrefixSum(probe), naive.PrefixSum(probe))
        << "bulk-built " << CellToString(probe);
  }
}

// Point adds and batched adds (with repeats) of small deltas.
void DriveAdds(DdcCore& core, NaiveCube& naive, std::mt19937_64& rng,
               int rounds) {
  std::uniform_int_distribution<int64_t> delta(-9, 9);
  const int dims = core.dims();
  for (int round = 0; round < rounds; ++round) {
    const Cell cell = RandomCell(rng, dims, 0, core.side() - 1);
    const int64_t d = delta(rng);
    core.Add(cell, d);
    naive.Add(cell, d);
    std::vector<Cell> cells;
    std::vector<int64_t> deltas;
    for (int i = 0; i < 24; ++i) {
      cells.push_back(i % 6 == 5 ? cells.back()
                                 : RandomCell(rng, dims, 0, core.side() - 1));
      deltas.push_back(delta(rng));
      naive.Add(cells.back(), deltas.back());
    }
    core.AddBatch(cells, deltas);
  }
}

TEST(FlatLeafBlockTest, CubeNoLargerThanABlockIsOneRootBlock) {
  for (int64_t side : {2, 4, 8}) {
    SCOPED_TRACE("side=" + std::to_string(side));
    DdcCore core(2, side, DdcOptions{}, nullptr);
    EXPECT_EQ(core.min_box_side(), side);
    NaiveCube naive(Shape::Cube(2, side));
    std::mt19937_64 rng(static_cast<uint64_t>(side));
    DriveAdds(core, naive, rng, 4);
    const DdcStats stats = core.Stats();
    EXPECT_EQ(stats.nodes, 0);
    EXPECT_EQ(stats.raw_blocks, 1);
    EXPECT_EQ(stats.raw_cells, side * side);
    EXPECT_EQ(core.StorageCells(), side * side);
    EXPECT_EQ(core.DescentLevels(), 1);
    std::vector<Cell> every;
    const Shape shape = Shape::Cube(2, side);
    Cell c(2, 0);
    do every.push_back(c); while (shape.NextCell(&c));
    ExpectCoreMatchesNaive(core, naive, every);
  }
}

// A leaf block holds at most 2^kLeafBlockBudgetBits cells: the side is
// 2^(h+1) capped to the largest power of two whose block fits, never below
// 2, and never above the cube side.
TEST(FlatLeafBlockTest, BlockSideShrinksToTheCellBudget) {
  for (int dims = 1; dims <= 20; ++dims) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const int64_t expected_default = dims <= 4 ? 8 : dims <= 6 ? 4 : 2;
    EXPECT_EQ(DdcCore(dims, 1024, DdcOptions{}, nullptr).min_box_side(),
              expected_default);
    DdcOptions deep;
    deep.elide_levels = 30;
    const int64_t capped =
        DdcCore(dims, int64_t{1} << 30, deep, nullptr).min_box_side();
    const int bits = FloorLog2(capped);
    EXPECT_EQ(bits, std::max(1, DdcCore::kLeafBlockBudgetBits / dims));
    EXPECT_EQ(DdcCore(dims, 1024, DdcOptions{.elide_levels = 0}, nullptr)
                  .min_box_side(),
              2);
  }
}

// From 7 dimensions the default cube, nested faces included, has exactly
// the paper's full-tree shape: same storage, same answers.
TEST(FlatLeafBlockTest, HighDimensionalDefaultIsTheFullTree) {
  const int dims = 8;
  DynamicDataCube cube(dims, 8);
  DynamicDataCube full(dims, 8, {.elide_levels = 0});
  EXPECT_EQ(cube.min_box_side(), 2);
  std::mt19937_64 rng(808);
  std::uniform_int_distribution<int64_t> delta(-9, 9);
  for (int i = 0; i < 20; ++i) {
    const Cell cell = RandomCell(rng, dims, 0, 7);
    const int64_t d = delta(rng);
    cube.Add(cell, d);
    full.Add(cell, d);
  }
  EXPECT_EQ(cube.StorageCells(), full.StorageCells());
  for (int i = 0; i < 50; ++i) {
    const Cell probe = RandomCell(rng, dims, 0, 7);
    ASSERT_EQ(cube.PrefixSum(probe), full.PrefixSum(probe))
        << CellToString(probe);
  }
}

struct FlatDimsParam {
  int dims;
  int64_t side;
  int64_t block_side;
};

class FlatLeafBlockDimsTest : public ::testing::TestWithParam<FlatDimsParam> {
};

TEST_P(FlatLeafBlockDimsTest, DefaultShapeMatchesNaive) {
  const FlatDimsParam p = GetParam();
  DdcCore core(p.dims, p.side, DdcOptions{}, nullptr);
  EXPECT_EQ(core.min_box_side(), p.block_side);
  NaiveCube naive(Shape::Cube(p.dims, p.side));
  std::mt19937_64 rng(static_cast<uint64_t>(p.dims * 101 + p.side));
  DriveAdds(core, naive, rng, 12);
  int64_t block_cells = 1;
  for (int i = 0; i < p.dims; ++i) block_cells *= p.block_side;
  EXPECT_EQ(core.Stats().raw_cells, core.Stats().raw_blocks * block_cells);
  std::vector<Cell> probes;
  for (int i = 0; i < 150; ++i) {
    probes.push_back(RandomCell(rng, p.dims, 0, p.side - 1));
  }
  probes.push_back(Cell(static_cast<size_t>(p.dims), p.side - 1));
  probes.push_back(Cell(static_cast<size_t>(p.dims), 0));
  ExpectCoreMatchesNaive(core, naive, probes);
}

INSTANTIATE_TEST_SUITE_P(OneToSixDims, FlatLeafBlockDimsTest,
                         ::testing::Values(FlatDimsParam{1, 64, 8},
                                           FlatDimsParam{2, 64, 8},
                                           FlatDimsParam{3, 32, 8},
                                           FlatDimsParam{4, 16, 8},
                                           FlatDimsParam{5, 16, 4},
                                           FlatDimsParam{6, 8, 4}));

// Growth toward negative coordinates re-roots the default-shaped cube
// through the bulk builder; every answer must survive each re-root.
TEST(FlatLeafBlockTest, NegativeOriginGrowthMatchesNaive) {
  for (int dims : {2, 3}) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const Coord kOffset = 32;  // Naive cube covers [-32, 32)^dims.
    NaiveCube naive(Shape::Cube(dims, 64));
    DynamicDataCube cube(dims, 4);
    std::mt19937_64 rng(static_cast<uint64_t>(dims) + 900);
    std::uniform_int_distribution<int64_t> delta(-9, 9);
    for (int i = 0; i < 120; ++i) {
      // Ramp outward, mostly into negative coordinates.
      const Coord reach = 2 + i / 4;
      const Cell cell = RandomCell(rng, dims, -reach, reach / 3);
      const int64_t d = delta(rng);
      cube.Add(cell, d);
      Cell shifted = cell;
      for (Coord& x : shifted) x += kOffset;
      naive.Add(shifted, d);
    }
    EXPECT_GT(cube.growth_doublings(), 1);
    for (Coord x : cube.DomainLo()) EXPECT_LT(x, -8);
    for (int i = 0; i < 150; ++i) {
      Cell lo = RandomCell(rng, dims, -kOffset, kOffset - 1);
      Cell hi = RandomCell(rng, dims, -kOffset, kOffset - 1);
      for (size_t j = 0; j < lo.size(); ++j) {
        if (lo[j] > hi[j]) std::swap(lo[j], hi[j]);
      }
      Box naive_box{lo, hi};
      for (size_t j = 0; j < lo.size(); ++j) {
        naive_box.lo[j] += kOffset;
        naive_box.hi[j] += kOffset;
      }
      ASSERT_EQ(cube.RangeSum(Box{lo, hi}), naive.RangeSum(naive_box))
          << Box{lo, hi}.ToString();
    }
  }
}

TEST(FlatLeafBlockTest, ShrinkToFitIntoOneBlock) {
  DynamicDataCube cube(2, 64);
  NaiveCube naive(Shape::Cube(2, 64));
  std::mt19937_64 rng(77);
  for (int i = 0; i < 40; ++i) {
    const Cell cell = RandomCell(rng, 2, 40, 45);
    cube.Add(cell, 3);
    naive.Add(cell, 3);
  }
  cube.Add({1, 60}, 5);  // Far corner, cleared again before the shrink.
  cube.Add({1, 60}, -5);
  cube.ShrinkToFit();
  EXPECT_LE(cube.side(), 8);
  const DdcStats stats = cube.Stats();
  EXPECT_EQ(stats.nodes, 0);
  EXPECT_EQ(stats.raw_blocks, 1);
  for (Coord x0 = 36; x0 < 50; ++x0) {
    for (Coord x1 = 36; x1 < 50; ++x1) {
      const Box box{{36, 36}, {x0, x1}};
      ASSERT_EQ(cube.RangeSum(box), naive.RangeSum(box)) << box.ToString();
      ASSERT_EQ(cube.Get({x0, x1}), naive.Get({x0, x1}));
    }
  }
  // Writes after the shrink land in the root block (or grow it again).
  cube.Add({44, 44}, 7);
  naive.Add({44, 44}, 7);
  cube.Add({2, 2}, 1);
  naive.Add({2, 2}, 1);
  const Box all{{0, 0}, {63, 63}};
  EXPECT_EQ(cube.RangeSum(all), naive.RangeSum(all));
  EXPECT_EQ(cube.RangeSum(Box{{40, 40}, {44, 44}}),
            naive.RangeSum(Box{{40, 40}, {44, 44}}));
}

// The range-add overlay at the default shape: its signed-corner cells and
// the point cells share the flat blocks.
TEST(FlatLeafBlockTest, RangeAddOverlayMatchesNaive) {
  for (int dims : {1, 2, 3}) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const int64_t side = dims == 3 ? 16 : 32;
    DynamicDataCube cube(dims, side);
    NaiveCube naive(Shape::Cube(dims, side));
    std::mt19937_64 rng(static_cast<uint64_t>(dims) + 31);
    std::uniform_int_distribution<int64_t> delta(-9, 9);
    for (int i = 0; i < 40; ++i) {
      Cell lo = RandomCell(rng, dims, 0, side - 1);
      Cell hi = RandomCell(rng, dims, 0, side - 1);
      for (size_t j = 0; j < lo.size(); ++j) {
        if (lo[j] > hi[j]) std::swap(lo[j], hi[j]);
      }
      const Box box{lo, hi};
      const int64_t d = delta(rng);
      if (i % 3 == 0) {
        cube.Add(lo, d);
        naive.Add(lo, d);
      } else {
        cube.RangeAdd(box, d);
        const Shape shape = Shape::Cube(dims, side);
        Cell c(static_cast<size_t>(dims), 0);
        do {
          if (box.Contains(c)) naive.Add(c, d);
        } while (shape.NextCell(&c));
      }
      const Box probe{RandomCell(rng, dims, 0, side / 2),
                      Cell(static_cast<size_t>(dims), side - 1)};
      ASSERT_EQ(cube.RangeSum(probe), naive.RangeSum(probe))
          << "op " << i << " " << probe.ToString();
    }
    const Box all{Cell(static_cast<size_t>(dims), 0),
                  Cell(static_cast<size_t>(dims), side - 1)};
    EXPECT_EQ(cube.RangeSum(all), naive.RangeSum(all));
  }
}

}  // namespace
}  // namespace ddc
