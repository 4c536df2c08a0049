// Tests for ShrinkToFit (the inverse of Section 5 growth) and the
// structural statistics API.

#include <array>
#include <set>

#include <gtest/gtest.h>

#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {
namespace {

TEST(ShrinkTest, ShrinksAfterDeletions) {
  DynamicDataCube cube(2, 4);
  cube.Add({1000, 1000}, 5);  // Grows to cover 1000.
  const int64_t grown_side = cube.side();
  EXPECT_GE(grown_side, 1024);
  cube.Add({1000, 1000}, -5);  // Delete the far value.
  cube.Add({2, 3}, 7);
  cube.ShrinkToFit();
  EXPECT_EQ(cube.side(), 2);
  EXPECT_EQ(cube.Get({2, 3}), 7);
  EXPECT_EQ(cube.TotalSum(), 7);
}

TEST(ShrinkTest, EmptyCubeShrinksToMinSide) {
  DynamicDataCube cube(2, 4);
  cube.Add({500, 500}, 1);
  cube.Add({500, 500}, -1);
  cube.ShrinkToFit(/*min_side=*/8);
  EXPECT_EQ(cube.side(), 8);
  EXPECT_EQ(cube.TotalSum(), 0);
}

TEST(ShrinkTest, NoOpWhenAlreadyTight) {
  DynamicDataCube cube(2, 8);
  cube.Add({0, 0}, 1);
  cube.Add({7, 7}, 1);
  cube.ShrinkToFit();
  EXPECT_EQ(cube.side(), 8);
  EXPECT_EQ(cube.TotalSum(), 2);
}

TEST(ShrinkTest, AnswersPreservedOnRandomData) {
  DynamicDataCube cube(2, 4);
  WorkloadGenerator gen(Shape::Cube(2, 32), 21);
  // Scatter data into a 32-wide window placed far from the origin.
  const Coord kBase = 100000;
  for (int i = 0; i < 120; ++i) {
    Cell c = gen.UniformCell();
    cube.Add({c[0] + kBase, c[1] + kBase}, gen.Value(1, 9));
  }
  const int64_t before_total = cube.TotalSum();
  const Box window{{kBase, kBase}, {kBase + 31, kBase + 31}};
  const int64_t before_window = cube.RangeSum(window);
  const int64_t before_half = cube.RangeSum(
      Box{{kBase, kBase}, {kBase + 15, kBase + 31}});

  cube.ShrinkToFit();
  EXPECT_LE(cube.side(), 32);
  EXPECT_EQ(cube.TotalSum(), before_total);
  EXPECT_EQ(cube.RangeSum(window), before_window);
  EXPECT_EQ(cube.RangeSum(Box{{kBase, kBase}, {kBase + 15, kBase + 31}}),
            before_half);
  // Storage shrank along with the domain.
  EXPECT_LT(cube.StorageCells(), 32 * 32 * 8);
}

TEST(ShrinkTest, RespectsMinSide) {
  DynamicDataCube cube(2, 256);
  cube.Add({3, 3}, 1);
  cube.ShrinkToFit(/*min_side=*/64);
  EXPECT_EQ(cube.side(), 64);
}

TEST(StatsTest, EmptyCube) {
  DynamicDataCube cube(2, 64);
  const DdcStats stats = cube.Stats();
  EXPECT_EQ(stats.nodes, 0);
  EXPECT_EQ(stats.boxes, 0);
  EXPECT_EQ(stats.nonzero_cells, 0);
}

TEST(StatsTest, SingleCellPath) {
  // The paper's full tree (elide_levels = 0), whatever the default shape.
  DynamicDataCube cube(2, 64, {.elide_levels = 0});
  cube.Add({10, 20}, 5);
  const DdcStats stats = cube.Stats();
  // One node per level above the leaf blocks: 64 -> boxes 32, 16, 8, 4, 2;
  // nodes with box sides 32..2 = 5 nodes; one box per node; raw block at
  // the bottom.
  EXPECT_EQ(stats.nodes, 5);
  EXPECT_EQ(stats.boxes, 5);
  EXPECT_EQ(stats.raw_blocks, 1);
  EXPECT_EQ(stats.raw_cells, 4);  // Side-2 leaf block.
  EXPECT_EQ(stats.face_stores, 10);  // d=2 faces per box.
  EXPECT_EQ(stats.nonzero_cells, 1);
}

TEST(StatsTest, NonZeroCountMatchesReference) {
  DynamicDataCube cube(3, 16);
  WorkloadGenerator gen(Shape::Cube(3, 16), 31);
  std::set<std::array<Coord, 3>> expected;
  for (int i = 0; i < 200; ++i) {
    Cell c = gen.UniformCell();
    cube.Add(c, 1);  // Strictly positive: no cancellation.
    expected.insert({c[0], c[1], c[2]});
  }
  EXPECT_EQ(cube.Stats().nonzero_cells,
            static_cast<int64_t>(expected.size()));
}

TEST(StatsTest, ElidedTreesHaveFewerNodes) {
  WorkloadGenerator gen(Shape::Cube(2, 128), 41);
  const auto ops = gen.UniformUpdates(500, 1, 9);

  DynamicDataCube full(2, 128, {.elide_levels = 0});
  DdcOptions elided_options;
  elided_options.elide_levels = 3;
  DynamicDataCube elided(2, 128, elided_options);
  for (const UpdateOp& op : ops) {
    full.Add(op.cell, op.delta);
    elided.Add(op.cell, op.delta);
  }
  EXPECT_LT(elided.Stats().nodes, full.Stats().nodes);
  EXPECT_GT(elided.Stats().raw_cells, full.Stats().raw_cells);
  EXPECT_EQ(elided.Stats().nonzero_cells, full.Stats().nonzero_cells);
}

}  // namespace
}  // namespace ddc
