// Contract tests: misuse of the public APIs must fail fast with a
// DDC_CHECK diagnostic (the library does not use exceptions), and the
// checked preconditions documented in the headers must actually be
// enforced.

#include <gtest/gtest.h>

#include "basic_ddc/basic_ddc.h"
#include "bctree/bc_tree.h"
#include "common/shape.h"
#include "ddc/dynamic_data_cube.h"
#include "minmax/extrema_cube.h"
#include "prefix/prefix_sum_cube.h"

namespace ddc {
namespace {

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, ShapeRejectsZeroExtent) {
  EXPECT_DEATH(Shape({4, 0}), "DDC_CHECK");
}

TEST(ContractsDeathTest, ShapeRejectsEmptyExtents) {
  EXPECT_DEATH(Shape(std::vector<Coord>{}), "DDC_CHECK");
}

TEST(ContractsDeathTest, BcTreeRejectsBadGeometry) {
  EXPECT_DEATH(BcTree(0, 8), "DDC_CHECK");
  EXPECT_DEATH(BcTree(16, 1), "DDC_CHECK");
}

TEST(ContractsDeathTest, BcTreeRejectsOutOfRangeIndex) {
  BcTree tree(8, 4);
  EXPECT_DEATH(tree.Add(8, 1), "DDC_CHECK");
  EXPECT_DEATH(tree.Add(-1, 1), "DDC_CHECK");
  EXPECT_DEATH(tree.CumulativeSum(8), "DDC_CHECK");
}

TEST(ContractsDeathTest, BcTreeBulkBuildRequiresEmptyTree) {
  BcTree tree(8, 4);
  tree.Add(0, 1);
  EXPECT_DEATH(tree.BuildFromSorted(std::vector<int64_t>{1, 2}), "DDC_CHECK");
}

TEST(ContractsDeathTest, BcTreeBulkBuildRejectsUnsortedOrOutOfRange) {
  BcTree tree(8, 4);
  EXPECT_DEATH(tree.BuildFromSorted(std::vector<int64_t>{3, 1, 2, 1}),
               "DDC_CHECK");
  EXPECT_DEATH(tree.BuildFromSorted(std::vector<int64_t>{8, 1}), "DDC_CHECK");
}

TEST(ContractsDeathTest, DdcRejectsNonPowerOfTwoSide) {
  EXPECT_DEATH(DynamicDataCube(2, 100), "DDC_CHECK");
  EXPECT_DEATH(DynamicDataCube(2, 1), "DDC_CHECK");
  EXPECT_DEATH(DynamicDataCube(0, 16), "DDC_CHECK");
}

TEST(ContractsDeathTest, DdcPrefixSumRequiresDomainCell) {
  DynamicDataCube cube(2, 16);
  EXPECT_DEATH(cube.PrefixSum({16, 0}), "DDC_CHECK");
  EXPECT_DEATH(cube.PrefixSum({0, -1}), "DDC_CHECK");
}

TEST(ContractsDeathTest, DdcShrinkRequiresPowerOfTwoMinSide) {
  DynamicDataCube cube(2, 16);
  EXPECT_DEATH(cube.ShrinkToFit(3), "DDC_CHECK");
}

TEST(ContractsDeathTest, BasicDdcRejectsOutOfDomainUpdate) {
  BasicDdc cube(2, 8);
  EXPECT_DEATH(cube.Add({8, 0}, 1), "DDC_CHECK");
}

TEST(ContractsDeathTest, PrefixSumCubeRejectsOutOfDomain) {
  PrefixSumCube cube(Shape::Cube(2, 8));
  EXPECT_DEATH(cube.Add({0, 8}, 1), "DDC_CHECK");
  EXPECT_DEATH(cube.PrefixSum({-1, 0}), "DDC_CHECK");
}

TEST(ContractsDeathTest, ExtremaCubeRejectsBadGeometry) {
  EXPECT_DEATH(ExtremaCube(2, 3), "DDC_CHECK");
  ExtremaCube cube(2, 8);
  EXPECT_DEATH(cube.Set({8, 0}, 1), "DDC_CHECK");
}

// Mismatched cell arity is caught in debug builds of the hot paths and by
// the domain checks on the public entry points.
TEST(ContractsDeathTest, WrongArityCellsRejected) {
  DynamicDataCube cube(3, 8);
  EXPECT_DEATH(cube.Add({1, 2}, 5), "DDC_CHECK");
}

}  // namespace
}  // namespace ddc
