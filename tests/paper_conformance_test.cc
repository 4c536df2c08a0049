// Paper conformance: every structure (and every Dynamic Data Cube option
// variant) must reproduce each scalar the paper's Section 3 walkthrough
// quotes, on the reconstructed Figure 8/9/11 array. This is the one test
// that ties the whole library back to the source text.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "basic_ddc/basic_ddc.h"
#include "common/cube_interface.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "paper_example.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"

namespace ddc {
namespace {

using testing_support::kTargetCell;
using testing_support::kTargetRegionSum;
using testing_support::LoadPaperArray;

enum class Kind {
  kNaive,
  kPrefixSum,
  kRps,
  kBasicDdc,
  kDdc,
  kDdcFanout2,
  kDdcFanout32,
  kDdcElided1,
  kDdcElided2,
  kDdcFenwick,
};

std::string KindName(const ::testing::TestParamInfo<Kind>& info) {
  switch (info.param) {
    case Kind::kNaive:
      return "Naive";
    case Kind::kPrefixSum:
      return "PrefixSum";
    case Kind::kRps:
      return "Rps";
    case Kind::kBasicDdc:
      return "BasicDdc";
    case Kind::kDdc:
      return "Ddc";
    case Kind::kDdcFanout2:
      return "DdcFanout2";
    case Kind::kDdcFanout32:
      return "DdcFanout32";
    case Kind::kDdcElided1:
      return "DdcElided1";
    case Kind::kDdcElided2:
      return "DdcElided2";
    case Kind::kDdcFenwick:
      return "DdcFenwick";
  }
  return "?";
}

std::unique_ptr<CubeInterface> MakeCube(Kind kind) {
  const int64_t side = testing_support::kPaperSide;
  DdcOptions options;
  switch (kind) {
    case Kind::kNaive:
      return std::make_unique<NaiveCube>(Shape::Cube(2, side));
    case Kind::kPrefixSum:
      return std::make_unique<PrefixSumCube>(Shape::Cube(2, side));
    case Kind::kRps:
      return std::make_unique<RelativePrefixSumCube>(Shape::Cube(2, side));
    case Kind::kBasicDdc:
      return std::make_unique<BasicDdc>(2, side);
    case Kind::kDdc:  // The paper's full tree; kDdcElided2 is the default.
      options.elide_levels = 0;
      break;
    case Kind::kDdcFanout2:
      options.bc_fanout = 2;
      break;
    case Kind::kDdcFanout32:
      options.bc_fanout = 32;
      break;
    case Kind::kDdcElided1:
      options.elide_levels = 1;
      break;
    case Kind::kDdcElided2:
      options.elide_levels = 2;
      break;
    case Kind::kDdcFenwick:
      options.use_fenwick = true;
      break;
  }
  return std::make_unique<DynamicDataCube>(2, side, options);
}

class PaperConformanceTest : public ::testing::TestWithParam<Kind> {};

TEST_P(PaperConformanceTest, Section3WalkthroughScalars) {
  auto cube = MakeCube(GetParam());
  LoadPaperArray(cube.get());

  // Section 3.1: overlay values of the first box.
  EXPECT_EQ(cube->PrefixSum({3, 3}), 51);                     // Subtotal Q.
  EXPECT_EQ(cube->RangeSum(Box{{0, 0}, {0, 3}}), 11);         // Cell [0,3].
  EXPECT_EQ(cube->RangeSum(Box{{0, 0}, {1, 3}}), 29);         // Cell [1,3].
  EXPECT_EQ(cube->RangeSum(Box{{0, 0}, {3, 0}}), 14);         // Cell [3,0].

  // Figure 11 components: Q + R + S + U + L + N = 151.
  EXPECT_EQ(cube->RangeSum(Box{{0, 4}, {3, 6}}), 48);   // R.
  EXPECT_EQ(cube->RangeSum(Box{{4, 0}, {5, 3}}), 24);   // S.
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {5, 5}}), 16);   // U.
  EXPECT_EQ(cube->Get({4, 6}), 7);                      // L.
  EXPECT_EQ(cube->Get(kTargetCell), 5);                 // N (cell *).
  EXPECT_EQ(cube->PrefixSum(kTargetCell), kTargetRegionSum);

  // Figure 12 values that absorb the update.
  EXPECT_EQ(cube->RangeSum(Box{{4, 6}, {5, 6}}), 12);   // V row sum.
  EXPECT_EQ(cube->RangeSum(Box{{4, 6}, {5, 7}}), 15);   // V subtotal.
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {5, 7}}), 31);   // T row sum 1.
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {6, 7}}), 47);   // T row sum 2.
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {7, 6}}), 54);   // T column sum.
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {7, 7}}), 61);   // T subtotal.
}

TEST_P(PaperConformanceTest, Figure12UpdatePropagates) {
  auto cube = MakeCube(GetParam());
  LoadPaperArray(cube.get());
  // "Assume that the value of cell * is to be updated from 5 to 6."
  cube->Set(kTargetCell, 6);
  EXPECT_EQ(cube->Get(kTargetCell), 6);
  EXPECT_EQ(cube->PrefixSum(kTargetCell), kTargetRegionSum + 1);
  // Every Figure 12 value grows by exactly the difference (+1).
  EXPECT_EQ(cube->RangeSum(Box{{4, 6}, {5, 6}}), 13);
  EXPECT_EQ(cube->RangeSum(Box{{4, 6}, {5, 7}}), 16);
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {5, 7}}), 32);
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {6, 7}}), 48);
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {7, 6}}), 55);
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {7, 7}}), 62);
  // And values whose regions exclude the cell are untouched.
  EXPECT_EQ(cube->PrefixSum({3, 3}), 51);
  EXPECT_EQ(cube->RangeSum(Box{{4, 4}, {5, 5}}), 16);
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, PaperConformanceTest,
    ::testing::Values(Kind::kNaive, Kind::kPrefixSum, Kind::kRps,
                      Kind::kBasicDdc, Kind::kDdc, Kind::kDdcFanout2,
                      Kind::kDdcFanout32, Kind::kDdcElided1,
                      Kind::kDdcElided2, Kind::kDdcFenwick),
    KindName);

}  // namespace
}  // namespace ddc
