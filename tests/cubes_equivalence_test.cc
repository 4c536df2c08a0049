// Integration suite: every range-sum structure in the library must give
// identical answers to the naive reference on randomized interleaved
// update/query traces, across dimensionalities, sizes, workload classes and
// seeds. This is the library's master correctness gate.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "basic_ddc/basic_ddc.h"
#include "common/cube_interface.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"

namespace ddc {
namespace {

enum class Kind {
  kPrefixSum,
  kRelativePrefixSum,
  kBasicDdc,
  kDdc,
  kDdcElided,
  kDdcFenwick,
};

std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kPrefixSum:
      return "PrefixSum";
    case Kind::kRelativePrefixSum:
      return "RelativePrefixSum";
    case Kind::kBasicDdc:
      return "BasicDdc";
    case Kind::kDdc:
      return "Ddc";
    case Kind::kDdcElided:
      return "DdcElided";
    case Kind::kDdcFenwick:
      return "DdcFenwick";
  }
  return "?";
}

std::unique_ptr<CubeInterface> MakeCube(Kind kind, int dims, int64_t side) {
  switch (kind) {
    case Kind::kPrefixSum:
      return std::make_unique<PrefixSumCube>(Shape::Cube(dims, side));
    case Kind::kRelativePrefixSum:
      return std::make_unique<RelativePrefixSumCube>(Shape::Cube(dims, side));
    case Kind::kBasicDdc:
      return std::make_unique<BasicDdc>(dims, side);
    case Kind::kDdc:  // The paper's full tree; kDdcElided is the default.
      return std::make_unique<DynamicDataCube>(dims, side,
                                               DdcOptions{.elide_levels = 0});
    case Kind::kDdcElided: {
      DdcOptions options;
      options.elide_levels = 2;
      return std::make_unique<DynamicDataCube>(dims, side, options);
    }
    case Kind::kDdcFenwick: {
      DdcOptions options;
      options.use_fenwick = true;
      return std::make_unique<DynamicDataCube>(dims, side, options);
    }
  }
  return nullptr;
}

enum class WorkloadKind { kUniform, kZipf, kClustered, kBoundary };

std::string WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kUniform:
      return "Uniform";
    case WorkloadKind::kZipf:
      return "Zipf";
    case WorkloadKind::kClustered:
      return "Clustered";
    case WorkloadKind::kBoundary:
      return "Boundary";
  }
  return "?";
}

struct EquivalenceParam {
  Kind kind;
  int dims;
  int64_t side;
  WorkloadKind workload;
  uint64_t seed;
};

std::string ParamName(
    const ::testing::TestParamInfo<EquivalenceParam>& info) {
  const EquivalenceParam& p = info.param;
  return KindName(p.kind) + "_d" + std::to_string(p.dims) + "_n" +
         std::to_string(p.side) + "_" + WorkloadName(p.workload) + "_s" +
         std::to_string(p.seed);
}

class CubesEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(CubesEquivalenceTest, MatchesNaiveOnInterleavedTrace) {
  const EquivalenceParam p = GetParam();
  const Shape shape = Shape::Cube(p.dims, p.side);
  NaiveCube naive(shape);
  std::unique_ptr<CubeInterface> cube = MakeCube(p.kind, p.dims, p.side);
  ASSERT_NE(cube, nullptr);

  WorkloadGenerator gen(shape, p.seed);
  ClusteredGenerator clustered(shape, 2, 0.05, p.seed + 1);

  auto next_cell = [&]() -> Cell {
    switch (p.workload) {
      case WorkloadKind::kUniform:
        return gen.UniformCell();
      case WorkloadKind::kZipf:
        return gen.ZipfCell(1.5);
      case WorkloadKind::kClustered:
        return clustered.NextCell();
      case WorkloadKind::kBoundary: {
        // Exercise corners and edges: snap a uniform cell to extremes.
        Cell c = gen.UniformCell();
        for (size_t i = 0; i < c.size(); ++i) {
          const int64_t roll = gen.Value(0, 3);
          if (roll == 0) c[i] = 0;
          if (roll == 1) c[i] = p.side - 1;
        }
        return c;
      }
    }
    return gen.UniformCell();
  };

  const int kOps = 120;
  for (int i = 0; i < kOps; ++i) {
    const Cell cell = next_cell();
    const int64_t delta = gen.Value(-9, 9);
    if (gen.Value(0, 4) == 0) {
      const int64_t value = gen.Value(-20, 20);
      naive.Set(cell, value);
      cube->Set(cell, value);
    } else {
      naive.Add(cell, delta);
      cube->Add(cell, delta);
    }

    const Cell probe = next_cell();
    ASSERT_EQ(cube->PrefixSum(probe), naive.PrefixSum(probe))
        << "prefix at " << CellToString(probe) << " after op " << i;
    const Box box = gen.UniformBox();
    ASSERT_EQ(cube->RangeSum(box), naive.RangeSum(box))
        << "range " << box.ToString() << " after op " << i;
    ASSERT_EQ(cube->Get(cell), naive.Get(cell));
  }

  // Final exhaustive prefix check on small domains.
  if (shape.num_cells() <= 4096) {
    Cell c(static_cast<size_t>(p.dims), 0);
    do {
      ASSERT_EQ(cube->PrefixSum(c), naive.PrefixSum(c)) << CellToString(c);
    } while (shape.NextCell(&c));
  }
}

std::vector<EquivalenceParam> AllParams() {
  std::vector<EquivalenceParam> params;
  const Kind kinds[] = {Kind::kPrefixSum,  Kind::kRelativePrefixSum,
                        Kind::kBasicDdc,   Kind::kDdc,
                        Kind::kDdcElided,  Kind::kDdcFenwick};
  const WorkloadKind workloads[] = {
      WorkloadKind::kUniform, WorkloadKind::kZipf, WorkloadKind::kClustered,
      WorkloadKind::kBoundary};
  struct Geometry {
    int dims;
    int64_t side;
  };
  const Geometry geometries[] = {{1, 16}, {2, 2},  {2, 16}, {2, 32},
                                 {2, 64}, {3, 8},  {3, 16}, {4, 4}};
  uint64_t seed = 1;
  for (Kind kind : kinds) {
    for (const Geometry& g : geometries) {
      for (WorkloadKind w : workloads) {
        params.push_back(EquivalenceParam{kind, g.dims, g.side, w, seed++});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllStructures, CubesEquivalenceTest,
                         ::testing::ValuesIn(AllParams()), ParamName);

}  // namespace
}  // namespace ddc
