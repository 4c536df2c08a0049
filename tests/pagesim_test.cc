#include "pagesim/buffer_pool.h"

#include <gtest/gtest.h>

#include "common/workload.h"
#include "pagesim/paged_cube_probe.h"

namespace ddc {
namespace {

TEST(BufferPoolTest, HitsAndFaults) {
  BufferPool pool(2);
  EXPECT_FALSE(pool.Touch(1));  // Fault.
  EXPECT_FALSE(pool.Touch(2));  // Fault.
  EXPECT_TRUE(pool.Touch(1));   // Hit.
  EXPECT_FALSE(pool.Touch(3));  // Fault, evicts 2 (LRU).
  EXPECT_TRUE(pool.Touch(1));   // Still resident.
  EXPECT_FALSE(pool.Touch(2));  // 2 was evicted.
  EXPECT_EQ(pool.faults(), 4);
  EXPECT_EQ(pool.hits(), 2);
  EXPECT_EQ(pool.resident_pages(), 2);
}

TEST(BufferPoolTest, LruOrderRespectsRecency) {
  BufferPool pool(3);
  pool.Touch(1);
  pool.Touch(2);
  pool.Touch(3);
  pool.Touch(1);  // 1 becomes MRU; eviction order is now 2, 3, 1.
  pool.Touch(4);  // Evicts 2.
  EXPECT_TRUE(pool.Touch(3));
  EXPECT_TRUE(pool.Touch(1));
  EXPECT_FALSE(pool.Touch(2));
}

TEST(BufferPoolTest, ResetAndResetStats) {
  BufferPool pool(4);
  pool.Touch(1);
  pool.Touch(1);
  pool.ResetStats();
  EXPECT_EQ(pool.accesses(), 0);
  EXPECT_TRUE(pool.Touch(1));  // Residency survived ResetStats.
  pool.Reset();
  EXPECT_FALSE(pool.Touch(1));  // Residency cleared by Reset.
}

TEST(BufferPoolTest, SingleSlotPoolThrashes) {
  BufferPool pool(1);
  for (int round = 0; round < 5; ++round) {
    EXPECT_FALSE(pool.Touch(10));
    EXPECT_FALSE(pool.Touch(20));
  }
  EXPECT_EQ(pool.hits(), 0);
  EXPECT_EQ(pool.faults(), 10);
}

TEST(PagedCubeProbeTest, CountsNodeAccesses) {
  // The paper's full tree (elide_levels = 0), whatever the default shape.
  DynamicDataCube cube(2, 64, {.elide_levels = 0});
  PagedCubeProbe probe(&cube, /*capacity_pages=*/1 << 20);
  cube.Add({10, 20}, 5);
  // One path of nodes plus the leaf block: 5 nodes + 1 raw = 6 pages.
  EXPECT_EQ(probe.distinct_pages(), 6);
  EXPECT_EQ(probe.pool().accesses(), 6);
  cube.Add({10, 20}, 5);  // Same path: all hits.
  EXPECT_EQ(probe.pool().faults(), 6);
  EXPECT_EQ(probe.pool().hits(), 6);
}

TEST(PagedCubeProbeTest, QueriesTouchOnePathPlusBlocks) {
  DynamicDataCube cube(2, 256, {.elide_levels = 0});
  WorkloadGenerator gen(Shape::Cube(2, 256), 3);
  for (const UpdateOp& op : gen.UniformUpdates(500, 1, 9)) {
    cube.Add(op.cell, op.delta);
  }
  PagedCubeProbe probe(&cube, 1 << 20);
  cube.PrefixSum({200, 133});
  // Theorem 1: one node per level (7 levels at n=256) plus at most one
  // covered leaf block.
  EXPECT_LE(probe.pool().accesses(), 8);
  EXPECT_GE(probe.pool().accesses(), 2);
}

TEST(PagedCubeProbeTest, SurvivesGrowth) {
  DynamicDataCube cube(2, 4);
  PagedCubeProbe probe(&cube, 1 << 20);
  cube.Add({1000, 1000}, 1);  // Triggers multiple re-rootings.
  EXPECT_GT(probe.pool().accesses(), 0);
  const int64_t after_growth = probe.pool().accesses();
  cube.PrefixSum({1000, 1000});
  EXPECT_GT(probe.pool().accesses(), after_growth);  // Still attached.
}

// The Section 4.4 claim in miniature: with a small buffer pool, the elided
// tree faults less per query than the full tree on the same workload.
TEST(PagedCubeProbeTest, ElisionReducesFaultsUnderSmallPool) {
  const Shape shape = Shape::Cube(2, 128);
  WorkloadGenerator gen(shape, 7);
  const auto ops = gen.UniformUpdates(3000, 1, 9);

  auto run = [&](int h) {
    DdcOptions options;
    options.elide_levels = h;
    DynamicDataCube cube(2, 128, options);
    for (const UpdateOp& op : ops) cube.Add(op.cell, op.delta);
    PagedCubeProbe probe(&cube, /*capacity_pages=*/64);
    WorkloadGenerator probes(shape, 11);
    // Warm up, then measure steady-state faults.
    for (int i = 0; i < 100; ++i) cube.PrefixSum(probes.UniformCell());
    probe.pool().ResetStats();
    for (int i = 0; i < 400; ++i) cube.PrefixSum(probes.UniformCell());
    return probe.pool().faults();
  };

  const int64_t full = run(0);
  const int64_t elided = run(2);
  EXPECT_LT(elided, full);
}

}  // namespace
}  // namespace ddc
