#include "concurrent/concurrent_cube.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/workload.h"

namespace ddc {
namespace {

TEST(ConcurrentCubeTest, SingleThreadedSemantics) {
  ConcurrentCube cube(2, 16);
  cube.Add({1, 2}, 10);
  cube.Set({3, 4}, 5);
  EXPECT_EQ(cube.Get({1, 2}), 10);
  EXPECT_EQ(cube.TotalSum(), 15);
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {15, 15}}), 15);
  cube.Add({1000, 1000}, 1);  // Growth under the lock.
  EXPECT_EQ(cube.TotalSum(), 16);
}

TEST(ConcurrentCubeTest, ParallelWritersPreserveEveryUpdate) {
  ConcurrentCube cube(2, 64);
  const int kThreads = 4;
  const int kOpsPerThread = 2000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&cube, t]() {
      WorkloadGenerator gen(Shape::Cube(2, 64), static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        cube.Add(gen.UniformCell(), 1);
      }
    });
  }
  for (auto& thread : writers) thread.join();
  EXPECT_EQ(cube.TotalSum(), kThreads * kOpsPerThread);
}

TEST(ConcurrentCubeTest, ReadersSeeConsistentSnapshots) {
  ConcurrentCube cube(2, 64);
  // Invariant maintained by the writer: cell (0,0) and cell (63,63) are
  // always updated together (both +1 under one exclusive section), so any
  // reader must observe them equal.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};

  std::thread writer([&]() {
    for (int i = 0; i < 600; ++i) {
      cube.WithExclusive([](DynamicDataCube* raw) {
        raw->Add({0, 0}, 1);
        raw->Add({63, 63}, 1);
      });
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load()) {
        int64_t a = 0;
        int64_t b = 0;
        // One consistent snapshot via ForEachNonZero (single shared lock).
        cube.ForEachNonZero([&](const Cell& c, int64_t v) {
          if (c == Cell{0, 0}) a = v;
          if (c == Cell{63, 63}) b = v;
        });
        if (a != b) violations.fetch_add(1);
        std::this_thread::yield();
      }
    });
  }
  writer.join();
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(cube.Get({0, 0}), 600);
  EXPECT_EQ(cube.Get({63, 63}), 600);
}

TEST(ConcurrentCubeTest, MixedReadersAndWritersAgreeAtQuiescence) {
  ConcurrentCube cube(2, 32);
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    int64_t last_total = 0;
    while (!stop.load()) {
      // Totals only grow (writers only add positive values).
      const int64_t total = cube.TotalSum();
      EXPECT_GE(total, last_total);
      last_total = total;
      std::this_thread::yield();
      // Partition consistency under the shared lock is per-call; the
      // whole-domain query must never exceed the final total.
      EXPECT_LE(cube.RangeSum(Box{{0, 0}, {31, 31}}), 1600);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&cube, t]() {
      WorkloadGenerator gen(Shape::Cube(2, 32), static_cast<uint64_t>(t + 9));
      for (int i = 0; i < 800; ++i) {
        cube.Add(gen.UniformCell(), 1);
      }
    });
  }
  for (auto& thread : writers) thread.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(cube.TotalSum(), 1600);
  EXPECT_EQ(cube.RangeSum(Box{{0, 0}, {31, 31}}), 1600);
}

// Compound WithExclusive transactions racing growth re-rooting: one thread
// atomically moves value between two fixed cells (their sum is invariantly
// zero), while another thread's far-out writes force the whole core to be
// re-rooted again and again. Readers snapshot via ForEachNonZero and must
// never observe a partial move, and the transaction cells must survive
// every re-rooting intact.
TEST(ConcurrentCubeTest, WithExclusiveRacesGrowthReRooting) {
  ConcurrentCube cube(2, 4);
  const Cell kFrom{0, 0};
  const Cell kTo{1, 1};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};

  std::thread mover([&]() {
    for (int i = 0; i < 400; ++i) {
      cube.WithExclusive([&](DynamicDataCube* raw) {
        raw->Add(kFrom, -3);
        raw->Add(kTo, 3);
      });
    }
  });

  std::thread grower([&]() {
    Coord reach = 4;
    for (int i = 0; i < 40; ++i) {
      // Alternate directions so the origin moves negative too.
      cube.Add({reach, reach}, 1);
      cube.Add({-reach, -reach}, 1);
      reach *= 2;
      if (reach > (Coord{1} << 40)) reach = 4;
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load()) {
        int64_t from = 0;
        int64_t to = 0;
        cube.ForEachNonZero([&](const Cell& c, int64_t v) {
          if (c == kFrom) from = v;
          if (c == kTo) to = v;
        });
        if (from + to != 0) violations.fetch_add(1);
        std::this_thread::yield();
      }
    });
  }

  mover.join();
  grower.join();
  stop.store(true);
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(cube.Get(kFrom), -400 * 3);
  EXPECT_EQ(cube.Get(kTo), 400 * 3);
  EXPECT_EQ(cube.TotalSum(), 2 * 40);  // Only the grower changes the total.
}

TEST(ConcurrentCubeTest, GrowthUnderConcurrency) {
  ConcurrentCube cube(2, 4);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&cube, t]() {
      // Each thread pushes the domain in a different direction.
      const Coord sign0 = (t & 1) ? 1 : -1;
      const Coord sign1 = (t & 2) ? 1 : -1;
      for (Coord i = 1; i <= 500; ++i) {
        cube.Add({sign0 * i, sign1 * i}, 1);
      }
    });
  }
  for (auto& thread : writers) thread.join();
  EXPECT_EQ(cube.TotalSum(), 4 * 500);
  EXPECT_EQ(cube.Get({500, 500}), 1);
  EXPECT_EQ(cube.Get({-500, 500}), 1);
  EXPECT_EQ(cube.Get({500, -500}), 1);
  EXPECT_EQ(cube.Get({-500, -500}), 1);
}

}  // namespace
}  // namespace ddc
