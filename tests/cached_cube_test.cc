// Differential wall for the query-result cache (src/cache, DESIGN.md §15).
//
// A CachedCube must be value-for-value indistinguishable from its backing
// cube — and from a naive array oracle fed the very same mixed point/range
// traffic — across every composition: over a DynamicDataCube (lifecycle
// re-roots flush) and over any plain CubeInterface backend, thread-safe
// ones included. The suite drives seeded random interleavings of reads and
// writes (growth-straddling batches included), exercises pinned hot-range
// patching vs kSet/kRangeSet eviction, and runs a multi-threaded
// reader/writer mix for the sanitizer builds. Replay any failure with
// DDC_TEST_SEED=<logged seed>.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_cube.h"
#include "common/cube_interface.h"
#include "common/mutation.h"
#include "common/range.h"
#include "common/shape.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/workload_recorder.h"
#include "query/executor.h"
#include "test_seed.h"

namespace ddc {
namespace {

Cell RandomCellIn(std::mt19937_64& rng, int dims, Coord lo, Coord hi) {
  Cell cell(static_cast<size_t>(dims));
  for (Coord& c : cell) {
    c = lo + static_cast<Coord>(rng() % static_cast<uint64_t>(hi - lo + 1));
  }
  return cell;
}

Box RandomBoxIn(std::mt19937_64& rng, int dims, Coord side) {
  Box box;
  box.lo = RandomCellIn(rng, dims, 0, side - 1);
  box.hi = box.lo;
  for (int i = 0; i < dims; ++i) {
    const size_t ui = static_cast<size_t>(i);
    box.hi[ui] = std::min<Coord>(
        side - 1, box.lo[ui] + static_cast<Coord>(rng() % 7));
  }
  return box;
}

MutationBatch RandomMixedBatch(std::mt19937_64& rng, int dims, Coord side) {
  MutationBatch batch;
  const size_t n = 1 + rng() % 6;
  for (size_t i = 0; i < n; ++i) {
    const int64_t value = static_cast<int64_t>(rng() % 19) - 9;
    switch (rng() % 5) {
      case 0:
        batch.push_back(Mutation{RandomCellIn(rng, dims, 0, side - 1), value,
                                 MutationKind::kAdd});
        break;
      case 1:
        batch.push_back(Mutation{RandomCellIn(rng, dims, 0, side - 1), value,
                                 MutationKind::kSet});
        break;
      case 2: {
        const Box box = RandomBoxIn(rng, dims, side);
        batch.push_back(MakeRangeAdd(box.lo, box.hi, value));
        break;
      }
      default: {
        const Box box = RandomBoxIn(rng, dims, side);
        batch.push_back(MakeRangeSet(box.lo, box.hi, value));
        break;
      }
    }
  }
  return batch;
}

// ---------------------------------------------------------------------------
// DynamicDataCube backend: the single-threaded differential.

TEST(CachedCubeTest, MixedWorkloadMatchesNaiveOracle) {
  std::mt19937_64 rng(TestSeed(20260808));
  const int dims = 2;
  const Coord side = 32;
  // Starts tiny so the random traffic straddles several growth re-rootings
  // (each one must flush the cache through the lifecycle hub).
  DynamicDataCube backend(dims, 4);
  CachedCube cached(&backend, CachedCubeOptions{.capacity = 64});
  NaiveCube oracle(Shape::Cube(dims, side));

  for (int round = 0; round < 400; ++round) {
    switch (rng() % 8) {
      case 0: {
        const Cell cell = RandomCellIn(rng, dims, 0, side - 1);
        const int64_t v = static_cast<int64_t>(rng() % 15) - 7;
        cached.Add(cell, v);
        oracle.Add(cell, v);
        break;
      }
      case 1: {
        const Cell cell = RandomCellIn(rng, dims, 0, side - 1);
        const int64_t v = static_cast<int64_t>(rng() % 15) - 7;
        cached.Set(cell, v);
        oracle.Set(cell, v);
        break;
      }
      case 2: {
        const Box box = RandomBoxIn(rng, dims, side);
        const int64_t v = static_cast<int64_t>(rng() % 9) - 4;
        cached.RangeAdd(box, v);
        oracle.RangeAdd(box, v);
        break;
      }
      case 3: {
        const Box box = RandomBoxIn(rng, dims, side);
        const int64_t v = static_cast<int64_t>(rng() % 9) - 4;
        cached.RangeSet(box, v);
        oracle.RangeSet(box, v);
        break;
      }
      case 4: {
        const MutationBatch batch = RandomMixedBatch(rng, dims, side);
        ASSERT_TRUE(cached.ApplyBatch(batch));
        ASSERT_TRUE(oracle.ApplyBatch(batch));
        break;
      }
      case 5: {
        // A repeated read: odds are good it hits what an earlier round
        // cached — the differential bites only if a stale value survived.
        std::mt19937_64 replay(round / 16 + 1);
        const Box box = RandomBoxIn(replay, dims, side);
        ASSERT_EQ(cached.RangeSum(box), oracle.RangeSum(box))
            << "round " << round << " box " << box.ToString();
        break;
      }
      default: {
        const Box box = RandomBoxIn(rng, dims, side);
        ASSERT_EQ(cached.RangeSum(box), oracle.RangeSum(box))
            << "round " << round << " box " << box.ToString();
        const Cell cell = RandomCellIn(rng, dims, 0, side - 1);
        ASSERT_EQ(cached.Get(cell), oracle.Get(cell)) << "round " << round;
        break;
      }
    }
    if (round % 97 == 50) cached.ShrinkToFit();
  }

  // Batched reads, deliberately overlapping cached state.
  std::vector<Box> boxes;
  for (int q = 0; q < 16; ++q) boxes.push_back(RandomBoxIn(rng, dims, side));
  std::vector<int64_t> got(boxes.size());
  cached.RangeSumBatch(boxes, got);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(got[i], oracle.RangeSum(boxes[i])) << boxes[i].ToString();
  }
  const CacheStats stats = cached.Stats();
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(stats.inserts, 0);
  EXPECT_GT(stats.flushes, 0);  // Growth re-roots flushed at least once.
}

TEST(CachedCubeTest, GrowthStraddlingBatchFlushesWholesale) {
  DynamicDataCube backend(2, 4);
  CachedCube cached(&backend);
  backend.Add({1, 1}, 5);

  const Box inside{{0, 0}, {3, 3}};
  EXPECT_EQ(cached.RangeSum(inside), 5);
  EXPECT_EQ(cached.Stats().entries, 1);
  const int64_t flushes_before = cached.Stats().flushes;

  // The batch's dirty bounds escape the snapshot domain: the write grows
  // the cube, so every clip-canonicalized key is suspect — wholesale flush.
  MutationBatch batch;
  batch.push_back(Mutation{{9, 9}, 3, MutationKind::kAdd});
  ASSERT_TRUE(cached.ApplyBatch(batch));
  EXPECT_GT(cached.Stats().flushes, flushes_before);
  EXPECT_EQ(cached.Stats().entries, 0);

  EXPECT_EQ(cached.RangeSum(Box{{0, 0}, {15, 15}}), 8);
  EXPECT_EQ(cached.RangeSum(inside), 5);
}

TEST(CachedCubeTest, ReRootEventsFlushPinnedEntriesToo) {
  DynamicDataCube backend(2, 8);
  CachedCube cached(&backend);
  backend.Add({2, 2}, 7);
  (void)cached.RangeSum(Box{{0, 0}, {3, 3}});
  ASSERT_GT(cached.Stats().entries, 0);

  // Growth through the *wrapper* (point write outside the domain).
  cached.Add({20, 20}, 1);
  EXPECT_EQ(cached.Stats().entries, 0);
  EXPECT_EQ(cached.RangeSum(Box{{0, 0}, {3, 3}}), 7);

  // Shrink through the wrapper: the lifecycle callback flushes again.
  ASSERT_GT(cached.Stats().entries, 0);
  cached.Set({20, 20}, 0);
  cached.ShrinkToFit();
  EXPECT_EQ(cached.Stats().entries, 0);
  EXPECT_EQ(cached.RangeSum(Box{{0, 0}, {3, 3}}), 7);
}

TEST(CachedCubeTest, MalformedBatchTouchesNothing) {
  DynamicDataCube backend(2, 8);
  CachedCube cached(&backend);
  backend.Add({1, 1}, 3);
  (void)cached.RangeSum(Box{{0, 0}, {7, 7}});
  const CacheStats before = cached.Stats();

  MutationBatch bad;
  bad.push_back(Mutation{{1, 2, 3}, 1, MutationKind::kAdd});  // Wrong arity.
  EXPECT_FALSE(cached.ApplyBatch(bad));
  const CacheStats after = cached.Stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.invalidated, before.invalidated);
  EXPECT_EQ(after.flushes, before.flushes);
  EXPECT_EQ(cached.RangeSum(Box{{0, 0}, {7, 7}}), 3);
}

// ---------------------------------------------------------------------------
// Hot-range materialization: pin, patch, evict-on-assign.

TEST(CachedCubeTest, PinnedHotRangePatchesOnAdditiveWrites) {
  if (!obs::Enabled()) {
    GTEST_SKIP() << "workload recorder requires observability";
  }
  obs::WorkloadRecorder::Default().Reset();
  DynamicDataCube backend(2, 16);
  CachedCube cached(&backend);
  backend.RangeAdd(Box{{0, 0}, {15, 15}}, 2);

  const Box hot{{1, 1}, {4, 4}};
  for (int i = 0; i < 64; ++i) (void)cached.RangeSum(hot);
  ASSERT_GT(cached.AdoptHotRanges(), 0);
  const CacheStats pinned = cached.Stats();
  ASSERT_GT(pinned.pinned_entries, 0);

  // Additive writes overlapping the pinned box patch it in place: still
  // resident (a hit), still exact.
  cached.Add({2, 2}, 10);
  cached.RangeAdd(Box{{0, 0}, {2, 2}}, 3);
  const CacheStats patched = cached.Stats();
  EXPECT_GT(patched.patched, pinned.patched);
  EXPECT_EQ(patched.pinned_entries, pinned.pinned_entries);

  const int64_t hits_before = cached.Stats().hits;
  EXPECT_EQ(cached.RangeSum(hot), backend.RangeSum(hot));
  EXPECT_GT(cached.Stats().hits, hits_before);

  // kRangeSet destroys information the cache does not hold: the pinned
  // entry is evicted and unpinned, and the next read recomputes.
  cached.RangeSet(Box{{3, 3}, {5, 5}}, 1);
  const CacheStats after_set = cached.Stats();
  EXPECT_LT(after_set.pinned_entries, patched.pinned_entries);
  EXPECT_GT(after_set.invalidated, patched.invalidated);
  EXPECT_EQ(cached.RangeSum(hot), backend.RangeSum(hot));

  // Disjoint writes never disturb a pinned entry.
  const CacheStats before_far = cached.Stats();
  cached.Add({15, 15}, 9);
  EXPECT_EQ(cached.Stats().invalidated, before_far.invalidated);
  EXPECT_EQ(cached.Stats().patched, before_far.patched);
}

// ---------------------------------------------------------------------------
// Generic CubeInterface backend (NaiveCube): composition + eviction.

TEST(CachedCubeTest, GenericBackendAndClockEviction) {
  std::mt19937_64 rng(TestSeed(4242));
  NaiveCube backend(Shape::Cube(2, 16));
  NaiveCube oracle(Shape::Cube(2, 16));
  CachedCube cached(static_cast<CubeInterface*>(&backend),
                    CachedCubeOptions{.capacity = 4, .max_pinned = 0});

  for (int round = 0; round < 200; ++round) {
    if (rng() % 3 == 0) {
      const MutationBatch batch = RandomMixedBatch(rng, 2, 16);
      ASSERT_TRUE(cached.ApplyBatch(batch));
      ASSERT_TRUE(oracle.ApplyBatch(batch));
    } else {
      const Box box = RandomBoxIn(rng, 2, 16);
      ASSERT_EQ(cached.RangeSum(box), oracle.RangeSum(box))
          << "round " << round;
    }
    EXPECT_LE(cached.Stats().entries, 4);
  }
  EXPECT_GT(cached.Stats().evicted, 0);  // Capacity 4 must have cycled.
  EXPECT_EQ(cached.name(), "cached(naive)");
  EXPECT_EQ(cached.PrefixSum({7, 7}), oracle.PrefixSum({7, 7}));
}

TEST(CachedCubeTest, InvalidateBatchCoversExternalWrites) {
  NaiveCube backend(Shape::Cube(2, 8));
  CachedCube cached(static_cast<CubeInterface*>(&backend));
  const Box box{{0, 0}, {3, 3}};
  EXPECT_EQ(cached.RangeSum(box), 0);

  // Write the backing cube directly (a durability layer would), then report
  // it: the overlapping entry must go, and the next read recomputes.
  backend.Add({1, 1}, 11);
  MutationBatch batch;
  batch.push_back(Mutation{{1, 1}, 11, MutationKind::kAdd});
  cached.InvalidateBatch(batch);
  EXPECT_EQ(cached.RangeSum(box), 11);
}

// ---------------------------------------------------------------------------
// EXPLAIN path: an explained statement never populates the cache.

TEST(CachedCubeTest, ExplainAnalyzeNeverPopulates) {
  DynamicDataCube backend(2, 8);
  CachedCube cached(&backend);
  backend.Add({1, 1}, 4);

  const CacheStats before = cached.Stats();
  const QueryResult plain =
      RunStatement("EXPLAIN SUM WHERE d0 IN [0, 3]", &cached);
  ASSERT_TRUE(plain.ok) << plain.error;
  const QueryResult analyzed =
      RunStatement("EXPLAIN ANALYZE SUM WHERE d0 IN [0, 3]", &cached);
  ASSERT_TRUE(analyzed.ok) << analyzed.error;
  EXPECT_NE(analyzed.explain_text.find("executed:"), std::string::npos);
  const CacheStats after = cached.Stats();
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(after.entries, before.entries);

  // The same statement run for real does populate — and then hits.
  const QueryResult real = RunStatement("SUM WHERE d0 IN [0, 3]", &cached);
  ASSERT_TRUE(real.ok) << real.error;
  EXPECT_GT(cached.Stats().inserts, before.inserts);
  const int64_t hits_before = cached.Stats().hits;
  ASSERT_TRUE(RunStatement("SUM WHERE d0 IN [0, 3]", &cached).ok);
  EXPECT_GT(cached.Stats().hits, hits_before);
}

// ---------------------------------------------------------------------------
// Thread-safe backend: the concurrent differential (sanitizer payload).

// A DynamicDataCube behind one mutex (each call holds it throughout), so the
// cache's own synchronisation (its mutex, pending-writer count and
// generation insert guard) is the only thing under test.
class LockedCube final : public CubeInterface {
 public:
  LockedCube(int dims, Coord side) : cube_(dims, side) {}

  int dims() const override { return cube_.dims(); }
  Cell DomainLo() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return cube_.DomainLo();
  }
  Cell DomainHi() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return cube_.DomainHi();
  }
  void Set(const Cell& cell, int64_t value) override {
    std::lock_guard<std::mutex> lock(mu_);
    cube_.Set(cell, value);
  }
  void Add(const Cell& cell, int64_t delta) override {
    std::lock_guard<std::mutex> lock(mu_);
    cube_.Add(cell, delta);
  }
  int64_t Get(const Cell& cell) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return cube_.Get(cell);
  }
  bool ApplyBatch(std::span<const Mutation> batch) override {
    std::lock_guard<std::mutex> lock(mu_);
    return cube_.ApplyBatch(batch);
  }
  int64_t PrefixSum(const Cell& cell) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return cube_.PrefixSum(cell);
  }
  int64_t RangeSum(const Box& box) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return cube_.RangeSum(box);
  }
  int64_t StorageCells() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return cube_.StorageCells();
  }
  std::string name() const override { return "locked(ddc)"; }

 private:
  mutable std::mutex mu_;
  DynamicDataCube cube_;
};

TEST(CachedCubeTest, ConcurrentReadersAndWritersOverThreadSafeCube) {
  const uint64_t seed = TestSeed(991);
  const int dims = 2;
  const Coord side = 32;
  LockedCube backend(dims, side);
  CachedCube cached(&backend, CachedCubeOptions{.capacity = 128});

  // Writers use commutative point adds only, so the final state is
  // interleaving-independent and a naive oracle can replay it afterwards.
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kBatchesPerWriter = 120;
  std::vector<MutationBatch> per_writer[kWriters];
  std::atomic<int> writers_done{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(seed + static_cast<uint64_t>(w) * 7919);
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        MutationBatch batch;
        const size_t n = 1 + rng() % 8;
        for (size_t i = 0; i < n; ++i) {
          batch.push_back(Mutation{RandomCellIn(rng, dims, 0, side - 1),
                                   static_cast<int64_t>(rng() % 9) - 4,
                                   MutationKind::kAdd});
        }
        ASSERT_TRUE(cached.ApplyBatch(batch));
        per_writer[w].push_back(std::move(batch));
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(seed ^ (0xABCD0000ull + static_cast<uint64_t>(r)));
      while (writers_done.load() < kWriters) {
        const Box box = RandomBoxIn(rng, dims, side);
        (void)cached.RangeSum(box);  // Value checked post-quiesce below.
        (void)cached.Get(RandomCellIn(rng, dims, 0, side - 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  NaiveCube oracle(Shape::Cube(dims, side));
  for (int w = 0; w < kWriters; ++w) {
    for (const MutationBatch& batch : per_writer[w]) {
      ASSERT_TRUE(oracle.ApplyBatch(batch));
    }
  }
  std::mt19937_64 rng(seed + 1);
  for (int q = 0; q < 64; ++q) {
    const Box box = RandomBoxIn(rng, dims, side);
    // Twice: the first may miss-populate, the second must hit — both exact.
    ASSERT_EQ(cached.RangeSum(box), oracle.RangeSum(box))
        << "box " << box.ToString();
    ASSERT_EQ(cached.RangeSum(box), oracle.RangeSum(box))
        << "box " << box.ToString();
  }
  const CacheStats stats = cached.Stats();
  EXPECT_GT(stats.hits + stats.misses, 0);
}

}  // namespace
}  // namespace ddc
