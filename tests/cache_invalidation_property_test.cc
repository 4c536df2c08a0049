// Property wall for precise, mutation-driven cache invalidation
// (DESIGN.md §15).
//
// The cache's correctness contract has two halves, and this suite pins both
// with seeded random trials:
//
//   1. No stale reads: after any in-domain mutation batch, every previously
//      cached box re-reads to exactly the backing cube's value.
//   2. No collateral eviction: the number of precisely invalidated entries
//      equals the number of distinct cached boxes overlapping at least one
//      of the batch's dirty boxes — computed independently here from
//      MutationDirtyBox — and every disjoint entry is still resident (its
//      re-read is a hit). The cache.invalidated registry counter must move
//      by exactly the same amount as the per-instance stat.
//
// Trials keep every mutation inside the snapshot domain on an unpinned
// cache, so the wholesale-flush escape hatch and pin patching never fire —
// those paths have their own suites (cached_cube_test.cc). Replay any
// failure with DDC_TEST_SEED=<logged seed>.

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_cube.h"
#include "common/mutation.h"
#include "common/range.h"
#include "ddc/dynamic_data_cube.h"
#include "obs/metrics.h"
#include "test_seed.h"

namespace ddc {
namespace {

constexpr int kDims = 2;
constexpr Coord kSide = 16;
constexpr int kTrials = 500;

Cell RandomCellIn(std::mt19937_64& rng, Coord lo, Coord hi) {
  Cell cell(kDims);
  for (Coord& c : cell) {
    c = lo + static_cast<Coord>(rng() % static_cast<uint64_t>(hi - lo + 1));
  }
  return cell;
}

Box RandomBoxIn(std::mt19937_64& rng) {
  Box box;
  box.lo = RandomCellIn(rng, 0, kSide - 1);
  box.hi = box.lo;
  for (size_t i = 0; i < kDims; ++i) {
    box.hi[i] = std::min<Coord>(
        kSide - 1, box.lo[i] + static_cast<Coord>(rng() % 6));
  }
  return box;
}

// A strictly in-domain mixed batch: all four mutation kinds, every
// coordinate inside [0, kSide).
MutationBatch RandomInDomainBatch(std::mt19937_64& rng) {
  MutationBatch batch;
  const size_t n = 1 + rng() % 5;
  for (size_t i = 0; i < n; ++i) {
    const int64_t value = static_cast<int64_t>(rng() % 13) - 6;
    switch (rng() % 4) {
      case 0:
        batch.push_back(
            Mutation{RandomCellIn(rng, 0, kSide - 1), value,
                     MutationKind::kAdd});
        break;
      case 1:
        batch.push_back(
            Mutation{RandomCellIn(rng, 0, kSide - 1), value,
                     MutationKind::kSet});
        break;
      case 2: {
        const Box box = RandomBoxIn(rng);
        batch.push_back(MakeRangeAdd(box.lo, box.hi, value));
        break;
      }
      default: {
        const Box box = RandomBoxIn(rng);
        batch.push_back(MakeRangeSet(box.lo, box.hi, value));
        break;
      }
    }
  }
  return batch;
}

bool BatchOverlapsBox(const MutationBatch& batch, const Box& box) {
  for (const Mutation& m : batch) {
    const Box dirty = MutationDirtyBox(m);
    if (!dirty.IsEmpty() && BoxesOverlap(box, dirty)) return true;
  }
  return false;
}

int64_t RegistryInvalidated() {
  if (!obs::Enabled()) return 0;
  return obs::MetricsRegistry::Default()
      .GetCounter("cache.invalidated")
      ->Value();
}

TEST(CacheInvalidationPropertyTest, ExactOverlapEvictionNoStaleReads) {
  std::mt19937_64 rng(TestSeed(160899));
  for (int trial = 0; trial < kTrials; ++trial) {
    DynamicDataCube backend(kDims, kSide);
    CachedCube cached(&backend, CachedCubeOptions{.capacity = 64,
                                                  .max_pinned = 0});
    // Background state so sums are nontrivial.
    MutationBatch seed_batch = RandomInDomainBatch(rng);
    ASSERT_TRUE(cached.ApplyBatch(seed_batch));

    // Populate: distinct canonical boxes (in-domain, so canonical == box).
    std::vector<Box> resident;
    for (int i = 0; i < 8; ++i) {
      const Box box = RandomBoxIn(rng);
      bool dup = false;
      for (const Box& seen : resident) {
        if (seen.lo == box.lo && seen.hi == box.hi) dup = true;
      }
      if (dup) continue;
      (void)cached.RangeSum(box);
      resident.push_back(box);
    }
    ASSERT_EQ(cached.Stats().entries,
              static_cast<int64_t>(resident.size()));

    const MutationBatch batch = RandomInDomainBatch(rng);
    int64_t expected_evicted = 0;
    for (const Box& box : resident) {
      if (BatchOverlapsBox(batch, box)) ++expected_evicted;
    }

    const int64_t stat_before = cached.Stats().invalidated;
    const int64_t registry_before = RegistryInvalidated();
    const int64_t entries_before = cached.Stats().entries;
    ASSERT_TRUE(cached.ApplyBatch(batch));

    // Exactly the overlapping entries went — per-instance and registry.
    ASSERT_EQ(cached.Stats().invalidated - stat_before, expected_evicted)
        << "trial " << trial;
    if (obs::Enabled()) {
      ASSERT_EQ(RegistryInvalidated() - registry_before, expected_evicted)
          << "trial " << trial;
    }
    ASSERT_EQ(cached.Stats().entries, entries_before - expected_evicted)
        << "trial " << trial;

    // Disjoint entries are still resident: re-reading them is a hit. And
    // nothing — hit or recomputed miss — may be stale.
    for (const Box& box : resident) {
      const bool survivor = !BatchOverlapsBox(batch, box);
      const int64_t hits_before = cached.Stats().hits;
      const int64_t got = cached.RangeSum(box);
      if (survivor) {
        ASSERT_EQ(cached.Stats().hits, hits_before + 1)
            << "trial " << trial << ": survivor evicted, box "
            << box.ToString();
      }
      ASSERT_EQ(got, backend.RangeSum(box))
          << "trial " << trial << ": stale read, box " << box.ToString();
    }
  }
}

}  // namespace
}  // namespace ddc
