#include "wal/cube_log.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/workload.h"
#include "test_seed.h"

namespace ddc {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = "/tmp/ddc_wal_test";
    Cleanup();
  }
  void TearDown() override { Cleanup(); }

  void Cleanup() {
    std::remove((base_ + ".log").c_str());
    std::remove((base_ + ".snap").c_str());
    std::remove(log_only_.c_str());
  }

  std::string base_;
  std::string log_only_ = "/tmp/ddc_wal_test_only.log";
};

TEST_F(WalTest, AppendAndReplay) {
  {
    auto log = CubeLog::Open(log_only_, 2);
    ASSERT_NE(log, nullptr);
    EXPECT_TRUE(log->Append({1, 2}, 10));
    EXPECT_TRUE(log->Append({3, 4}, -5));
    EXPECT_TRUE(log->Sync());
    EXPECT_EQ(log->appended(), 2);
  }
  DynamicDataCube cube(2, 16);
  const ReplayResult result = CubeLog::Replay(log_only_, &cube);
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.clean_tail);
  EXPECT_EQ(result.applied, 2);
  EXPECT_EQ(cube.Get({1, 2}), 10);
  EXPECT_EQ(cube.Get({3, 4}), -5);
}

TEST_F(WalTest, ReopenAppends) {
  {
    auto log = CubeLog::Open(log_only_, 1);
    ASSERT_NE(log, nullptr);
    log->Append({5}, 1);
  }
  {
    auto log = CubeLog::Open(log_only_, 1);
    ASSERT_NE(log, nullptr);
    log->Append({6}, 2);
  }
  DynamicDataCube cube(1, 16);
  const ReplayResult result = CubeLog::Replay(log_only_, &cube);
  EXPECT_EQ(result.applied, 2);
  EXPECT_EQ(cube.TotalSum(), 3);
}

TEST_F(WalTest, DimsMismatchRejected) {
  {
    auto log = CubeLog::Open(log_only_, 2);
    ASSERT_NE(log, nullptr);
  }
  EXPECT_EQ(CubeLog::Open(log_only_, 3), nullptr);
  DynamicDataCube cube(3, 8);
  const ReplayResult result = CubeLog::Replay(log_only_, &cube);
  EXPECT_FALSE(result.header_ok);
}

TEST_F(WalTest, TornTailStopsReplayCleanly) {
  {
    auto log = CubeLog::Open(log_only_, 2);
    ASSERT_NE(log, nullptr);
    log->Append({1, 1}, 7);
    log->Append({2, 2}, 9);
    log->Sync();
  }
  // Truncate mid-record: header (12) + one count-1 batch record
  // (4 count + 4 kind + 2*8 cell + 8 value + 8 checksum = 40) + 10 bytes.
  std::ifstream in(log_only_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(log_only_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), 12 + 40 + 10);
  out.close();

  DynamicDataCube cube(2, 16);
  const ReplayResult result = CubeLog::Replay(log_only_, &cube);
  EXPECT_TRUE(result.header_ok);
  EXPECT_EQ(result.applied, 1);       // First record survives.
  EXPECT_FALSE(result.clean_tail);    // Second is torn.
  EXPECT_EQ(cube.Get({1, 1}), 7);
  EXPECT_EQ(cube.Get({2, 2}), 0);
}

TEST_F(WalTest, CorruptChecksumStopsReplay) {
  {
    auto log = CubeLog::Open(log_only_, 1);
    ASSERT_NE(log, nullptr);
    log->Append({3}, 5);
    log->Append({4}, 6);
    log->Sync();
  }
  // Flip a byte inside the second record's value.
  std::fstream file(log_only_, std::ios::binary | std::ios::in |
                                   std::ios::out);
  // Header 12 + first record (4+4+8+8+8 = 32) + second record's count(4) +
  // kind(4) + cell(8) + 2 bytes into the value.
  file.seekp(12 + 32 + 4 + 4 + 8 + 2);
  char byte = 0x55;
  file.write(&byte, 1);
  file.close();

  DynamicDataCube cube(1, 16);
  const ReplayResult result = CubeLog::Replay(log_only_, &cube);
  EXPECT_EQ(result.applied, 1);
  EXPECT_FALSE(result.clean_tail);
}

TEST_F(WalTest, GroupCommitRoundTrip) {
  {
    auto log = CubeLog::Open(log_only_, 2);
    ASSERT_NE(log, nullptr);
    const MutationBatch batch = {
        Mutation{{1, 2}, 10, MutationKind::kAdd},
        Mutation{{3, 4}, 7, MutationKind::kSet},
        Mutation{{1, 2}, -3, MutationKind::kAdd},
    };
    EXPECT_TRUE(log->AppendBatch(batch));
    EXPECT_TRUE(log->AppendBatch({}));  // Empty batch writes nothing.
    EXPECT_TRUE(log->Sync());
    EXPECT_EQ(log->appended(), 3);
  }
  DynamicDataCube cube(2, 16);
  const ReplayResult result = CubeLog::Replay(log_only_, &cube);
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.clean_tail);
  EXPECT_EQ(result.applied, 3);
  EXPECT_EQ(result.batches, 1);  // One record for the whole batch.
  EXPECT_EQ(cube.Get({1, 2}), 7);
  EXPECT_EQ(cube.Get({3, 4}), 7);
}

TEST_F(WalTest, TornBatchRecordIsAllOrNothing) {
  {
    auto log = CubeLog::Open(log_only_, 1);
    ASSERT_NE(log, nullptr);
    log->Append({1}, 5);
    const MutationBatch batch = {
        Mutation{{2}, 6, MutationKind::kAdd},
        Mutation{{3}, 7, MutationKind::kAdd},
    };
    log->AppendBatch(batch);
    log->Sync();
  }
  // Truncate inside the second mutation of the batch record: header (12) +
  // count-1 record (32) + count(4) + first mutation (4+8+8) + 6 bytes.
  std::ifstream in(log_only_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(log_only_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), 12 + 32 + 4 + 20 + 6);
  out.close();

  DynamicDataCube cube(1, 16);
  const ReplayResult result = CubeLog::Replay(log_only_, &cube);
  EXPECT_TRUE(result.header_ok);
  EXPECT_FALSE(result.clean_tail);
  EXPECT_EQ(result.applied, 1);   // The point record only.
  EXPECT_EQ(result.batches, 1);
  EXPECT_EQ(cube.Get({1}), 5);
  EXPECT_EQ(cube.Get({2}), 0);    // Nothing of the torn batch applied.
  EXPECT_EQ(cube.Get({3}), 0);
}

TEST_F(WalTest, RangeRecordRoundTrip) {
  {
    auto log = CubeLog::Open(log_only_, 2);
    ASSERT_NE(log, nullptr);
    // Point records keep the exact pre-range layout: header (12) + one
    // count-1 record (4 count + 4 kind + 16 cell + 8 value + 8 checksum).
    EXPECT_TRUE(log->Append({1, 1}, 5));
    EXPECT_TRUE(log->Sync());
    EXPECT_EQ(std::filesystem::file_size(log_only_), 12u + 40u);
    // A range mutation carries 2d coordinates: its serialized form is one
    // fixed-size record no matter how many cells the box covers.
    const MutationBatch batch = {
        Mutation{{2, 2}, 7, MutationKind::kAdd},
        MakeRangeAdd({0, 0}, {9, 9}, 3),
        MakeRangeSet({4, 4}, {6, 6}, 2),
    };
    EXPECT_TRUE(log->AppendBatch(batch));
    EXPECT_TRUE(log->Sync());
    // Record: count(4) + point(4+16+8) + 2 x range(4+16+16+8) + checksum(8).
    EXPECT_EQ(std::filesystem::file_size(log_only_),
              12u + 40u + (4u + 28u + 44u + 44u + 8u));
    EXPECT_EQ(log->appended(), 4);
  }
  DynamicDataCube cube(2, 16);
  const ReplayResult result = CubeLog::Replay(log_only_, &cube);
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.clean_tail);
  EXPECT_EQ(result.applied, 4);
  EXPECT_EQ(result.batches, 2);
  EXPECT_EQ(cube.Get({1, 1}), 5 + 3);
  EXPECT_EQ(cube.Get({2, 2}), 7 + 3);
  EXPECT_EQ(cube.Get({0, 0}), 3);
  EXPECT_EQ(cube.Get({5, 5}), 2);           // Inside the range-set box.
  EXPECT_EQ(cube.Get({4, 4}), 2);
  EXPECT_EQ(cube.Get({9, 9}), 3);
  EXPECT_EQ(cube.TotalSum(), 5 + 7 + 3 * 100 - 3 * 9 + 2 * 9);
}

TEST_F(WalTest, TruncationAtEveryByteOfFinalRangeRecordIsAllOrNothing) {
  // Committed prefix: one point record and one range record.
  const MutationBatch committed_a = {Mutation{{1, 1}, 5, MutationKind::kAdd}};
  const MutationBatch committed_b = {MakeRangeAdd({0, 0}, {3, 3}, 2)};
  // Final record under the truncation sweep: a mixed point/range batch.
  const MutationBatch final_batch = {
      Mutation{{2, 2}, 7, MutationKind::kAdd},
      MakeRangeSet({1, 1}, {2, 2}, 4),
      MakeRangeAdd({0, 2}, {5, 5}, -1),
  };
  uintmax_t prior_size = 0;
  uintmax_t final_size = 0;
  {
    auto log = CubeLog::Open(log_only_, 2);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->AppendBatch(committed_a));
    ASSERT_TRUE(log->AppendBatch(committed_b));
    ASSERT_TRUE(log->Sync());
    prior_size = std::filesystem::file_size(log_only_);
    ASSERT_TRUE(log->AppendBatch(final_batch));
    ASSERT_TRUE(log->Sync());
    final_size = std::filesystem::file_size(log_only_);
  }
  ASSERT_GT(final_size, prior_size);

  std::ifstream in(log_only_, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(bytes.size(), final_size);

  DynamicDataCube want_prefix(2, 16);
  ASSERT_TRUE(want_prefix.ApplyBatch(committed_a));
  ASSERT_TRUE(want_prefix.ApplyBatch(committed_b));
  DynamicDataCube want_full(2, 16);
  ASSERT_TRUE(want_full.ApplyBatch(committed_a));
  ASSERT_TRUE(want_full.ApplyBatch(committed_b));
  ASSERT_TRUE(want_full.ApplyBatch(final_batch));

  const std::string scratch = "/tmp/ddc_wal_range_trunc.log";
  for (uintmax_t len = prior_size; len <= final_size; ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " of " +
                 std::to_string(final_size) + " bytes");
    {
      std::ofstream out(scratch, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    DynamicDataCube cube(2, 16);
    const ReplayResult result = CubeLog::Replay(scratch, &cube);
    const bool complete = len == final_size;
    EXPECT_TRUE(result.header_ok);
    EXPECT_EQ(result.clean_tail, complete || len == prior_size);
    EXPECT_EQ(result.applied, complete ? 5 : 2);
    EXPECT_EQ(result.batches, complete ? 3 : 2);
    const DynamicDataCube& want = complete ? want_full : want_prefix;
    for (Coord x = 0; x < 8; ++x) {
      for (Coord y = 0; y < 8; ++y) {
        ASSERT_EQ(cube.Get({x, y}), want.Get({x, y}))
            << "cell (" << x << ", " << y << ")";
      }
    }
    EXPECT_EQ(cube.TotalSum(), want.TotalSum());
  }
  std::remove(scratch.c_str());
}

TEST_F(WalTest, DurableApplyBatchSurvivesRestart) {
  {
    DurableCube cube(2, 16, base_);
    ASSERT_TRUE(cube.durable());
    const MutationBatch batch = {
        Mutation{{1, 1}, 4, MutationKind::kAdd},
        Mutation{{2, 2}, 9, MutationKind::kSet},
        Mutation{{1, 1}, 1, MutationKind::kAdd},
    };
    EXPECT_TRUE(cube.ApplyBatch(batch));  // sync defaults to true.
    EXPECT_EQ(cube.cube().Get({1, 1}), 5);
  }
  DurableCube reopened(2, 16, base_);
  EXPECT_EQ(reopened.recovery().batches, 1);
  EXPECT_EQ(reopened.recovery().applied, 3);
  EXPECT_EQ(reopened.cube().Get({1, 1}), 5);
  EXPECT_EQ(reopened.cube().Get({2, 2}), 9);
}

TEST_F(WalTest, CheckpointIfRerootedFiresOnlyAfterGrowth) {
  DurableCube cube(2, 8, base_);
  ASSERT_TRUE(cube.durable());
  cube.Add({1, 1}, 3, true);
  EXPECT_EQ(cube.reroots_since_checkpoint(), 0);
  EXPECT_TRUE(cube.CheckpointIfRerooted());  // No re-root: cheap no-op.
  EXPECT_EQ(cube.reroots_since_checkpoint(), 0);

  // Growth past the seed side re-roots; the lifecycle subscription counts
  // it and the deferred checkpoint then resets the log.
  const MutationBatch batch = {Mutation{{20, 20}, 2, MutationKind::kAdd}};
  EXPECT_TRUE(cube.ApplyBatch(batch));
  EXPECT_GT(cube.reroots_since_checkpoint(), 0);
  EXPECT_TRUE(cube.CheckpointIfRerooted());
  EXPECT_EQ(cube.reroots_since_checkpoint(), 0);

  DurableCube reopened(2, 8, base_);
  EXPECT_EQ(reopened.recovery().applied, 0);  // All state in the snapshot.
  EXPECT_EQ(reopened.cube().Get({1, 1}), 3);
  EXPECT_EQ(reopened.cube().Get({20, 20}), 2);
}

TEST_F(WalTest, DurableCubeSurvivesRestart) {
  {
    DurableCube cube(2, 16, base_);
    ASSERT_TRUE(cube.durable());
    cube.Add({3, 4}, 100, /*sync=*/true);
    cube.Add({5, 6}, 50, /*sync=*/true);
    // No checkpoint: state lives in the log only. Destructor drops the
    // in-memory cube; files remain.
  }
  DurableCube reopened(2, 16, base_);
  EXPECT_TRUE(reopened.recovery().header_ok);
  EXPECT_EQ(reopened.recovery().applied, 2);
  EXPECT_EQ(reopened.cube().Get({3, 4}), 100);
  EXPECT_EQ(reopened.cube().TotalSum(), 150);
}

// The tree shape is persisted by the snapshot: a base checkpointed with the
// paper's full tree (h = 0) reopens as h = 0 under the elided default, and
// answers as it did; a fresh base starts at the default h = 2.
TEST_F(WalTest, SnapshotKeepsItsTreeShape) {
  DynamicDataCube reference(2, 16, {.elide_levels = 0});
  WorkloadGenerator gen(Shape::Cube(2, 16), 5);
  const std::vector<UpdateOp> ops = gen.UniformUpdates(60, -9, 9);
  {
    DurableCube cube(2, 16, base_, {.elide_levels = 0});
    ASSERT_TRUE(cube.durable());
    for (size_t i = 0; i < ops.size(); ++i) {
      cube.Add(ops[i].cell, ops[i].delta, /*sync=*/true);
      reference.Add(ops[i].cell, ops[i].delta);
      if (i == 40) {
        ASSERT_TRUE(cube.Checkpoint());  // The rest: log only.
      }
    }
  }
  DurableCube reopened(2, 16, base_);  // Default options.
  EXPECT_EQ(reopened.recovery().applied, 19);
  EXPECT_EQ(reopened.cube().options().elide_levels, 0);
  const DdcStats stats = reopened.cube().Stats();
  EXPECT_EQ(stats.raw_cells, stats.raw_blocks * 4);  // Side-2 leaf blocks.
  EXPECT_EQ(stats.nodes, reference.Stats().nodes);
  EXPECT_EQ(reopened.cube().StorageCells(), reference.StorageCells());
  for (Coord x = 0; x < 16; ++x) {
    for (Coord y = 0; y < 16; ++y) {
      ASSERT_EQ(reopened.cube().PrefixSum({x, y}), reference.PrefixSum({x, y}))
          << x << "," << y;
    }
  }

  Cleanup();
  {
    DurableCube fresh(2, 16, base_);
    EXPECT_EQ(fresh.cube().options().elide_levels, 2);
    EXPECT_EQ(fresh.cube().options().elide_levels, DdcOptions{}.elide_levels);
    fresh.Add({3, 3}, 1, true);
    ASSERT_TRUE(fresh.Checkpoint());
  }
  DurableCube fresh_reopened(2, 16, base_);
  EXPECT_EQ(fresh_reopened.cube().options().elide_levels, 2);
  EXPECT_EQ(fresh_reopened.cube().Get({3, 3}), 1);
}

TEST_F(WalTest, CheckpointResetsLogAndKeepsState) {
  {
    DurableCube cube(2, 16, base_);
    cube.Add({1, 1}, 10, true);
    ASSERT_TRUE(cube.Checkpoint());
    cube.Add({2, 2}, 20, true);  // Post-checkpoint: in the fresh log.
  }
  DurableCube reopened(2, 16, base_);
  EXPECT_EQ(reopened.recovery().applied, 1);  // Only the post-checkpoint op.
  EXPECT_EQ(reopened.cube().TotalSum(), 30);
  EXPECT_EQ(reopened.cube().Get({1, 1}), 10);
  EXPECT_EQ(reopened.cube().Get({2, 2}), 20);
}

TEST_F(WalTest, RecoveryAfterTornTailSelfHeals) {
  {
    DurableCube cube(2, 16, base_);
    for (Coord i = 0; i < 10; ++i) cube.Add({i, i}, 1, true);
  }
  // Tear the log: drop the last 5 bytes.
  const std::string log_path = base_ + ".log";
  std::ifstream in(log_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() - 5));
  out.close();

  DurableCube recovered(2, 16, base_);
  EXPECT_FALSE(recovered.recovery().clean_tail);
  EXPECT_EQ(recovered.cube().TotalSum(), 9);  // Last record lost, rest kept.
  // Self-heal checkpointed: a further restart replays an empty log.
  DurableCube again(2, 16, base_);
  EXPECT_EQ(again.recovery().applied, 0);
  EXPECT_EQ(again.cube().TotalSum(), 9);
}

// Every-byte truncation property: after a seeded session of interleaved
// batches, checkpoints, and growth-driven re-roots, cutting the log at ANY
// byte of the final record must recover exactly the committed prefix —
// every earlier batch, never a partial final one. This is the exhaustive
// version of TornTailStopsReplayCleanly: instead of one hand-picked tear
// point, every tear point the kernel could produce.
TEST_F(WalTest, TruncationAtEveryByteOfFinalRecordRecoversCommittedPrefix) {
  const uint64_t seed = TestSeed(90210);
  auto mix = [](uint64_t* state) {
    uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };

  const std::string log_path = base_ + ".log";
  constexpr int kBatches = 10;
  std::vector<MutationBatch> batches;
  uint64_t rng = seed;
  for (int i = 0; i < kBatches; ++i) {
    MutationBatch batch;
    const int n = 1 + static_cast<int>(mix(&rng) % 4);
    for (int j = 0; j < n; ++j) {
      // Coordinates past the initial side (8) force growth re-roots.
      batch.push_back(Mutation{{static_cast<Coord>(mix(&rng) % 40),
                                static_cast<Coord>(mix(&rng) % 40)},
                               static_cast<int64_t>(mix(&rng) % 15) - 7,
                               mix(&rng) % 5 == 0 ? MutationKind::kSet
                                                  : MutationKind::kAdd});
    }
    batches.push_back(std::move(batch));
  }

  uintmax_t prior_size = 0;
  uintmax_t final_size = 0;
  {
    DurableCube cube(2, 8, base_);
    ASSERT_TRUE(cube.durable());
    for (int i = 0; i < kBatches; ++i) {
      if (i == kBatches - 1) {
        prior_size = std::filesystem::file_size(log_path);
      }
      ASSERT_TRUE(cube.ApplyBatch(batches[i], /*sync=*/true));
      // Interleave checkpoint flavours, but only strictly before the final
      // batch so the tail under test stays in the log.
      if (i == 3) {
        ASSERT_TRUE(cube.Checkpoint());
      }
      if (i == 6) cube.CheckpointIfRerooted();
    }
    final_size = std::filesystem::file_size(log_path);
  }
  ASSERT_GT(final_size, prior_size);

  // Reference states: all batches, and all-but-the-last.
  auto collect = [](const DynamicDataCube& cube) {
    std::map<Cell, int64_t> cells;
    cube.ForEachNonZero(
        [&cells](const Cell& cell, int64_t value) { cells[cell] = value; });
    return cells;
  };
  std::map<Cell, int64_t> want_full;
  std::map<Cell, int64_t> want_prefix;
  {
    DynamicDataCube full(2, 8);
    for (int i = 0; i < kBatches; ++i) ASSERT_TRUE(full.ApplyBatch(batches[i]));
    want_full = collect(full);
    DynamicDataCube prefix(2, 8);
    for (int i = 0; i < kBatches - 1; ++i) {
      ASSERT_TRUE(prefix.ApplyBatch(batches[i]));
    }
    want_prefix = collect(prefix);
  }

  // Snapshot + log bytes from the finished session.
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string snap_bytes = slurp(base_ + ".snap");
  const std::string log_bytes = slurp(log_path);
  ASSERT_EQ(log_bytes.size(), final_size);
  ASSERT_FALSE(snap_bytes.empty());

  const std::string scratch = "/tmp/ddc_wal_trunc_scratch";
  for (uintmax_t len = prior_size; len <= final_size; ++len) {
    SCOPED_TRACE("log truncated to " + std::to_string(len) + " of " +
                 std::to_string(final_size) + " bytes");
    {
      std::ofstream snap(scratch + ".snap",
                        std::ios::binary | std::ios::trunc);
      snap.write(snap_bytes.data(),
                 static_cast<std::streamsize>(snap_bytes.size()));
    }
    {
      std::ofstream log(scratch + ".log", std::ios::binary | std::ios::trunc);
      log.write(log_bytes.data(), static_cast<std::streamsize>(len));
    }
    {
      DurableCube recovered(2, 8, scratch);
      const bool complete = len == final_size;
      EXPECT_EQ(recovered.recovery().clean_tail,
                complete || len == prior_size);
      EXPECT_EQ(collect(recovered.cube()),
                complete ? want_full : want_prefix);
    }
    std::remove((scratch + ".snap").c_str());
    std::remove((scratch + ".log").c_str());
  }
}

TEST_F(WalTest, RandomizedDurabilityRoundTrip) {
  WorkloadGenerator gen(Shape::Cube(2, 64), 77);
  int64_t expected_total = 0;
  {
    DurableCube cube(2, 64, base_);
    for (int i = 0; i < 300; ++i) {
      const UpdateOp op{gen.UniformCell(), gen.Value(-9, 9)};
      cube.Add(op.cell, op.delta, i % 50 == 0);
      expected_total += op.delta;
      if (i == 150) cube.Checkpoint();
    }
    cube.cube();  // Final flush happens via the log handle below.
  }
  DurableCube reopened(2, 64, base_);
  EXPECT_EQ(reopened.cube().TotalSum(), expected_total);
}

}  // namespace
}  // namespace ddc
