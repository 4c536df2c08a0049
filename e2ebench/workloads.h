// Workload definitions and seeded statement generators. Every workload's
// inputs derive from (workload, seed) alone; the program under test only
// ever sees the generated statement text (or, in concurrent_mix, the
// generated boxes and mutation batches).
#ifndef DDC_E2EBENCH_WORKLOADS_H_
#define DDC_E2EBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cell.h"
#include "common/mutation.h"
#include "common/range.h"

namespace ddc {
namespace e2e {

enum class Kind { kHotReports, kColdOlap, kDurableIngest, kConcurrentMix };

struct Workload {
  Kind kind;
  const char* name;
  int dims;
  int64_t side;           // Initial domain [0, side) in every dimension.
  int64_t preload_cells;  // Point adds loaded (and checkpointed) in setup.
};

inline const Workload kWorkloads[] = {
    {Kind::kHotReports, "hot_reports", 2, 1024, 150000},
    {Kind::kColdOlap, "cold_olap", 3, 128, 40000},
    {Kind::kDurableIngest, "durable_ingest", 2, 256, 50000},
    {Kind::kConcurrentMix, "concurrent_mix", 2, 1024, 150000},
};

// hot_reports: report pool size and the rank skew of draws from it. One
// report in five is a plain sum (one cache entry), the rest GROUP BY
// rollups of exactly kHotGroups rows (one entry per row): 52 + 204 * 4 =
// 868 entries, within the default 1024-entry cache. Most reads are then
// rollup hits, so read_p50_us sits inside one latency mode, not between two.
constexpr int kHotPool = 256;
constexpr int kHotGroups = 4;
constexpr double kHotPoolTheta = 0.5;
constexpr double kHotCellTheta = 0.5;
// durable_ingest: point targets per group-commit statement, and how fast the
// drift frontier (where a share of targets lands) moves past the initial
// domain, in cells per statement, up to a cap: the domain doubles twice
// (256 -> 1024) early in every run, then stays put, so the rest of the run
// measures a steady state whatever the throughput.
constexpr int64_t kIngestMinTargets = 48;
constexpr int64_t kIngestMaxTargets = 144;
constexpr double kIngestDriftShare = 0.05;
// Drift targets land on a grid of this stride, so the cells the run can
// write are bounded (the initial domain plus 64 x 64 grid cells): the cube
// stops growing within the first seconds, and the latencies and the restart
// measure one steady state, not a cube whose size follows the throughput.
constexpr int64_t kIngestDriftStride = 16;
constexpr double kIngestFrontierPerStmt = 1.0;
constexpr int64_t kIngestFrontierMax = 1024;
// concurrent_mix: boxes per read batch, adds per write batch. Eight boxes
// stay below the size at which ConcurrentCube::RangeSumBatch splits a batch
// across the thread pool, whose wake-ups made the read p99 unsteady.
constexpr int kMixBoxes = 8;
constexpr int64_t kMixMinAdds = 24;
constexpr int64_t kMixMaxAdds = 40;

inline uint64_t StreamSeed(uint64_t seed, Kind kind, uint64_t stream) {
  std::seed_seq seq{seed, static_cast<uint64_t>(kind), stream};
  uint64_t out[1];
  seq.generate(out, out + 1);
  return out[0];
}

// The preload: `preload_cells` uniform point adds with values in [1, 100].
inline MutationBatch PreloadBatch(const Workload& w, uint64_t seed) {
  std::mt19937_64 rng(StreamSeed(seed, w.kind, 1));
  MutationBatch batch;
  batch.reserve(static_cast<size_t>(w.preload_cells));
  for (int64_t i = 0; i < w.preload_cells; ++i) {
    Cell c(static_cast<size_t>(w.dims));
    for (Coord& x : c) x = Uniform(rng, 0, w.side - 1);
    batch.push_back(Mutation{std::move(c), Uniform(rng, 1, 100),
                             MutationKind::kAdd});
  }
  return batch;
}

struct GenStmt {
  std::string text;
  bool read = false;
  int64_t mutations = 0;  // Targets of a write statement.
};

// The statement stream of a single-client workload. Deterministic: the
// same (workload, seed) yields the same sequence, so the output checks can
// regenerate it for replay.
class StatementStream {
 public:
  // `stream` selects an independent sequence of the same workload.
  StatementStream(const Workload& w, uint64_t seed, uint64_t stream = 2)
      : w_(w),
        rng_(StreamSeed(seed, w.kind, stream)),
        hot_coord_(w.side, kHotCellTheta),
        hot_pool_rank_(kHotPool, kHotPoolTheta),
        ingest_coord_(w.side, 0.8) {
    if (w.kind == Kind::kHotReports) {
      std::mt19937_64 pool_rng(StreamSeed(seed, w.kind, 3));
      for (int i = 0; i < kHotPool; ++i) {
        Box box = RandomBox(pool_rng, 0, w.side, 16, 512);
        int64_t group = 0;
        if (i % 5 != 0) {
          // kHotGroups aligned groups of 16..128 cells along d0.
          group = int64_t{16} << Uniform(pool_rng, 0, 3);
          box.lo[0] = Uniform(pool_rng, 0, w.side / group - kHotGroups) * group;
          box.hi[0] = box.lo[0] + kHotGroups * group - 1;
        }
        pool_.push_back(ReadText(box, 0, group));
      }
      // Hot write cells are Zipf by rank, scattered over the domain by a
      // seeded permutation, so every report overlaps its share of them.
      hot_perm_.resize(static_cast<size_t>(w.side));
      for (int64_t x = 0; x < w.side; ++x) hot_perm_[static_cast<size_t>(x)] = x;
      std::shuffle(hot_perm_.begin(), hot_perm_.end(), pool_rng);
    }
  }

  // hot_reports' report pool (empty for other workloads).
  const std::vector<std::string>& pool() const { return pool_; }

  void Next(size_t n, std::vector<GenStmt>* out) {
    out->clear();
    for (size_t i = 0; i < n; ++i) out->push_back(One());
  }

 private:
  GenStmt One() {
    const int64_t index = index_++;
    const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
    switch (w_.kind) {
      case Kind::kHotReports:
        if (u < 0.02) return PointWrite(Uniform(rng_, 1, 4), [this] {
                 return Cell{hot_perm_[static_cast<size_t>(hot_coord_.Draw(rng_))],
                             hot_perm_[static_cast<size_t>(hot_coord_.Draw(rng_))]};
               });
        return GenStmt{pool_[static_cast<size_t>(hot_pool_rank_.Draw(rng_))],
                       true, 0};
      case Kind::kColdOlap:
        if (u < 0.05) return PointWrite(Uniform(rng_, 1, 4), [this] {
                 return RandomCell(0, w_.side);
               });
        return GenStmt{ReadText(RandomBox(rng_, 0, w_.side, 8, 96), 0,
                                u < 0.25 ? 16 : 0),
                       true, 0};
      case Kind::kDurableIngest: {
        if (u < 0.12) {
          return GenStmt{ReadText(RandomBox(rng_, 0, w_.side, 16, 256), 1,
                                  u < 0.06 ? 32 : 0),
                         true, 0};
        }
        if (u < 0.21) return RangeWrite();
        // The drift frontier: a share of targets lands anywhere below it,
        // so the domain doubles (re-roots) as it passes each power of two.
        const int64_t frontier = std::min(
            kIngestFrontierMax,
            w_.side + static_cast<int64_t>(kIngestFrontierPerStmt *
                                           static_cast<double>(index)));
        return PointWrite(
            Uniform(rng_, kIngestMinTargets, kIngestMaxTargets),
            [this, frontier] {
              if (std::uniform_real_distribution<double>(0, 1)(rng_) <
                  kIngestDriftShare) {
                return GridCell(frontier, kIngestDriftStride);
              }
              return Cell{ingest_coord_.Draw(rng_), ingest_coord_.Draw(rng_)};
            });
      }
      case Kind::kConcurrentMix:
        break;
    }
    return GenStmt{};
  }

  Cell RandomCell(int64_t lo, int64_t hi) {
    Cell c(static_cast<size_t>(w_.dims));
    for (Coord& x : c) x = Uniform(rng_, lo, hi - 1);
    return c;
  }

  // A uniform cell in [0, hi) per dimension with every coordinate a
  // multiple of `stride`.
  Cell GridCell(int64_t hi, int64_t stride) {
    Cell c(static_cast<size_t>(w_.dims));
    for (Coord& x : c) x = Uniform(rng_, 0, hi / stride - 1) * stride;
    return c;
  }

  // A box inside [lo, hi) per dimension with sides in [min_w, max_w].
  Box RandomBox(std::mt19937_64& rng, int64_t lo, int64_t hi, int64_t min_w,
                int64_t max_w) const {
    Box box{Cell(static_cast<size_t>(w_.dims)),
            Cell(static_cast<size_t>(w_.dims))};
    for (size_t d = 0; d < box.lo.size(); ++d) {
      const int64_t width = Uniform(rng, min_w, std::min(max_w, hi - lo));
      box.lo[d] = Uniform(rng, lo, hi - width);
      box.hi[d] = box.lo[d] + width - 1;
    }
    return box;
  }

  std::string ReadText(const Box& box, int group_dim, int64_t group) const {
    std::string text = "SUM";
    if (group > 0) {
      text += " GROUP BY d" + std::to_string(group_dim) + " SIZE " +
              std::to_string(group);
    }
    for (size_t d = 0; d < box.lo.size(); ++d) {
      text += d ? " AND d" : " WHERE d";
      text += std::to_string(d) + " IN [" + std::to_string(box.lo[d]) + ", " +
              std::to_string(box.hi[d]) + "]";
    }
    return text;
  }

  template <typename CellFn>
  GenStmt PointWrite(int64_t targets, CellFn next_cell) {
    GenStmt s{"ADD", false, targets};
    for (int64_t t = 0; t < targets; ++t) {
      const Cell c = next_cell();
      s.text += t ? ", AT [" : " AT [";
      for (size_t d = 0; d < c.size(); ++d) {
        s.text += (d ? ", " : "") + std::to_string(c[d]);
      }
      s.text += "] = " + std::to_string(Uniform(rng_, 1, 50));
    }
    return s;
  }

  GenStmt RangeWrite() {
    const Box box = RandomBox(rng_, 0, w_.side, 8, 64);
    std::string lo, hi;
    for (size_t d = 0; d < box.lo.size(); ++d) {
      lo += (d ? ", " : "") + std::to_string(box.lo[d]);
      hi += (d ? ", " : "") + std::to_string(box.hi[d]);
    }
    return GenStmt{"ADD " + std::to_string(Uniform(rng_, 1, 9)) + " IN [" +
                       lo + " .. " + hi + "]",
                   false, 1};
  }

  const Workload& w_;
  std::mt19937_64 rng_;
  Zipf hot_coord_;
  Zipf hot_pool_rank_;
  Zipf ingest_coord_;
  std::vector<std::string> pool_;
  std::vector<Coord> hot_perm_;
  int64_t index_ = 0;
};

// One concurrent_mix client's operations: 80% RangeSumBatch of kMixBoxes
// uniform boxes, 20% ApplyBatch of adds to uniformly drawn preloaded cells.
// Writes update cells that already hold values, so the cube keeps the
// preload's shape and size however many writes a run completes.
class MixStream {
 public:
  MixStream(const Workload& w, uint64_t seed, uint64_t client,
            const MutationBatch& preload)
      : w_(w), preload_(preload), rng_(StreamSeed(seed, w.kind, 100 + client)) {}

  bool NextIsRead() {
    return std::uniform_real_distribution<double>(0, 1)(rng_) >= 0.2;
  }
  void Boxes(std::vector<Box>* out) {
    out->clear();
    for (int i = 0; i < kMixBoxes; ++i) {
      Box box{Cell(2), Cell(2)};
      for (size_t d = 0; d < 2; ++d) {
        const int64_t width = Uniform(rng_, 16, 512);
        box.lo[d] = Uniform(rng_, 0, w_.side - width);
        box.hi[d] = box.lo[d] + width - 1;
      }
      out->push_back(std::move(box));
    }
  }
  MutationBatch Adds() {
    MutationBatch batch;
    const int64_t n = Uniform(rng_, kMixMinAdds, kMixMaxAdds);
    const int64_t last = static_cast<int64_t>(preload_.size()) - 1;
    for (int64_t i = 0; i < n; ++i) {
      const Mutation& target = preload_[static_cast<size_t>(Uniform(rng_, 0, last))];
      batch.push_back(
          Mutation{target.cell, Uniform(rng_, 1, 50), MutationKind::kAdd});
    }
    return batch;
  }

 private:
  const Workload& w_;
  const MutationBatch& preload_;
  std::mt19937_64 rng_;
};

}  // namespace e2e
}  // namespace ddc

#endif  // DDC_E2EBENCH_WORKLOADS_H_
