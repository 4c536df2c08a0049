// The statement workloads (hot_reports, cold_olap, durable_ingest): one
// closed-loop client sends statement text through the public stack.
//
//   read:  ParseStatement -> ExecuteQuery(query, CachedCube) -> DDC
//   write: ParseStatement -> CachedCube::InvalidateBatch
//          -> DurableCube::ApplyBatch(batch, sync=true)   (true = the ack)
//
// durable_ingest also checkpoints after every re-root (the trigger
// DurableCube documents); the client waits for it, so it is part of the
// latency of the write that triggered it. It takes no periodic checkpoints:
// a checkpoint snapshots the whole cube (0.5-0.9 s here), and a few such
// stalls per run made every rate and tail metric lumpy.
#include <filesystem>
#include <memory>
#include <optional>
#include <unordered_map>

#include "cache/cached_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "query/executor.h"
#include "query/parser.h"
#include "runner.h"
#include "wal/cube_log.h"
#include "workloads.h"

namespace ddc {
namespace e2e {
namespace {

constexpr size_t kPreloadBatch = 8192;  // Mutations per preload commit.
constexpr int kNaiveSamples = 400;      // Reads checked against NaiveCube.
constexpr int kRecoverySamples = 64;    // Range sums compared at a restart.
// The restart log's statements come from this seed, not the run's, so every
// run replays the same writes, whatever share of range adds a run's seed
// would have put in the log.
constexpr uint64_t kRestartSeed = 5;

uint64_t Mix(uint64_t h, int64_t v) {
  return (h ^ static_cast<uint64_t>(v)) * 1099511628211ull;
}

// FNV-1a over a read's rows; 0 stands for a read that did not succeed.
uint64_t Fingerprint(const QueryResult& r) {
  if (!r.ok) return 0;
  uint64_t h = Mix(1469598103934665603ull, static_cast<int64_t>(r.rows.size()));
  for (const QueryResultRow& row : r.rows) {
    h = Mix(Mix(Mix(h, row.group_start), row.group_end), row.sum);
  }
  return h;
}

// The predicate box of a query clipped to [0, side)^d.
Box PredicateBox(const Query& q, int dims, int64_t side) {
  Box box{Cell(static_cast<size_t>(dims), 0),
          Cell(static_cast<size_t>(dims), side - 1)};
  for (const Predicate& p : q.predicates) {
    const size_t d = static_cast<size_t>(p.dim);
    box.lo[d] = std::max(box.lo[d], p.lo);
    box.hi[d] = std::min(box.hi[d], p.hi);
  }
  return box;
}

// Row boxes of a query, computed without the executor: the oracle side of
// the NaiveCube check.
std::vector<Box> OracleSlices(const Query& q, int dims, int64_t side) {
  const Box box = PredicateBox(q, dims, side);
  if (!q.group_by) return {box};
  std::vector<Box> slices;
  const size_t d = static_cast<size_t>(q.group_by->dim);
  const int64_t g = q.group_by->group_size;
  for (Coord start = box.lo[d] / g * g; start <= box.hi[d]; start += g) {
    Box s = box;
    s.lo[d] = std::max(box.lo[d], start);
    s.hi[d] = std::min(box.hi[d], start + g - 1);
    slices.push_back(std::move(s));
  }
  return slices;
}

bool Overlaps(const Box& box, const Mutation& m) {
  const Cell& hi = m.is_range() ? m.hi : m.cell;
  for (size_t d = 0; d < box.lo.size(); ++d) {
    if (hi[d] < box.lo[d] || m.cell[d] > box.hi[d]) return false;
  }
  return true;
}

class StatementClient : public ClosedLoop {
 public:
  StatementClient(const Workload& w, const Args& args, SpanLog* spans)
      : ClosedLoop(w, args, spans),
        base_(args.dir + "/cube"),
        fixture_base_(args.dir + "/restart"),
        preload_(PreloadBatch(w, args.seed)),
        stream_(w, args.seed) {
    out_.cache_capacity = static_cast<int64_t>(CachedCubeOptions{}.capacity);
  }

 private:
  void SetUp() override {
    cache_.reset();
    durable_.reset();
    std::filesystem::remove(base_ + ".snap");
    std::filesystem::remove(base_ + ".log");
    durable_ = std::make_unique<DurableCube>(w_.dims, w_.side, base_);
    if (!durable_->durable()) out_.Mismatch("cannot open " + base_);
    for (size_t i = 0; i < preload_.size(); i += kPreloadBatch) {
      const size_t n = std::min(kPreloadBatch, preload_.size() - i);
      if (!durable_->ApplyBatch({preload_.data() + i, n}, true)) {
        out_.Mismatch("preload commit not acked");
      }
    }
    if (!durable_->Checkpoint()) out_.Mismatch("preload checkpoint failed");
    cache_ = std::make_unique<CachedCube>(&durable_->cube());
    // hot_reports' working set fits the cache: warm it with every report.
    for (const std::string& text : stream_.pool()) {
      std::string error;
      const std::optional<Statement> st = ParseStatement(text, &error);
      if (!st || !st->query || !ExecuteQuery(*st->query, *cache_).ok) {
        out_.Mismatch("warm-up report failed: " + text);
      }
    }
    log_base_ = FileSize(durable_->log_path());
  }

  void Generate(size_t n) override {
    if (!chunk_.empty()) chunk_hashes_.push_back(chunk_hash_);
    chunk_hash_ = 0;
    stream_.Next(n, &chunk_);
  }

  void TracedPhase(bool begin) override {
    const CacheStats c = cache_->Stats();
    if (begin) {
      phase_cache_ = c;
      return;
    }
    Layers& l = out_.layers;
    l.cache_hits += c.hits - phase_cache_.hits;
    l.cache_misses += c.misses - phase_cache_.misses;
    l.cache_inserts += c.inserts - phase_cache_.inserts;
    l.cache_invalidated += c.invalidated - phase_cache_.invalidated;
  }

  Op Execute(size_t i, bool traced, uint64_t id) override {
    const GenStmt& s = chunk_[i];
    RegistrySnap r0;
    if (traced) r0 = RegistrySnap::Take();
    Op op;
    op.read = s.read;
    op.ddc_caller = s.read ? &Layers::query_self_ns : &Layers::wal_self_ns;
    op.t0 = Now();
    std::string error;
    const std::optional<Statement> st = ParseStatement(s.text, &error);
    const uint64_t tp = Now();
    uint64_t te = tp, ti = tp, ta = tp, tc0 = 0, tc1 = 0;
    op.ok = st.has_value() &&
            (s.read ? st->query.has_value() : st->write.has_value());
    if (s.read) {
      uint64_t fp = 0;
      if (op.ok) {
        const QueryResult r = ExecuteQuery(*st->query, *cache_);
        te = Now();
        op.ok = r.ok;
        fp = Fingerprint(r);
      }
      chunk_hash_ = Mix(chunk_hash_, static_cast<int64_t>(fp));
      ++reads_;
    } else if (op.ok) {
      const MutationBatch& batch = st->write->mutations;
      cache_->InvalidateBatch(batch);
      ti = Now();
      op.ok = durable_->ApplyBatch(batch, true);
      ta = Now();
      if (op.ok) op.mutations = static_cast<int64_t>(batch.size());
      if (w_.kind == Kind::kDurableIngest &&
          durable_->reroots_since_checkpoint() > 0) {
        wal_bytes_ += FileSize(durable_->log_path()) - log_base_;
        tc0 = Now();
        op.ok = durable_->Checkpoint() && op.ok;
        tc1 = Now();
        op.stall_ns = tc1 - tc0;
        log_base_ = FileSize(durable_->log_path());
      }
    }
    op.t1 = Now();
    acked_mutations_ += op.mutations;
    if (!traced) return op;

    const RegistrySnap r1 = RegistrySnap::Take();
    Layers& l = out_.layers;
    auto us = [](uint64_t a, uint64_t b) {
      return static_cast<double>(b - a) / 1e3;
    };
    l.parse_us.push_back(us(op.t0, tp));
    l.query_self_ns += static_cast<double>(tp - op.t0);
    spans_->Add("query.parse", id, op.t0, tp);
    if (s.read) {
      l.exec_us.push_back(us(tp, te));
      // ExecuteQuery's self time covers the executor and the cache probe
      // (one call); the harness moves the ddc descent out of it.
      l.query_self_ns += static_cast<double>(te - tp);
      l.values_read += r1.values_read - r0.values_read;
      l.nodes_visited += r1.nodes_visited - r0.nodes_visited;
      l.face_lookups += r1.face_lookups - r0.face_lookups;
      spans_->Add("query.exec", id, tp, te);
    } else {
      l.invalidate_us.push_back(us(tp, ti));
      l.cache_self_ns += static_cast<double>(ti - tp);
      l.wal_self_ns += static_cast<double>(ta - ti);
      l.sync_us.push_back(static_cast<double>(r1.sync_ns - r0.sync_ns) / 1e3);
      l.append_ns += static_cast<double>(r1.append_ns - r0.append_ns);
      l.appends += r1.appends - r0.appends;
      l.values_written += r1.values_written - r0.values_written;
      spans_->Add("cache.invalidate", id, tp, ti);
      spans_->Add("wal.durable_apply", id, ti, ta);
      if (tc1 != 0) {
        l.wal_self_ns += static_cast<double>(tc1 - tc0);
        l.checkpoint_ms.push_back(static_cast<double>(tc1 - tc0) / 1e6);
        spans_->Add("wal.checkpoint", id, tc0, tc1);
      }
    }
    return op;
  }

  double SpaceCellsPerValue() override {
    const DynamicDataCube& live = durable_->cube();
    int64_t nonzero = 0;
    live.ForEachNonZero([&nonzero](const Cell&, int64_t) { ++nonzero; });
    return Ratio(static_cast<double>(live.StorageCells()),
                 static_cast<double>(nonzero));
  }

  // A checkpoint of the live stack; its snapshot, copied, is the fixture's,
  // and kRestartTail write statements of the same workload from
  // kRestartSeed, parsed but not applied, are the fixture's log.
  void MakeRestartFixture() override {
    wal_bytes_ += FileSize(durable_->log_path()) - log_base_;
    const uint64_t tc0 = Now();
    if (!durable_->Checkpoint()) out_.Mismatch("checkpoint failed");
    out_.layers.checkpoint_ms.push_back(static_cast<double>(Now() - tc0) / 1e6);
    log_base_ = FileSize(durable_->log_path());
    std::error_code ec;
    std::filesystem::copy_file(base_ + ".snap", fixture_base_ + ".snap",
                               std::filesystem::copy_options::overwrite_existing,
                               ec);
    if (ec) out_.Mismatch("cannot copy the snapshot: " + ec.message());

    // What a reopen must hold: the live cube's sampled sums and total, plus
    // what the logged writes add to them.
    const DynamicDataCube& live = durable_->cube();
    std::mt19937_64 rng(StreamSeed(args_.seed, w_.kind, 4));
    const Cell lo = live.DomainLo(), hi = live.DomainHi();
    fixture_boxes_.clear();
    for (int i = 0; i < kRecoverySamples; ++i) {
      Box b{lo, lo};
      for (size_t d = 0; d < lo.size(); ++d) {
        const int64_t x = Uniform(rng, lo[d], hi[d]);
        const int64_t y = Uniform(rng, lo[d], hi[d]);
        b.lo[d] = std::min(x, y);
        b.hi[d] = std::max(x, y);
      }
      fixture_boxes_.push_back(b);
    }
    fixture_sums_.assign(fixture_boxes_.size(), 0);
    live.RangeSumBatch(fixture_boxes_, fixture_sums_);
    fixture_total_ = live.TotalSum();

    std::filesystem::remove(fixture_base_ + ".log");
    std::unique_ptr<CubeLog> log =
        CubeLog::Open(fixture_base_ + ".log", w_.dims);
    if (log == nullptr) {
      out_.Mismatch("cannot open " + fixture_base_ + ".log");
      return;
    }
    StatementStream tail(w_, kRestartSeed, 5);
    std::vector<GenStmt> chunk;
    for (int written = 0; written < kRestartTail;) {
      tail.Next(kChunk, &chunk);
      for (const GenStmt& s : chunk) {
        if (s.read || written == kRestartTail) continue;
        ++written;
        std::string error;
        const std::optional<Statement> st = ParseStatement(s.text, &error);
        if (!st || !st->write || !log->AppendBatch(st->write->mutations)) {
          out_.Mismatch("restart log write failed: " + s.text);
          continue;
        }
        AddToSums(st->write->mutations, fixture_boxes_, &fixture_sums_,
                  &fixture_total_);
      }
    }
    if (!log->Sync()) out_.Mismatch("cannot sync " + fixture_base_ + ".log");
  }

  void Restart() override {
    TimeRestart(
        [this] {
          return std::make_unique<DurableCube>(w_.dims, w_.side,
                                               fixture_base_);
        },
        [this](std::unique_ptr<DurableCube>& reopened) {
          std::vector<int64_t> got(fixture_boxes_.size());
          reopened->cube().RangeSumBatch(fixture_boxes_, got);
          if (reopened->cube().TotalSum() != fixture_total_ ||
              got != fixture_sums_) {
            out_.Mismatch("recovered cube differs from snapshot plus log");
          }
        });
  }

  void Finish() override {
    chunk_hashes_.push_back(chunk_hash_);
    wal_bytes_ += FileSize(durable_->log_path()) - log_base_;
    out_.e2e.wal_bytes_per_mutation = Ratio(
        static_cast<double>(wal_bytes_), static_cast<double>(acked_mutations_));
    if (w_.kind != Kind::kDurableIngest) ReplayCheck();
  }

  // Replays the executed statements on an uncached DynamicDataCube: every
  // chunk's reads must hash the same as in the run, and a sample of reads
  // must equal NaiveCube. A read whose predicate box no write has touched
  // since it was last answered is not answered again: the cube is the same
  // inside that box, so the answer is too.
  void ReplayCheck() {
    DynamicDataCube ddc(w_.dims, w_.side);
    NaiveCube naive(Shape::Cube(w_.dims, w_.side));
    ddc.ApplyBatch(preload_);
    for (const Mutation& m : preload_) naive.Add(m.cell, m.delta);
    const int64_t every = std::max<int64_t>(1, reads_ / kNaiveSamples);
    struct Answer {
      Box box;
      uint64_t fp;
    };
    std::unordered_map<std::string, Answer> answered;
    StatementStream stream(w_, args_.seed);
    std::vector<GenStmt> chunk;
    int64_t read_index = 0;
    for (size_t c = 0; c < chunk_hashes_.size() && out_.correct; ++c) {
      stream.Next(kChunk, &chunk);
      const int64_t first = static_cast<int64_t>(c * kChunk);
      const size_t n = static_cast<size_t>(
          std::min<int64_t>(kChunk, executed_ - first));
      uint64_t hash = 0;
      for (size_t i = 0; i < n; ++i) {
        const GenStmt& s = chunk[i];
        const bool sampled = s.read && read_index++ % every == 0;
        if (s.read && !sampled) {
          auto it = answered.find(s.text);
          if (it != answered.end()) {
            hash = Mix(hash, static_cast<int64_t>(it->second.fp));
            continue;
          }
        }
        std::string error;
        const std::optional<Statement> st = ParseStatement(s.text, &error);
        if (s.read) {
          if (!st || !st->query) {
            hash = Mix(hash, 0);
            continue;
          }
          const QueryResult r = ExecuteQuery(*st->query, ddc);
          const uint64_t fp = Fingerprint(r);
          hash = Mix(hash, static_cast<int64_t>(fp));
          answered[s.text] =
              Answer{PredicateBox(*st->query, w_.dims, w_.side), fp};
          if (!sampled) continue;
          const std::vector<Box> slices =
              OracleSlices(*st->query, w_.dims, w_.side);
          bool same = r.ok && slices.size() == r.rows.size();
          for (size_t j = 0; same && j < slices.size(); ++j) {
            same = naive.RangeSum(slices[j]) == r.rows[j].sum;
          }
          if (!same) out_.Mismatch("read differs from NaiveCube: " + s.text);
        } else if (st && st->write) {
          const MutationBatch& batch = st->write->mutations;
          std::erase_if(answered, [&batch](const auto& entry) {
            for (const Mutation& m : batch) {
              if (Overlaps(entry.second.box, m)) return true;
            }
            return false;
          });
          ddc.ApplyBatch(batch);
          for (const Mutation& m : batch) naive.Add(m.cell, m.delta);
        }
      }
      if (hash != chunk_hashes_[c]) {
        out_.Mismatch("reads in statements " + std::to_string(first) + ".." +
                      std::to_string(first + static_cast<int64_t>(n) - 1) +
                      " differ from an uncached replay");
      }
    }
  }

  const std::string base_;
  const std::string fixture_base_;
  const MutationBatch preload_;
  StatementStream stream_;
  std::vector<GenStmt> chunk_;
  std::unique_ptr<DurableCube> durable_;
  std::unique_ptr<CachedCube> cache_;
  CacheStats phase_cache_;
  // Hash of each generated chunk's read results, in order.
  std::vector<uint64_t> chunk_hashes_;
  uint64_t chunk_hash_ = 0;
  int64_t reads_ = 0;
  int64_t acked_mutations_ = 0;
  int64_t wal_bytes_ = 0;
  int64_t log_base_ = 0;
  // The restart fixture's sampled boxes and what a reopen must hold.
  std::vector<Box> fixture_boxes_;
  std::vector<int64_t> fixture_sums_;
  int64_t fixture_total_ = 0;
};

}  // namespace

std::unique_ptr<ClosedLoop> MakeStatementClient(const Workload& w,
                                                const Args& args,
                                                SpanLog* spans) {
  return std::make_unique<StatementClient>(w, args, spans);
}

}  // namespace e2e
}  // namespace ddc
