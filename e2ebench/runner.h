// The closed-loop harness shared by every workload: set-up repetitions, the
// timed loop with its windows and traced phases, attribution of the
// program's ddc spans to the calls that contain them, the restarts, and
// the host probe that scales the figures to a reference host speed. A
// workload supplies the stack (SetUp), its operations (Generate, Execute),
// its restart fixture (MakeRestartFixture, Restart) and its end-of-run
// checks (Finish).
#ifndef DDC_E2EBENCH_RUNNER_H_
#define DDC_E2EBENCH_RUNNER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace ddc {
namespace e2e {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;        // Scratch directory for snapshots and logs.
  std::string trace_out;  // Where the traced run writes its spans.
};

// Set-ups per run: at least kSetupReps, and more while they have taken less
// than kSetupMinNs in all (up to kSetupMaxReps), so a cheap set-up is
// sampled as often as its noise needs. setup_s is their median.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 15;
constexpr uint64_t kSetupMinNs = 1'500'000'000;
// The measured time is cut into kWindows equal windows (2 s each in a 40 s
// run). Every end-to-end rate and latency percentile is the median of its
// per-window values, so a host slowdown lasting a few seconds moves a
// minority of windows, not the figure.
constexpr int kWindows = 20;
// Restarts: once the restart fixture exists (see kFootprintOps), the run
// reopens it once at the start of every window, outside the measured time,
// so recovery_s is a median over the run like the other figures. A run
// too short to reach kMinRestarts that way makes up the rest at its end.
constexpr int kMinRestarts = 5;
// A traced run alternates untraced and traced phases of this length, so
// trace.overhead_frac compares interleaved halves of one run.
constexpr uint64_t kTracePhaseNs = 500'000'000;
// Operations generated at a time, outside the measured time.
constexpr size_t kChunk = 1024;
// Logged writes in the restart fixture, on top of its snapshot.
constexpr int kRestartTail = 200;
// After the first kFootprintOps operations of the timed run (at its end if
// it runs fewer), outside the measured time, the run reads peak_rss_mb and
// space_cells_per_value and builds its restart fixture. Read at the end,
// they would grow with throughput: a faster program has written more data
// when time runs out.
constexpr int64_t kFootprintOps = 8 * kChunk;

// HostProbe's time on the host the benchmark was tuned on, at its usual
// speed. Every time-based end-to-end figure is reported at this speed; see
// AtReferenceSpeed.
constexpr double kProbeReferenceMs = 15.0;

struct EndToEnd {
  double setup_s = 0;
  double ops_per_s = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
  double write_p50_us = 0;
  double write_p99_us = 0;
  double mutations_per_s = 0;
  double recovery_s = 0;
  double space_cells_per_value = 0;
  double wal_bytes_per_mutation = 0;
  double peak_rss_mb = 0;
};

// `e` as it would read on a host whose HostProbe takes kProbeReferenceMs,
// from a run whose probes took `probe_ms` (their median): times scale by
// kProbeReferenceMs / probe_ms, rates by the inverse. The host this runs on
// changes speed by up to 1.6x over minutes, and the program's figures move
// with the probe's. setup_s is left alone: it is scaled rep by rep, each
// set-up against the probe made just before it. Space and byte ratios do
// not depend on speed.
inline EndToEnd AtReferenceSpeed(EndToEnd e, double probe_ms) {
  const double f = probe_ms > 0 ? kProbeReferenceMs / probe_ms : 1;
  e.ops_per_s /= f;
  e.mutations_per_s /= f;
  e.read_p50_us *= f;
  e.read_p99_us *= f;
  e.write_p50_us *= f;
  e.write_p99_us *= f;
  e.recovery_s *= f;
  return e;
}

// Latency samples and completion counts per window. Each window keeps a
// fixed-size uniform reservoir of latencies per kind, allocated and written
// before the run, so the benchmark's own memory does not grow with
// throughput and peak_rss_mb stays a measure of the program.
class WindowedSamples {
 public:
  static constexpr size_t kReservoir = size_t{1} << 14;

  WindowedSamples() {
    for (Window& w : win_) {
      w.read.kept.assign(kReservoir, 0.0f);
      w.write.kept.assign(kReservoir, 0.0f);
    }
  }
  void AddRead(int w, double us) {
    Keep(&win_[w].read, us);
    ++win_[w].ops;
  }
  void AddWrite(int w, double us, int64_t mutations) {
    Keep(&win_[w].write, us);
    ++win_[w].ops;
    win_[w].mutations += mutations;
  }
  void Fill(double window_s, EndToEnd* e) const;

 private:
  struct Reservoir {
    std::vector<float> kept;
    int64_t seen = 0;
    std::vector<double> Values() const {
      const size_t n = std::min(kept.size(), static_cast<size_t>(seen));
      return std::vector<double>(kept.begin(), kept.begin() + n);
    }
  };
  struct Window {
    Reservoir read, write;
    int64_t ops = 0;
    int64_t mutations = 0;
  };
  void Keep(Reservoir* r, double us) {
    const uint64_t n = static_cast<uint64_t>(r->seen++);
    if (n < kReservoir) {
      r->kept[n] = static_cast<float>(us);
      return;
    }
    const uint64_t j = std::uniform_int_distribution<uint64_t>(0, n)(rng_);
    if (j < kReservoir) r->kept[j] = static_cast<float>(us);
  }
  // Median over windows of `f(window)`.
  template <typename F>
  double Median(F f) const {
    std::vector<double> v;
    for (const Window& w : win_) v.push_back(f(w));
    return e2e::Median(std::move(v));
  }

  std::array<Window, kWindows> win_;
  std::mt19937_64 rng_{1};
};

inline void WindowedSamples::Fill(double window_s, EndToEnd* e) const {
  e->ops_per_s = Median([&](const Window& w) { return w.ops / window_s; });
  e->mutations_per_s =
      Median([&](const Window& w) { return w.mutations / window_s; });
  e->read_p50_us =
      Median([](const Window& w) { return Quantile(w.read.Values(), 0.5); });
  e->read_p99_us =
      Median([](const Window& w) { return Quantile(w.read.Values(), 0.99); });
  e->write_p50_us =
      Median([](const Window& w) { return Quantile(w.write.Values(), 0.5); });
  e->write_p99_us =
      Median([](const Window& w) { return Quantile(w.write.Values(), 0.99); });
}

// Totals over the traced phases of a traced run. Times in ns.
struct Layers {
  int64_t stmts = 0;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t mutations = 0;
  double stmt_ns = 0;
  // Self time per layer; with the residual they add up to stmt_ns.
  double query_self_ns = 0;
  double cache_self_ns = 0;
  double concurrent_self_ns = 0;
  double ddc_self_ns = 0;
  double wal_self_ns = 0;
  // Per-call samples of timed public calls (us; checkpoints in ms).
  std::vector<double> parse_us, exec_us, invalidate_us, sync_us;
  std::vector<double> range_batch_us, apply_batch_us, checkpoint_ms;
  double read_ddc_ns = 0;   // ddc.range_sum_batch spans.
  double write_ddc_ns = 0;  // ddc.apply_batch spans.
  double facade_ns = 0;     // ConcurrentCube calls.
  double append_ns = 0;
  int64_t appends = 0;
  // Registry counter deltas around each traced statement (values_*,
  // nodes_visited, face_lookups), over each traced phase (corner_*), or
  // over the whole timed run (reroot*).
  int64_t values_read = 0, nodes_visited = 0, face_lookups = 0;
  int64_t values_written = 0;
  int64_t corner_terms = 0, corners_deduped = 0;
  int64_t reroots = 0;
  double reroot_ns = 0;
  // CacheStats deltas.
  int64_t cache_hits = 0, cache_misses = 0, cache_inserts = 0;
  int64_t cache_invalidated = 0;
  double replay_s = 0;
  // Interleaved phases for trace.overhead_frac.
  double traced_ops = 0, traced_ns = 0;
  double untraced_ops = 0, untraced_ns = 0;
  bool complete = true;  // False if the program's trace ring lost events.
};

struct Outcome {
  bool correct = true;
  std::string why;  // First output mismatch, if any.
  int64_t attempted = 0;
  int64_t failed = 0;
  EndToEnd e2e;     // As measured.
  EndToEnd scaled;  // At the reference host speed: the reported figures.
  Layers layers;
  int64_t cache_capacity = 0;  // 0 when the workload has no cache.
  double steal_frac = 0;       // Host steal over the timed run.
  double host_probe_ms = 0;    // Median HostProbe time, once per window.
  int64_t footprint_ops = 0;   // Operations run when the footprint was read.

  void Mismatch(const std::string& what) {
    if (correct) why = what;
    correct = false;
  }
};

// Registry values read around statements and phases.
struct RegistrySnap {
  int64_t values_read = 0, nodes_visited = 0, face_lookups = 0;
  int64_t values_written = 0;
  int64_t corner_terms = 0, corners_deduped = 0, reroots = 0;
  int64_t reroot_ns = 0, append_ns = 0, appends = 0, sync_ns = 0;
  int64_t replay_ns = 0;

  static RegistrySnap Take();
};

// One operation as Execute reports it. [t0, t1] is the operation's latency;
// the harness records it, counts it, and (when traced) adds the statement
// span and attributes the program's ddc spans inside it.
struct Op {
  bool ok = false;
  bool read = false;
  int64_t mutations = 0;  // Mutations acked by a write.
  uint64_t t0 = 0, t1 = 0;
  uint64_t stall_ns = 0;  // Checkpoint time inside [t0, t1].
  // The layer self time that contains this operation's ddc calls; their
  // time moves from it to ddc.self_us.
  double Layers::*ddc_caller = nullptr;
};

// Adds what `batch` does to the sums of `boxes` and to `*total`, cell by
// cell: the oracle for restarts and for concurrent_mix's final state. The
// workloads write only point and range adds.
inline void AddToSums(std::span<const Mutation> batch,
                      const std::vector<Box>& boxes, std::vector<int64_t>* sums,
                      int64_t* total) {
  for (const Mutation& m : batch) {
    const Cell& hi = m.is_range() ? m.hi : m.cell;
    int64_t volume = 1;
    for (size_t d = 0; d < hi.size(); ++d) volume *= hi[d] - m.cell[d] + 1;
    *total += m.delta * volume;
    for (size_t b = 0; b < boxes.size(); ++b) {
      int64_t overlap = 1;
      for (size_t d = 0; d < hi.size() && overlap > 0; ++d) {
        overlap *= std::max<int64_t>(0, std::min(hi[d], boxes[b].hi[d]) -
                                            std::max(m.cell[d], boxes[b].lo[d]) + 1);
      }
      (*sums)[b] += m.delta * overlap;
    }
  }
}

class ClosedLoop {
 public:
  ClosedLoop(const Workload& w, const Args& args, SpanLog* spans)
      : w_(w), args_(args), spans_(spans) {}
  virtual ~ClosedLoop() = default;

  Outcome Run();

 protected:
  // Builds the stack from nothing and preloads it; timed as setup_s.
  virtual void SetUp() = 0;
  // Generates the next `n` operations.
  virtual void Generate(size_t n) = 0;
  // Runs operation `i` of the last generated chunk. When `traced`, records
  // its layer samples and the spans of its public calls under `id`.
  virtual Op Execute(size_t i, bool traced, uint64_t id) = 0;
  // Called at the start and the end of each traced phase.
  virtual void TracedPhase(bool begin) { (void)begin; }
  // StorageCells() of the live cube over its nonzero cells.
  virtual double SpaceCellsPerValue() = 0;
  // Writes the restart fixture beside the live stack without changing what
  // the live stack holds: a snapshot of the live cube and a log of
  // kRestartTail write batches on top of it.
  virtual void MakeRestartFixture() = 0;
  // Reopens the restart fixture once, through TimeRestart.
  virtual void Restart() = 0;
  // After the timed run: end-state metrics and output checks.
  virtual void Finish() = 0;

  // Times `open`, which rebuilds a stack from the fixture on disk, into the
  // recovery_s and wal.replay_s samples; `check` then inspects what it
  // returned, and the reopened stack is torn down, both outside the timing.
  template <typename Open, typename Check>
  void TimeRestart(Open open, Check check) {
    const RegistrySnap a = RegistrySnap::Take();
    const uint64_t t0 = Now();
    auto reopened = open();
    recovery_.push_back(static_cast<double>(Now() - t0) / 1e9);
    replay_.push_back(
        static_cast<double>(RegistrySnap::Take().replay_ns - a.replay_ns) /
        1e9);
    check(reopened);
  }

  const Workload& w_;
  const Args& args_;
  SpanLog* spans_;
  Outcome out_;
  int64_t executed_ = 0;  // Operations run by the timed loop.

 private:
  void RunTimed();
  void TakeFootprint();
  void FlushTrace();
  void Record(const Op& op, bool traced, uint64_t id, int win);

  struct Pending {
    uint64_t id, t0, t1;
    double Layers::*caller;
  };
  WindowedSamples samples_;
  uint64_t busy_ns_ = 0;
  uint64_t phase_stall_ns_ = 0;  // Checkpoint time in the current phase.
  std::vector<Pending> pending_;
  std::vector<obs::TraceEvent> events_;
  std::vector<double> recovery_, replay_;  // One sample per restart.
  HostProbe probe_;
  std::vector<double> probe_ms_;
};

std::unique_ptr<ClosedLoop> MakeStatementClient(const Workload& w,
                                                const Args& args,
                                                SpanLog* spans);
std::unique_ptr<ClosedLoop> MakeFacadeClient(const Workload& w,
                                             const Args& args, SpanLog* spans);

}  // namespace e2e
}  // namespace ddc

#endif  // DDC_E2EBENCH_RUNNER_H_
