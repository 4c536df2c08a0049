#include "runner.h"

namespace ddc {
namespace e2e {
namespace {

// Traced statements between reads of the program's trace ring; well below
// the ring's per-thread capacity.
constexpr size_t kTraceFlushEvery = 256;

}  // namespace

RegistrySnap RegistrySnap::Take() {
  struct Handles {
    obs::Counter *values_read, *nodes_visited, *face_lookups, *values_written,
        *corner_terms, *corners_deduped, *reroots;
    obs::Histogram *reroot_ns, *append_ns, *sync_ns, *replay_ns;
  };
  static const Handles h = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return Handles{r.GetCounter("ddc.values_read"),
                   r.GetCounter("ddc.nodes_visited"),
                   r.GetCounter("ddc.face_lookups"),
                   r.GetCounter("ddc.values_written"),
                   r.GetCounter("ddc.query.batch.corner_terms"),
                   r.GetCounter("ddc.query.batch.corners_deduped"),
                   r.GetCounter("ddc.reroots"),
                   r.GetHistogram("ddc.reroot.ns"),
                   r.GetHistogram("wal.append.ns"),
                   r.GetHistogram("wal.sync.ns"),
                   r.GetHistogram("wal.replay.ns")};
  }();
  RegistrySnap s;
  s.values_read = h.values_read->Value();
  s.nodes_visited = h.nodes_visited->Value();
  s.face_lookups = h.face_lookups->Value();
  s.values_written = h.values_written->Value();
  s.corner_terms = h.corner_terms->Value();
  s.corners_deduped = h.corners_deduped->Value();
  s.reroots = h.reroots->Value();
  s.reroot_ns = h.reroot_ns->Sum();
  s.append_ns = h.append_ns->Sum();
  s.appends = h.append_ns->Count();
  s.sync_ns = h.sync_ns->Sum();
  s.replay_ns = h.replay_ns->Sum();
  return s;
}

Outcome ClosedLoop::Run() {
  std::vector<double> setups, scaled_setups;
  const uint64_t start = Now();
  for (int r = 0; r < kSetupReps ||
                  (r < kSetupMaxReps && Now() - start < kSetupMinNs);
       ++r) {
    const double probe_ms = probe_.Ms();
    const uint64_t t0 = Now();
    SetUp();
    setups.push_back(static_cast<double>(Now() - t0) / 1e9);
    scaled_setups.push_back(setups.back() * kProbeReferenceMs / probe_ms);
  }
  out_.e2e.setup_s = Median(setups);
  const StealClock steal;
  RunTimed();
  out_.steal_frac = steal.Frac();
  out_.host_probe_ms = Median(probe_ms_);
  if (out_.footprint_ops == 0) TakeFootprint();
  while (static_cast<int>(recovery_.size()) < kMinRestarts) Restart();
  out_.e2e.recovery_s = Median(recovery_);
  out_.layers.replay_s = Median(replay_);
  samples_.Fill(static_cast<double>(busy_ns_) / 1e9 / kWindows, &out_.e2e);
  Finish();
  out_.scaled = AtReferenceSpeed(out_.e2e, out_.host_probe_ms);
  out_.scaled.setup_s = Median(scaled_setups);
  return out_;
}

void ClosedLoop::RunTimed() {
  size_t next = 0, generated = 0;
  int restart_win = -1;  // The last window that began with a restart.
  int probe_win = -1;    // The last window that began with a host probe.
  const uint64_t budget = static_cast<uint64_t>(args_.seconds * 1e9);
  bool traced = false;
  uint64_t phase_ns = 0;
  double phase_ops = 0;
  RegistrySnap phase_snap;
  // Re-roots are rare and come early in a run (durable_ingest's domain
  // stops growing within its first second), so they are counted over the
  // whole timed run, traced or not.
  const RegistrySnap run_snap = RegistrySnap::Take();
  uint64_t seg = Now();
  // Closes the measured segment: time outside segments (operation
  // generation, phase bookkeeping) is not part of the run's time.
  auto close = [&](uint64_t now) {
    busy_ns_ += now - seg;
    phase_ns += now - seg;
  };
  auto end_phase = [&] {
    Layers& l = out_.layers;
    // Checkpoint stalls are lumpy (a few per run), so they are left out of
    // both sides of the tracing-overhead comparison.
    const double measured = static_cast<double>(phase_ns - phase_stall_ns_);
    phase_stall_ns_ = 0;
    if (traced) {
      FlushTrace();
      const RegistrySnap end = RegistrySnap::Take();
      l.corner_terms += end.corner_terms - phase_snap.corner_terms;
      l.corners_deduped += end.corners_deduped - phase_snap.corners_deduped;
      TracedPhase(false);
      l.traced_ops += phase_ops;
      l.traced_ns += measured;
    } else {
      l.untraced_ops += phase_ops;
      l.untraced_ns += measured;
    }
    phase_ns = 0;
    phase_ops = 0;
  };
  while (true) {
    const uint64_t now = Now();
    if (busy_ns_ + (now - seg) >= budget) {
      close(now);
      break;
    }
    if (next == generated) {
      close(now);
      if (traced) FlushTrace();
      if (executed_ == kFootprintOps) TakeFootprint();
      Generate(kChunk);
      generated = kChunk;
      next = 0;
      seg = Now();
      continue;
    }
    if (args_.trace && phase_ns + (now - seg) >= kTracePhaseNs) {
      close(now);
      end_phase();
      traced = !traced;
      if (traced) {
        DrainRing(&events_);  // Drop what untraced operations left.
        phase_snap = RegistrySnap::Take();
        TracedPhase(true);
      }
      seg = Now();
      continue;
    }
    const int win = static_cast<int>(std::min<uint64_t>(
        kWindows - 1, (busy_ns_ + (now - seg)) * kWindows / budget));
    if (win > probe_win) {
      close(now);
      probe_ms_.push_back(probe_.Ms());
      probe_win = win;
      seg = Now();
      continue;
    }
    if (out_.footprint_ops != 0 && win > restart_win) {
      close(now);
      if (traced) FlushTrace();
      Restart();
      if (traced) DrainRing(&events_);  // Drop the restart's ring events.
      restart_win = win;
      seg = Now();
      continue;
    }
    const uint64_t id = static_cast<uint64_t>(executed_);
    const Op op = Execute(next++, traced, id);
    ++executed_;
    phase_stall_ns_ += op.stall_ns;
    ++phase_ops;
    Record(op, traced, id, win);
  }
  end_phase();
  const RegistrySnap end = RegistrySnap::Take();
  out_.layers.reroots = end.reroots - run_snap.reroots;
  out_.layers.reroot_ns = static_cast<double>(end.reroot_ns - run_snap.reroot_ns);
}

void ClosedLoop::TakeFootprint() {
  out_.footprint_ops = executed_;
  out_.e2e.peak_rss_mb = PeakRssMb();
  out_.e2e.space_cells_per_value = SpaceCellsPerValue();
  MakeRestartFixture();
}

void ClosedLoop::Record(const Op& op, bool traced, uint64_t id, int win) {
  ++out_.attempted;
  if (!op.ok) {
    ++out_.failed;
  } else if (op.read) {
    samples_.AddRead(win, static_cast<double>(op.t1 - op.t0) / 1e3);
  } else {
    samples_.AddWrite(win, static_cast<double>(op.t1 - op.t0) / 1e3,
                      op.mutations);
  }
  if (!traced) return;
  Layers& l = out_.layers;
  ++l.stmts;
  ++(op.read ? l.reads : l.writes);
  l.mutations += op.mutations;
  l.stmt_ns += static_cast<double>(op.t1 - op.t0);
  spans_->Add("stmt", id, op.t0, op.t1);
  pending_.push_back({id, op.t0, op.t1, op.ddc_caller});
  if (pending_.size() >= kTraceFlushEvery) FlushTrace();
}

// Attributes the program's ddc spans to the traced operations that contain
// them: their time moves from the calling layer's self time to the ddc's,
// and they join the operation's spans in the span log.
void ClosedLoop::FlushTrace() {
  if (!DrainRing(&events_)) out_.layers.complete = false;
  Layers& l = out_.layers;
  size_t k = 0;
  for (const obs::TraceEvent& e : events_) {
    if (!IsDdcCall(e.name)) continue;
    while (k < pending_.size() && pending_[k].t1 < e.start_ns) ++k;
    if (k == pending_.size()) break;
    const Pending& p = pending_[k];
    if (e.start_ns < p.t0 || e.end_ns > p.t1) continue;
    const double d = static_cast<double>(e.end_ns - e.start_ns);
    l.ddc_self_ns += d;
    l.*p.caller -= d;
    (IsDdcRead(e.name) ? l.read_ddc_ns : l.write_ddc_ns) += d;
    spans_->Add(e.name, p.id, e.start_ns, e.end_ns);
  }
  pending_.clear();
}

}  // namespace e2e
}  // namespace ddc
