// concurrent_mix: one closed-loop client on a ConcurrentCube.
//
//   read:  ConcurrentCube::RangeSumBatch(kMixBoxes boxes)
//   write: CubeLog::AppendBatch + CubeLog::Sync, then
//          ConcurrentCube::ApplyBatch; all three true is the ack.
//
// One client. With 2 or 4 clients, writers queue behind overlapping readers
// on the facade's lock, and with 16-box batches the thread-pool fan-out adds
// millisecond wake-ups. Either way ops_per_s and the p99s varied by 25-95%
// between runs on a 4-vCPU VM, too much to gate on.
//
// A restart loads the fixture's snapshot of the live cube and replays its
// log (see MakeRestartFixture).
#include <filesystem>
#include <memory>

#include "concurrent/concurrent_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "ddc/snapshot.h"
#include "runner.h"
#include "wal/cube_log.h"
#include "workloads.h"

namespace ddc {
namespace e2e {
namespace {

constexpr size_t kPreloadBatch = 8192;
constexpr int kCheckSamples = 256;  // Range sums compared.

struct MixOp {
  bool read = false;
  std::vector<Box> boxes;
  MutationBatch adds;
};

class FacadeClient : public ClosedLoop {
 public:
  FacadeClient(const Workload& w, const Args& args, SpanLog* spans)
      : ClosedLoop(w, args, spans),
        snap_path_(args.dir + "/cube.snap"),
        log_path_(args.dir + "/cube.log"),
        fixture_snap_(args.dir + "/restart.snap"),
        fixture_log_(args.dir + "/restart.log"),
        preload_(PreloadBatch(w, args.seed)),
        stream_(w, args.seed, 0, preload_) {}

 private:
  void SetUp() override {
    log_.reset();
    cube_.reset();
    std::filesystem::remove(snap_path_);
    std::filesystem::remove(log_path_);
    cube_ = std::make_unique<ConcurrentCube>(w_.dims, w_.side);
    for (size_t i = 0; i < preload_.size(); i += kPreloadBatch) {
      const size_t n = std::min(kPreloadBatch, preload_.size() - i);
      if (!cube_->ApplyBatch({preload_.data() + i, n})) {
        out_.Mismatch("preload batch rejected");
      }
    }
    if (!Snapshot()) out_.Mismatch("cannot write " + snap_path_);
    log_ = CubeLog::Open(log_path_, w_.dims);
    if (log_ == nullptr) out_.Mismatch("cannot open " + log_path_);
    log_base_ = FileSize(log_path_);
  }

  bool Snapshot() {
    bool saved = false;
    cube_->WithExclusive([&](DynamicDataCube* c) {
      saved = SaveSnapshotToFile(*c, snap_path_);
    });
    return saved;
  }

  static void Next(MixStream& stream, MixOp* op) {
    op->read = stream.NextIsRead();
    if (op->read) {
      stream.Boxes(&op->boxes);
    } else {
      op->adds = stream.Adds();
    }
  }

  void Generate(size_t n) override {
    chunk_.resize(n);
    for (MixOp& op : chunk_) Next(stream_, &op);
  }

  Op Execute(size_t i, bool traced, uint64_t id) override {
    const MixOp& m = chunk_[i];
    RegistrySnap r0;
    if (traced) r0 = RegistrySnap::Take();
    Op op;
    op.read = m.read;
    op.ddc_caller = &Layers::concurrent_self_ns;
    uint64_t ta = 0, ts = 0;
    op.t0 = Now();
    if (m.read) {
      cube_->RangeSumBatch(m.boxes, sums_);
      op.ok = true;
    } else {
      op.ok = log_->AppendBatch(m.adds);
      ta = Now();
      op.ok = log_->Sync() && op.ok;
      ts = Now();
      const bool applied = cube_->ApplyBatch(m.adds);
      if (!applied) unapplied_.push_back(static_cast<int64_t>(id));
      op.ok = applied && op.ok;
      if (op.ok) op.mutations = static_cast<int64_t>(m.adds.size());
    }
    op.t1 = Now();
    acked_mutations_ += op.mutations;
    if (!traced) return op;

    const RegistrySnap r1 = RegistrySnap::Take();
    Layers& l = out_.layers;
    if (m.read) {
      const double ns = static_cast<double>(op.t1 - op.t0);
      l.facade_ns += ns;
      l.concurrent_self_ns += ns;
      l.range_batch_us.push_back(ns / 1e3);
      l.values_read += r1.values_read - r0.values_read;
      l.nodes_visited += r1.nodes_visited - r0.nodes_visited;
      l.face_lookups += r1.face_lookups - r0.face_lookups;
      spans_->Add("concurrent.range_sum_batch", id, op.t0, op.t1);
    } else {
      const double ns = static_cast<double>(op.t1 - ts);
      l.wal_self_ns += static_cast<double>(ts - op.t0);
      l.append_ns += static_cast<double>(ta - op.t0);
      ++l.appends;
      l.sync_us.push_back(static_cast<double>(ts - ta) / 1e3);
      l.facade_ns += ns;
      l.concurrent_self_ns += ns;
      l.apply_batch_us.push_back(ns / 1e3);
      l.values_written += r1.values_written - r0.values_written;
      spans_->Add("wal.append_batch", id, op.t0, ta);
      spans_->Add("wal.sync", id, ta, ts);
      spans_->Add("concurrent.apply_batch", id, ts, op.t1);
    }
    return op;
  }

  double SpaceCellsPerValue() override {
    int64_t nonzero = 0;
    cube_->ForEachNonZero([&nonzero](const Cell&, int64_t) { ++nonzero; });
    return Ratio(static_cast<double>(cube_->StorageCells()),
                 static_cast<double>(nonzero));
  }

  // kCheckSamples boxes over the whole domain, the same in every run of a
  // seed.
  std::vector<Box> CheckBoxes() const {
    std::mt19937_64 rng(StreamSeed(args_.seed, w_.kind, 4));
    std::vector<Box> boxes;
    for (int i = 0; i < kCheckSamples; ++i) {
      Box b{Cell(2), Cell(2)};
      for (size_t d = 0; d < 2; ++d) {
        const int64_t x = Uniform(rng, 0, w_.side - 1);
        const int64_t y = Uniform(rng, 0, w_.side - 1);
        b.lo[d] = std::min(x, y);
        b.hi[d] = std::max(x, y);
      }
      boxes.push_back(b);
    }
    return boxes;
  }

  void MakeRestartFixture() override {
    fixture_boxes_ = CheckBoxes();
    fixture_sums_.assign(fixture_boxes_.size(), 0);
    bool saved = false;
    cube_->WithExclusive([&](DynamicDataCube* c) {
      saved = SaveSnapshotToFile(*c, fixture_snap_);
      c->RangeSumBatch(fixture_boxes_, fixture_sums_);
      fixture_total_ = c->TotalSum();
    });
    if (!saved) out_.Mismatch("cannot write " + fixture_snap_);
    std::filesystem::remove(fixture_log_);
    std::unique_ptr<CubeLog> log = CubeLog::Open(fixture_log_, w_.dims);
    MixStream tail(w_, args_.seed, 99, preload_);
    for (int i = 0; i < kRestartTail && log != nullptr; ++i) {
      const MutationBatch batch = tail.Adds();
      if (!log->AppendBatch(batch)) out_.Mismatch("restart log append");
      AddToSums(batch, fixture_boxes_, &fixture_sums_, &fixture_total_);
    }
    if (log == nullptr || !log->Sync()) {
      out_.Mismatch("cannot write " + fixture_log_);
    }
  }

  void Restart() override {
    TimeRestart(
        [this] {
          std::unique_ptr<DynamicDataCube> cube =
              LoadSnapshotFromFile(fixture_snap_);
          if (cube != nullptr) {
            const ReplayResult rr = CubeLog::Replay(fixture_log_, cube.get());
            if (!rr.header_ok || !rr.clean_tail) cube.reset();
          }
          return cube;
        },
        [this](std::unique_ptr<DynamicDataCube>& cube) {
          std::vector<int64_t> got(fixture_boxes_.size());
          if (cube != nullptr) cube->RangeSumBatch(fixture_boxes_, got);
          if (cube == nullptr || cube->TotalSum() != fixture_total_ ||
              got != fixture_sums_) {
            out_.Mismatch("recovered cube differs from snapshot plus log");
          }
        });
  }

  void Finish() override {
    out_.e2e.wal_bytes_per_mutation =
        Ratio(static_cast<double>(FileSize(log_path_) - log_base_),
              static_cast<double>(acked_mutations_));

    // Output checks: regenerate the run's operations. The final total and
    // sampled sums must equal what the preload and every applied write add,
    // summed cell by cell.
    const std::vector<Box> boxes = CheckBoxes();
    std::vector<int64_t> want(boxes.size(), 0), live(boxes.size());
    int64_t total = 0;
    AddToSums(preload_, boxes, &want, &total);
    MixStream stream(w_, args_.seed, 0, preload_);
    MixOp op;
    size_t skip = 0;
    for (int64_t i = 0; i < executed_; ++i) {
      Next(stream, &op);
      if (op.read) continue;
      if (skip < unapplied_.size() && unapplied_[skip] == i) {
        ++skip;
        continue;
      }
      AddToSums(op.adds, boxes, &want, &total);
    }
    if (cube_->TotalSum() != total) {
      out_.Mismatch("final TotalSum differs from the sum of applied deltas");
    }
    cube_->RangeSumBatch(boxes, live);
    if (live != want) {
      out_.Mismatch("sampled sums differ from the applied adds");
    }
  }

  const std::string snap_path_;
  const std::string log_path_;
  const std::string fixture_snap_;
  const std::string fixture_log_;
  const MutationBatch preload_;
  MixStream stream_;
  std::vector<MixOp> chunk_;
  std::vector<int64_t> sums_ = std::vector<int64_t>(kMixBoxes);
  std::unique_ptr<ConcurrentCube> cube_;
  std::unique_ptr<CubeLog> log_;
  std::vector<int64_t> unapplied_;  // Writes the facade rejected, in order.
  int64_t acked_mutations_ = 0;
  int64_t log_base_ = 0;
  // The restart fixture's sampled boxes and what a reopen must hold.
  std::vector<Box> fixture_boxes_;
  std::vector<int64_t> fixture_sums_;
  int64_t fixture_total_ = 0;
};

}  // namespace

std::unique_ptr<ClosedLoop> MakeFacadeClient(const Workload& w,
                                             const Args& args,
                                             SpanLog* spans) {
  return std::make_unique<FacadeClient>(w, args, spans);
}

}  // namespace e2e
}  // namespace ddc
