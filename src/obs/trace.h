// Trace spans: RAII timing records feeding fixed-capacity per-thread ring
// buffers, merged at dump time.
//
// Lifecycle: a TraceSpan stamps the start time at construction (only when
// obs::Enabled(); a disabled span is fully inert) and appends one TraceEvent
// to the calling thread's ring buffer at destruction. Each thread's ring is
// created lazily on first use, registered in a process-wide list, and kept
// alive past thread exit so a merge after join still sees every event. A
// ring holds the most recent kCapacity events; older ones are overwritten —
// tracing is a flight recorder, not a log.
//
// Concurrency: a ring is appended to only by its owning thread; append and
// drain synchronize on a per-ring mutex that is uncontended in steady state
// (the owner thread is the only toucher until somebody dumps), so recording
// stays cheap and the merge path is exact after writers quiesce.

#ifndef DDC_OBS_TRACE_H_
#define DDC_OBS_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/metrics.h"

namespace ddc {
namespace obs {

struct TraceEvent {
  const char* name;   // Static string (literal); not owned.
  uint64_t start_ns;  // NowNanos() at span construction.
  uint64_t end_ns;    // NowNanos() at span destruction.
  uint32_t tid;       // Small sequential id of the recording thread.
  int64_t arg0;       // Two span-tagged payload integers (batch sizes,
  int64_t arg1;       // chunk counts, ...; 0 when unused).
};

// Events each thread's ring retains before overwriting the oldest.
size_t TraceCapacityPerThread();

// RAII span. `name` must outlive the program (pass a string literal). An
// optional histogram additionally receives the span's duration in ns, so a
// site can feed the metrics registry and the flight recorder with one probe.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, int64_t arg0 = 0, int64_t arg1 = 0,
                     Histogram* latency_hist = nullptr)
      : name_(name),
        arg0_(arg0),
        arg1_(arg1),
        latency_hist_(latency_hist),
        active_(Enabled()),
        start_ns_(active_ ? NowNanos() : 0) {}
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Args may be filled in after construction (e.g. once a result size is
  // known); they are captured at destruction time.
  void set_arg0(int64_t v) { arg0_ = v; }
  void set_arg1(int64_t v) { arg1_ = v; }

 private:
  const char* name_;
  int64_t arg0_;
  int64_t arg1_;
  Histogram* latency_hist_;
  bool active_;
  uint64_t start_ns_;
};

// Merges every thread's ring into `out`, ordered by start_ns. Events stay in
// their rings (dumping is repeatable); exact once recording threads quiesce.
void DrainTrace(std::vector<TraceEvent>* out);

// Clears every ring (rings stay registered to their threads), including the
// per-ring dropped counts.
void ResetTrace();

// Events overwritten by ring wrap-around since the last ResetTrace, summed
// over all thread rings. Also mirrored into the `trace.dropped` registry
// counter and exported as "ph":"C" counter events in RenderTraceJson.
uint64_t TraceDroppedTotal();

// Chrome-trace-viewer-compatible JSON array of complete ("ph":"X") events.
void RenderTraceJson(std::ostream& os);

}  // namespace obs
}  // namespace ddc

#endif  // DDC_OBS_TRACE_H_
