// Operation counters used to reproduce the paper's cost analyses with
// measured numbers (Table 1, Sections 3.2 and 4.3).
//
// Counters are machine-independent: they count stored values touched, not
// nanoseconds, so measured results can be compared directly against the
// closed-form cost functions in cost_model.h.

#ifndef DDC_COMMON_OP_COUNTER_H_
#define DDC_COMMON_OP_COUNTER_H_

#include <cstdint>

namespace ddc {

// NOTE on thread-safety and the metrics registry: OpCounters is plain
// mutable state updated by const query paths, so it is safe only while the
// owning structure is accessed from a single thread (or under an exclusive
// lock); the concurrent facade constructs its wrapped cube with
// `enable_counters = false`. That used to mean per-value costs were simply
// lost under the facade. DdcCore now *additionally* routes every count
// into the process-wide obs::MetricsRegistry (relaxed-atomic counters
// ddc.values_read / ddc.values_written / ddc.nodes_visited, safe under
// shared locks), so OpCounters is a thin per-cube view for the paper's
// machine-independent cost analyses, while the registry carries the same
// accounting process-wide — including everything the concurrent facade does.
struct OpCounters {
  // Stored values read while answering queries.
  int64_t values_read = 0;
  // Stored values written (created or modified) while applying updates.
  int64_t values_written = 0;
  // Tree nodes (or blocks) visited.
  int64_t nodes_visited = 0;

  void Reset() { *this = OpCounters(); }

  OpCounters operator-(const OpCounters& other) const {
    OpCounters out;
    out.values_read = values_read - other.values_read;
    out.values_written = values_written - other.values_written;
    out.nodes_visited = nodes_visited - other.nodes_visited;
    return out;
  }

  int64_t total_touched() const { return values_read + values_written; }
};

}  // namespace ddc

#endif  // DDC_COMMON_OP_COUNTER_H_
