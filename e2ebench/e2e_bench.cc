// End-to-end statement benchmark of the Dynamic Data Cube stack.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//             [--trace-out FILE]
//
// Runs one workload (see CATALOG.md) as a closed loop for S seconds of
// statement time and prints two lines: a configuration record, then the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, and the traced statements' spans (the benchmark's and the
// program's ddc spans) go to --trace-out. Exits 1 when an output check
// fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "runner.h"
#include "workloads.h"

namespace ddc {
namespace e2e {
namespace {

MetricSet EndToEndMetrics(const EndToEnd& e) {
  MetricSet m;
  m.Add("setup_s", e.setup_s, "s");
  m.Add("ops_per_s", e.ops_per_s, "1/s");
  m.Add("read_p50_us", e.read_p50_us, "us");
  m.Add("read_p99_us", e.read_p99_us, "us");
  m.Add("write_p50_us", e.write_p50_us, "us");
  m.Add("write_p99_us", e.write_p99_us, "us");
  m.Add("mutations_per_s", e.mutations_per_s, "1/s");
  m.Add("recovery_s", e.recovery_s, "s");
  m.Add("space_cells_per_value", e.space_cells_per_value, "cells/value");
  m.Add("wal_bytes_per_mutation", e.wal_bytes_per_mutation, "B/mutation");
  m.Add("peak_rss_mb", e.peak_rss_mb, "MB");
  return m;
}

// Layer times are means per traced statement (so they add up); timed calls
// are medians or the named percentile of their samples.
MetricSet LayerMetrics(const Layers& l) {
  const double n = static_cast<double>(l.stmts);
  const double reads = static_cast<double>(l.reads);
  const double writes = static_cast<double>(l.writes);
  auto per_stmt_us = [n](double ns) { return Ratio(ns, n) / 1e3; };
  const double self_ns = l.query_self_ns + l.cache_self_ns +
                         l.concurrent_self_ns + l.ddc_self_ns + l.wal_self_ns;
  const double residual_ns = l.stmt_ns - self_ns;
  const double traced_rate = Ratio(l.traced_ops, l.traced_ns);
  const double untraced_rate = Ratio(l.untraced_ops, l.untraced_ns);
  MetricSet m;
  m.Add("query.parse_us", Median(l.parse_us), "us");
  m.Add("query.exec_us", Median(l.exec_us), "us");
  m.Add("query.self_us", per_stmt_us(l.query_self_ns), "us");
  m.Add("cache.hit_ratio",
        Ratio(static_cast<double>(l.cache_hits),
              static_cast<double>(l.cache_hits + l.cache_misses)),
        "ratio");
  m.Add("cache.hits_per_insert",
        Ratio(static_cast<double>(l.cache_hits),
              static_cast<double>(l.cache_inserts)),
        "ratio");
  m.Add("cache.invalidate_us", Median(l.invalidate_us), "us");
  m.Add("cache.invalidated_per_write",
        Ratio(static_cast<double>(l.cache_invalidated), writes), "count");
  m.Add("cache.self_us", per_stmt_us(l.cache_self_ns), "us");
  m.Add("concurrent.range_batch_p50_us", Quantile(l.range_batch_us, 0.5),
        "us");
  m.Add("concurrent.range_batch_p99_us", Quantile(l.range_batch_us, 0.99),
        "us");
  m.Add("concurrent.apply_batch_p50_us", Quantile(l.apply_batch_us, 0.5),
        "us");
  m.Add("concurrent.apply_batch_p99_us", Quantile(l.apply_batch_us, 0.99),
        "us");
  m.Add("concurrent.overhead_frac",
        l.facade_ns == 0 ? 0 : 1 - l.ddc_self_ns / l.facade_ns, "frac");
  m.Add("concurrent.self_us", per_stmt_us(l.concurrent_self_ns), "us");
  m.Add("ddc.query_us", Ratio(l.read_ddc_ns, reads) / 1e3, "us");
  m.Add("ddc.values_read_per_read",
        Ratio(static_cast<double>(l.values_read), reads), "count");
  m.Add("ddc.nodes_visited_per_read",
        Ratio(static_cast<double>(l.nodes_visited), reads), "count");
  m.Add("ddc.face_lookups_per_read",
        Ratio(static_cast<double>(l.face_lookups), reads), "count");
  m.Add("ddc.corner_dedup_ratio",
        Ratio(static_cast<double>(l.corners_deduped),
              static_cast<double>(l.corner_terms)),
        "ratio");
  m.Add("ddc.apply_us", Ratio(l.write_ddc_ns, writes) / 1e3, "us");
  m.Add("ddc.values_written_per_mutation",
        Ratio(static_cast<double>(l.values_written),
              static_cast<double>(l.mutations)),
        "count");
  m.Add("ddc.reroots", static_cast<double>(l.reroots), "count");
  m.Add("ddc.reroot_ms", l.reroot_ns / 1e6, "ms");
  m.Add("ddc.self_us", per_stmt_us(l.ddc_self_ns), "us");
  m.Add("wal.append_us",
        Ratio(l.append_ns, static_cast<double>(l.appends)) / 1e3, "us");
  m.Add("wal.sync_p50_us", Quantile(l.sync_us, 0.5), "us");
  m.Add("wal.sync_p99_us", Quantile(l.sync_us, 0.99), "us");
  m.Add("wal.checkpoint_ms", Median(l.checkpoint_ms), "ms");
  m.Add("wal.replay_s", l.replay_s, "s");
  m.Add("wal.self_us", per_stmt_us(l.wal_self_ns), "us");
  m.Add("trace.stmt_us", per_stmt_us(l.stmt_ns), "us");
  m.Add("trace.residual_us", per_stmt_us(residual_ns), "us");
  m.Add("trace.residual_frac", Ratio(residual_ns, l.stmt_ns), "frac");
  m.Add("trace.overhead_frac",
        untraced_rate == 0 ? 0 : 1 - traced_rate / untraced_rate, "frac");
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr || args.dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dir DIR [--trace-out FILE]\n");
    return 2;
  }

  SpanLog spans;
  const Outcome out = (w->kind == Kind::kConcurrentMix
                           ? MakeFacadeClient(*w, args, &spans)
                           : MakeStatementClient(*w, args, &spans))
                          ->Run();
  bool spans_written = false;
  if (args.trace && !args.trace_out.empty()) {
    spans_written = spans.Write(args.trace_out);
  }

  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"pool_threads\": %d, \"clients\": 1, "
      "\"build_type\": \"%s\", \"obs_enabled\": %s, \"cache_capacity\": "
      "%lld, \"wal_fs\": \"%s\", \"flush_policy\": \"one CubeLog::Sync "
      "(stream flush, no fsync) per acked write statement\", "
      "\"host_steal_frac\": %.4f, \"host_probe_ms\": %.3f, "
      "\"probe_reference_ms\": %g, \"measured\": %s, "
      "\"footprint_ops\": %lld, "
      "\"trace_ring_complete\": %s, "
      "\"spans_written\": %s, "
      "\"spans_dropped\": %lld, \"check\": \"%s\"}}\n",
      w->name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, static_cast<int>(std::thread::hardware_concurrency()),
      ThreadPool::Shared().num_threads(), E2E_BUILD_TYPE,
      obs::Enabled() ? "true" : "false",
      static_cast<long long>(out.cache_capacity), FsType(args.dir).c_str(),
      out.steal_frac, out.host_probe_ms, kProbeReferenceMs,
      EndToEndMetrics(out.e2e).Json().c_str(),
      static_cast<long long>(out.footprint_ops),
      out.layers.complete ? "true" : "false",
      spans_written ? "true" : "false",
      static_cast<long long>(spans.dropped()),
      out.correct ? "ok" : out.why.substr(0, 200).c_str());
  const MetricSet metrics =
      args.trace ? LayerMetrics(out.layers) : EndToEndMetrics(out.scaled);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      out.correct ? "true" : "false", static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace ddc

int main(int argc, char** argv) { return ddc::e2e::Main(argc, argv); }
