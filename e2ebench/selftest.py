#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Run it from the repository root. For every workload, the two that
BENCHMARK.json gates and the two extra ones, it makes one short untraced
and one short traced run and asserts that:
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json appears with its unit, and nothing else does;
  * the traced run's attribution matches its span file: recomputed from
    the spans (statement spans, the benchmark's call spans inside them, and
    the program's ddc spans inside those), every layer's self time, the
    residual and the statement time equal the printed metrics; the residual
    is a small share of the statement time; the program's trace ring lost
    nothing; and ddc time was found on every workload;
  * the program's outputs passed the benchmark's checks (correct, no
    failed statements, exit code 0).
It also checks that the benchmark refuses to run, with a non-zero exit and
no result line, in a directory holding only BENCHMARK.json and e2ebench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Workloads the benchmark runs but BENCHMARK.json does not gate (see
# CATALOG.md, "Gated and extra workloads").
EXTRA_WORKLOADS = ["hot_reports", "cold_olap"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + EXTRA_WORKLOADS
SECONDS = "1"
LAYERS = ["query", "cache", "concurrent", "ddc", "wal"]
TRACES = os.path.join(ROOT, ".bench_build", "e2ebench", "traces")
# Attribution must cover most of a statement: what no layer span covers is
# benchmark glue between calls.
MAX_RESIDUAL_FRAC = 0.1


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "1",
                           "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def attribution(spans):
    """Per-statement layer self times, residual and statement time (us),
    recomputed from a traced run's span file. A call span's layer is its
    name's first part; a ddc span's time moves from the call that contains
    it to the ddc."""
    by_stmt = {}
    for s in spans:
        by_stmt.setdefault(s["args"]["stmt"], []).append(s)
    totals = dict.fromkeys(LAYERS, 0.0)
    stmt_total = 0.0
    for group in by_stmt.values():
        roots = [s for s in group if s["name"] == "stmt"]
        assert len(roots) == 1, group
        root = roots[0]
        stmt_total += root["dur"]
        calls = [s for s in group if s["name"] != "stmt"
                 and not s["name"].startswith("ddc.")]
        for c in calls:
            assert inside(c, root), (c, root)
            totals[c["name"].split(".")[0]] += c["dur"]
        for d in group:
            if not d["name"].startswith("ddc."):
                continue
            callers = [c for c in calls if inside(d, c)]
            assert len(callers) == 1, (d, group)
            totals[callers[0]["name"].split(".")[0]] -= d["dur"]
            totals["ddc"] += d["dur"]
    n = len(by_stmt)
    assert n > 0
    out = {f"{layer}.self_us": t / n for layer, t in totals.items()}
    out["trace.stmt_us"] = stmt_total / n
    out["trace.residual_us"] = (stmt_total - sum(totals.values())) / n
    return out


def inside(inner, outer):
    # Timestamps are printed to the nanosecond.
    return (inner["ts"] >= outer["ts"] - 0.001 and
            inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 0.002)


class BenchmarkSelfTest(unittest.TestCase):

    def check_run(self, workload, trace, expected):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        config = json.loads(lines[-2])["config"]
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(config["check"], "ok")
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
        return config, {name: v["value"] for name, v in metrics.items()}

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, values = self.check_run(w, 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(values[m["name"]], 0, m["name"])

    def test_traced_attribution_matches_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                config, v = self.check_run(w, 1, SPEC["per_layer"])
                self.assertTrue(config["trace_ring_complete"])
                self.assertTrue(config["spans_written"])
                self.assertEqual(config["spans_dropped"], 0)
                with open(os.path.join(TRACES, w + ".json")) as f:
                    got = attribution(json.load(f))
                for name, want in got.items():
                    self.assertAlmostEqual(v[name], want,
                                           delta=0.01 + 1e-4 * abs(want),
                                           msg=name)
                stmt = v["trace.stmt_us"]
                self.assertGreater(stmt, 0)
                self.assertAlmostEqual(v["trace.residual_frac"],
                                       v["trace.residual_us"] / stmt,
                                       delta=1e-9)
                self.assertLess(abs(v["trace.residual_frac"]),
                                MAX_RESIDUAL_FRAC)
                # Every workload reaches the ddc, through reads or writes.
                self.assertGreater(v["ddc.self_us"], 0)
                self.assertGreater(v["ddc.query_us"] + v["ddc.apply_us"], 0)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
