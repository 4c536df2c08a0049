// ddctool command implementations, separated from main() so the test suite
// can drive them directly.
//
// Commands (cube files are DDCSNAP2 snapshots, see ddc/snapshot.h):
//   ddctool create  --dims D [--side S] [--fanout F] [--elide H] OUT
//   ddctool load    --dims D [--side S] --csv IN OUT
//   ddctool add     CUBE c1 c2 ... cd value
//   ddctool query   CUBE --range lo1:hi1,...,lod:hid
//   ddctool select  CUBE "SUM [GROUP BY dK [SIZE g]] [WHERE dI IN [a,b] ...]"
//   ddctool info    CUBE
//   ddctool export  CUBE --csv OUT
//   ddctool shrink  CUBE
//   ddctool stats   [--dims D] [--side S] [--ops N]
//                   [--format text|json|both] [--trace OUT|-] [--delta 1]
//   ddctool explain [--dims D] [--side S] [--ops N] "<statement>"
//   ddctool heatmap [--dims D] [--side S] [--ops N] [--format text|json|both]
//                   [--cached 0|1]
//   ddctool flightrec [--dims D] [--side S] [--ops N] [--dump PATH]
//   ddctool faultrun --base PATH [--dims D] [--side S] [--seed N]
//                   [--batches N] [--batch-size K] [--acks FILE]
//
// Every command returns a process exit code (0 = success) and writes its
// human-readable output to `out` and diagnostics to `err`.

#ifndef DDC_TOOLS_COMMANDS_H_
#define DDC_TOOLS_COMMANDS_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace ddc {
namespace tools {

// Dispatches `args` (excluding the program name) to the matching command.
// Unknown commands print usage and return 2.
int RunDdcTool(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);

// Individual commands, exposed for tests.
int CmdCreate(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
int CmdLoad(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);
int CmdAdd(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);
int CmdQuery(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);
int CmdSelect(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
int CmdInfo(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);
int CmdExport(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
int CmdShrink(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
// Runs a seeded mixed workload across every instrumented subsystem and
// renders the metrics registry (text and/or JSON; optional trace dump).
// With --delta 1 it runs the workload twice, snapshots the counters around
// the second run, and prints per-counter deltas with rates per second.
int CmdStats(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);
// Builds a seeded cube and renders EXPLAIN [ANALYZE] for a statement (the
// EXPLAIN prefix is prepended when absent). See DESIGN.md §14.
int CmdExplain(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);
// Runs a seeded read+mutation range workload and renders the hot-range
// heatmap sketch from obs::WorkloadRecorder (text and/or JSON). With
// --cached 1 the read sweep routes through a CachedCube and a summary line
// reports hit/miss/pin counts alongside the sketch.
int CmdHeatmap(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);
// Runs seeded statements through the executor and dumps the flight-recorder
// ring as JSON (to stdout, or to --dump PATH via the signal-safe writer).
int CmdFlightrec(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);
// Crash-recovery differential child for tools/crashloop.sh: applies a
// deterministic (seed, index)-derived batch sequence to a DurableCube,
// acking each durable batch to a sidecar file, and on startup verifies the
// recovered state equals the acked prefix (or prefix+1 for a crash in the
// synced-but-unacked window, which it reconciles). Exit codes: 0 done, 2
// usage, 3 committed-prefix violation, 4 I/O setup failure; exits with
// fault::kCrashExitCode (87) at injected crash points.
int CmdFaultRun(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

std::string UsageText();

}  // namespace tools
}  // namespace ddc

#endif  // DDC_TOOLS_COMMANDS_H_
