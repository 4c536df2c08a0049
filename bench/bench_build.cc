// Construction-cost bench: batch loading, the workflow the paper contrasts
// with ("data cubes are used almost exclusively by ... systems that first
// batch load data, then permit read-only querying").
//
// Part 1, the gated A/B: snapshot-shaped loads, each built two ways —
//   per_cell : one DynamicDataCube::Add per record (how snapshot loading
//              and re-rooting worked before the bulk builder);
//   bulk     : DynamicDataCube::FromRecords over the same records, i.e. the
//              ordering pass (sort, sum repeats) plus DdcCore::BuildFromCells.
// The records are uniform adds in generation order, repeats included, so
// the bulk side pays its sort in full. The two sides run as interleaved
// pairs (alternating which goes first); the headline is the median of the
// per-pair per_cell/bulk ratios, with its quartiles as the dispersion.
// Every pair cross-checks the two cubes (total, storage, sampled range
// sums) and exits 2 on a mismatch.
//
// Part 2 (full mode only): the dense-array contrast of experiment E12 —
// prefix-sum sweep, the baselines' bulk builders, DynamicDataCube::FromArray
// and per-cell construction on dense cubes.
//
// Writes BENCH_build.json (override with DDC_BENCH_JSON). DDC_BENCH_SMOKE
// shrinks the loads and enforces the acceptance floor: exit 1 unless every
// config's median pair speedup is >= 1.5x.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "basic_ddc/basic_ddc.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"

namespace ddc {
namespace {

constexpr double kSmokeFloor = 1.5;

bool SmokeMode() {
  const char* env = std::getenv("DDC_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t Nanos(std::chrono::steady_clock::time_point a,
              std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Nearest-rank quantile; sorts a copy.
template <typename T>
T Quantile(std::vector<T> samples, double q) {
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) rank = samples.size() - 1;
  return samples[rank];
}

struct Config {
  int dims;
  int64_t side;
  int64_t adds;
};

struct Result {
  Config config;
  int pairs = 0;
  int64_t cells = 0;          // Distinct nonzero cells loaded.
  int64_t storage_cells = 0;  // Same on both sides (cross-checked).
  std::vector<int64_t> per_cell_ns;
  std::vector<int64_t> bulk_ns;
  std::vector<double> ratios;  // per_cell / bulk, one per pair.
};

// The two cubes must agree on everything a reader can see.
bool SameCube(const DynamicDataCube& a, const DynamicDataCube& b,
              uint64_t seed) {
  if (a.TotalSum() != b.TotalSum() || a.StorageCells() != b.StorageCells() ||
      a.side() != b.side()) {
    return false;
  }
  WorkloadGenerator gen(Shape::Cube(a.dims(), a.side()), seed);
  for (int i = 0; i < 64; ++i) {
    const Box box = gen.UniformBox();
    if (a.RangeSum(box) != b.RangeSum(box)) return false;
  }
  return true;
}

bool RunConfig(const Config& config, int pairs, Result* result) {
  result->config = config;
  result->pairs = pairs;
  const Shape shape = Shape::Cube(config.dims, config.side);
  WorkloadGenerator gen(shape, 20260);
  std::vector<int64_t> records;
  records.reserve(static_cast<size_t>(config.adds) *
                  static_cast<size_t>(config.dims + 1));
  for (int64_t i = 0; i < config.adds; ++i) {
    const Cell cell = gen.UniformCell();
    records.insert(records.end(), cell.begin(), cell.end());
    records.push_back(gen.Value(1, 100));
  }
  const size_t stride = static_cast<size_t>(config.dims) + 1;
  const Cell origin = UniformCell(config.dims, 0);

  for (int pair = 0; pair < pairs; ++pair) {
    std::unique_ptr<DynamicDataCube> per_cell;
    std::unique_ptr<DynamicDataCube> bulk;
    int64_t per_cell_ns = 0;
    int64_t bulk_ns = 0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (pair % 2 == 0)) {
        const auto t0 = std::chrono::steady_clock::now();
        per_cell = std::make_unique<DynamicDataCube>(config.dims, config.side);
        Cell cell(static_cast<size_t>(config.dims));
        for (size_t at = 0; at < records.size(); at += stride) {
          std::copy_n(records.begin() + static_cast<std::ptrdiff_t>(at),
                      config.dims, cell.begin());
          per_cell->Add(cell, records[at + static_cast<size_t>(config.dims)]);
        }
        per_cell_ns = Nanos(t0, std::chrono::steady_clock::now());
      } else {
        std::vector<int64_t> copy = records;  // FromRecords consumes it.
        const auto t0 = std::chrono::steady_clock::now();
        bulk = DynamicDataCube::FromRecords(config.dims, config.side, {},
                                            origin, std::move(copy));
        bulk_ns = Nanos(t0, std::chrono::steady_clock::now());
      }
    }
    if (!SameCube(*per_cell, *bulk, static_cast<uint64_t>(pair) + 1)) {
      std::fprintf(stderr, "MISMATCH: d=%d side=%lld pair %d\n", config.dims,
                   static_cast<long long>(config.side), pair);
      return false;
    }
    result->storage_cells = bulk->StorageCells();
    result->cells = bulk->Stats().nonzero_cells;
    result->per_cell_ns.push_back(per_cell_ns);
    result->bulk_ns.push_back(bulk_ns);
    result->ratios.push_back(static_cast<double>(per_cell_ns) /
                             static_cast<double>(bulk_ns));
  }
  return true;
}

void RunDenseBuild(int dims, int64_t side) {
  const Shape shape = Shape::Cube(dims, side);
  WorkloadGenerator gen(shape, 5);
  const MdArray<int64_t> array = gen.RandomDenseArray(1, 9);

  const auto t0 = std::chrono::steady_clock::now();
  PrefixSumCube ps = PrefixSumCube::FromArray(array);
  const auto t1 = std::chrono::steady_clock::now();
  auto bulk = DynamicDataCube::FromArray(array);
  const auto t2 = std::chrono::steady_clock::now();
  DynamicDataCube incremental(dims, side);
  array.ForEach(
      [&](const Cell& c, const int64_t& v) { incremental.Add(c, v); });
  const auto t3 = std::chrono::steady_clock::now();
  RelativePrefixSumCube rps = RelativePrefixSumCube::FromArray(array);
  const auto t4 = std::chrono::steady_clock::now();
  auto basic = BasicDdc::FromArray(array);
  const auto t5 = std::chrono::steady_clock::now();

  // Agreement spot check.
  const Box all{UniformCell(dims, 0), UniformCell(dims, side - 1)};
  if (ps.RangeSum(all) != bulk->RangeSum(all) ||
      bulk->RangeSum(all) != incremental.RangeSum(all) ||
      rps.RangeSum(all) != ps.RangeSum(all) ||
      basic->RangeSum(all) != ps.RangeSum(all)) {
    std::printf("MISMATCH for d=%d n=%lld\n", dims,
                static_cast<long long>(side));
    return;
  }

  TablePrinter table({"method", "build seconds", "cells/sec"});
  const double cells = static_cast<double>(shape.num_cells());
  auto row = [&](const char* name, double secs) {
    table.AddRow({name, TablePrinter::FormatDouble(secs, 4),
                  TablePrinter::FormatDouble(cells / secs, 0)});
  };
  std::printf("== Dense build, d=%d, n=%lld (%lld cells) ==\n", dims,
              static_cast<long long>(side),
              static_cast<long long>(shape.num_cells()));
  row("prefix_sum sweep", Seconds(t0, t1));
  row("rps bulk (FromArray)", Seconds(t3, t4));
  row("basic_ddc bulk (FromArray)", Seconds(t4, t5));
  row("ddc bulk (FromArray)", Seconds(t1, t2));
  row("ddc incremental (Add/cell)", Seconds(t2, t3));
  table.Print();
  std::printf("\n");
}

int Run() {
  const bool smoke = SmokeMode();
  const std::vector<Config> configs =
      smoke ? std::vector<Config>{{2, 1024, 40000}, {3, 128, 10000}}
            : std::vector<Config>{{2, 1024, 150000}, {3, 128, 40000}};
  const int pairs = smoke ? 7 : 11;

  std::vector<Result> results(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    if (!RunConfig(configs[i], pairs, &results[i])) return 2;
  }

  TablePrinter table({"d", "side", "adds", "cells", "per-cell p50 ms",
                      "bulk p50 ms", "speedup p25", "p50", "p75"});
  for (const Result& r : results) {
    table.AddRow(
        {std::to_string(r.config.dims), std::to_string(r.config.side),
         std::to_string(r.config.adds), std::to_string(r.cells),
         TablePrinter::FormatDouble(Quantile(r.per_cell_ns, 0.5) / 1e6, 2),
         TablePrinter::FormatDouble(Quantile(r.bulk_ns, 0.5) / 1e6, 2),
         TablePrinter::FormatDouble(Quantile(r.ratios, 0.25), 2),
         TablePrinter::FormatDouble(Quantile(r.ratios, 0.5), 2),
         TablePrinter::FormatDouble(Quantile(r.ratios, 0.75), 2)});
  }
  std::printf("== Snapshot-shaped load: bulk build vs per-cell Add "
              "(%d interleaved pairs) ==\n",
              pairs);
  table.Print();
  std::printf("\n");

  const char* json_path = std::getenv("DDC_BENCH_JSON");
  if (json_path == nullptr || json_path[0] == '\0') {
    json_path = "BENCH_build.json";
  }
  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"build\",\n"
               "  \"smoke\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"pairs\": %d,\n"
               "  \"speedup_bulk_2d\": %.3f,\n"
               "  \"configs\": [\n",
               smoke ? 1 : 0, std::thread::hardware_concurrency(), pairs,
               Quantile(results[0].ratios, 0.5));
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    // Only speedup_* keys are gated (higher is better); the pair-ratio
    // quartiles and the per-side quantiles record the dispersion.
    std::fprintf(
        out,
        "    {\"dims\": %d, \"side\": %lld, \"adds\": %lld, \"cells\": %lld, "
        "\"storage_cells\": %lld,\n"
        "     \"per_cell_min_ns\": %lld, \"per_cell_p50_ns\": %lld, "
        "\"per_cell_max_ns\": %lld, \"bulk_min_ns\": %lld, "
        "\"bulk_p50_ns\": %lld, \"bulk_max_ns\": %lld,\n"
        "     \"pair_p25\": %.3f, \"speedup_bulk\": %.3f, "
        "\"pair_p75\": %.3f}%s\n",
        r.config.dims, static_cast<long long>(r.config.side),
        static_cast<long long>(r.config.adds),
        static_cast<long long>(r.cells),
        static_cast<long long>(r.storage_cells),
        static_cast<long long>(Quantile(r.per_cell_ns, 0.0)),
        static_cast<long long>(Quantile(r.per_cell_ns, 0.5)),
        static_cast<long long>(Quantile(r.per_cell_ns, 1.0)),
        static_cast<long long>(Quantile(r.bulk_ns, 0.0)),
        static_cast<long long>(Quantile(r.bulk_ns, 0.5)),
        static_cast<long long>(Quantile(r.bulk_ns, 1.0)),
        Quantile(r.ratios, 0.25), Quantile(r.ratios, 0.5),
        Quantile(r.ratios, 0.75), i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n\n", json_path);

  if (!smoke) {
    RunDenseBuild(2, 256);
    RunDenseBuild(2, 512);
    RunDenseBuild(3, 64);
  }

  if (smoke) {
    for (const Result& r : results) {
      const double speedup = Quantile(r.ratios, 0.5);
      if (speedup < kSmokeFloor) {
        std::fprintf(stderr,
                     "FAIL: d=%d bulk build speedup %.2fx is below the "
                     "%.1fx floor\n",
                     r.config.dims, speedup, kSmokeFloor);
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace ddc

int main() { return ddc::Run(); }
