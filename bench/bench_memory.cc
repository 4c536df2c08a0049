// Storage-footprint comparison across structures and workload classes —
// the memory side of the paper's Section 5 argument. The prefix-sum family
// must always materialize the full domain; the tree structures' footprints
// track the data. Reported in stored values (8 bytes each).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "basic_ddc/basic_ddc.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"
#include "naive/naive_cube.h"
#include "prefix/prefix_sum_cube.h"
#include "rps/relative_prefix_sum_cube.h"

namespace ddc {
namespace {

std::vector<Cell> MakeCells(const Shape& shape, const char* workload,
                            int64_t count) {
  WorkloadGenerator gen(shape, 11);
  ClusteredGenerator clustered(shape, 4, 0.005, 11);
  std::vector<Cell> cells;
  cells.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    if (std::string(workload) == "uniform") {
      cells.push_back(gen.UniformCell());
    } else if (std::string(workload) == "zipf") {
      cells.push_back(gen.ZipfCell(2.0));
    } else {
      cells.push_back(clustered.NextCell());
    }
  }
  return cells;
}

void Run(int64_t n, const char* workload, int64_t inserts) {
  const Shape shape = Shape::Cube(2, n);
  const std::vector<Cell> cells = MakeCells(shape, workload, inserts);

  NaiveCube naive(shape);
  PrefixSumCube ps(shape);
  RelativePrefixSumCube rps(shape);
  BasicDdc basic(2, n);
  DynamicDataCube ddc_cube(2, n, {.elide_levels = 0});
  for (const Cell& c : cells) {
    naive.Add(c, 1);
    rps.Add(c, 1);
    basic.Add(c, 1);
    ddc_cube.Add(c, 1);
  }
  // PS cascade is too slow to replay at this size; its footprint is fixed
  // at n^d regardless of contents.
  const int64_t nd = shape.num_cells();

  std::printf("== Storage (stored values), d=2, n=%lld, %lld %s inserts ==\n",
              static_cast<long long>(n), static_cast<long long>(inserts),
              workload);
  TablePrinter table({"structure", "stored values", "vs dense n^d",
                      "bytes/nonzero cell"});
  const double nnz =
      static_cast<double>(ddc_cube.Stats().nonzero_cells);
  auto row = [&](const char* name, int64_t cellscount) {
    table.AddRow({name, TablePrinter::FormatInt(cellscount),
                  TablePrinter::FormatDouble(
                      static_cast<double>(cellscount) /
                          static_cast<double>(nd),
                      4),
                  TablePrinter::FormatDouble(
                      8.0 * static_cast<double>(cellscount) / nnz, 1)});
  };
  row("naive (dense array)", naive.StorageCells());
  row("prefix_sum (dense P)", ps.StorageCells());
  row("relative_prefix_sum", rps.StorageCells());
  row("basic_ddc (lazy)", basic.StorageCells());
  row("dynamic_data_cube (lazy)", ddc_cube.StorageCells());
  table.Print();
  std::printf("nonzero cells: %.0f\n\n", nnz);
}

}  // namespace
}  // namespace ddc

int main() {
  ddc::Run(1024, "uniform", 5000);
  ddc::Run(1024, "clustered", 5000);
  ddc::Run(1024, "zipf", 5000);
  ddc::Run(2048, "clustered", 5000);
  return 0;
}
