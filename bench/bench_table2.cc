// E3 — Table 2 of the paper: "Required storage, overlay boxes versus
// array A" (d = 2): for overlay box side k, the box stores k^d - (k-1)^d
// cells versus the k^d cells of A it covers.
//
// Part 1 regenerates the table from real OverlayBoxArray instances (the
// storage numbers are exact combinatorics and must match the closed form to
// the cell).
//
// Part 2 extends it with whole-tree storage: the Basic DDC's total overlay
// storage versus n^d for dense cubes, confirming the paper's observation
// that "most of the additional storage is found in the lowest levels of the
// tree" — which motivates the Section 4.4 optimization benchmarked in
// bench_space_opt.

#include <cstdio>
#include <vector>

#include "basic_ddc/basic_ddc.h"
#include "basic_ddc/overlay_box.h"
#include "common/bit_util.h"
#include "common/cost_model.h"
#include "common/table_printer.h"
#include "common/workload.h"
#include "ddc/dynamic_data_cube.h"

namespace ddc {
namespace {

void PrintTable2() {
  std::printf("== Table 2: overlay box storage vs covered region (d=2) ==\n");
  TablePrinter table({"k", "Overlay Box k^d-(k-1)^d", "Region in A k^d",
                      "Percentage O.B./A", "measured (OverlayBoxArray)"});
  for (int64_t k : {4, 8, 16, 32, 64}) {
    OverlayBoxArray box(2, k);
    const int64_t storage = OverlayBoxStorageCells(k, 2);
    const int64_t region = OverlayBoxRegionCells(k, 2);
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.2f%%",
                  100.0 * static_cast<double>(storage) /
                      static_cast<double>(region));
    table.AddRow({TablePrinter::FormatInt(k), TablePrinter::FormatInt(storage),
                  TablePrinter::FormatInt(region), pct,
                  TablePrinter::FormatInt(box.StorageCells())});
  }
  table.Print();
}

// Storage of a *full* (dense) Basic DDC tree per level, illustrating that
// the leaf-adjacent levels dominate. Computed from the closed form: level
// with box side k has (n/k)^d boxes of k^d - (k-1)^d cells each.
void PrintPerLevelStorage(int64_t n, int d) {
  std::printf("\n== Dense tree storage by level, n=%lld, d=%d ==\n",
              static_cast<long long>(n), d);
  TablePrinter table({"box side k", "#boxes", "cells/box", "level total",
                      "% of tree"});
  std::vector<int64_t> totals;
  int64_t tree_total = 0;
  for (int64_t k = n / 2; k >= 1; k /= 2) {
    const int64_t boxes = IPow(n / k, d);
    const int64_t per_box = OverlayBoxStorageCells(k, d);
    totals.push_back(boxes * per_box);
    tree_total += boxes * per_box;
  }
  size_t row = 0;
  for (int64_t k = n / 2; k >= 1; k /= 2, ++row) {
    const int64_t boxes = IPow(n / k, d);
    const int64_t per_box = OverlayBoxStorageCells(k, d);
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.1f%%",
                  100.0 * static_cast<double>(totals[row]) /
                      static_cast<double>(tree_total));
    table.AddRow({TablePrinter::FormatInt(k), TablePrinter::FormatInt(boxes),
                  TablePrinter::FormatInt(per_box),
                  TablePrinter::FormatInt(totals[row]), pct});
  }
  table.Print();
  std::printf("tree total = %lld cells vs array A = %lld cells (%.2fx)\n",
              static_cast<long long>(tree_total),
              static_cast<long long>(IPow(n, d)),
              static_cast<double>(tree_total) /
                  static_cast<double>(IPow(n, d)));
}

// Measured whole-structure storage for dense cubes: Basic DDC (exact
// overlay arrays) and DDC (B_c trees / nested cubes).
void PrintMeasuredTreeStorage() {
  std::printf("\n== Measured dense-cube storage (all cells populated) ==\n");
  TablePrinter table({"n (d=2)", "array A n^d", "basic_ddc measured",
                      "ddc measured", "basic/A", "ddc/A"});
  for (int64_t n : {16, 32, 64, 128}) {
    const Shape shape = Shape::Cube(2, n);
    WorkloadGenerator gen(shape, 1);
    MdArray<int64_t> a = gen.RandomDenseArray(1, 9);

    BasicDdc basic(2, n);
    DynamicDataCube ddc_cube(2, n, {.elide_levels = 0});
    a.ForEach([&](const Cell& c, const int64_t& v) {
      basic.Add(c, v);
      ddc_cube.Add(c, v);
    });
    const double nd = static_cast<double>(IPow(n, 2));
    table.AddRow(
        {TablePrinter::FormatInt(n), TablePrinter::FormatInt(IPow(n, 2)),
         TablePrinter::FormatInt(basic.StorageCells()),
         TablePrinter::FormatInt(ddc_cube.StorageCells()),
         TablePrinter::FormatDouble(
             static_cast<double>(basic.StorageCells()) / nd, 2),
         TablePrinter::FormatDouble(
             static_cast<double>(ddc_cube.StorageCells()) / nd, 2)});
  }
  table.Print();
}

}  // namespace
}  // namespace ddc

int main() {
  ddc::PrintTable2();
  ddc::PrintPerLevelStorage(256, 2);
  ddc::PrintPerLevelStorage(16, 3);
  ddc::PrintMeasuredTreeStorage();
  return 0;
}
