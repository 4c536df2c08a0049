// Tuning options for the Dynamic Data Cube.

#ifndef DDC_DDC_DDC_OPTIONS_H_
#define DDC_DDC_DDC_OPTIONS_H_

#include "bctree/bc_tree.h"

namespace ddc {

struct DdcOptions {
  // Fanout of the B_c trees storing one-dimensional row-sum groups
  // (Section 4.1). The default (8) is tuned to the cache-line node budget:
  // 8 sums x 8 bytes fill exactly one 64-byte line, so one descent level is
  // one line, and the power-of-two fanout keeps child addressing shift/mask
  // (branchless). The bench_kernels fanout sweep on the reference host
  // measured (descent queries/sec, fanout-8 = 1.00x):
  //   cache-resident tree (capacity 32768, smoke mode):
  //     7 -> 0.65x (same line budget, but div/mod child addressing),
  //     8 -> 1.00x (one line per level, shift/mask),
  //    15 -> 0.45x (two lines per level and div/mod),
  //    16 -> 0.61x (shallower tree, but two line fills per level);
  //   out-of-cache tree (capacity 1<<20, full mode): 7 -> 0.93x,
  //    15 -> 0.98x, 16 -> 1.03x — once every level misses to DRAM the
  //    shallower fanout-16 tree ties fanout-8 within run noise, but never
  //    beats it beyond noise, and loses badly once any level caches.
  //   With -DDDC_NATIVE=ON (AVX2 MaskedPrefixSum8), fanout 8 widens its
  //   lead: 7 -> 0.30x, 15 -> 0.20x, 16 -> 0.42x (smoke host run).
  // Re-measure with bench_kernels when changing this.
  int bc_fanout = BcTree::kDefaultFanout;

  // Store 1-D row-sum groups in the dense Eytzinger/implicit-offset B_c
  // layout (one flat 64-byte-aligned slab, no child pointers; see
  // bc_tree.h). Fastest descents, but allocates the full conceptual tree up
  // front, so it forfeits the paper's sparse-subtree space behaviour —
  // leave off except for dense, bulk-built cubes.
  bool bc_dense = false;

  // Ablation: store one-dimensional row-sum groups in Fenwick trees instead
  // of B_c trees (same asymptotics, different constants/storage).
  bool use_fenwick = false;

  // When false, the cube does not record operation counters. Queries are
  // then strictly const (no mutable state touched), which ConcurrentCube
  // relies on to run readers in parallel under a shared lock.
  bool enable_counters = true;

  // The Section 4.4 space optimization: number of tree levels elided
  // immediately above the leaves. With elide_levels == h, the smallest
  // overlay boxes have side 2^(h+1) and the regions below them are stored as
  // raw arrays of A cells; queries may then have to sum up to 2^((h+1)*d)
  // adjacent leaf cells at the bottom of the descent. h == 0 reproduces the
  // full tree of Figure 9. The option propagates into nested (secondary)
  // DDCs, and snapshots persist it.
  //
  // The default (2) is tuned to the cache: flat 8-per-side leaf blocks
  // (512 B in 2-D, 4 KiB in 3-D) replace the tree's three smallest box
  // levels, whose subtotals, faces and pointer hops each cost a dependent
  // miss per descent. The e2ebench sweep on the reference host (4 vCPUs,
  // one 15 s run per cell, seed 3; read_p50_us / write_p50_us /
  // space_cells_per_value / peak_rss_mb):
  //   concurrent_mix  h=0 130/216/28.8/135  h=1 106/175/18.4/80
  //                   h=2  82/144/12.0/51   h=3  63/109/10.0/43
  //   durable_ingest  h=0 150/431/20.3/56   h=1 124/280/14.5/40
  //                   h=2 108/243/14.8/34   h=3  79/224/23.7/34
  //   hot_reports     h=0 5.5/54/28.8/135   h=1 6.9/52/18.4/80
  //                   h=2 5.5/47/12.0/51    h=3 5.9/45/10.0/43
  //   cold_olap (3-D) h=0 250/239/237/343   h=1 163/170/143/131
  //                   h=2  84/113/94/57     h=3  59/87/70/42
  // h=3 is faster still on the 2-D mixes, but pushes durable_ingest's
  // storage per value back above the full tree's (23.7 vs 20.3), so 2 is
  // the deepest setting that shrinks every workload. Set 0 for the paper's
  // full tree (the paper-reproduction harnesses do). The sweep covers 2-D
  // and 3-D cubes; in more dimensions the core shrinks the block side so a
  // block holds at most 4096 cells (DdcCore::kLeafBlockBudgetBits): side 8
  // up to 4-D, 4 at 5-6-D, 2 (the full tree) from 7-D. Any h is capped the
  // same way. Re-measure with e2ebench when changing this.
  int elide_levels = 2;
};

}  // namespace ddc

#endif  // DDC_DDC_DDC_OPTIONS_H_
