// Small helpers for the end-to-end benchmark: clocks, sample statistics,
// host facts, result printing, and the two trace channels (the benchmark's
// own spans, and the program's published trace ring).
#ifndef DDC_E2EBENCH_BENCH_UTIL_H_
#define DDC_E2EBENCH_BENCH_UTIL_H_

#include <sys/resource.h>
#include <sys/statfs.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ddc {
namespace e2e {

// Same steady clock as the program's trace ring, so bench spans and ring
// events can be compared directly.
inline uint64_t Now() { return obs::NowNanos(); }

// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// a / b, or 0 when nothing was measured.
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// Rank-skewed draws over [0, n): P(k) proportional to 1 / (k + 1)^theta.
class Zipf {
 public:
  Zipf(int64_t n, double theta) : cdf_(static_cast<size_t>(n)) {
    double total = 0;
    for (int64_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
      cdf_[static_cast<size_t>(k)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int64_t Draw(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return it - cdf_.begin();
  }

 private:
  std::vector<double> cdf_;
};

inline int64_t Uniform(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Share of all CPU time that the hypervisor gave to other guests between
// two reads of /proc/stat ("steal"); 0 where the kernel does not report it.
class StealClock {
 public:
  StealClock() { Read(&steal0_, &total0_); }
  double Frac() const {
    uint64_t steal = 0, total = 0;
    Read(&steal, &total);
    return Ratio(static_cast<double>(steal - steal0_),
                 static_cast<double>(total - total0_));
  }

 private:
  static void Read(uint64_t* steal, uint64_t* total) {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      *steal = v[7];
      for (unsigned long long x : v) *total += x;
    }
    std::fclose(f);
  }
  uint64_t steal0_ = 0, total0_ = 0;
};

// A fixed piece of work that shares no code with the program: a random
// walk over a 4 MiB permutation, flushed from the caches first so the walk
// starts cold whatever the program left in them, plus a run of integer
// multiplies. Its time follows the host's speed (clock rate, and cache and
// memory contention from other guests) at the moment it runs.
class HostProbe {
 public:
  HostProbe() : next_(size_t{1} << 20) {
    for (size_t i = 0; i < next_.size(); ++i) next_[i] = static_cast<uint32_t>(i);
    // Sattolo's shuffle: one cycle through every slot.
    std::mt19937_64 rng(7);
    for (size_t i = next_.size() - 1; i > 0; --i) {
      std::swap(next_[i], next_[std::uniform_int_distribution<size_t>(0, i - 1)(rng)]);
    }
  }
  // Runs the work once; returns its time in ms (the flush not included).
  double Ms() {
#if defined(__x86_64__)
    for (size_t i = 0; i < next_.size(); i += 64 / sizeof(uint32_t)) {
      _mm_clflush(&next_[i]);
    }
    _mm_mfence();
#endif
    const uint64_t t0 = Now();
    uint32_t p = 0;
    for (int i = 0; i < 100000; ++i) p = next_[p];
    uint64_t x = p;
    for (int i = 0; i < 2000000; ++i) x = x * 6364136223846793005ull + 1;
    sink_ = sink_ + x;
    return static_cast<double>(Now() - t0) / 1e6;
  }

 private:
  std::vector<uint32_t> next_;
  volatile uint64_t sink_ = 0;
};

inline int64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

// Filesystem type of `dir`, named from statfs(2)'s magic number.
inline std::string FsType(const std::string& dir) {
  struct statfs info{};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return buf;
    }
  }
}

// Metrics of one result line, printed in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[96];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, ",
                    i ? ", " : "", entries_[i].name.c_str(), entries_[i].value);
      out += buf;
      out += "\"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// The benchmark's own spans, one per public call it makes plus the
// program's ddc spans inside them, kept in memory and written out as a
// chrome-trace JSON file at exit. Every span of one statement carries the
// statement's id; the statement's "stmt" span contains the others. Capped so
// a long traced run stays small; spans past the cap are counted, not stored
// (the attribution totals use every span).
class SpanLog {
 public:
  static constexpr size_t kCap = 250000;
  void Add(const char* name, uint64_t stmt_id, uint64_t start_ns,
           uint64_t end_ns) {
    if (spans_.size() >= kCap) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, stmt_id, start_ns, end_ns});
  }
  int64_t dropped() const { return dropped_; }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"stmt\": %llu}}",
                   i ? ",\n" : "", s.name,
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.stmt));
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  // String literal.
    uint64_t stmt;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

// Moves the events of the program's trace ring (obs/trace.h) into `out`,
// ordered by start time, and clears the ring. Only call it while no other
// thread records. Returns false if the ring overwrote events since the last
// call.
inline bool DrainRing(std::vector<obs::TraceEvent>* out) {
  obs::DrainTrace(out);
  const bool complete = obs::TraceDroppedTotal() == 0;
  obs::ResetTrace();
  return complete;
}

// The program's top-level ddc spans (a re-root nests inside an apply).
inline bool IsDdcRead(const char* name) {
  return std::strcmp(name, "ddc.range_sum_batch") == 0;
}
inline bool IsDdcCall(const char* name) {
  return IsDdcRead(name) || std::strcmp(name, "ddc.apply_batch") == 0;
}

}  // namespace e2e
}  // namespace ddc

#endif  // DDC_E2EBENCH_BENCH_UTIL_H_
