/// \file common.h
/// Shared plumbing of the end-to-end benchmark binary: argument parsing,
/// seeded input generation, timing and order statistics, result digests for
/// the correctness checks, the benchmark's own trace spans, and the one-line
/// JSON result the binary prints last.
#ifndef STARK_PERFBENCH_COMMON_H_
#define STARK_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

/// Command line of one run. `threads` is 0 unless the single-threaded
/// baseline overrides each workload's fixed engine parallelism.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs only)
  size_t threads = 0;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): the gated or traced metrics plus
/// the operation accounting of its correctness checks.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A workload-specific figure that is not part of the result line: it is
  /// printed to stderr only, for the reader of a run's log.
  void Detail(const std::string& name, double value, const std::string& unit) const {
    std::fprintf(stderr, "[perfbench] detail %-32s %14.6g %s\n", name.c_str(),
                 value, unit.c_str());
  }
  /// Counts one checked operation; prints the first few failures.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10) std::fprintf(stderr, "[perfbench] FAILED: %s\n", what.c_str());
  }
};

/// The end-to-end metrics of BENCHMARK.json, which every workload reports
/// with --trace 0. An operation is the workload's unit of work, as listed in
/// README.md: a range or kNN query (range_scan), a join job (spatial_join),
/// a served query (snapshot_serve), a window (event_stream; its throughput
/// counts events).
struct EndToEnd {
  double setup_s = 0;           ///< median of the run's set-ups
  double peak_rss_mb = 0;       ///< VmHWM of the workload's process
  double latency_p50_ms = 0;    ///< median latency of one operation
  double throughput_per_s = 0;  ///< operations (events) per second
};

inline void AddEndToEnd(Report* r, const EndToEnd& e) {
  r->Add("setup_s", e.setup_s, "s");
  r->Add("peak_rss_mb", e.peak_rss_mb, "MB");
  r->Add("latency_p50_ms", e.latency_p50_ms, "ms");
  r->Add("throughput_per_s", e.throughput_per_s, "1/s");
}

/// The per-layer metrics of BENCHMARK.json, which every workload reports
/// with --trace 1. Each workload splits one operation into the same three
/// steps, each timed around calls into one layer (README.md names the layer
/// per workload): getting the operation's input rows (access), choosing
/// candidates (probe) and the exact test of the candidates (refine).
struct Layers {
  double job_floor_ms = 0;        ///< empty engine job at the workload's task count
  double jobs_per_op = 0;         ///< engine jobs started per operation
  double access_ms = 0;           ///< per operation
  double probe_ms = 0;            ///< per operation
  double refine_ms = 0;           ///< per operation
  double candidates = 0;          ///< rows refined per operation
  double refine_yield = 0;        ///< rows kept / candidates
  double trace_overhead_pct = 0;  ///< traced vs untraced time of the same work
};

inline void AddLayers(Report* r, const Layers& l) {
  r->Add("engine.job_floor_ms", l.job_floor_ms, "ms");
  r->Add("engine.jobs_per_op", l.jobs_per_op, "count");
  r->Add("op.access_ms", l.access_ms, "ms");
  r->Add("op.probe_ms", l.probe_ms, "ms");
  r->Add("op.refine_ms", l.refine_ms, "ms");
  r->Add("op.candidates", l.candidates, "count");
  r->Add("op.refine_yield", l.refine_yield, "ratio");
  r->Add("obs.trace_overhead_pct", l.trace_overhead_pct, "%");
}

Report RunRangeScan(const Args& args);
Report RunSpatialJoin(const Args& args);
Report RunSnapshotServe(const Args& args);
Report RunEventStream(const Args& args);

// ---- time -----------------------------------------------------------------

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock stopwatch in seconds.
class Timer {
 public:
  Timer() : start_(NowNs()) {}
  double Seconds() const { return static_cast<double>(NowNs() - start_) / 1e9; }
  double Ms() const { return Seconds() * 1e3; }

 private:
  uint64_t start_;
};

/// Linear-interpolated quantile (p in [0, 1]) of \p v; NaN when empty.
inline double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The highest percentile with at least ten samples beyond it, as the
/// reporting rule for tails demands; NaN when \p v has under 1000 samples
/// for p99 (callers then report only the median).
inline double TailQuantile(const std::vector<double>& v, double p) {
  const double beyond = (1.0 - p) * static_cast<double>(v.size());
  if (beyond < 10.0) return std::nan("");
  return Quantile(v, p);
}

/// Peak resident set size of this process in MB (VmHWM).
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  double kb = std::nan("");
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

// ---- seeded inputs ----------------------------------------------------------

/// The benchmark's own generator: inputs depend only on the seed and on
/// this file, never on the library's generators.
class Rand {
 public:
  explicit Rand(uint64_t seed, uint64_t stream)
      : eng_(seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1) {}
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(eng_);
  }
  double Normal(double mean, double sd) {
    return std::normal_distribution<double>(mean, sd)(eng_);
  }
  int64_t Int(int64_t lo, int64_t hi) {  // inclusive
    return std::uniform_int_distribution<int64_t>(lo, hi)(eng_);
  }

 private:
  std::mt19937_64 eng_;
};

/// The benchmark universe: [0, 100] x [0, 100].
constexpr double kUniverse = 100.0;

/// Centres of the twelve clusters of every skewed input: a fixed "land
/// mass" layout, so seeds change the events but not where the land is, and
/// partition sizes and query costs do not swing from seed to seed.
constexpr int kClusters = 12;
constexpr double kClusterX[kClusters] = {14, 31, 47, 68, 86, 22, 55, 79, 12, 38, 63, 88};
constexpr double kClusterY[kClusters] = {18, 12, 27, 15, 30, 46, 51, 58, 77, 84, 72, 86};
constexpr double kClusterSd = 2.0;

/// Skewed point cloud: equally weighted Gaussian clusters (sd 2) around the
/// fixed centres plus 5% uniform noise, all inside the universe.
inline std::vector<std::pair<double, double>> SkewedPoints(size_t n,
                                                           Rand* rng) {
  std::vector<std::pair<double, double>> pts;
  pts.reserve(n);
  while (pts.size() < n) {
    double x, y;
    if (rng->Uniform(0, 1) < 0.05) {
      x = rng->Uniform(0, kUniverse);
      y = rng->Uniform(0, kUniverse);
    } else {
      const int k = static_cast<int>(rng->Int(0, kClusters - 1));
      x = rng->Normal(kClusterX[k], kClusterSd);
      y = rng->Normal(kClusterY[k], kClusterSd);
      if (x < 0 || x >= kUniverse || y < 0 || y >= kUniverse) continue;
    }
    pts.emplace_back(x, y);
  }
  return pts;
}

/// A query centre for the j-th query: near cluster j mod 12, offset by a
/// seeded Gaussian, so every seed spreads its queries over the clusters the
/// same way.
inline std::pair<double, double> QueryCentre(size_t j, Rand* rng) {
  const size_t k = j % kClusters;
  const double x = std::clamp(rng->Normal(kClusterX[k], 1.5), 0.0, kUniverse);
  const double y = std::clamp(rng->Normal(kClusterY[k], 1.5), 0.0, kUniverse);
  return {x, y};
}

// ---- correctness digests ------------------------------------------------------

/// Order-independent, additive digest of a set of ids: equal sets give
/// equal digests, and the digest of a union of disjoint sets is the sum.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t mix = 0;

  void Add(uint64_t id) {
    ++count;
    sum += id;
    uint64_t z = id + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    mix += z ^ (z >> 31);
  }
  void Merge(const Digest& o) {
    count += o.count;
    sum += o.sum;
    mix += o.mix;
  }
  bool operator==(const Digest& o) const {
    return count == o.count && sum == o.sum && mix == o.mix;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// Even-odd ray cast of (x, y) against a closed ring, written apart from
/// the library's point-in-polygon code.
inline bool RayCastInside(double x, double y, const double* rx,
                          const double* ry, size_t n) {
  bool inside = false;
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    if (((ry[i] > y) != (ry[j] > y)) &&
        (x < (rx[j] - rx[i]) * (y - ry[i]) / (ry[j] - ry[i]) + rx[i])) {
      inside = !inside;
    }
  }
  return inside;
}

// ---- tracing ------------------------------------------------------------------

/// A benchmark-owned span around a call into one layer; a no-op while the
/// tracer is off, so the gated run pays nothing for it.
class Span {
 public:
  explicit Span(const char* name) : span_(stark::obs::DefaultTracer(), name) {}

 private:
  stark::obs::ScopedSpan span_;
};

/// Turns the tracer off for its scope. A traced run keeps the tracer on
/// throughout, except for the untraced side of the tracing-overhead
/// comparison.
class Untraced {
 public:
  Untraced() { stark::obs::DefaultTracer().Disable(); }
  ~Untraced() { stark::obs::DefaultTracer().Enable(); }
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;
};

inline uint64_t CounterValue(const char* name) {
  return stark::obs::DefaultMetrics().GetCounter(name)->Value();
}

/// Time of one empty job of \p tasks tasks, the floor under every engine
/// job of the workload: the median over 20 batches of the mean over
/// \p per_batch jobs, so a microsecond job is not read at clock resolution.
template <typename Ctx>
double JobFloorMs(Ctx* ctx, size_t tasks, int per_batch) {
  std::vector<double> ms;
  for (int b = 0; b < 20; ++b) {
    const Timer t;
    for (int i = 0; i < per_batch; ++i) {
      (void)ctx->TryRunTasks("perfbench.empty", tasks, [](size_t) {});
    }
    ms.push_back(t.Ms() / per_batch);
  }
  return Median(std::move(ms));
}

}  // namespace perfbench

#endif  // STARK_PERFBENCH_COMMON_H_
