/// \file bench_columnar.cc
/// The columnar data plane (SoA slabs + batched refinement kernels) on its
/// target workload: a filter and the broadcast and partition-pair joins
/// over a point-dominated population with a polygon every 200th row.
///
/// `bench_columnar --smoke` runs the fast self-checking mode: the filter
/// rows and both join results must equal a brute-force nested
/// JoinPredicate::Eval loop, and the columnar counters
/// (engine.columnar.batches/rows/fallbacks/slab_reuse) must all advance.
/// The timings are reported, not gated. Pass `--json=<path>` to write them
/// to a BENCH_*.json snapshot.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/columnar.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {
namespace {

size_t N() { return bench::EnvSize("STARK_BENCH_COLUMNAR_N", 400'000); }

Context* Ctx() {
  static Context ctx;
  return &ctx;
}

using Rdd = SpatialRDD<int64_t>;
using E = std::pair<STObject, int64_t>;

/// The workload the columnar plane targets: a dominant point population
/// (every 200th row is a polygon, so the mixed-batch fallback merge runs
/// too) with a mix of untimed and instant-stamped rows.
std::vector<E> MakeData() {
  static bench::TraceFromEnv trace_guard;
  bench::ScopedStage stage("columnar.make_data");
  auto points = bench::BenchPoints(N());
  auto polygons = bench::BenchPolygons(std::max<size_t>(N() / 200, 1));
  std::vector<E> data;
  data.reserve(points.size() + polygons.size());
  int64_t id = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (i % 3 == 0) {
      data.emplace_back(
          STObject(points[i].geo(), static_cast<Instant>(i % 1000)),
          id++);
    } else {
      data.emplace_back(std::move(points[i]), id++);
    }
  }
  for (auto& poly : polygons) data.emplace_back(std::move(poly), id++);
  return data;
}

const Rdd& Partitioned() {
  static const Rdd rdd = [] {
    auto grid = std::make_shared<GridPartitioner>(bench::BenchUniverse(), 4);
    return Rdd::FromVector(Ctx(), MakeData()).PartitionBy(grid).Cache();
  }();
  return rdd;
}

/// Small polygon side for the broadcast join.
const Rdd& SmallPolygons() {
  static const Rdd rdd = [] {
    auto polys = bench::BenchPolygons(200, /*seed=*/77);
    std::vector<E> data;
    data.reserve(polys.size());
    for (size_t i = 0; i < polys.size(); ++i) {
      data.emplace_back(std::move(polys[i]), static_cast<int64_t>(i));
    }
    return Rdd::FromVector(Ctx(), std::move(data), 4).Cache();
  }();
  return rdd;
}

STObject Query() {
  return STObject(Geometry::MakeBox(Envelope(20, 20, 35, 35)));
}

std::pair<int64_t, int64_t> ProjectIds(const E& l, const E& r) {
  return {l.second, r.second};
}

size_t RunFilterCount() {
  return Partitioned().Intersects(Query()).Count();
}

JoinOptions Options(size_t broadcast_threshold) {
  JoinOptions options;
  options.index_order = 10;
  options.broadcast_threshold = broadcast_threshold;
  return options;
}

/// Broadcast strategy (the polygon side is tiny by design) or, with
/// threshold 0, the partition-pair strategy.
std::vector<std::pair<int64_t, int64_t>> RunJoin(size_t broadcast_threshold) {
  return SpatialJoinProject(Partitioned(), SmallPolygons(),
                            JoinPredicate::Intersects(),
                            Options(broadcast_threshold), ProjectIds)
      .Collect();
}

size_t RunJoinCount(size_t broadcast_threshold) {
  return SpatialJoinProject(Partitioned(), SmallPolygons(),
                            JoinPredicate::Intersects(),
                            Options(broadcast_threshold), ProjectIds)
      .Count();
}

void BM_Filter(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(RunFilterCount());
}
BENCHMARK(BM_Filter)->Unit(benchmark::kMillisecond);

void BM_BroadcastJoin(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(RunJoinCount(10'000));
}
BENCHMARK(BM_BroadcastJoin)->Unit(benchmark::kMillisecond);

// ---- --smoke / --json mode ------------------------------------------------

double MedianOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

template <typename Fn>
double MedianSeconds(int runs, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < runs; ++i) {
    Stopwatch w;
    fn();
    samples.push_back(w.ElapsedSeconds());
  }
  return MedianOf(samples);
}

int RunSmoke(const std::string& json_path) {
  // Shrink the workload unless the caller pinned a size explicitly.
  setenv("STARK_BENCH_COLUMNAR_N", "60000", /*overwrite=*/0);
  const obs::MetricsRegistry::Snapshot metrics_before =
      obs::DefaultMetrics().Snap();
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::fprintf(stderr, "[smoke] %s: %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  const ColumnarMetricSet& cm = GlobalColumnarMetrics();
  const uint64_t batches_before = cm.batches->Value();
  const uint64_t rows_before = cm.rows->Value();
  const uint64_t fallbacks_before = cm.fallbacks->Value();
  const uint64_t reuse_before = cm.slab_reuse->Value();

  // Brute-force oracle: nested JoinPredicate::Eval loops over the inputs.
  const JoinPredicate pred = JoinPredicate::Intersects();
  const std::vector<E> data = Partitioned().rdd().Collect();
  const std::vector<E> polygons = SmallPolygons().rdd().Collect();
  std::set<int64_t> expect_rows;
  std::set<std::pair<int64_t, int64_t>> expect_pairs;
  for (const E& e : data) {
    if (pred.Eval(e.first, Query())) expect_rows.insert(e.second);
    for (const E& p : polygons) {
      if (pred.Eval(e.first, p.first)) expect_pairs.emplace(e.second, p.second);
    }
  }

  std::set<int64_t> rows;
  for (const E& e : Partitioned().Filter(Query(), pred).Collect()) {
    rows.insert(e.second);
  }
  const auto broadcast = RunJoin(10'000);
  const auto live = RunJoin(0);
  std::fprintf(stderr,
               "[smoke] results: filter=%zu broadcast join=%zu live join=%zu "
               "(brute force %zu / %zu)\n",
               rows.size(), broadcast.size(), live.size(), expect_rows.size(),
               expect_pairs.size());
  check(rows == expect_rows, "filter rows match brute force");
  check(std::set<std::pair<int64_t, int64_t>>(broadcast.begin(),
                                              broadcast.end()) ==
                expect_pairs &&
            broadcast.size() == expect_pairs.size(),
        "broadcast join matches brute force");
  check(std::set<std::pair<int64_t, int64_t>>(live.begin(), live.end()) ==
                expect_pairs &&
            live.size() == expect_pairs.size(),
        "partition-pair join matches brute force");

  check(cm.batches->Value() > batches_before,
        "slabs built (engine.columnar.batches advanced)");
  check(cm.rows->Value() > rows_before,
        "batch kernels ran (engine.columnar.rows advanced)");
  check(cm.fallbacks->Value() > fallbacks_before,
        "mixed-batch fallback ran (engine.columnar.fallbacks advanced)");

  // Repeating the filter must hit the cached partition slabs.
  const uint64_t reuse_mark = cm.slab_reuse->Value();
  RunFilterCount();
  check(cm.slab_reuse->Value() > reuse_mark,
        "repeat filter reused slabs (engine.columnar.slab_reuse advanced)");

  // Timings: reported, not gated.
  const double filter_s = MedianSeconds(5, RunFilterCount);
  const double broadcast_s = MedianSeconds(3, [] { RunJoinCount(10'000); });
  const double live_s = MedianSeconds(3, [] { RunJoinCount(0); });
  std::fprintf(stderr,
               "[smoke] median time: filter=%.4fs broadcast join=%.4fs "
               "live join=%.4fs\n",
               filter_s, broadcast_s, live_s);

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.Add("columnar.n", static_cast<double>(N()));
    report.Add("columnar.filter_results", static_cast<double>(rows.size()));
    report.Add("columnar.filter_s", filter_s);
    report.Add("columnar.join_results", static_cast<double>(broadcast.size()));
    report.Add("columnar.join_broadcast_s", broadcast_s);
    report.Add("columnar.join_live_s", live_s);
    report.Add("columnar.rows",
               static_cast<double>(cm.rows->Value() - rows_before));
    report.Add("columnar.fallbacks",
               static_cast<double>(cm.fallbacks->Value() - fallbacks_before));
    report.Add("columnar.batches",
               static_cast<double>(cm.batches->Value() - batches_before));
    report.Add("columnar.slab_reuse",
               static_cast<double>(cm.slab_reuse->Value() - reuse_before));
    report.AddMetricsDelta(metrics_before);
    report.WriteTo(json_path);
  }

  std::fprintf(stderr, "[smoke] %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stark

int main(int argc, char** argv) {
  const std::string json = stark::bench::JsonPathFromArgs(argc, argv);
  if (stark::bench::SmokeRequested(argc, argv) || !json.empty()) {
    return stark::RunSmoke(json);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
