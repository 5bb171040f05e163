/// \file bench_indexing_modes.cc
/// Experiment E6: the three indexing modes of §2.2 — no indexing, live
/// indexing (tree built on every evaluation), and persistent indexing
/// (tree built once / loaded from disk) — plus an R-tree order sweep.
///
/// `bench_indexing_modes --smoke` runs the packed-vs-scan microbench guard:
/// a window probe of the packed R-tree must cost at most a tenth of a
/// linear envelope-kernel scan over the same entries (per-probe times, each
/// from a timed region of at least 10 ms, min of 3), and both must return
/// identical candidates on sampled windows. `--json=<path>` writes the
/// timings.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "geometry/kernels.h"
#include "index/packed_rtree.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {
namespace {

size_t N() { return bench::EnvSize("STARK_BENCH_INDEX_N", 100'000); }

Context* Ctx() {
  static Context ctx;
  return &ctx;
}

const SpatialRDD<int64_t>& Data() {
  static const SpatialRDD<int64_t> rdd = [] {
    auto points = bench::BenchPoints(N());
    std::vector<std::pair<STObject, int64_t>> data;
    data.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      data.emplace_back(std::move(points[i]), static_cast<int64_t>(i));
    }
    auto grid = std::make_shared<GridPartitioner>(bench::BenchUniverse(), 6);
    return SpatialRDD<int64_t>::FromVector(Ctx(), std::move(data))
        .PartitionBy(grid)
        .Cache();
  }();
  return rdd;
}

STObject Query() {
  return STObject(Geometry::MakeBox(Envelope(22, 22, 32, 32)));
}

void BM_IndexMode_None(benchmark::State& state) {
  const STObject query = Query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Data().Intersects(query).Count());
  }
}
BENCHMARK(BM_IndexMode_None)->Unit(benchmark::kMillisecond);

/// Live indexing rebuilds the R-tree on every evaluation — construction is
/// inside the timed region by design (that is the mode's semantics).
void BM_IndexMode_Live(benchmark::State& state) {
  const size_t order = static_cast<size_t>(state.range(0));
  const STObject query = Query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Data().LiveIndex(order).Intersects(query).Count());
  }
  state.counters["order"] = static_cast<double>(order);
}
BENCHMARK(BM_IndexMode_Live)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond);

/// Persistent mode: the tree is built once (cached) — queries pay only the
/// lookup, amortizing construction across reuses.
void BM_IndexMode_Persistent_Query(benchmark::State& state) {
  const size_t order = static_cast<size_t>(state.range(0));
  auto indexed = Data().Index(order);
  indexed.ToElements().Count();  // force construction outside timing
  const STObject query = Query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(indexed.Intersects(query).Count());
  }
  state.counters["order"] = static_cast<double>(order);
}
BENCHMARK(BM_IndexMode_Persistent_Query)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond);

void BM_IndexMode_Persistent_Save(benchmark::State& state) {
  auto indexed = Data().Index(10);
  indexed.ToElements().Count();
  const std::string dir = "/tmp/stark_bench_index";
  [[maybe_unused]] int rc = std::system(("mkdir -p " + dir).c_str());
  for (auto _ : state) {
    benchmark::DoNotOptimize(indexed.Save(dir).ok());
  }
}
BENCHMARK(BM_IndexMode_Persistent_Save)->Unit(benchmark::kMillisecond);

void BM_IndexMode_Persistent_LoadAndQuery(benchmark::State& state) {
  // "often the same index will be reused in subsequent runs": measure the
  // reload-then-query path of the next program.
  auto indexed = Data().Index(10);
  indexed.ToElements().Count();
  const std::string dir = "/tmp/stark_bench_index";
  [[maybe_unused]] int rc = std::system(("mkdir -p " + dir).c_str());
  STARK_CHECK(indexed.Save(dir).ok());
  const STObject query = Query();
  for (auto _ : state) {
    auto loaded = IndexedSpatialRDD<int64_t>::Load(Ctx(), dir);
    benchmark::DoNotOptimize(
        loaded.ValueOrDie().Intersects(query).Count());
  }
}
BENCHMARK(BM_IndexMode_Persistent_LoadAndQuery)->Unit(benchmark::kMillisecond);

// ---- --smoke / --json mode: packed-vs-scan microbench guard ---------------

constexpr size_t kProbeCount = 10'000;
constexpr size_t kMicrobenchOrder = 10;

std::vector<Envelope> ProbeWindows(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Envelope> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double x = rng.Uniform(0.0, 98.0);
    const double y = rng.Uniform(0.0, 98.0);
    const double w = rng.Uniform(0.1, 2.0);
    const double h = rng.Uniform(0.1, 2.0);
    out.push_back(Envelope(x, y, x + w, y + h));
  }
  return out;
}

/// Seconds per window of \p probe, from timed regions that repeat the
/// windows until at least 10 ms have passed; the minimum of 3 regions.
template <typename ProbeFn>
double PerProbeSeconds(const ProbeFn& probe,
                       const std::vector<Envelope>& windows) {
  double best = 1e30;
  size_t sink = 0;
  for (int round = 0; round < 3; ++round) {
    Stopwatch w;
    size_t probes = 0;
    do {
      for (const Envelope& window : windows) sink += probe(window);
      probes += windows.size();
    } while (w.ElapsedSeconds() < 0.010);
    best = std::min(best, w.ElapsedSeconds() / static_cast<double>(probes));
  }
  benchmark::DoNotOptimize(sink);
  return best;
}

int RunSmoke(const std::string& json_path) {
  setenv("STARK_BENCH_INDEX_N", "100000", /*overwrite=*/0);
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::fprintf(stderr, "[smoke] %s: %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  auto points = bench::BenchPoints(N());
  std::vector<std::pair<Envelope, size_t>> entries;
  EnvelopeSoA scan_envs;
  entries.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries.emplace_back(points[i].envelope(), i);
    scan_envs.PushBack(points[i].envelope());
  }
  const std::vector<Envelope> windows = ProbeWindows(kProbeCount, 2026);
  // The scan is linear in n per window, so it gets a prefix of the windows.
  const std::vector<Envelope> scan_windows(windows.begin(),
                                           windows.begin() + 200);

  Stopwatch build_watch;
  const PackedRTree<size_t> tree(kMicrobenchOrder, entries);
  const double build_s = build_watch.ElapsedSeconds();
  std::vector<uint32_t> scan_hits;
  auto scan = [&](const Envelope& window) {
    scan_hits.clear();
    return FilterEnvelopesBatch(scan_envs, window, &scan_hits);
  };
  auto packed = [&tree](const Envelope& window) {
    size_t hits = 0;
    tree.Query(window, [&hits](const Envelope&, const size_t&) { ++hits; });
    return hits;
  };

  // Identical candidates on sampled windows.
  bool identical = true;
  for (size_t q = 0; q < windows.size() && identical; q += 97) {
    std::multiset<size_t> a, b;
    tree.Query(windows[q],
               [&a](const Envelope&, const size_t& id) { a.insert(id); });
    scan(windows[q]);
    b.insert(scan_hits.begin(), scan_hits.end());
    identical = a == b;
  }
  check(identical, "packed and scan candidates identical");

  const double packed_s = PerProbeSeconds(packed, windows);
  const double scan_s = PerProbeSeconds(scan, scan_windows);
  size_t total_hits = 0;
  for (const Envelope& window : windows) total_hits += packed(window);
  std::fprintf(stderr,
               "[smoke] per-window probe (n=%zu, order=%zu): packed=%.3fus "
               "scan=%.3fus (ratio %.4f); bulk load %.4fs\n",
               entries.size(), kMicrobenchOrder, packed_s * 1e6, scan_s * 1e6,
               packed_s / scan_s, build_s);
  check(packed_s <= 0.1 * scan_s, "packed probe <= 0.1x linear scan");

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.Add("indexing.n", static_cast<double>(entries.size()));
    report.Add("indexing.probes", static_cast<double>(kProbeCount));
    report.Add("indexing.order", static_cast<double>(kMicrobenchOrder));
    report.Add("indexing.packed_build_s", build_s);
    report.Add("indexing.packed_probe_us", packed_s * 1e6);
    report.Add("indexing.scan_probe_us", scan_s * 1e6);
    report.Add("indexing.packed_over_scan_ratio", packed_s / scan_s);
    report.Add("indexing.total_hits", static_cast<double>(total_hits));
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
