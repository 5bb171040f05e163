/// \file range_scan.cc
/// Workload `range_scan`: one client runs a fixed, seeded sequence of
/// selective spatial and spatio-temporal range filters plus kNN queries
/// against about 2M skewed points, grid-partitioned (8x8) and cached with no
/// index. Most of a query's time goes to materializing the cached partitions
/// it keeps, which is the path partition-copy work would change.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/columnar.h"
#include "engine/context.h"
#include "geometry/kernels.h"
#include "geometry/prepared.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/query_stats.h"
#include "spatial_rdd/spatial_rdd.h"

namespace perfbench {
namespace {

using stark::Context;
using stark::Envelope;
using stark::Geometry;
using stark::JoinPredicate;
using stark::STObject;
using Element = std::pair<STObject, int64_t>;
using Dataset = stark::SpatialRDD<int64_t>;

constexpr size_t kPoints = 2'000'000;
constexpr size_t kGridCells = 8;  // 8 x 8 = 64 partitions
constexpr size_t kThreads = 2;    // engine parallelism, fixed on every commit
constexpr int kSetupReps = 3;
constexpr int64_t kTimeRange = 1'000'000;
constexpr int64_t kNoTime = std::numeric_limits<int64_t>::min();
constexpr size_t kKnnK = 10;
// One round is the fixed query sequence below; a run makes
// ceil(seconds / kRoundSeconds) rounds after one warm-up round.
constexpr int kBoxQueries = 16;     // spatial only: match untimed points
constexpr int kBoxTimeQueries = 16; // spatio-temporal: match timed points
constexpr int kKnnQueries = 2;
constexpr double kRoundSeconds = 1.1;

enum class Kind { kBox, kBoxTime, kKnn };

struct Query {
  Kind kind = Kind::kBox;
  Envelope box;
  int64_t t0 = 0, t1 = 0;
  double px = 0, py = 0;

  STObject Object() const {
    switch (kind) {
      case Kind::kBox: return STObject(Geometry::MakeBox(box));
      case Kind::kBoxTime: return STObject(Geometry::MakeBox(box), t0, t1);
      case Kind::kKnn: break;
    }
    return STObject(Geometry::MakePoint(px, py));
  }
};

struct Input {
  std::vector<double> x, y;
  std::vector<int64_t> t;  // kNoTime for untimed points

  size_t size() const { return x.size(); }
  /// The (STObject, id) pairs handed to the program.
  std::vector<Element> Elements(size_t n) const {
    std::vector<Element> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.emplace_back(t[i] == kNoTime
                           ? STObject(Geometry::MakePoint(x[i], y[i]))
                           : STObject(Geometry::MakePoint(x[i], y[i]), t[i]),
                       static_cast<int64_t>(i));
    }
    return out;
  }
};

Input MakeInput(uint64_t seed) {
  Rand rng(seed, 1);
  Input in;
  const auto pts = SkewedPoints(kPoints, &rng);
  in.x.reserve(kPoints);
  in.y.reserve(kPoints);
  in.t.reserve(kPoints);
  for (size_t i = 0; i < kPoints; ++i) {
    const auto [x, y] = pts[i];
    in.x.push_back(x);
    in.y.push_back(y);
    // A third of the points carry an instant.
    in.t.push_back(i % 3 == 0 ? rng.Int(0, kTimeRange - 1) : kNoTime);
  }
  return in;
}

/// Query boxes of 2x2 to 6x6 (sizes cycling through the range) around
/// QueryCentre, spatio-temporal windows of a tenth of the time range, and
/// kNN probes next to the clusters.
std::vector<Query> MakeQueries(uint64_t seed) {
  Rand rng(seed, 2);
  std::vector<Query> qs;
  const int filters = kBoxQueries + kBoxTimeQueries;
  for (int i = 0; i < filters + kKnnQueries; ++i) {
    Query q;
    const auto [cx, cy] = QueryCentre(static_cast<size_t>(i), &rng);
    if (i < filters) {
      q.kind = i % 2 == 0 ? Kind::kBox : Kind::kBoxTime;
      const double half = 1.0 + 2.0 * static_cast<double>((i * 7) % filters) /
                                    static_cast<double>(filters - 1);
      q.box = Envelope(cx - half, cy - half, cx + half, cy + half);
      q.t0 = rng.Int(0, kTimeRange - kTimeRange / 10);
      q.t1 = q.t0 + kTimeRange / 10;
    } else {
      q.kind = Kind::kKnn;
      q.px = cx;
      q.py = cy;
    }
    qs.push_back(q);
  }
  // Spread the kNN queries through the round.
  std::vector<Query> ordered;
  const size_t stride = qs.size() / kKnnQueries;
  for (size_t i = 0, f = 0, k = filters; i < qs.size(); ++i) {
    ordered.push_back((i + 1) % stride == 0 && k < qs.size() ? qs[k++] : qs[f++]);
  }
  return ordered;
}

/// Expected answer, computed by brute force over the generated arrays.
struct Expected {
  Digest ids;                  // filters
  std::vector<double> dists;   // kNN: the k smallest distances, ascending
};

Expected BruteForce(const Query& q, const Input& in) {
  Expected e;
  const size_t n = in.x.size();
  if (q.kind == Kind::kKnn) {
    std::vector<double> d(n);
    for (size_t i = 0; i < n; ++i) {
      const double dx = in.x[i] - q.px, dy = in.y[i] - q.py;
      d[i] = std::sqrt(dx * dx + dy * dy);
    }
    std::nth_element(d.begin(), d.begin() + kKnnK, d.end());
    d.resize(kKnnK);
    std::sort(d.begin(), d.end());
    e.dists = std::move(d);
    return e;
  }
  const bool timed = q.kind == Kind::kBoxTime;
  for (size_t i = 0; i < n; ++i) {
    if (in.x[i] < q.box.min_x() || in.x[i] > q.box.max_x() ||
        in.y[i] < q.box.min_y() || in.y[i] > q.box.max_y()) {
      continue;
    }
    // Combined rule: an untimed query matches untimed points only; a timed
    // one matches timed points whose instant lies in its closed window.
    if (timed ? (in.t[i] != kNoTime && in.t[i] >= q.t0 && in.t[i] <= q.t1)
              : in.t[i] == kNoTime) {
      e.ids.Add(static_cast<uint64_t>(i));
    }
  }
  return e;
}

/// Loads, grid-partitions and caches the points; returns the cached
/// dataset and the set-up time (input copy excluded).
Dataset Setup(Context* ctx, const Input& in, size_t n, double* setup_s,
              double* shuffle_s) {
  std::vector<Element> copy = in.Elements(n);
  Span span("bench.range_scan.setup");
  const Timer timer;
  Dataset raw(stark::MakeRDD(ctx, std::move(copy), kGridCells * kGridCells));
  const Timer shuffle;
  Dataset parted = raw.PartitionBy(std::make_shared<stark::GridPartitioner>(
      Envelope(0, 0, kUniverse, kUniverse), kGridCells));
  if (shuffle_s != nullptr) *shuffle_s = shuffle.Seconds();
  Dataset cached = parted.Cache();
  cached.rdd().Count();
  *setup_s = timer.Seconds();
  return cached;
}

/// One query through the user-facing API; the outcome is checked by the
/// caller outside the timed region.
struct Outcome {
  std::vector<Element> rows;
  std::vector<std::pair<double, Element>> knn;
};

Outcome RunQuery(const Dataset& data, const Query& q,
                 stark::QueryStats* stats = nullptr) {
  Outcome out;
  if (q.kind == Kind::kKnn) {
    Span span("bench.scan.knn");
    out.knn = data.Knn(q.Object(), kKnnK);
  } else {
    Span span("bench.scan.filter");
    out.rows = data.Filter(q.Object(), JoinPredicate::Intersects(), stats)
                   .Collect();
  }
  return out;
}

bool Verify(const Query& q, const Expected& want, const Outcome& got,
            const Input& in) {
  if (q.kind != Kind::kKnn) {
    Digest d;
    for (const Element& e : got.rows) d.Add(static_cast<uint64_t>(e.second));
    return d == want.ids;
  }
  if (got.knn.size() != want.dists.size()) return false;
  for (size_t i = 0; i < got.knn.size(); ++i) {
    const auto& [dist, e] = got.knn[i];
    const size_t id = static_cast<size_t>(e.second);
    if (id >= in.x.size()) return false;
    const double dx = in.x[id] - q.px, dy = in.y[id] - q.py;
    const double own = std::sqrt(dx * dx + dy * dy);
    const double tol = 1e-9 * (1.0 + want.dists[i]);
    if (std::fabs(dist - want.dists[i]) > tol || std::fabs(own - dist) > tol) {
      return false;
    }
  }
  return true;
}

struct RoundResult {
  std::vector<double> filter_ms, knn_ms;
  double total_s = 0;
};

RoundResult RunRound(const Dataset& data, const std::vector<Query>& qs,
                     const std::vector<Expected>& want, const Input& in,
                     Report* report, stark::QueryStats* stats = nullptr) {
  RoundResult r;
  for (size_t i = 0; i < qs.size(); ++i) {
    const uint64_t start = NowNs();
    const Outcome out = RunQuery(data, qs[i], stats);
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    r.total_s += ms / 1e3;
    (qs[i].kind == Kind::kKnn ? r.knn_ms : r.filter_ms).push_back(ms);
    report->Check(Verify(qs[i], want[i], out, in),
                  "range_scan query " + std::to_string(i));
  }
  return r;
}

size_t Threads(const Args& args) { return args.threads ? args.threads : kThreads; }

int Rounds(const Args& args) {
  return std::max(1, static_cast<int>(std::ceil(args.seconds / kRoundSeconds)));
}

/// Per-layer figures of the traced run (see README.md for the table of
/// which end-to-end metric each should move).
void TraceLayers(Context* ctx, const Input& in,
                 const std::vector<Query>& qs,
                 const std::vector<Expected>& want, Report* report) {
  Layers layers;
  double setup_s = 0, shuffle_s = 0;
  const Dataset data = Setup(ctx, in, in.size(), &setup_s, &shuffle_s);
  report->Detail("partition.shuffle_s", shuffle_s, "s");
  RunRound(data, qs, want, in, report);  // warm-up: builds the slab cache

  // Untraced and traced rounds alternate; the difference is the tracing
  // overhead, the untraced rounds give the latency split by query kind.
  const uint64_t reuse0 = CounterValue("engine.columnar.slab_reuse");
  const uint64_t batches0 = CounterValue("engine.columnar.batches");
  std::vector<double> plain_s, traced_s, filter_ms, knn_ms;
  stark::QueryStats stats;
  uint64_t jobs = 0;
  for (int rep = 0; rep < 2; ++rep) {
    {
      const Untraced off;
      const uint64_t jobs0 = CounterValue("engine.jobs");
      const RoundResult plain = RunRound(data, qs, want, in, report);
      jobs += CounterValue("engine.jobs") - jobs0;
      plain_s.push_back(plain.total_s);
      filter_ms.insert(filter_ms.end(), plain.filter_ms.begin(), plain.filter_ms.end());
      knn_ms.insert(knn_ms.end(), plain.knn_ms.begin(), plain.knn_ms.end());
    }
    traced_s.push_back(RunRound(data, qs, want, in, report, &stats).total_s);
  }
  const double reuse = static_cast<double>(CounterValue("engine.columnar.slab_reuse") - reuse0);
  const double built = static_cast<double>(CounterValue("engine.columnar.batches") - batches0);
  report->Detail("scan.filter_p50_ms", Median(filter_ms), "ms");
  report->Detail("scan.knn_p50_ms", Median(knn_ms), "ms");
  layers.jobs_per_op = static_cast<double>(jobs) / static_cast<double>(2 * qs.size());
  size_t filters_traced = 0;
  for (const Query& q : qs) filters_traced += q.kind != Kind::kKnn ? 2 : 0;
  const double parts = static_cast<double>(data.NumPartitions());
  report->Detail("partition.kept_ratio",
                 1.0 - static_cast<double>(stats.partitions_pruned.load()) /
                           (parts * static_cast<double>(filters_traced)),
                 "ratio");
  report->Detail("core.slab_reuse_ratio",
                 reuse + built > 0 ? reuse / (reuse + built) : 0, "ratio");
  layers.trace_overhead_pct = (Median(traced_s) / Median(plain_s) - 1.0) * 100.0;

  // Layers below the filter, driven directly on the same cached dataset:
  // materializing each kept partition, building its slab, the envelope
  // kernel and the exact refinement.
  const size_t np = data.NumPartitions();
  std::vector<std::vector<Element>> parts_data(np);
  std::vector<stark::ColumnarBatch> slabs;
  std::vector<double> slab_ms;
  for (size_t p = 0; p < np; ++p) {
    parts_data[p] = data.rdd().ComputePartition(p);
    Span span("bench.core.slab_build");
    const Timer t;
    slabs.push_back(stark::ColumnarBatch::Build(
        parts_data[p], [](const Element& e) -> const STObject& { return e.first; }));
    slab_ms.push_back(t.Ms());
  }
  double slab_total = 0;
  for (const double ms : slab_ms) slab_total += ms;
  report->Detail("core.slab_build_ms", slab_total / static_cast<double>(np),
                 "ms/partition");

  std::vector<double> mat_ms, kernel_ms, refine_ms;
  double rows = 0, cands = 0, survivors = 0, nfilters = 0;
  const JoinPredicate pred = JoinPredicate::Intersects();
  for (const Query& q : qs) {
    if (q.kind == Kind::kKnn) continue;
    const STObject obj = q.Object();
    const Envelope probe = obj.envelope();
    double m = 0, k = 0, r = 0;
    for (size_t p = 0; p < np; ++p) {
      if (!data.partitioner()->PartitionExtent(p).Intersects(probe)) continue;
      {
        Span span("bench.engine.materialize");
        const Timer t;
        const std::vector<Element> items = data.rdd().ComputePartition(p);
        m += t.Ms();
        rows += static_cast<double>(items.size());
      }
      std::vector<uint32_t> cand;
      {
        Span span("bench.geometry.envelope_kernel");
        const Timer t;
        stark::FilterEnvelopesBatch(slabs[p].envelopes(), probe, &cand);
        k += t.Ms();
      }
      cands += static_cast<double>(cand.size());
      if (cand.empty()) continue;
      Span span("bench.geometry.refine");
      const Timer t;
      stark::PreparedGeometry prep(obj.geo());
      stark::columnar_refine::Stats cstats;
      std::vector<uint32_t> scratch;
      const std::vector<Element>& items = parts_data[p];
      stark::columnar_refine::RefineCandidates(
          slabs[p], pred, obj, prep, /*cand_left=*/true, &cand,
          [&items](uint32_t j) -> const STObject& { return items[j].first; },
          &cstats, &scratch);
      r += t.Ms();
      survivors += static_cast<double>(cand.size());
    }
    mat_ms.push_back(m);
    kernel_ms.push_back(k);
    refine_ms.push_back(r);
    nfilters += 1;
  }
  // A filter query's steps: materializing the kept cached partitions
  // (engine), the envelope kernel (geometry) and the exact refinement
  // (spatial_rdd's columnar refine).
  layers.access_ms = Median(mat_ms);
  layers.probe_ms = Median(kernel_ms);
  layers.refine_ms = Median(refine_ms);
  layers.candidates = cands / nfilters;
  layers.refine_yield = cands > 0 ? survivors / cands : 0;
  report->Detail("engine.materialized_rows", rows / nfilters, "rows/op");

  // The floor under every query: an empty job over the same task count.
  layers.job_floor_ms = JobFloorMs(ctx, np, 10);

  // The same fixed work (every filter over a 400k-point prefix) at
  // parallelism 1 and at the workload's parallelism.
  auto timed_filters = [&](Context* c) {
    double s = 0;
    const Dataset d = Setup(c, in, 400'000, &s, nullptr);
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      const Timer t;
      for (const Query& q : qs) {
        if (q.kind != Kind::kKnn) RunQuery(d, q);
      }
      reps.push_back(t.Seconds());
    }
    return Median(reps);
  };
  Context serial(1);
  const double t1 = timed_filters(&serial);
  const double tp = timed_filters(ctx);
  report->Detail("engine.parallel_speedup", t1 / tp, "ratio");
  AddLayers(report, layers);
}

}  // namespace

Report RunRangeScan(const Args& args) {
  Report report;
  const Input in = MakeInput(args.seed);
  const std::vector<Query> qs = MakeQueries(args.seed);
  std::vector<Expected> want;
  for (const Query& q : qs) want.push_back(BruteForce(q, in));
  Context ctx(Threads(args));

  if (args.trace) {
    TraceLayers(&ctx, in, qs, want, &report);
    return report;
  }

  std::vector<double> setups;
  std::optional<Dataset> data;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    data.reset();
    double s = 0;
    data.emplace(Setup(&ctx, in, in.size(), &s, nullptr));
    setups.push_back(s);
  }
  RunRound(*data, qs, want, in, &report);  // warm-up
  std::vector<double> all_ms, filter_ms, knn_ms, rates;
  double busy_s = 0;
  for (int round = 0; round < Rounds(args); ++round) {
    const RoundResult r = RunRound(*data, qs, want, in, &report);
    all_ms.insert(all_ms.end(), r.filter_ms.begin(), r.filter_ms.end());
    all_ms.insert(all_ms.end(), r.knn_ms.begin(), r.knn_ms.end());
    filter_ms.insert(filter_ms.end(), r.filter_ms.begin(), r.filter_ms.end());
    knn_ms.insert(knn_ms.end(), r.knn_ms.begin(), r.knn_ms.end());
    rates.push_back(static_cast<double>(qs.size()) / r.total_s);
    busy_s += r.total_s;
  }
  EndToEnd e;
  e.setup_s = Median(setups);
  e.peak_rss_mb = PeakRssMb();
  e.latency_p50_ms = Median(all_ms);
  // Median of the rounds' rates, so one slow round does not move it.
  e.throughput_per_s = Median(rates);
  AddEndToEnd(&report, e);
  report.Detail("scan.filter_p50_ms", Median(filter_ms), "ms");
  report.Detail("scan.knn_p50_ms", Median(knn_ms), "ms");
  std::fprintf(stderr, "[perfbench] range_scan: %d rounds of %zu queries, %.2f s busy\n",
               Rounds(args), qs.size(), busy_s);
  return report;
}

}  // namespace perfbench
