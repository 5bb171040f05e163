/// \file spatial_join.cc
/// Workload `spatial_join`: 500k skewed points joined to 2k polygons on
/// ContainedBy through the live-index, broadcast and cached-index
/// strategies, plus the paper's Figure-4 self join (withinDistance over
/// BSP-partitioned points). Index probes and exact refinement carry the
/// time here; partition copies are a small share.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "engine/context.h"
#include "geometry/kernels.h"
#include "geometry/prepared.h"
#include "index/packed_rtree.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace perfbench {
namespace {

using stark::Context;
using stark::Coordinate;
using stark::Envelope;
using stark::Geometry;
using stark::JoinOptions;
using stark::JoinPredicate;
using stark::STObject;
using Element = std::pair<STObject, int64_t>;
using Dataset = stark::SpatialRDD<int64_t>;
using Indexed = stark::IndexedSpatialRDD<int64_t>;
using IdPair = std::pair<int64_t, int64_t>;

constexpr size_t kPoints = 500'000;
constexpr size_t kPolygons = 2'000;
constexpr size_t kSelfPoints = 200'000;  // prefix of the points
constexpr double kSelfDistance = 0.04;
constexpr size_t kGridCells = 8;
constexpr size_t kBspMaxCost = 5'000;
constexpr size_t kIndexOrder = 10;
constexpr size_t kThreads = 2;  // engine parallelism, fixed on every commit
constexpr int kSetupReps = 3;
constexpr size_t kSampledPolygons = 64;
// One round runs each of the four joins once; a run makes
// ceil(seconds / kRoundSeconds) rounds after one warm-up round.
constexpr double kRoundSeconds = 1.2;

struct Input {
  std::vector<double> px, py;
  std::vector<std::vector<double>> rx, ry;  // closed polygon rings
  std::vector<Envelope> poly_env;

  std::vector<Element> Points(size_t n) const {
    std::vector<Element> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.emplace_back(STObject(Geometry::MakePoint(px[i], py[i])),
                       static_cast<int64_t>(i));
    }
    return out;
  }
  std::vector<Element> Polygons() const {
    std::vector<Element> out;
    out.reserve(rx.size());
    for (size_t g = 0; g < rx.size(); ++g) {
      std::vector<Coordinate> ring;
      for (size_t v = 0; v < rx[g].size(); ++v) ring.push_back({rx[g][v], ry[g][v]});
      out.emplace_back(STObject(Geometry::MakePolygon(std::move(ring)).ValueOrDie()),
                       static_cast<int64_t>(g));
    }
    return out;
  }
};

/// Convex polygons of radius 0.5 to 3 with 4 to 12 vertices, centred
/// uniformly over the universe.
Input MakeInput(uint64_t seed) {
  Rand rng(seed, 11);
  Input in;
  for (const auto& [x, y] : SkewedPoints(kPoints, &rng)) {
    in.px.push_back(x);
    in.py.push_back(y);
  }
  for (size_t g = 0; g < kPolygons; ++g) {
    const double cx = rng.Uniform(3, kUniverse - 3);
    const double cy = rng.Uniform(3, kUniverse - 3);
    const double r = rng.Uniform(0.5, 3.0);
    const int nv = static_cast<int>(rng.Int(4, 12));
    std::vector<double> angles;
    for (int v = 0; v < nv; ++v) angles.push_back(rng.Uniform(0, 2 * std::numbers::pi));
    std::sort(angles.begin(), angles.end());
    std::vector<double> xs, ys;
    Envelope env;
    for (double a : angles) {
      xs.push_back(cx + r * std::cos(a));
      ys.push_back(cy + r * std::sin(a));
      env.ExpandToInclude(Coordinate{xs.back(), ys.back()});
    }
    xs.push_back(xs.front());
    ys.push_back(ys.front());
    in.rx.push_back(std::move(xs));
    in.ry.push_back(std::move(ys));
    in.poly_env.push_back(env);
  }
  return in;
}

bool Inside(const Input& in, size_t point, size_t poly) {
  return RayCastInside(in.px[point], in.py[point], in.rx[poly].data(),
                       in.ry[poly].data(), in.rx[poly].size());
}

/// Brute-force ordered pair count of the withinDistance self join over the
/// first kSelfPoints points (identity pairs excluded), bucketed on a
/// d-wide grid.
uint64_t SelfJoinPairs(const Input& in) {
  const double d = kSelfDistance;
  const int64_t cells = static_cast<int64_t>(kUniverse / d) + 1;
  std::unordered_map<int64_t, std::vector<uint32_t>> grid;
  auto cell = [&](double v) { return static_cast<int64_t>(v / d); };
  for (uint32_t i = 0; i < kSelfPoints; ++i) {
    grid[cell(in.px[i]) * cells + cell(in.py[i])].push_back(i);
  }
  uint64_t pairs = 0;
  for (uint32_t i = 0; i < kSelfPoints; ++i) {
    const int64_t cx = cell(in.px[i]), cy = cell(in.py[i]);
    for (int64_t gx = cx - 1; gx <= cx + 1; ++gx) {
      for (int64_t gy = cy - 1; gy <= cy + 1; ++gy) {
        const auto it = grid.find(gx * cells + gy);
        if (it == grid.end()) continue;
        for (const uint32_t j : it->second) {
          if (j == i) continue;
          const double dx = in.px[i] - in.px[j], dy = in.py[i] - in.py[j];
          if (std::sqrt(dx * dx + dy * dy) <= d) ++pairs;
        }
      }
    }
  }
  return pairs;
}

/// The program's view of the inputs after set-up.
struct Prepared {
  Dataset points;
  Dataset polygons;
  Indexed indexed;
  Dataset self;
};

Prepared Setup(Context* ctx, const Input& in, double* setup_s,
               double* shuffle_s = nullptr, double* index_s = nullptr) {
  std::vector<Element> pts = in.Points(kPoints);
  std::vector<Element> polys = in.Polygons();
  std::vector<Element> self_pts = in.Points(kSelfPoints);
  std::vector<Coordinate> centroids;
  for (size_t i = 0; i < kSelfPoints; ++i) centroids.push_back({in.px[i], in.py[i]});
  const Envelope universe(0, 0, kUniverse, kUniverse);
  const size_t parts = kGridCells * kGridCells;

  Span span("bench.spatial_join.setup");
  const Timer timer;
  double shuffle = 0;
  auto grid = std::make_shared<stark::GridPartitioner>(universe, kGridCells);
  auto partition = [&](std::vector<Element> data,
                       std::shared_ptr<stark::SpatialPartitioner> p) {
    Dataset raw(stark::MakeRDD(ctx, std::move(data), parts));
    const Timer t;
    Dataset parted = raw.PartitionBy(std::move(p));
    shuffle += t.Seconds();
    Dataset cached = parted.Cache();
    cached.rdd().Count();
    return cached;
  };
  Dataset points = partition(std::move(pts), grid);
  Dataset polygons = partition(std::move(polys), grid);
  const Timer index_timer;
  Indexed indexed = points.Index(kIndexOrder);
  indexed.trees().Count();
  if (index_s != nullptr) *index_s = index_timer.Seconds();
  stark::BSPartitioner::Options bsp_options;
  bsp_options.max_cost = kBspMaxCost;
  Dataset self = partition(
      std::move(self_pts),
      std::make_shared<stark::BSPartitioner>(universe, centroids, bsp_options));
  *setup_s = timer.Seconds();
  if (shuffle_s != nullptr) *shuffle_s = shuffle;
  return Prepared{std::move(points), std::move(polygons), std::move(indexed),
                  std::move(self)};
}

const auto kProject = [](const Element& l, const Element& r) {
  return IdPair(l.second, r.second);
};

std::vector<IdPair> JoinLive(const Prepared& p) {
  Span span("bench.join.live");
  return stark::SpatialJoinProject(p.points, p.polygons,
                                   JoinPredicate::ContainedBy(), JoinOptions{},
                                   kProject)
      .Collect();
}

std::vector<IdPair> JoinBroadcast(const Prepared& p) {
  Span span("bench.join.broadcast");
  JoinOptions options;
  options.broadcast_threshold = kPolygons;
  return stark::SpatialJoinProject(p.points, p.polygons,
                                   JoinPredicate::ContainedBy(), options,
                                   kProject)
      .Collect();
}

std::vector<IdPair> JoinCached(const Prepared& p) {
  Span span("bench.join.cached");
  return stark::SpatialJoinProject(p.indexed, p.polygons,
                                   JoinPredicate::ContainedBy(), JoinOptions{},
                                   kProject)
      .Collect();
}

size_t SelfJoin(const Prepared& p) {
  Span span("bench.join.self");
  return stark::SelfSpatialJoin(p.self,
                                JoinPredicate::WithinDistance(kSelfDistance))
      .Count();
}

/// Checks that hold for any run: every emitted pair passes the ray cast,
/// and for the sampled polygons the emitted points are exactly the points
/// the ray cast finds.
struct Checker {
  const Input* in;
  std::vector<size_t> sampled;
  std::vector<Digest> sampled_want;

  Checker(const Input& input, uint64_t seed) : in(&input) {
    Rand rng(seed, 12);
    for (size_t k = 0; k < kSampledPolygons; ++k) {
      sampled.push_back(static_cast<size_t>(rng.Int(0, kPolygons - 1)));
    }
    for (const size_t g : sampled) {
      Digest d;
      const Envelope& e = in->poly_env[g];
      for (size_t i = 0; i < kPoints; ++i) {
        if (in->px[i] < e.min_x() || in->px[i] > e.max_x() ||
            in->py[i] < e.min_y() || in->py[i] > e.max_y()) {
          continue;
        }
        if (Inside(*in, i, g)) d.Add(i);
      }
      sampled_want.push_back(d);
    }
  }

  bool Check(const std::vector<IdPair>& pairs, Digest* all) const {
    std::vector<Digest> got(kPolygons);
    for (const auto& [point, poly] : pairs) {
      if (point < 0 || static_cast<size_t>(point) >= kPoints || poly < 0 ||
          static_cast<size_t>(poly) >= kPolygons) {
        return false;
      }
      if (!Inside(*in, static_cast<size_t>(point), static_cast<size_t>(poly))) {
        return false;
      }
      got[static_cast<size_t>(poly)].Add(static_cast<uint64_t>(point));
      all->Add(static_cast<uint64_t>(point) * kPolygons + static_cast<uint64_t>(poly));
    }
    for (size_t k = 0; k < sampled.size(); ++k) {
      if (got[sampled[k]] != sampled_want[k]) return false;
    }
    return true;
  }
};

struct RoundTimes {
  double live = 0, broadcast = 0, cached = 0, self = 0;
};

/// Runs the four joins once; every strategy must pass the checker and
/// agree with the others pair for pair, and the self join must match the
/// brute-force count.
RoundTimes RunRound(const Prepared& p, const Checker& checker,
                    uint64_t self_pairs, Report* report) {
  RoundTimes t;
  Digest live_all;
  {
    const Timer timer;
    const std::vector<IdPair> pairs = JoinLive(p);
    t.live = timer.Seconds();
    report->Check(checker.Check(pairs, &live_all), "live-index join");
  }
  {
    const Timer timer;
    const std::vector<IdPair> pairs = JoinBroadcast(p);
    t.broadcast = timer.Seconds();
    Digest all;
    report->Check(checker.Check(pairs, &all) && all == live_all,
                  "broadcast join");
  }
  {
    const Timer timer;
    const std::vector<IdPair> pairs = JoinCached(p);
    t.cached = timer.Seconds();
    Digest all;
    report->Check(checker.Check(pairs, &all) && all == live_all,
                  "cached-index join");
  }
  {
    const Timer timer;
    const size_t pairs = SelfJoin(p);
    t.self = timer.Seconds();
    report->Check(pairs == self_pairs,
                  "self join: " + std::to_string(pairs) + " pairs, brute force " +
                      std::to_string(self_pairs));
  }
  return t;
}

void TraceLayers(Context* ctx, const Input& in, const Checker& checker,
                 uint64_t self_pairs, Report* report) {
  // An operation is one join job; the per-operation figures are means over
  // the four jobs of a round: three ContainedBy joins and the self join.
  Layers layers;
  double setup_s = 0, shuffle_s = 0, index_s = 0;
  const Prepared p = Setup(ctx, in, &setup_s, &shuffle_s, &index_s);
  report->Detail("partition.shuffle_s", shuffle_s, "s");
  report->Detail("index.build_s", index_s, "s");
  RunRound(p, checker, self_pairs, report);  // warm-up

  // Untraced and traced rounds alternate for the tracing overhead.
  std::vector<double> plain_s, traced_s;
  auto total = [](const RoundTimes& t) {
    return t.live + t.broadcast + t.cached + t.self;
  };
  uint64_t jobs = 0;
  for (int rep = 0; rep < 2; ++rep) {
    {
      const Untraced off;
      const uint64_t jobs0 = CounterValue("engine.jobs");
      plain_s.push_back(total(RunRound(p, checker, self_pairs, report)));
      jobs += CounterValue("engine.jobs") - jobs0;
    }
    traced_s.push_back(total(RunRound(p, checker, self_pairs, report)));
  }
  layers.trace_overhead_pct = (Median(traced_s) / Median(plain_s) - 1.0) * 100.0;
  layers.jobs_per_op = static_cast<double>(jobs) / 8.0;  // 2 rounds x 4 jobs

  // Partition-pair planning counters and task skew of one live join.
  const uint64_t enumerated0 = CounterValue("engine.join.pairs_enumerated");
  const uint64_t pruned0 = CounterValue("engine.join.pairs_pruned");
  const size_t pairs = JoinLive(p).size();
  report->Detail("join.pairs_enumerated",
                 static_cast<double>(CounterValue("engine.join.pairs_enumerated") - enumerated0),
                 "count");
  report->Detail("join.pairs_pruned",
                 static_cast<double>(CounterValue("engine.join.pairs_pruned") - pruned0),
                 "count");
  {
    const std::vector<stark::obs::TaskSpan> spans = stark::obs::DefaultTracer().Spans();
    uint64_t last_job = 0;
    for (const auto& s : spans) {
      if (s.stage == "spatial.join.probe") last_job = std::max(last_job, s.job_id);
    }
    std::vector<double> task_ms;
    for (const auto& s : spans) {
      if (s.stage == "spatial.join.probe" && s.job_id == last_job) {
        task_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    const double max_ms = task_ms.empty() ? 0 : *std::max_element(task_ms.begin(), task_ms.end());
    report->Detail("join.task_skew", task_ms.empty() ? 0 : max_ms / Median(task_ms), "ratio");
  }

  // Materializing every cached partition of both sides, as each join does,
  // and of the self join's single side.
  std::vector<double> mat_ms, self_mat_ms;
  for (int rep = 0; rep < 3; ++rep) {
    {
      Span span("bench.engine.materialize");
      const Timer t;
      for (size_t part = 0; part < p.self.NumPartitions(); ++part) {
        p.self.rdd().ComputePartition(part);
      }
      self_mat_ms.push_back(t.Ms());
    }
    Span span("bench.engine.materialize");
    const Timer t;
    for (size_t part = 0; part < p.points.NumPartitions(); ++part) {
      p.points.rdd().ComputePartition(part);
    }
    for (size_t part = 0; part < p.polygons.NumPartitions(); ++part) {
      p.polygons.rdd().ComputePartition(part);
    }
    mat_ms.push_back(t.Ms());
  }
  report->Detail("engine.materialize_ms", Median(mat_ms), "ms/join");

  // Probe of the cached trees with the polygon envelopes, then the exact
  // point-in-polygon refinement of those candidates over prepared polygons.
  const std::vector<std::vector<Indexed::TreePtr>> trees =
      p.indexed.trees().CollectPartitions();
  const std::vector<Envelope>& extents = *p.indexed.extents();
  std::vector<std::vector<uint32_t>> cands(kPolygons);
  double candidates = 0;
  std::vector<double> probe_ms, pip_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Span span("bench.index.probe");
    const Timer t;
    for (size_t g = 0; g < kPolygons; ++g) {
      cands[g].clear();
      for (size_t part = 0; part < trees.size(); ++part) {
        if (!extents[part].Intersects(in.poly_env[g])) continue;
        for (const Indexed::TreePtr& tree : trees[part]) {
          tree->Query(in.poly_env[g], [&](const Envelope&, const Element& e) {
            cands[g].push_back(static_cast<uint32_t>(e.second));
          });
        }
      }
    }
    probe_ms.push_back(t.Ms());
  }
  for (const auto& c : cands) candidates += static_cast<double>(c.size());
  report->Detail("index.probe_ms", Median(probe_ms), "ms/join");
  report->Detail("join.candidates", candidates, "pairs");
  report->Detail("join.refine_yield", static_cast<double>(pairs) / candidates, "ratio");
  const std::vector<Element> polys = in.Polygons();
  std::vector<uint32_t> out;
  for (int rep = 0; rep < 3; ++rep) {
    Span span("bench.geometry.pip_refine");
    const Timer t;
    for (size_t g = 0; g < kPolygons; ++g) {
      const stark::PreparedGeometry prep(polys[g].first.geo());
      out.resize(cands[g].size());
      stark::RefineContainedByBatch(prep, in.px.data(), in.py.data(),
                                    cands[g].data(), cands[g].size(), out.data());
    }
    pip_ms.push_back(t.Ms());
  }
  report->Detail("geometry.pip_refine_ms", Median(pip_ms), "ms/join");

  // withinDistance refinement of the self join's candidates.
  std::vector<std::pair<Envelope, uint32_t>> entries;
  for (uint32_t i = 0; i < kSelfPoints; ++i) {
    entries.emplace_back(Envelope(in.px[i], in.py[i], in.px[i], in.py[i]), i);
  }
  const stark::PackedRTree<uint32_t> self_tree(kIndexOrder, std::move(entries));
  std::vector<std::vector<uint32_t>> self_cands(kSelfPoints);
  std::vector<double> self_probe_ms;
  double self_candidates = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Span span("bench.index.self_probe");
    const Timer t;
    for (uint32_t i = 0; i < kSelfPoints; ++i) {
      self_cands[i].clear();
      const Envelope probe = Envelope(in.px[i], in.py[i], in.px[i], in.py[i])
                                 .Expanded(kSelfDistance);
      self_tree.Query(probe, [&](const Envelope&, const uint32_t& j) {
        self_cands[i].push_back(j);
      });
    }
    self_probe_ms.push_back(t.Ms());
  }
  for (const auto& c : self_cands) self_candidates += static_cast<double>(c.size());
  std::vector<double> dist_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Span span("bench.geometry.distance_refine");
    const Timer t;
    for (uint32_t i = 0; i < kSelfPoints; ++i) {
      const stark::PreparedGeometry prep(Geometry::MakePoint(in.px[i], in.py[i]));
      out.resize(self_cands[i].size());
      stark::RefineWithinDistanceBatch(prep, in.px.data(), in.py.data(),
                                       self_cands[i].data(), self_cands[i].size(),
                                       kSelfDistance, out.data());
    }
    dist_ms.push_back(t.Ms());
  }
  report->Detail("geometry.distance_refine_ms", Median(dist_ms), "ms/join");
  // Steps per join job: materializing the cached partitions (engine),
  // probing packed R-trees (index) and the exact point-in-polygon or
  // distance kernels (geometry); three ContainedBy joins to one self join.
  layers.access_ms = (3 * Median(mat_ms) + Median(self_mat_ms)) / 4;
  layers.probe_ms = (3 * Median(probe_ms) + Median(self_probe_ms)) / 4;
  layers.refine_ms = (3 * Median(pip_ms) + Median(dist_ms)) / 4;
  layers.candidates = (3 * candidates + self_candidates) / 4;
  // Self-join candidates include each point itself, which the join drops.
  layers.refine_yield = (3 * static_cast<double>(pairs) + static_cast<double>(self_pairs)) /
                        (3 * candidates + self_candidates);
  layers.job_floor_ms = JobFloorMs(ctx, p.points.NumPartitions(), 10);

  // The same fixed work (one live join) at parallelism 1 and at the
  // workload's parallelism.
  Context serial(1);
  double s = 0;
  const Prepared p1 = Setup(&serial, in, &s);
  std::vector<double> t1, tp;
  for (int rep = 0; rep < 3; ++rep) {
    Timer a;
    JoinLive(p1);
    t1.push_back(a.Seconds());
    Timer b;
    JoinLive(p);
    tp.push_back(b.Seconds());
  }
  report->Detail("engine.parallel_speedup", Median(t1) / Median(tp), "ratio");
  AddLayers(report, layers);
}

}  // namespace

Report RunSpatialJoin(const Args& args) {
  Report report;
  const Input in = MakeInput(args.seed);
  const Checker checker(in, args.seed);
  const uint64_t self_pairs = SelfJoinPairs(in);
  Context ctx(args.threads ? args.threads : kThreads);

  if (args.trace) {
    TraceLayers(&ctx, in, checker, self_pairs, &report);
    return report;
  }

  std::vector<double> setups;
  std::optional<Prepared> p;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    p.reset();
    double s = 0;
    p.emplace(Setup(&ctx, in, &s));
    setups.push_back(s);
  }
  RunRound(*p, checker, self_pairs, &report);  // warm-up
  const int rounds =
      std::max(1, static_cast<int>(std::ceil(args.seconds / kRoundSeconds)));
  std::vector<double> live, broadcast, cached, self, job_ms, rates;
  for (int round = 0; round < rounds; ++round) {
    const RoundTimes t = RunRound(*p, checker, self_pairs, &report);
    live.push_back(t.live);
    broadcast.push_back(t.broadcast);
    cached.push_back(t.cached);
    self.push_back(t.self);
    const double round_s = t.live + t.broadcast + t.cached + t.self;
    job_ms.push_back(round_s * 1e3 / 4);
    rates.push_back(4 / round_s);
  }
  // An operation is one join job. Its latency is the mean job time of a
  // round, so every strategy weighs in; medians are taken over rounds.
  EndToEnd e;
  e.setup_s = Median(setups);
  e.peak_rss_mb = PeakRssMb();
  e.latency_p50_ms = Median(job_ms);
  e.throughput_per_s = Median(rates);
  AddEndToEnd(&report, e);
  report.Detail("join_live_s", Median(live), "s");
  report.Detail("join_broadcast_s", Median(broadcast), "s");
  report.Detail("join_cached_s", Median(cached), "s");
  report.Detail("selfjoin_s", Median(self), "s");
  std::fprintf(stderr, "[perfbench] spatial_join: %d rounds, %llu self-join pairs\n",
               rounds, static_cast<unsigned long long>(self_pairs));
  return report;
}

}  // namespace perfbench
