/// \file snapshot_serve.cc
/// Workload `snapshot_serve`: a serve::Server over a catalog dataset of
/// 500k events. One generator thread sends interactive snapshot FILTERs to
/// a few sessions on a fixed schedule (open loop, below capacity) while an
/// ingester publishes a small batch about once a second. Reads take the
/// snapshot fast path (admission, Piglet, pinning, a probe of the pinned
/// packed R-tree); each ingest rebuilds the whole snapshot.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/columnar.h"
#include "engine/context.h"
#include "geometry/prepared.h"
#include "piglet/parser.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "spatial_rdd/columnar_refine.h"

namespace perfbench {
namespace {

using stark::Envelope;
using stark::Geometry;
using stark::JoinPredicate;
using stark::STObject;
using stark::stream::StreamEvent;

constexpr size_t kEvents = 500'000;
constexpr size_t kBatchEvents = 100;
constexpr int64_t kTimeRange = 1'000'000;
constexpr size_t kDistinctQueries = 64;
constexpr size_t kRowsPerQuery = 48;
constexpr size_t kSessions = 4;
// Thread budget (4 cores): two query workers, one engine thread (the
// snapshot fast path runs inline on the query worker), the generator and
// the ingester.
constexpr size_t kQueryThreads = 2;
constexpr size_t kEngineThreads = 1;
constexpr double kRate = 60.0;            // queries per second, open loop
constexpr double kIngestPeriodS = 1.0;    // one batch about once a second
constexpr int kSetupReps = 3;
constexpr size_t kTreeOrder = 16;
const char* const kCategories[] = {"politics", "sports", "culture", "disaster",
                                   "science"};

struct Query {
  Envelope box;
  int64_t t0 = 0, t1 = 0;
  std::string script;
};

struct Input {
  std::vector<StreamEvent> base;
  std::vector<std::vector<StreamEvent>> batches;  // ingest batch k+1
  std::vector<Query> queries;
};

StreamEvent MakeEvent(int64_t id, double x, double y, int64_t t) {
  return StreamEvent(id, kCategories[id % 5],
                     STObject(Geometry::MakePoint(x, y), t));
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Input MakeInput(uint64_t seed, size_t num_batches) {
  Rand rng(seed, 21);
  Input in;
  const auto pts = SkewedPoints(kEvents, &rng);
  in.base.reserve(kEvents);
  for (size_t i = 0; i < kEvents; ++i) {
    in.base.push_back(MakeEvent(static_cast<int64_t>(i), pts[i].first,
                                pts[i].second, rng.Int(0, kTimeRange - 1)));
  }
  for (size_t k = 0; k < num_batches; ++k) {
    std::vector<StreamEvent> batch;
    const auto bp = SkewedPoints(kBatchEvents, &rng);
    for (size_t j = 0; j < kBatchEvents; ++j) {
      batch.push_back(MakeEvent(static_cast<int64_t>(10'000'000 + k * 1000 + j),
                                bp[j].first, bp[j].second,
                                rng.Int(0, kTimeRange - 1)));
    }
    in.batches.push_back(std::move(batch));
  }
  // Selective probes: around QueryCentre, a tenth of the time range, with
  // the box sized so that it holds exactly kRowsPerQuery base events; the
  // cost of a query then does not depend on where the seed put it.
  for (size_t q = 0; q < kDistinctQueries; ++q) {
    const auto [cx, cy] = QueryCentre(q, &rng);
    Query query;
    query.t0 = rng.Int(0, kTimeRange - kTimeRange / 10);
    query.t1 = query.t0 + kTimeRange / 10;
    std::vector<double> dist;
    for (const StreamEvent& e : in.base) {
      const int64_t t = e.event_time();
      if (t < query.t0 || t > query.t1) continue;
      const auto& p = e.obj.geo().AsPoint();
      dist.push_back(std::max(std::fabs(p.x - cx), std::fabs(p.y - cy)));
    }
    std::nth_element(dist.begin(), dist.begin() + kRowsPerQuery, dist.end());
    const double outer = dist[kRowsPerQuery];
    const double inner =
        *std::max_element(dist.begin(), dist.begin() + kRowsPerQuery);
    const double half = (inner + outer) / 2;
    query.box = Envelope(cx - half, cy - half, cx + half, cy + half);
    const std::string x0 = Num(query.box.min_x()), y0 = Num(query.box.min_y());
    const std::string x1 = Num(query.box.max_x()), y1 = Num(query.box.max_y());
    query.script = "hits = FILTER events BY INTERSECTS('POLYGON((" + x0 + " " +
                   y0 + ", " + x1 + " " + y0 + ", " + x1 + " " + y1 + ", " +
                   x0 + " " + y1 + ", " + x0 + " " + y0 + "))', " +
                   std::to_string(query.t0) + ", " + std::to_string(query.t1) +
                   ");\nDUMP hits;\n";
    in.queries.push_back(std::move(query));
  }
  return in;
}

Digest BruteForce(const Query& q, const std::vector<StreamEvent>& events) {
  Digest d;
  for (const StreamEvent& e : events) {
    const auto& p = e.obj.geo().AsPoint();
    const int64_t t = e.event_time();
    if (p.x >= q.box.min_x() && p.x <= q.box.max_x() && p.y >= q.box.min_y() &&
        p.y <= q.box.max_y() && t >= q.t0 && t <= q.t1) {
      d.Add(static_cast<uint64_t>(e.id));
    }
  }
  return d;
}

/// Ids of the rows a DUMP printed: each line is "(id, category, ...)".
bool ParseDump(const std::string& out, Digest* d) {
  size_t pos = 0;
  while (pos < out.size()) {
    const size_t end = out.find('\n', pos);
    const size_t stop = end == std::string::npos ? out.size() : end;
    if (stop > pos) {
      if (out[pos] != '(') return false;
      char* num_end = nullptr;
      const long long id = std::strtoll(out.c_str() + pos + 1, &num_end, 10);
      if (num_end == out.c_str() + pos + 1 || *num_end != ',') return false;
      d->Add(static_cast<uint64_t>(id));
    }
    pos = stop + 1;
  }
  return true;
}

/// A running server over a freshly loaded catalog.
struct Service {
  std::unique_ptr<stark::serve::Catalog> catalog;
  std::unique_ptr<stark::serve::Server> server;
  std::vector<std::unique_ptr<stark::serve::Session>> sessions;
  std::map<uint64_t, size_t> batches_of_epoch;  // epoch -> batches included
  std::mutex mu;                                 // guards batches_of_epoch

  ~Service() {
    sessions.clear();
    if (server) server->Shutdown();
  }
};

std::unique_ptr<Service> Setup(const Input& in, double* setup_s) {
  std::vector<StreamEvent> base = in.base;
  auto svc = std::make_unique<Service>();
  Span span("bench.snapshot_serve.setup");
  const Timer timer;
  svc->catalog = std::make_unique<stark::serve::Catalog>();
  if (!svc->catalog->CreateDataset("events", kTreeOrder).ok()) return nullptr;
  auto epoch = svc->catalog->Ingest("events", std::move(base));
  if (!epoch.ok()) return nullptr;
  svc->batches_of_epoch[epoch.ValueOrDie()] = 0;
  stark::serve::ServerOptions options;
  options.query_threads = kQueryThreads;
  options.engine_threads = kEngineThreads;
  svc->server = std::make_unique<stark::serve::Server>(svc->catalog.get(), options);
  if (!svc->server->Start().ok()) return nullptr;
  for (size_t s = 0; s < kSessions; ++s) svc->sessions.push_back(svc->server->OpenSession());
  *setup_s = timer.Seconds();
  return svc;
}

/// Expected digests: per distinct query over the base, and per ingest
/// batch, so any epoch's answer is the base plus its batches.
struct Oracle {
  std::vector<Digest> base;
  std::vector<std::vector<Digest>> batch;  // [query][batch]

  Oracle(const Input& in) {
    for (const Query& q : in.queries) {
      base.push_back(BruteForce(q, in.base));
      std::vector<Digest> per;
      for (const auto& b : in.batches) per.push_back(BruteForce(q, b));
      batch.push_back(std::move(per));
    }
  }
  Digest Want(size_t q, size_t batches) const {
    Digest d = base[q];
    for (size_t k = 0; k < batches; ++k) d.Merge(batch[q][k]);
    return d;
  }
};

struct Completed {
  stark::serve::QueryResult result;
  double latency_ms = 0;  // from the query's due time
  double late_ms = 0;     // generator lateness at send
};

struct LoopResult {
  std::vector<Completed> done;
  std::vector<double> ingest_ms;
  int64_t epochs_live_max = 0;
};

/// The open loop: queries due at a fixed rate from the start, each timed
/// from its due time to its completion; the ingester publishes one batch
/// per period. Returns after every query completed and the ingester ended.
LoopResult OpenLoop(Service* svc, const Input& in, size_t first_batch,
                    size_t num_queries, size_t num_ingests) {
  LoopResult r;
  r.done.resize(num_queries);
  std::vector<std::future<stark::serve::QueryResult>> futures(num_queries);
  std::vector<uint64_t> due(num_queries);
  std::mutex mu;
  std::condition_variable cv;
  size_t published = 0;  // guarded by mu
  stark::obs::Gauge* const live = stark::obs::DefaultMetrics().GetGauge("serve.epochs.live");

  const uint64_t start = NowNs() + 5'000'000;
  const uint64_t period_ns = static_cast<uint64_t>(1e9 / kRate);
  for (size_t i = 0; i < num_queries; ++i) due[i] = start + i * period_ns;

  std::thread waiter([&] {
    for (size_t i = 0; i < num_queries; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i; });
      }
      r.done[i].result = futures[i].get();
      r.done[i].latency_ms = static_cast<double>(NowNs() - due[i]) / 1e6;
      r.epochs_live_max = std::max(r.epochs_live_max, live->Value());
    }
  });
  std::thread ingester([&] {
    for (size_t k = 0; k < num_ingests; ++k) {
      const uint64_t at = start + static_cast<uint64_t>((k + 0.5) * kIngestPeriodS * 1e9);
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<int64_t>(at) - static_cast<int64_t>(NowNs())));
      std::vector<StreamEvent> batch = in.batches[first_batch + k];
      const Timer t;
      auto epoch = svc->catalog->Ingest("events", std::move(batch));
      r.ingest_ms.push_back(t.Ms());
      if (epoch.ok()) {
        std::lock_guard<std::mutex> lock(svc->mu);
        svc->batches_of_epoch[epoch.ValueOrDie()] = first_batch + k + 1;
      }
    }
  });
  for (size_t i = 0; i < num_queries; ++i) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        static_cast<int64_t>(due[i]) - static_cast<int64_t>(NowNs())));
    const uint64_t now = NowNs();
    r.done[i].late_ms = now > due[i] ? static_cast<double>(now - due[i]) / 1e6 : 0;
    futures[i] = svc->sessions[i % kSessions]->Submit(in.queries[i % kDistinctQueries].script);
    {
      std::lock_guard<std::mutex> lock(mu);
      published = i + 1;
    }
    cv.notify_one();
  }
  waiter.join();
  ingester.join();
  return r;
}

void Verify(Service* svc, const Oracle& oracle, const LoopResult& r,
            Report* report) {
  for (size_t i = 0; i < r.done.size(); ++i) {
    const stark::serve::QueryResult& res = r.done[i].result;
    const size_t q = i % kDistinctQueries;
    bool ok = res.status.ok();
    if (ok) {
      std::lock_guard<std::mutex> lock(svc->mu);
      const auto it = svc->batches_of_epoch.find(res.epoch);
      Digest got;
      ok = it != svc->batches_of_epoch.end() && ParseDump(res.output, &got) &&
           got == oracle.Want(q, it->second);
    }
    report->Check(ok, "served query " + std::to_string(i) + " (" +
                          res.status.ToString() + ", epoch " +
                          std::to_string(res.epoch) + ")");
  }
}

/// The warm-up: every distinct query once, synchronously.
void WarmUp(Service* svc, const Input& in, const Oracle& oracle, Report* report) {
  for (size_t q = 0; q < in.queries.size(); ++q) {
    stark::serve::QueryResult res = svc->sessions[q % kSessions]->Run(in.queries[q].script);
    Digest got;
    report->Check(res.status.ok() && ParseDump(res.output, &got) &&
                      got == oracle.Want(q, 0),
                  "warm-up query " + std::to_string(q));
  }
}

std::vector<double> Latencies(const LoopResult& r) {
  std::vector<double> v;
  for (const Completed& c : r.done) v.push_back(c.latency_ms);
  return v;
}

/// Served queries per second: the count over the time from the first
/// query's due time to the last completion (query i is due i periods after
/// the first).
double Throughput(const LoopResult& r) {
  const double period_ms = 1e3 / kRate;
  double end_ms = 0;
  for (size_t i = 0; i < r.done.size(); ++i) {
    end_ms = std::max(end_ms, static_cast<double>(i) * period_ms + r.done[i].latency_ms);
  }
  return static_cast<double>(r.done.size()) / (end_ms / 1e3);
}

void TraceLayers(const Input& in, const Oracle& oracle, Report* report) {
  double setup_s = 0;
  std::unique_ptr<Service> svc = Setup(in, &setup_s);
  if (svc == nullptr) {
    report->Check(false, "snapshot_serve set-up");
    return;
  }
  WarmUp(svc.get(), in, oracle, report);
  // An operation is one served query.
  Layers layers;
  // An untraced and a traced half-length loop; the second one ingests the
  // batches after those of the first.
  const size_t half_ingests = std::max<size_t>(1, in.batches.size() / 2);
  const size_t half_queries =
      static_cast<size_t>(kRate * kIngestPeriodS * static_cast<double>(half_ingests));
  LoopResult plain;
  {
    const Untraced off;
    const uint64_t jobs0 = CounterValue("engine.jobs");
    plain = OpenLoop(svc.get(), in, 0, half_queries, half_ingests);
    layers.jobs_per_op = static_cast<double>(CounterValue("engine.jobs") - jobs0) /
                         static_cast<double>(half_queries);
  }
  Verify(svc.get(), oracle, plain, report);
  LoopResult traced = OpenLoop(svc.get(), in, half_ingests, half_queries,
                               in.batches.size() - half_ingests);
  Verify(svc.get(), oracle, traced, report);
  layers.trace_overhead_pct =
      (Median(Latencies(traced)) / Median(Latencies(plain)) - 1.0) * 100.0;

  std::vector<double> queue_ms, exec_ms, late_ms;
  for (const Completed& c : plain.done) {
    queue_ms.push_back(static_cast<double>(c.result.queue_ns) / 1e6);
    exec_ms.push_back(static_cast<double>(c.result.exec_ns) / 1e6);
    late_ms.push_back(c.late_ms);
  }
  report->Detail("serve.queue_wait_p50_ms", Median(queue_ms), "ms");
  report->Detail("serve.exec_p50_ms", Median(exec_ms), "ms");
  report->Detail("serve.epochs_live_max", static_cast<double>(plain.epochs_live_max), "count");
  report->Detail("bench.generator_late_p99_ms", Quantile(late_ms, 0.99), "ms");

  std::vector<double> parse_us;
  for (int rep = 0; rep < 20; ++rep) {
    for (const Query& q : in.queries) {
      Span span("bench.piglet.parse");
      const Timer t;
      const bool ok = stark::piglet::Parse(q.script).ok();
      parse_us.push_back(t.Seconds() * 1e6);
      if (!ok) report->Check(false, "piglet parse");
    }
  }
  report->Detail("piglet.parse_us", Median(parse_us), "us");

  std::vector<double> pin_us, probe_us;
  // Pins take well under a microsecond: each sample is the mean of 1000.
  for (int rep = 0; rep < 20; ++rep) {
    Span span("bench.serve.pin");
    const Timer t;
    for (int i = 0; i < 1000; ++i) auto pin = svc->catalog->Pin("events");
    pin_us.push_back(t.Seconds() * 1e6 / 1000);
  }
  report->Detail("serve.pin_us", Median(pin_us), "us");
  auto pinned = svc->catalog->Pin("events");
  if (!pinned.ok()) {
    report->Check(false, "pin");
    return;
  }
  const auto state = pinned.ValueOrDie().state();
  const std::vector<StreamEvent>& events = *state->events;
  const stark::ColumnarBatch batch = stark::ColumnarBatch::Build(
      events, [](const StreamEvent& e) -> const STObject& { return e.obj; });
  const JoinPredicate pred = JoinPredicate::Intersects();
  std::vector<double> refine_us;
  double candidates = 0, kept = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (const Query& q : in.queries) {
      std::vector<uint32_t> cand;
      {
        Span span("bench.index.snapshot_probe");
        const Timer t;
        state->tree->Query(q.box, [&cand](const Envelope&, const uint32_t& j) {
          cand.push_back(j);
        });
        probe_us.push_back(t.Seconds() * 1e6);
      }
      candidates += static_cast<double>(cand.size());
      Span span("bench.spatial_rdd.snapshot_refine");
      const STObject obj(Geometry::MakeBox(q.box), q.t0, q.t1);
      const Timer t;
      const stark::PreparedGeometry prep(obj.geo());
      stark::columnar_refine::Stats cstats;
      std::vector<uint32_t> scratch;
      stark::columnar_refine::RefineCandidates(
          batch, pred, obj, prep, /*cand_left=*/true, &cand,
          [&events](uint32_t j) -> const STObject& { return events[j].obj; },
          &cstats, &scratch);
      refine_us.push_back(t.Seconds() * 1e6);
      kept += static_cast<double>(cand.size());
    }
  }
  // A served query's steps: pinning the epoch (serve), probing its packed
  // R-tree (index) and the exact box and instant test of the candidates
  // (spatial_rdd's columnar refine), each timed on the pinned epoch.
  layers.access_ms = Median(pin_us) / 1e3;
  layers.probe_ms = Median(probe_us) / 1e3;
  layers.refine_ms = Median(refine_us) / 1e3;
  const double probes = 20.0 * static_cast<double>(in.queries.size());
  layers.candidates = candidates / probes;
  layers.refine_yield = candidates > 0 ? kept / candidates : 0;
  {
    stark::Context engine(kEngineThreads);
    layers.job_floor_ms = JobFloorMs(&engine, 1, 50);
  }

  std::vector<double> rebuild_ms;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<StreamEvent> events = *state->events;
    Span span("bench.serve.rebuild");
    const Timer t;
    const stark::serve::DatasetSnapshot snap =
        stark::serve::BuildSnapshot(state->version + 1, std::move(events), kTreeOrder);
    rebuild_ms.push_back(t.Ms());
  }
  report->Detail("serve.rebuild_ms", Median(rebuild_ms), "ms");
  AddLayers(report, layers);
}

}  // namespace

Report RunSnapshotServe(const Args& args) {
  Report report;
  // The open loop runs for --seconds.
  const double loop_s = static_cast<double>(args.seconds);
  const size_t num_ingests =
      std::max<size_t>(1, static_cast<size_t>(loop_s / kIngestPeriodS));
  const size_t num_queries = static_cast<size_t>(kRate * loop_s);
  const Input in = MakeInput(args.seed, num_ingests);
  const Oracle oracle(in);
  {
    double rows = 0;
    for (const Digest& d : oracle.base) rows += static_cast<double>(d.count);
    std::fprintf(stderr, "[perfbench] snapshot_serve: %.0f rows per query\n",
                 rows / static_cast<double>(oracle.base.size()));
  }

  if (args.trace) {
    TraceLayers(in, oracle, &report);
    return report;
  }

  std::vector<double> setups;
  std::unique_ptr<Service> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    double s = 0;
    svc = Setup(in, &s);
    if (svc == nullptr) {
      report.Check(false, "snapshot_serve set-up");
      return report;
    }
    setups.push_back(s);
  }
  WarmUp(svc.get(), in, oracle, &report);
  const LoopResult r = OpenLoop(svc.get(), in, 0, num_queries, num_ingests);
  Verify(svc.get(), oracle, r, &report);
  const std::vector<double> lat = Latencies(r);
  EndToEnd e;
  e.setup_s = Median(setups);
  e.peak_rss_mb = PeakRssMb();
  e.latency_p50_ms = Median(lat);
  e.throughput_per_s = Throughput(r);
  AddEndToEnd(&report, e);
  report.Detail("query_p99_ms", TailQuantile(lat, 0.99), "ms");
  report.Detail("ingest_p50_ms", Median(r.ingest_ms), "ms");
  std::vector<double> late;
  for (const Completed& c : r.done) late.push_back(c.late_ms);
  std::fprintf(stderr,
               "[perfbench] snapshot_serve: %zu queries at %.0f/s, %zu ingests, "
               "generator late p99 %.3f ms\n",
               num_queries, kRate, r.ingest_ms.size(), Quantile(late, 0.99));
  return report;
}

}  // namespace perfbench
