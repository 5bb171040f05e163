/// \file event_stream.cc
/// Workload `event_stream`: a seeded GeneratorSource with bounded disorder
/// feeds tumbling event-time windows with a spatial COUNT pattern; every
/// fired window runs as one engine job. Per-job dispatch, the window
/// manager and CEP carry the time; no partition cache is involved.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "engine/context.h"
#include "stream/cep.h"
#include "stream/source.h"
#include "stream/stream_context.h"
#include "stream/window.h"

namespace perfbench {
namespace {

using stark::Context;
using stark::Envelope;
using stark::Geometry;
using stark::JoinPredicate;
using stark::STObject;
namespace st = stark::stream;

constexpr size_t kEvents = 400'000;
constexpr int64_t kDisorder = 64;       // ticks; the watermark bound covers it
constexpr int64_t kWindow = 2'000;      // ticks = events per window
constexpr int64_t kThreshold = 100;     // COUNT >= 100 matching events
// Engine parallelism = tasks per window. One task per window job keeps the
// job on the engine's single-task path, with no cross-thread handoff whose
// scheduling noise would swamp the per-job cost being measured.
constexpr size_t kThreads = 1;
constexpr int kSetupReps = 3;
const char* const kCategory = "disaster";  // one event in five
// One round replays the whole stream once; a run makes
// ceil(seconds / kRoundSeconds) rounds after one warm-up round.
constexpr double kRoundSeconds = 0.3;
// The gated run replays the stream on two independent stream contexts side
// by side, each on its own thread and engine context. One single-threaded
// stream's speed swung by up to 40% with the load on the one core it ran
// on; the sum of two streams on two cores swings less.
constexpr size_t kStreams = 2;

/// The pattern's region: the box [20, 70] x [20, 70] (a quarter of the
/// universe), untimed, so it constrains space only.
const Envelope kRegion(20, 20, 70, 70);

st::GeneratorOptions GenOptions(uint64_t seed) {
  st::GeneratorOptions gen;
  gen.count = kEvents;
  gen.seed = seed;
  gen.universe = Envelope(0, 0, kUniverse, kUniverse);
  gen.time_step = 1;
  gen.disorder = kDisorder;
  return gen;
}

st::PatternSpec CountPattern() {
  st::PatternSpec pattern;
  pattern.kind = st::PatternKind::kCount;
  st::StepPredicate step;
  step.category = kCategory;
  step.region = STObject(Geometry::MakeBox(kRegion));
  step.pred = JoinPredicate::Intersects();
  pattern.steps.push_back(step);
  pattern.cmp = st::CountCmp::kGe;
  pattern.threshold = kThreshold;
  return pattern;
}

/// Forwards to the long-lived generator and stamps each poll, so the
/// benchmark can time a window from the poll that delivered its last event
/// to its arrival at the sink.
class TimedSource final : public st::StreamSource {
 public:
  explicit TimedSource(st::GeneratorSource* inner) : inner_(inner) {}
  const std::string& name() const override { return inner_->name(); }
  std::vector<st::StreamEvent> Poll(size_t max_events) override {
    std::vector<st::StreamEvent> batch = inner_->Poll(max_events);
    const uint64_t now = NowNs();
    for (const st::StreamEvent& e : batch) {
      const size_t id = static_cast<size_t>(e.id);
      if (id < polled_at_.size()) polled_at_[id] = now;
    }
    return batch;
  }
  bool Exhausted() const override { return inner_->Exhausted(); }
  void Reset() override { inner_->Reset(); }

  /// Poll time of event \p id (ids are 0..kEvents-1).
  uint64_t PolledAt(int64_t id) const {
    return id >= 0 && static_cast<size_t>(id) < polled_at_.size()
               ? polled_at_[static_cast<size_t>(id)]
               : 0;
  }
 private:
  st::GeneratorSource* inner_;
  std::vector<uint64_t> polled_at_ = std::vector<uint64_t>(kEvents, 0);
};

/// Reference figures from the generator's schedule: events carry ids and
/// times 0..kEvents-1, so the tumbling windows are dense, each holds
/// kWindow events (the last one the remainder), and a window's COUNT is a
/// recount of its events with the benchmark's own category and box tests.
struct Oracle {
  std::vector<int64_t> counts;  // per window start / kWindow

  explicit Oracle(uint64_t seed) {
    st::GeneratorSource gen(GenOptions(seed));
    counts.assign(static_cast<size_t>((kEvents + kWindow - 1) / kWindow), 0);
    while (!gen.Exhausted()) {
      for (const st::StreamEvent& e : gen.Poll(4096)) {
        const auto& p = e.obj.geo().AsPoint();
        if (e.category == kCategory && p.x >= kRegion.min_x() &&
            p.x <= kRegion.max_x() && p.y >= kRegion.min_y() &&
            p.y <= kRegion.max_y()) {
          ++counts[static_cast<size_t>(e.event_time() / kWindow)];
        }
      }
    }
  }
  size_t windows() const { return counts.size(); }
  size_t WindowSize(size_t w) const {
    return std::min<size_t>(kWindow, kEvents - w * kWindow);
  }
};

struct RoundResult {
  double seconds = 0;
  std::vector<double> lag_ms;
  int64_t watermark_lag_max = 0;
  uint64_t jobs = 0;
};

/// Replays the stream once through a fresh StreamContext and checks every
/// delivered window against the oracle.
RoundResult RunRound(Context* ctx, st::GeneratorSource* gen,
                     const Oracle& oracle, Report* report,
                     bool step_by_step = false) {
  RoundResult r;
  gen->Reset();
  st::StreamContext::Options options;
  options.window.size = kWindow;
  options.pattern = CountPattern();
  options.tasks_per_window = ctx->default_parallelism();
  st::StreamContext sc(ctx, options);
  auto source = std::make_unique<TimedSource>(gen);
  const TimedSource* timed = source.get();
  sc.AddSource(std::move(source), kDisorder);

  struct Seen {
    int64_t start = 0, end = 0;
    size_t size = 0;
    bool in_order = true;
    int64_t count = -1;  // -1: the pattern did not fire
    size_t fires = 0;
    uint64_t last_poll = 0, delivered = 0;
  };
  std::vector<Seen> seen;
  seen.reserve(oracle.windows());
  sc.SetSink([&](const st::WindowResult& w) {
    Seen s;
    s.delivered = NowNs();
    s.start = w.window.start;
    s.end = w.window.end;
    s.size = w.window.events.size();
    for (size_t i = 0; i < w.window.events.size(); ++i) {
      const st::StreamEvent& e = w.window.events[i];
      s.last_poll = std::max(s.last_poll, timed->PolledAt(e.id));
      if (e.event_time() < s.start || e.event_time() >= s.end ||
          (i > 0 && w.window.events[i - 1].event_time() > e.event_time())) {
        s.in_order = false;
      }
    }
    s.fires = w.matches.size();
    if (!w.matches.empty()) s.count = w.matches.front().count;
    seen.push_back(s);
  });

  const uint64_t jobs0 = CounterValue("engine.jobs");
  stark::obs::Gauge* const lag = stark::obs::DefaultMetrics().GetGauge("stream.watermark_lag_ms");
  const Timer timer;
  stark::Status status;
  if (step_by_step) {
    // The same protocol as RunToCompletion, one micro-batch at a time, so
    // the watermark-lag gauge can be sampled after each.
    while (status.ok() && !sc.AllExhausted()) {
      status = sc.Step().status();
      r.watermark_lag_max = std::max(r.watermark_lag_max, lag->Value());
    }
    if (status.ok()) status = sc.FireReady();
    if (status.ok()) status = sc.Flush();
  } else {
    status = sc.RunToCompletion();
  }
  r.seconds = timer.Seconds();
  r.jobs = CounterValue("engine.jobs") - jobs0;

  const st::StreamStats stats = sc.stats();
  report->Check(status.ok(), "stream round: " + status.ToString());
  report->Check(stats.late == 0 && stats.duplicates == 0 &&
                    stats.ingested == kEvents && stats.accepted == kEvents,
                "stream accounting: " + std::to_string(stats.late) + " late, " +
                    std::to_string(stats.accepted) + " accepted");
  for (size_t w = 0; w < oracle.windows(); ++w) {
    bool ok = w < seen.size();
    if (ok) {
      const Seen& s = seen[w];
      const int64_t want_count = oracle.counts[w];
      const bool should_fire = want_count >= kThreshold;
      ok = s.start == static_cast<int64_t>(w) * kWindow &&
           s.end == s.start + kWindow && s.size == oracle.WindowSize(w) &&
           s.in_order && s.fires == (should_fire ? 1u : 0u) &&
           (!should_fire || s.count == want_count);
      if (s.last_poll > 0 && s.delivered >= s.last_poll) {
        r.lag_ms.push_back(static_cast<double>(s.delivered - s.last_poll) / 1e6);
      }
    }
    report->Check(ok, "window " + std::to_string(w));
  }
  report->Check(seen.size() == oracle.windows(),
                "window count " + std::to_string(seen.size()));
  return r;
}

void TraceLayers(Context* ctx, uint64_t seed, const Oracle& oracle,
                 Report* report) {
  // An operation is one window.
  Layers layers;
  const double windows = static_cast<double>(oracle.windows());
  st::GeneratorSource gen(GenOptions(seed));
  RunRound(ctx, &gen, oracle, report);  // warm-up

  std::vector<double> plain_s, traced_s;
  int64_t lag_max = 0;
  double jobs_per_window = 0;
  for (int rep = 0; rep < 2; ++rep) {
    {
      const Untraced off;
      const RoundResult plain = RunRound(ctx, &gen, oracle, report, /*step_by_step=*/true);
      plain_s.push_back(plain.seconds);
      lag_max = std::max(lag_max, plain.watermark_lag_max);
      jobs_per_window = static_cast<double>(plain.jobs) / static_cast<double>(oracle.windows());
    }
    traced_s.push_back(RunRound(ctx, &gen, oracle, report, true).seconds);
  }
  layers.trace_overhead_pct = (Median(traced_s) / Median(plain_s) - 1.0) * 100.0;
  layers.jobs_per_op = jobs_per_window;
  report->Detail("stream.watermark_lag_max", static_cast<double>(lag_max), "ms");

  // Poll alone, then the window manager replayed on the same arrivals with
  // the watermark rule of StreamContext (bound = disorder), then CEP on
  // every fired window.
  const double per_100k = 100'000.0 / static_cast<double>(kEvents);
  std::vector<std::vector<st::StreamEvent>> polls;
  std::vector<double> poll_ms;
  for (int rep = 0; rep < 3; ++rep) {
    gen.Reset();
    polls.clear();
    Span span("bench.stream.poll");
    const Timer t;
    while (!gen.Exhausted()) polls.push_back(gen.Poll(256));
    poll_ms.push_back(t.Ms() * per_100k);
  }
  report->Detail("stream.poll_ms", Median(poll_ms), "ms/100k-events");
  layers.access_ms = Median(poll_ms) / per_100k / windows;

  std::vector<double> window_ms;
  std::vector<st::FiredWindow> fired;
  for (int rep = 0; rep < 3; ++rep) {
    st::WindowSpec spec;
    spec.size = kWindow;
    st::WindowManager manager(spec, st::LatePolicy::kDrop);
    fired.clear();
    int64_t max_seen = std::numeric_limits<int64_t>::min();
    Span span("bench.stream.window");
    const Timer t;
    for (const auto& batch : polls) {
      for (const st::StreamEvent& e : batch) {
        const int64_t wm = max_seen == std::numeric_limits<int64_t>::min()
                               ? max_seen
                               : max_seen - kDisorder;
        manager.Ingest(e, wm);
        max_seen = std::max(max_seen, e.event_time());
      }
      for (st::FiredWindow& w : manager.CollectRipe(max_seen - kDisorder)) {
        fired.push_back(std::move(w));
      }
    }
    for (st::FiredWindow& w : manager.Flush()) fired.push_back(std::move(w));
    window_ms.push_back(t.Ms() * per_100k);
  }
  report->Detail("stream.window_ms", Median(window_ms), "ms/100k-events");
  layers.probe_ms = Median(window_ms) / per_100k / windows;
  report->Check(fired.size() == oracle.windows(), "replayed window count");

  std::vector<double> cep_ms;
  const st::PatternSpec pattern = CountPattern();
  for (const st::FiredWindow& w : fired) {
    Span span("bench.stream.cep");
    const Timer t;
    const auto matches = st::EvaluatePattern(ctx, pattern, w, ctx->default_parallelism());
    cep_ms.push_back(t.Ms());
    report->Check(matches.ok(), "EvaluatePattern");
  }
  // A window's steps: polling its events (stream source), assigning them
  // to windows (window manager) and evaluating the COUNT pattern over the
  // fired window (CEP). Every event of a window is a candidate; the yield
  // is the share the pattern's category and region accept, recounted by the
  // benchmark.
  layers.refine_ms = Median(cep_ms);
  layers.candidates = static_cast<double>(kEvents) / windows;
  double matching = 0;
  for (const int64_t c : oracle.counts) matching += static_cast<double>(c);
  layers.refine_yield = matching / static_cast<double>(kEvents);
  layers.job_floor_ms = JobFloorMs(ctx, ctx->default_parallelism(), 50);
  AddLayers(report, layers);
}

}  // namespace

Report RunEventStream(const Args& args) {
  Report report;
  const Oracle oracle(args.seed);
  Context ctx(args.threads ? args.threads : kThreads);

  if (args.trace) {
    TraceLayers(&ctx, args.seed, oracle, &report);
    return report;
  }

  // Set-up: the source builds its whole seeded arrival schedule up front,
  // which is the stream's load step.
  std::vector<double> setups;
  std::optional<st::GeneratorSource> gen;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    gen.reset();
    Span span("bench.event_stream.setup");
    const Timer t;
    gen.emplace(GenOptions(args.seed));
    setups.push_back(t.Seconds());
  }
  gen.reset();
  const int rounds =
      std::max(1, static_cast<int>(std::ceil(args.seconds / kRoundSeconds)));
  struct StreamRun {
    Report report;
    std::vector<double> rates, lags;
  };
  std::vector<StreamRun> runs(kStreams);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kStreams; ++s) {
    threads.emplace_back([&, s] {
      StreamRun& run = runs[s];
      Context stream_ctx(ctx.default_parallelism());
      st::GeneratorSource stream_gen(GenOptions(args.seed));
      RunRound(&stream_ctx, &stream_gen, oracle, &run.report);  // warm-up
      for (int round = 0; round < rounds; ++round) {
        const RoundResult r = RunRound(&stream_ctx, &stream_gen, oracle, &run.report);
        run.rates.push_back(static_cast<double>(kEvents) / r.seconds);
        run.lags.insert(run.lags.end(), r.lag_ms.begin(), r.lag_ms.end());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // An operation is one window; its latency is the emit lag (from polling
  // the window's last event to the sink), and throughput counts the events
  // of both streams: the sum of each stream's median rate over rounds.
  EndToEnd e;
  std::vector<double> lags;
  for (const StreamRun& run : runs) {
    report.attempted += run.report.attempted;
    report.failed += run.report.failed;
    lags.insert(lags.end(), run.lags.begin(), run.lags.end());
    e.throughput_per_s += Median(run.rates);
  }
  e.setup_s = Median(setups);
  e.peak_rss_mb = PeakRssMb();
  e.latency_p50_ms = Median(lags);
  AddEndToEnd(&report, e);
  std::fprintf(stderr,
               "[perfbench] event_stream: %zu streams x %d rounds of %zu events, "
               "%zu windows each\n",
               kStreams, rounds, kEvents, oracle.windows());
  return report;
}

}  // namespace perfbench
