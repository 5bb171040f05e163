/// \file main.cc
/// Entry point of the end-to-end benchmark binary.
///
///   stark_perfbench --workload <range_scan|spatial_join|snapshot_serve|
///                   event_stream> --seed <n> --seconds <s> --trace <0|1>
///                   [--trace-out <file>] [--threads <n>]
///
/// Prints progress to stderr and, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
/// metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
/// are its per-layer metrics and a Chrome trace is written to --trace-out.
/// Every workload reports every metric of the set; workload-specific figures
/// go to stderr as "detail" lines.
/// Exits 1 when any checked operation failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "obs/json_util.h"

namespace {

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "stark_perfbench: %s\nusage: stark_perfbench --workload "
               "<range_scan|spatial_join|snapshot_serve|event_stream> --seed "
               "<n> --seconds <1..600> --trace <0|1> [--trace-out <file>] "
               "[--threads <1..64>]\n",
               why);
  return 2;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  uint64_t seconds = 0, trace = 2, threads = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage(("missing value for " + flag).c_str());
    ++i;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &seconds) || seconds < 1 || seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (!ParseUint(value, &trace) || trace > 1) return Usage("bad --trace");
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--threads") {
      if (!ParseUint(value, &threads) || threads < 1 || threads > 64) {
        return Usage("bad --threads");
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || seconds == 0 || trace > 1) {
    return Usage("--seed, --seconds and --trace are required");
  }
  args.seconds = static_cast<int>(seconds);
  args.trace = trace == 1;
  args.threads = static_cast<size_t>(threads);
  if (args.trace) stark::obs::DefaultTracer().Enable();

  perfbench::Report report;
  if (args.workload == "range_scan") {
    report = perfbench::RunRangeScan(args);
  } else if (args.workload == "spatial_join") {
    report = perfbench::RunSpatialJoin(args);
  } else if (args.workload == "snapshot_serve") {
    report = perfbench::RunSnapshotServe(args);
  } else if (args.workload == "event_stream") {
    report = perfbench::RunEventStream(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  if (args.trace && !args.trace_out.empty()) {
    const stark::Status status =
        stark::obs::DefaultTracer().WriteChromeTrace(args.trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "[perfbench] trace write failed: %s\n",
                   status.ToString().c_str());
    } else {
      std::fprintf(stderr, "[perfbench] Chrome trace written to %s\n",
                   args.trace_out.c_str());
    }
  }

  // A metric that could not be measured is a fault of the run, not a value.
  for (const perfbench::Metric& m : report.metrics) {
    report.Check(std::isfinite(m.value), "metric " + m.name + " is not a number");
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += stark::obs::JsonQuoted(m.name) + ": {\"value\": " +
            FormatNumber(m.value) +
            ", \"unit\": " + stark::obs::JsonQuoted(m.unit) + "}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
