/// \file metrics.h
/// Engine-wide metrics registry: named counters, gauges and histograms with
/// a lock-free hot path. Instruments resolve once (mutex-protected
/// create-or-get) and are then plain atomics, so incrementing from inside
/// partition tasks costs a single relaxed fetch_add. Snapshots copy every
/// instrument into plain value structs that can be diffed, printed, or
/// serialized without touching the live atomics again.
///
/// Granularity rule: engine code only records at *partition/task*
/// granularity (or batches per-element totals into one Add per partition),
/// never per element, so the always-on counters stay invisible in profiles.
#ifndef STARK_OBS_METRICS_H_
#define STARK_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/macros.h"

namespace stark {
namespace obs {

/// Monotonically increasing event count (tasks run, cache hits, ...).
class Counter {
 public:
  void Add(uint64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous value (pool size, live partitions, bytes held, ...): set
/// outright, or moved by deltas when several owners share it.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucketed distribution of non-negative samples (latencies in ns,
/// batch sizes, ...). Bucket i counts samples whose bit width is i, i.e.
/// values in [2^(i-1), 2^i); recording is a handful of relaxed atomic ops.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Record(uint64_t value);

  /// Plain-value copy of the distribution.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  ///< 0 when count == 0.
    uint64_t max = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Upper bound of the bucket containing the p-quantile (p in [0, 1]);
    /// exact to within the log2 bucket resolution.
    uint64_t ApproxPercentile(double p) const;
  };
  Snapshot Snap() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// \brief Create-or-get registry of named instruments.
///
/// Instrument pointers are stable for the registry's lifetime, so callers
/// resolve a name once (e.g. into a function-local static) and keep the
/// pointer. Registration takes a mutex; reads/writes of the instruments do
/// not.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  STARK_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Plain-value copy of every registered instrument.
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Histogram::Snapshot> histograms;
  };
  Snapshot Snap() const;

  /// Human-readable report, one instrument per line, sorted by name.
  std::string TextReport() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string Json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry used by the engine's built-in instrumentation
/// (engine.*, spatial.filter.*, bench.*). Tests may also create private
/// registries.
MetricsRegistry& DefaultMetrics();

}  // namespace obs
}  // namespace stark

#endif  // STARK_OBS_METRICS_H_
