/// \file query_stats.h
/// Execution statistics for spatial filters: how many partitions the §2.1
/// extent/time pruning skipped and how many elements the exact predicate
/// actually touched. Pass an instance to SpatialRDD::Filter /
/// IndexedSpatialRDD::Filter to observe a query; counters are atomic since
/// partitions evaluate in parallel (and lazily — read them after an action).
///
/// The bare atomics make QueryStats itself non-copyable, so observations
/// are taken as plain QueryStats::Snapshot values (Snap()), which can be
/// stored, compared, and diffed (Delta()) freely. The same counters are
/// mirrored into the global metrics registry under spatial.filter.* so
/// pruning numbers appear in engine-wide metric reports too.
#ifndef STARK_SPATIAL_RDD_QUERY_STATS_H_
#define STARK_SPATIAL_RDD_QUERY_STATS_H_

#include <atomic>
#include <cstddef>

#include "obs/metrics.h"

namespace stark {

/// Counters filled during filter evaluation.
struct QueryStats {
  /// Partitions whose extent (or time bounds) could not contribute and
  /// were skipped without being computed.
  std::atomic<size_t> partitions_pruned{0};
  /// Partitions actually evaluated.
  std::atomic<size_t> partitions_scanned{0};
  /// Elements tested with the exact predicate (for indexed filters these
  /// are the R-tree candidates after the bounding-box match).
  std::atomic<size_t> candidates{0};
  /// Elements that satisfied the predicate.
  std::atomic<size_t> results{0};

  /// Plain-value observation of the counters: copyable, comparable,
  /// diffable — everything the atomic-holding QueryStats itself cannot be.
  struct Snapshot {
    size_t partitions_pruned = 0;
    size_t partitions_scanned = 0;
    size_t candidates = 0;
    size_t results = 0;

    /// Counter increments since \p earlier (counters are monotonic between
    /// Reset()s; fields that went backwards clamp to 0).
    Snapshot Delta(const Snapshot& earlier) const {
      auto sub = [](size_t now, size_t before) {
        return now >= before ? now - before : 0;
      };
      Snapshot d;
      d.partitions_pruned = sub(partitions_pruned, earlier.partitions_pruned);
      d.partitions_scanned =
          sub(partitions_scanned, earlier.partitions_scanned);
      d.candidates = sub(candidates, earlier.candidates);
      d.results = sub(results, earlier.results);
      return d;
    }

    bool operator==(const Snapshot& o) const {
      return partitions_pruned == o.partitions_pruned &&
             partitions_scanned == o.partitions_scanned &&
             candidates == o.candidates && results == o.results;
    }
    bool operator!=(const Snapshot& o) const { return !(*this == o); }
  };

  /// Consistent-enough copy of the live counters (relaxed loads; exact
  /// once the observed action has completed).
  Snapshot Snap() const {
    Snapshot s;
    s.partitions_pruned = partitions_pruned.load(std::memory_order_relaxed);
    s.partitions_scanned = partitions_scanned.load(std::memory_order_relaxed);
    s.candidates = candidates.load(std::memory_order_relaxed);
    s.results = results.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    partitions_pruned = 0;
    partitions_scanned = 0;
    candidates = 0;
    results = 0;
  }
};

/// Global named-metric mirrors of the QueryStats counters, registered in
/// obs::DefaultMetrics(). Filter paths bump these (batched per partition)
/// regardless of whether a per-query QueryStats was passed, so filter
/// pruning shows up in the same report as the engine.* counters.
struct FilterMetricSet {
  obs::Counter* partitions_pruned;
  obs::Counter* partitions_scanned;
  obs::Counter* candidates;
  obs::Counter* results;
};

inline const FilterMetricSet& GlobalFilterMetrics() {
  static const FilterMetricSet metrics = [] {
    obs::MetricsRegistry& m = obs::DefaultMetrics();
    return FilterMetricSet{
        m.GetCounter("spatial.filter.partitions_pruned"),
        m.GetCounter("spatial.filter.partitions_scanned"),
        m.GetCounter("spatial.filter.candidates"),
        m.GetCounter("spatial.filter.results"),
    };
  }();
  return metrics;
}

/// Records one filter task that scanned a partition (\p scanned false for
/// a pruned, empty one): into \p stats when non-null, and always into the
/// global spatial.filter.* counters.
inline void CountFilterTask(QueryStats* stats, bool scanned, size_t candidates,
                            size_t results) {
  if (stats != nullptr) {
    if (scanned) ++stats->partitions_scanned;
    stats->candidates += candidates;
    stats->results += results;
  }
  const FilterMetricSet& global = GlobalFilterMetrics();
  if (scanned) global.partitions_scanned->Increment();
  global.candidates->Add(candidates);
  global.results->Add(results);
}

/// Counters for the packed index / prepared-geometry hot path (PR 5):
/// - engine.index.packed_probes: PackedRTree Query/Knn probes issued by the
///   spatial layer (one per query window or kNN search, not per node).
/// - spatial.prepared.hits/misses: PreparedGeometry reuse vs construction
///   during refinement — misses is one per distinct geometry actually
///   refined against in a task, hits are the repeat evaluations it saved.
/// Bumped batched per task like the filter metrics (never per element).
struct IndexMetricSet {
  obs::Counter* packed_probes;
  obs::Counter* prepared_hits;
  obs::Counter* prepared_misses;
};

inline const IndexMetricSet& GlobalIndexMetrics() {
  static const IndexMetricSet metrics = [] {
    obs::MetricsRegistry& m = obs::DefaultMetrics();
    return IndexMetricSet{
        m.GetCounter("engine.index.packed_probes"),
        m.GetCounter("spatial.prepared.hits"),
        m.GetCounter("spatial.prepared.misses"),
    };
  }();
  return metrics;
}

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_QUERY_STATS_H_
