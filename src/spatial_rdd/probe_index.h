/// \file probe_index.h
/// ProbeIndex: the per-partition structures a filter or join probes — the
/// partition's ColumnarBatch slab and, per R-tree order, a
/// PackedRTree<size_t> over its row ids.
///
/// Only the wrapper SpatialRDD::Cache() returns keeps one, for its lifetime
/// (the resident index). Its partitions never change once computed, so
/// neither does anything built over them: each structure is built lazily,
/// once per partition, by the first task that needs it, and handed out by
/// shared reference afterwards. Every other lineage may recompute
/// different rows, so it builds its structures for the task or join at
/// hand. Keys are the owning index, the partition and the order — never
/// row counts.
#ifndef STARK_SPATIAL_RDD_PROBE_INDEX_H_
#define STARK_SPATIAL_RDD_PROBE_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/columnar.h"
#include "core/stobject.h"
#include "index/packed_rtree.h"
#include "obs/metrics.h"

namespace stark {

class ProbeIndex {
 public:
  /// An empty index for \p partitions partitions. The bytes it holds count
  /// in the gauge engine.cache.resident_index_bytes until it is destroyed.
  explicit ProbeIndex(size_t partitions)
      : num_parts_(partitions),
        parts_(std::make_unique<Part[]>(partitions)) {}

  ~ProbeIndex() { Gauge()->Add(-bytes_.load(std::memory_order_relaxed)); }

  STARK_DISALLOW_COPY_AND_ASSIGN(ProbeIndex);

  /// The slab of partition \p part, whose rows are \p rows (pairs whose
  /// `first` is the STObject). With a non-null \p index it is built by the
  /// first caller and kept; concurrent callers wait for that one build.
  /// Without one it is built for this caller alone. Each build adds one to
  /// engine.columnar.batches, each kept slab handed out again one to
  /// engine.columnar.slab_reuse.
  template <typename E>
  static std::shared_ptr<const ColumnarBatch> Slab(
      ProbeIndex* index, size_t part, const std::vector<E>& rows) {
    auto build = [&rows] {
      return ColumnarBatch::Build(
          rows, [](const E& e) -> const STObject& { return e.first; });
    };
    bool built = true;
    std::shared_ptr<const ColumnarBatch> slab =
        index != nullptr && part < index->num_parts_
            ? index->Fill(&index->parts_[part].slab, build, &built)
            : std::make_shared<const ColumnarBatch>(build());
    const ColumnarMetricSet& metrics = GlobalColumnarMetrics();
    (built ? metrics.batches : metrics.slab_reuse)->Increment();
    return slab;
  }

  /// The order-\p order R-tree over the row ids of partition \p part, kept
  /// or built like Slab. `*built` tells whether this call built it.
  template <typename E>
  static std::shared_ptr<const PackedRTree<size_t>> Tree(
      ProbeIndex* index, size_t part, size_t order,
      const std::vector<E>& rows, bool* built) {
    auto build = [&rows, order] {
      std::vector<std::pair<Envelope, size_t>> entries;
      entries.reserve(rows.size());
      for (size_t e = 0; e < rows.size(); ++e) {
        entries.emplace_back(rows[e].first.envelope(), e);
      }
      return PackedRTree<size_t>(order, std::move(entries));
    };
    if (index == nullptr || part >= index->num_parts_) {
      *built = true;
      return std::make_shared<const PackedRTree<size_t>>(build());
    }
    Part& p = index->parts_[part];
    TreeSlot* slot;
    {
      std::lock_guard<std::mutex> lock(p.trees_mu);
      slot = &p.trees[order];  // map nodes never move
    }
    return index->Fill(slot, build, built);
  }

  /// Bytes of every slab and tree this index holds.
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  template <typename T>
  struct Slot {
    std::mutex mu;
    std::shared_ptr<const T> value;  // null until built
  };
  using TreeSlot = Slot<PackedRTree<size_t>>;

  struct Part {
    Slot<ColumnarBatch> slab;
    std::mutex trees_mu;  // guards the map, not the builds
    std::map<size_t, TreeSlot> trees;  // by order
  };

  static obs::Gauge* Gauge() {
    static obs::Gauge* const gauge =
        obs::DefaultMetrics().GetGauge("engine.cache.resident_index_bytes");
    return gauge;
  }

  /// Builds \p slot's value unless it holds one. The slot's mutex is held
  /// across the build, so a concurrent task that needs the same structure
  /// waits for this build instead of making its own (a mutex, not
  /// std::call_once, as for CacheRDD's slots). A build that throws leaves
  /// the slot empty for the next caller.
  template <typename T, typename Build>
  std::shared_ptr<const T> Fill(Slot<T>* slot, Build& build, bool* built) {
    std::lock_guard<std::mutex> lock(slot->mu);
    *built = slot->value == nullptr;
    if (*built) {
      slot->value = std::make_shared<const T>(build());
      const auto bytes = static_cast<int64_t>(slot->value->MemoryBytes());
      bytes_.fetch_add(bytes, std::memory_order_relaxed);
      Gauge()->Add(bytes);
    }
    return slot->value;
  }

  const size_t num_parts_;
  const std::unique_ptr<Part[]> parts_;
  std::atomic<int64_t> bytes_{0};
};

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_PROBE_INDEX_H_
