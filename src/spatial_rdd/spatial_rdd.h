/// \file spatial_rdd.h
/// SpatialRDDFunctions — the paper's seamless RDD integration (§2.3). In
/// Scala, an implicit conversion wraps any RDD[(STObject, V)]; in C++ the
/// equivalent is the explicit, zero-copy wrapper SpatialRDD<V> (see
/// Spatial() below), which adds the spatio-temporal filter, join, kNN and
/// indexing operators to a plain engine RDD.
#ifndef STARK_SPATIAL_RDD_SPATIAL_RDD_H_
#define STARK_SPATIAL_RDD_SPATIAL_RDD_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/columnar.h"
#include "core/distance.h"
#include "core/st_serde.h"
#include "core/stobject.h"
#include "engine/rdd.h"
#include "index/packed_rtree.h"
#include "obs/trace.h"
#include "partition/partitioner.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/predicate.h"
#include "spatial_rdd/probe.h"
#include "spatial_rdd/probe_index.h"
#include "spatial_rdd/query_stats.h"
#include "spatial_rdd/value_serde.h"

namespace stark {

template <typename V>
class SpatialRDD;

namespace knn_internal {

/// (distance, row) pairs, nearest first.
template <typename E>
using Ranked = std::vector<std::pair<double, E>>;

/// Keeps the \p k nearest entries of \p ranked, sorted ascending.
template <typename Row>
void KeepNearest(std::vector<std::pair<double, Row>>* ranked, size_t k) {
  const size_t keep = std::min(k, ranked->size());
  std::partial_sort(
      ranked->begin(), ranked->begin() + static_cast<ptrdiff_t>(keep),
      ranked->end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  ranked->erase(ranked->begin() + static_cast<ptrdiff_t>(keep), ranked->end());
}

/// The \p k nearest of the candidate rows \p cands, each copied once.
template <typename E>
Ranked<E> Winners(std::vector<std::pair<double, const E*>> cands, size_t k) {
  KeepNearest(&cands, k);
  Ranked<E> out;
  out.reserve(cands.size());
  for (const auto& [dist, row] : cands) out.emplace_back(dist, *row);
  return out;
}

/// \brief The kNN plan of SpatialRDD::Knn and IndexedSpatialRDD::Knn.
///
/// `local(rows)` ranks one partition and returns its (up to) \p k nearest.
/// \p bounds holds, per partition, a lower bound on the distance from the
/// query to any of its rows (the extent distance), or is empty when there
/// is none. Without bounds one job ranks every partition. With bounds, job 1
/// ranks the partitions with the smallest bound; job 2 ranks the remaining
/// partitions whose bound is <= the k-th distance job 1 found — every
/// remaining partition when job 1 found fewer than k rows or an infinite
/// k-th distance. Each job runs one task per partition it ranks. Partitions
/// neither job ranks are never computed; each adds one to
/// engine.partitions.pruned.
template <typename E, typename S, typename Local>
Ranked<E> RankNearest(const RDD<S>& source, const std::vector<double>& bounds,
                      size_t k, Local local) {
  static obs::Counter* const pruned =
      obs::DefaultMetrics().GetCounter("engine.partitions.pruned");
  if (k == 0) return {};
  auto rank = [&](const RDD<S>& parts) {
    return parts
        .MapPartitionsWithIndex(
            [local](size_t, const std::vector<S>& rows) { return local(rows); })
        .Collect();
  };
  Ranked<E> best;
  auto merge = [&](Ranked<E> more) {
    for (auto& r : more) best.push_back(std::move(r));
    KeepNearest(&best, k);
  };
  if (bounds.empty()) {
    merge(rank(source));
    return best;
  }
  const double nearest = *std::min_element(bounds.begin(), bounds.end());
  std::vector<size_t> first;
  for (size_t p = 0; p < bounds.size(); ++p) {
    if (bounds[p] <= nearest) first.push_back(p);
  }
  merge(rank(source.SelectPartitions(first)));

  const double kth = best.size() < k
                         ? std::numeric_limits<double>::infinity()
                         : best.back().first;
  std::vector<size_t> second;
  for (size_t p = 0; p < bounds.size(); ++p) {
    if (bounds[p] > nearest && bounds[p] <= kth) second.push_back(p);
  }
  pruned->Add(bounds.size() - first.size() - second.size());
  if (!second.empty()) merge(rank(source.SelectPartitions(std::move(second))));
  return best;
}

/// Extent-distance lower bound per partition; NaN (a poisoned extent)
/// becomes 0, which never prunes.
inline double ExtentBound(const Envelope& extent, const Envelope& query) {
  const double d = extent.Distance(query);
  return std::isnan(d) ? 0.0 : d;
}

}  // namespace knn_internal

/// \brief An RDD whose partitions are R-trees over (STObject, V) pairs —
/// the result of liveIndex()/index() (§2.2).
///
/// Live indexing keeps the tree construction inside the lazy lineage, so
/// the index is rebuilt whenever a partition is processed; persistent
/// indexing caches the trees and can save them to disk and load them back
/// in another program run.
///
/// The partition trees are *packed* R-trees (PackedRTree): STR bulk-loaded
/// straight into the flat SoA layout, probed with the iterative templated
/// traversal.
template <typename V>
class IndexedSpatialRDD {
 public:
  using Element = std::pair<STObject, V>;
  using TreePtr = std::shared_ptr<const PackedRTree<Element>>;

  IndexedSpatialRDD(RDD<TreePtr> trees,
                    std::shared_ptr<std::vector<Envelope>> extents,
                    size_t order)
      : trees_(std::move(trees)), extents_(std::move(extents)),
        order_(order) {}

  const RDD<TreePtr>& trees() const { return trees_; }
  size_t order() const { return order_; }
  size_t NumPartitions() const { return trees_.NumPartitions(); }

  /// Per-partition extents captured when the index was built (null when the
  /// source was not spatially partitioned). Joins use these for partition
  /// pruning without re-collecting the trees.
  const std::shared_ptr<std::vector<Envelope>>& extents() const {
    return extents_;
  }

  /// Generic filter against \p query: R-tree candidate lookup plus exact
  /// refinement with the full spatio-temporal predicate (candidate pruning
  /// step of §2.2, including the temporal predicate). \p stats, when
  /// non-null, must outlive the returned RDD's evaluation.
  RDD<Element> Filter(const STObject& query, const JoinPredicate& pred,
                      QueryStats* stats = nullptr) const {
    const Envelope probe = query.envelope().Expanded(pred.EnvelopeMargin());
    auto extents = extents_;
    // Partition extents that cannot contribute are pruned before the trees
    // are even computed (§2.1) — with live indexing this skips building the
    // R-tree for pruned partitions entirely.
    RDD<TreePtr> source = trees_;
    if (pred.Prunable() && extents) {
      source = source.PrunePartitions([extents, probe, stats](size_t idx) {
        const bool keep =
            idx >= extents->size() || (*extents)[idx].Intersects(probe);
        if (!keep) {
          if (stats) ++stats->partitions_pruned;
          GlobalFilterMetrics().partitions_pruned->Increment();
        }
        return keep;
      });
    }
    return source.MapPartitionsWithIndex(
        [query, pred, stats](size_t, const std::vector<TreePtr>& trees) {
          std::vector<Element> out;
          Probe probe(pred, /*cand_left=*/true);
          for (const TreePtr& tree : trees) {
            probe.Tree(
                *tree, query,
                [](const Element& e) -> const STObject& { return e.first; },
                [&out](const Element& e) { out.push_back(e); });
          }
          CountFilterTask(stats, !trees.empty(), probe.candidates(),
                          out.size());
          probe.Finish("", probe.candidates());
          return out;
        });
  }

  RDD<Element> Intersects(const STObject& query) const {
    return Filter(query, JoinPredicate::Intersects());
  }
  RDD<Element> Contains(const STObject& query) const {
    return Filter(query, JoinPredicate::Contains());
  }
  RDD<Element> ContainedBy(const STObject& query) const {
    return Filter(query, JoinPredicate::ContainedBy());
  }
  RDD<Element> WithinDistance(const STObject& query, double max_distance,
                              DistanceFunction fn = nullptr) const {
    return Filter(query, JoinPredicate::WithinDistance(max_distance,
                                                       std::move(fn)));
  }

  /// Exact k nearest neighbors of \p query; results are (distance, element)
  /// sorted ascending. Defaults to the Euclidean geometry distance: each
  /// tree is searched branch-and-bound from the query envelope, and with
  /// extents the two-job plan of knn_internal::RankNearest reads only the
  /// partitions that can hold an answer. A custom \p fn ranks every entry
  /// of every partition in one job, since envelope bounds are only valid
  /// for Euclidean distance. A distance of NaN is treated as +infinity
  /// (never a neighbor). Only the k winners of a partition are copied.
  std::vector<std::pair<double, Element>> Knn(const STObject& query, size_t k,
                                              DistanceFunction fn = nullptr)
      const {
    std::vector<double> bounds;
    if (!fn && extents_) {
      bounds.assign(trees_.NumPartitions(), 0.0);
      for (size_t p = 0; p < bounds.size() && p < extents_->size(); ++p) {
        bounds[p] = knn_internal::ExtentBound((*extents_)[p], query.envelope());
      }
    }
    return knn_internal::RankNearest<Element>(
        trees_, bounds, k, [query, k, fn](const std::vector<TreePtr>& ts) {
          std::vector<std::pair<double, const Element*>> cands;
          // Lazily prepare the query geometry for the exact-distance
          // callback: one preparation per task, shared by every candidate
          // the branch-and-bound search actually measures.
          std::optional<PreparedGeometry> prepared;
          size_t prepared_hits = 0;
          size_t prepared_misses = 0;
          size_t packed_probes = 0;
          for (const TreePtr& tree : ts) {
            if (fn) {
              tree->ForEach([&](const Envelope&, const Element& e) {
                cands.emplace_back(SanitizeDistance(fn(e.first, query)), &e);
              });
              continue;
            }
            ++packed_probes;
            auto hits = tree->Knn(query.envelope(), k, [&](const Element& e) {
              if (!prepared.has_value()) {
                prepared.emplace(query.geo());
                ++prepared_misses;
              } else {
                ++prepared_hits;
              }
              // DistanceFrom(other) computes Distance(other, query.geo).
              return prepared->DistanceFrom(e.first.geo());
            });
            cands.insert(cands.end(), hits.begin(), hits.end());
          }
          const IndexMetricSet& index_metrics = GlobalIndexMetrics();
          index_metrics.packed_probes->Add(packed_probes);
          index_metrics.prepared_hits->Add(prepared_hits);
          index_metrics.prepared_misses->Add(prepared_misses);
          return knn_internal::Winners(std::move(cands), k);
        });
  }

  /// Flattens the indexed partitions back to a plain element RDD.
  RDD<Element> ToElements() const {
    return trees_.MapPartitionsWithIndex(
        [](size_t, const std::vector<TreePtr>& ts) {
          std::vector<Element> out;
          for (const TreePtr& tree : ts) {
            tree->ForEach([&](const Envelope&, const Element& e) {
              out.push_back(e);
            });
          }
          return out;
        });
  }

  /// \brief Persists the index to \p directory (one binary file per
  /// partition plus a meta file) — the paper's persistent index mode with
  /// HDFS substituted by the local filesystem.
  Status Save(const std::string& directory) const {
    const std::vector<Partition<TreePtr>> parts = trees_.SharedPartitions();
    BinaryWriter meta;
    meta.WriteU32(kMetaMagic);
    meta.WriteU64(parts.size());
    meta.WriteU64(order_);
    for (size_t p = 0; p < parts.size(); ++p) {
      const Envelope extent = extents_ && p < extents_->size()
                                  ? (*extents_)[p]
                                  : Envelope();
      WriteEnvelope(&meta, extent);
    }
    STARK_RETURN_NOT_OK(
        WriteFileBytes(directory + "/index.meta", meta.buffer()));
    for (size_t p = 0; p < parts.size(); ++p) {
      BinaryWriter w;
      size_t count = 0;
      for (const TreePtr& tree : *parts[p]) count += tree->size();
      // Zero-copy slab format: all STObjects as one columnar batch
      // (length-prefixed contiguous column blocks, a handful of bulk writes)
      // followed by the payload column.
      w.WriteU32(kPartMagic);
      ColumnarBatch batch;
      batch.Reserve(count);
      BinaryWriter payloads;
      for (const TreePtr& tree : *parts[p]) {
        tree->ForEach([&batch, &payloads](const Envelope&, const Element& e) {
          batch.Append(e.first);
          Serde<V>::Write(&payloads, e.second);
        });
      }
      WriteColumnarBatch(&w, batch);
      w.WriteRaw(payloads.buffer().data(), payloads.buffer().size());
      STARK_RETURN_NOT_OK(
          WriteFileBytes(directory + "/part-" + std::to_string(p) + ".idx",
                         w.buffer()));
    }
    return Status::OK();
  }

  /// Loads an index previously written with Save. Trees are re-packed with
  /// STR bulk loading, which is at least as good as the saved layout.
  static Result<IndexedSpatialRDD<V>> Load(Context* ctx,
                                           const std::string& directory) {
    STARK_ASSIGN_OR_RETURN(std::vector<char> meta_buf,
                           ReadFileBytes(directory + "/index.meta"));
    BinaryReader meta(meta_buf);
    STARK_ASSIGN_OR_RETURN(uint32_t magic, meta.ReadU32());
    if (magic != kMetaMagic) return Status::IOError("bad index meta magic");
    STARK_ASSIGN_OR_RETURN(uint64_t num_parts, meta.ReadU64());
    STARK_ASSIGN_OR_RETURN(uint64_t order, meta.ReadU64());
    auto extents = std::make_shared<std::vector<Envelope>>();
    for (uint64_t p = 0; p < num_parts; ++p) {
      STARK_ASSIGN_OR_RETURN(Envelope e, ReadEnvelope(&meta));
      extents->push_back(e);
    }
    std::vector<std::vector<TreePtr>> parts(num_parts);
    for (uint64_t p = 0; p < num_parts; ++p) {
      STARK_ASSIGN_OR_RETURN(
          std::vector<char> buf,
          ReadFileBytes(directory + "/part-" + std::to_string(p) + ".idx"));
      BinaryReader r(buf);
      STARK_ASSIGN_OR_RETURN(uint32_t part_magic, r.ReadU32());
      if (part_magic != kPartMagic) {
        return Status::IOError("bad index part magic");
      }
      STARK_ASSIGN_OR_RETURN(ColumnarBatch batch, ReadColumnarBatch(&r));
      STARK_ASSIGN_OR_RETURN(std::vector<STObject> objs, batch.ToObjects());
      std::vector<std::pair<Envelope, Element>> entries;
      entries.reserve(objs.size());
      for (auto& obj : objs) {
        STARK_ASSIGN_OR_RETURN(V value, Serde<V>::Read(&r));
        Envelope env = obj.envelope();
        entries.emplace_back(env, Element{std::move(obj), std::move(value)});
      }
      parts[p].push_back(
          std::make_shared<PackedRTree<Element>>(order, std::move(entries)));
    }
    RDD<TreePtr> trees = MakeRDDFromPartitions(ctx, std::move(parts));
    return IndexedSpatialRDD<V>(trees.Cache(), std::move(extents), order);
  }

 private:
  static constexpr uint32_t kMetaMagic = 0x53544958;  // "STIX"
  /// Part format ("STIC"): one ColumnarBatch of the STObjects followed by
  /// the Serde<V> payload column.
  static constexpr uint32_t kPartMagic = 0x53544943;

  RDD<TreePtr> trees_;
  std::shared_ptr<std::vector<Envelope>> extents_;  // may be null
  size_t order_;
};

/// \brief The paper's SpatialRDDFunctions: spatio-temporal operators over
/// an RDD of (STObject, V) pairs.
template <typename V>
class SpatialRDD {
 public:
  using Element = std::pair<STObject, V>;

  /// Wraps an existing engine RDD (no data movement). A \p partitioner must
  /// describe how \p rdd is partitioned, with each partition's extent
  /// covering the envelopes of its rows: Filter, Knn and the joins prune by
  /// those extents.
  explicit SpatialRDD(RDD<Element> rdd,
                      std::shared_ptr<SpatialPartitioner> partitioner = nullptr)
      : rdd_(std::move(rdd)), partitioner_(std::move(partitioner)) {}

  /// Parallelizes a vector of pairs (quickstart path).
  static SpatialRDD FromVector(Context* ctx, std::vector<Element> data,
                               size_t num_partitions = 0) {
    return SpatialRDD(MakeRDD(ctx, std::move(data), num_partitions));
  }

  const RDD<Element>& rdd() const { return rdd_; }
  Context* ctx() const { return rdd_.ctx(); }
  size_t NumPartitions() const { return rdd_.NumPartitions(); }
  const std::shared_ptr<SpatialPartitioner>& partitioner() const {
    return partitioner_;
  }

  /// Spatially repartitions the data with \p partitioner: every element is
  /// assigned by the centroid of its spatial component, and the partition
  /// extents are grown by the element envelopes (§2.1). Materializes the
  /// shuffle (a Spark stage boundary).
  SpatialRDD PartitionBy(std::shared_ptr<SpatialPartitioner> partitioner) const {
    // Clone the partitioner and grow extents on the private clone: growing
    // the caller's (shared) instance would leave extents from *this*
    // dataset behind when the same partitioner is reused for another one,
    // silently defeating partition pruning there.
    std::shared_ptr<SpatialPartitioner> p = partitioner->Clone();
    p->ResetExtents();
    RDD<Element> shuffled = rdd_.PartitionBy(
        p->NumPartitions(), [p](const Element& e) {
          const size_t target =
              p->PartitionForST(e.first.Centroid(), e.first.time());
          p->GrowExtent(target, e.first.envelope());
          return target;
        });
    return SpatialRDD(std::move(shuffled), std::move(p));
  }

  /// Caches the underlying RDD: each partition is computed once and then
  /// shared, uncopied, by every filter, kNN, count and join that reads it.
  /// The returned wrapper also keeps a resident ProbeIndex: the slab a
  /// filter or join builds over a partition, and the R-tree a live-index
  /// join builds over it, are built once and reused by every later call
  /// through this wrapper or a copy of it (engine.columnar.slab_reuse).
  SpatialRDD Cache() const {
    SpatialRDD cached(rdd_.Cache(), partitioner_);
    cached.index_ = std::make_shared<ProbeIndex>(cached.NumPartitions());
    return cached;
  }

  /// The resident probe index of a wrapper Cache() returned; null for every
  /// other lineage, which may recompute different rows.
  const std::shared_ptr<ProbeIndex>& probe_index() const { return index_; }

  // ---- Filter operators (unindexed scan + extent pruning) ---------------

  /// Generic filter: keeps elements e with pred.Eval(e, query) == true.
  /// When the data is spatially partitioned, partitions whose extent cannot
  /// contribute are skipped without touching their elements. \p stats, when
  /// non-null, must outlive the returned RDD's evaluation.
  RDD<Element> Filter(const STObject& query, const JoinPredicate& pred,
                      QueryStats* stats = nullptr) const {
    const Envelope probe = query.envelope().Expanded(pred.EnvelopeMargin());
    // Prune before computing: partitions whose extent misses the query are
    // never materialized (§2.1 — "decrease the number of data items to
    // process significantly").
    RDD<Element> source = rdd_;
    if (pred.Prunable() && partitioner_ != nullptr) {
      auto part = partitioner_;
      const std::optional<TemporalInterval> query_time = query.time();
      source = source.PrunePartitions(
          [part, probe, query_time, stats](size_t idx) {
            const bool keep = [&] {
              if (!part->PartitionExtent(idx).Intersects(probe)) return false;
              // Temporal pruning (spatio-temporal partitioners only): a
              // timed query can skip partitions whose time bounds miss its
              // interval — untimed objects in them could never match it
              // anyway.
              if (query_time.has_value()) {
                const auto bounds = part->PartitionTimeBounds(idx);
                if (bounds.has_value() &&
                    !bounds->Intersects(*query_time)) {
                  return false;
                }
              }
              return true;
            }();
            if (!keep) {
              if (stats) ++stats->partitions_pruned;
              GlobalFilterMetrics().partitions_pruned->Increment();
            }
            return keep;
          });
    }
    // Envelope kernel over the partition's slab, then batched refinement.
    // Only the wrapper Cache() returned keeps its slabs across filters: its
    // partitions cannot change, while any other lineage may recompute
    // different rows, so it builds its slab per task.
    auto index = index_;
    return source.MapPartitionsWithIndex(
        [query, pred, stats, index](size_t idx,
                                    const std::vector<Element>& items) {
          std::shared_ptr<const ColumnarBatch> slab;
          if (columnar_refine::Refinable(pred) && !items.empty()) {
            slab = ProbeIndex::Slab(index.get(), idx, items);
          }
          std::vector<Element> out;
          Probe probe(pred, /*cand_left=*/true, slab.get());
          probe.Scan(
              items.size(), query,
              [&items](size_t j) -> const STObject& { return items[j].first; },
              [&](size_t j) { out.push_back(items[j]); });
          CountFilterTask(stats, !items.empty(), items.size(), out.size());
          probe.Finish("", items.size());
          return out;
        });
  }

  /// Elements whose spatio-temporal component intersects \p query.
  RDD<Element> Intersects(const STObject& query) const {
    return Filter(query, JoinPredicate::Intersects());
  }
  /// Elements that completely contain \p query.
  RDD<Element> Contains(const STObject& query) const {
    return Filter(query, JoinPredicate::Contains());
  }
  /// Elements completely contained by \p query.
  RDD<Element> ContainedBy(const STObject& query) const {
    return Filter(query, JoinPredicate::ContainedBy());
  }
  /// Elements within \p max_distance of \p query under \p fn (Euclidean
  /// geometry distance when \p fn is null).
  RDD<Element> WithinDistance(const STObject& query, double max_distance,
                              DistanceFunction fn = nullptr) const {
    return Filter(query,
                  JoinPredicate::WithinDistance(max_distance, std::move(fn)));
  }

  /// Exact k nearest neighbors. The distance defaults to the minimum
  /// Euclidean geometry distance; pass \p fn to rank by a custom distance
  /// function (e.g. HaversineDistanceKm or a spatio-temporal combination),
  /// mirroring the paper's user-suppliable distance functions. Each
  /// partition ranks its rows in place and copies only its k winners. With
  /// the default distance on spatially partitioned data, the two-job plan
  /// of knn_internal::RankNearest reads only the partitions whose extent
  /// can hold an answer; a custom \p fn, or data without extents, ranks
  /// every partition in one job. A NaN distance ranks as +infinity.
  std::vector<std::pair<double, Element>> Knn(const STObject& query, size_t k,
                                              DistanceFunction fn = nullptr)
      const {
    std::vector<double> bounds;
    if (!fn && partitioner_ != nullptr) {
      bounds.assign(NumPartitions(), 0.0);
      for (size_t p = 0; p < bounds.size() && p < partitioner_->NumPartitions();
           ++p) {
        bounds[p] = knn_internal::ExtentBound(partitioner_->PartitionExtent(p),
                                              query.envelope());
      }
    }
    return knn_internal::RankNearest<Element>(
        rdd_, bounds, k, [query, k, fn](const std::vector<Element>& items) {
          std::vector<std::pair<double, const Element*>> cands;
          cands.reserve(items.size());
          if (fn) {
            for (const Element& e : items) {
              // NaN from a user distance function would break
              // partial_sort's strict weak ordering; treat it as
              // "infinitely far".
              cands.emplace_back(SanitizeDistance(fn(e.first, query)), &e);
            }
          } else if (!items.empty()) {
            // One preparation of the query per task; DistanceFrom(other)
            // computes Distance(other, query.geo) without per-row setup.
            const PreparedGeometry prepared(query.geo());
            for (const Element& e : items) {
              cands.emplace_back(
                  SanitizeDistance(prepared.DistanceFrom(e.first.geo())), &e);
            }
            const IndexMetricSet& index_metrics = GlobalIndexMetrics();
            index_metrics.prepared_misses->Increment();
            index_metrics.prepared_hits->Add(items.size() - 1);
          }
          return knn_internal::Winners(std::move(cands), k);
        });
  }

  // ---- Indexing modes (§2.2) ---------------------------------------------

  /// Live indexing: the R-tree is built when a partition is processed —
  /// i.e. construction stays inside the lazy lineage and happens on every
  /// evaluation. Optionally repartitions first.
  IndexedSpatialRDD<V> LiveIndex(
      size_t order = 10,
      std::shared_ptr<SpatialPartitioner> partitioner = nullptr) const {
    const SpatialRDD source =
        partitioner ? PartitionBy(std::move(partitioner)) : *this;
    return IndexedSpatialRDD<V>(BuildTrees(source, order),
                                ExtentsOf(source), order);
  }

  /// Persistent-capable indexing: trees are built once (cached) and can be
  /// written to disk with IndexedSpatialRDD::Save and reused by Load.
  IndexedSpatialRDD<V> Index(
      size_t order = 10,
      std::shared_ptr<SpatialPartitioner> partitioner = nullptr) const {
    const SpatialRDD source =
        partitioner ? PartitionBy(std::move(partitioner)) : *this;
    return IndexedSpatialRDD<V>(BuildTrees(source, order).Cache(),
                                ExtentsOf(source), order);
  }

 private:
  using TreePtr = typename IndexedSpatialRDD<V>::TreePtr;

  static RDD<TreePtr> BuildTrees(const SpatialRDD& source, size_t order) {
    return source.rdd_.MapPartitionsWithIndex(
        [order](size_t, std::vector<Element> items) {
          std::vector<std::pair<Envelope, Element>> entries;
          entries.reserve(items.size());
          for (auto& e : items) {
            Envelope env = e.first.envelope();
            entries.emplace_back(env, std::move(e));
          }
          // STR bulk load straight into the packed SoA layout — no interim
          // pointer tree.
          return std::vector<TreePtr>{std::make_shared<PackedRTree<Element>>(
              order, std::move(entries))};
        });
  }

  static std::shared_ptr<std::vector<Envelope>> ExtentsOf(
      const SpatialRDD& source) {
    if (!source.partitioner_) return nullptr;
    auto extents = std::make_shared<std::vector<Envelope>>();
    for (size_t i = 0; i < source.partitioner_->NumPartitions(); ++i) {
      extents->push_back(source.partitioner_->PartitionExtent(i));
    }
    return extents;
  }

  RDD<Element> rdd_;
  std::shared_ptr<SpatialPartitioner> partitioner_;
  std::shared_ptr<ProbeIndex> index_;  // set only by Cache()
};

/// Mirrors STARK's implicit Scala conversion: lifts a plain engine RDD of
/// (STObject, V) pairs into the spatial API.
template <typename V>
SpatialRDD<V> Spatial(RDD<std::pair<STObject, V>> rdd) {
  return SpatialRDD<V>(std::move(rdd));
}

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_SPATIAL_RDD_H_
