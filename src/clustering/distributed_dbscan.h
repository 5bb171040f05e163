/// \file distributed_dbscan.h
/// STARK's density-based clustering operator (§2.3): DBSCAN for the engine,
/// inspired by MR-DBSCAN [1]. The implementation exploits the spatial
/// partitioning: points within eps-distance of a partition border are
/// replicated into the respective neighboring partitions, a local
/// clustering runs in parallel per partition, and a merge step connects
/// local clusters through the replicated points.
#ifndef STARK_CLUSTERING_DISTRIBUTED_DBSCAN_H_
#define STARK_CLUSTERING_DISTRIBUTED_DBSCAN_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clustering/dbscan.h"
#include "clustering/union_find.h"
#include "partition/partitioner.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {

/// \brief Distributed DBSCAN over a spatial RDD.
///
/// Clustering is performed on the centroids of the spatial components
/// (events are points in the paper's workloads). Returns the input elements
/// paired with a global cluster id (kNoise for noise), partitioned by
/// \p partitioner. Global ids are dense, starting at 0. The extent of each
/// partition of \p partitioner is grown by the envelope of every element
/// placed there, so the result may be wrapped as a SpatialRDD with
/// \p partitioner and pruned by extent like the output of PartitionBy.
template <typename V>
RDD<std::pair<std::pair<STObject, V>, int64_t>> DistributedDbscan(
    const SpatialRDD<V>& data, const DbscanParams& params,
    const std::shared_ptr<SpatialPartitioner>& partitioner) {
  using Element = std::pair<STObject, V>;
  Context* ctx = data.ctx();
  const size_t num_parts = partitioner->NumPartitions();

  // Materialize elements; the global point id is the vector index.
  std::vector<Element> elements = data.rdd().Collect();
  const size_t n = elements.size();

  // Route every point to its home partition plus every neighboring
  // partition whose bounds lie within eps (border replication).
  struct LocalPoint {
    size_t id;
    Coordinate c;
  };
  std::vector<std::vector<LocalPoint>> local_points(num_parts);
  std::vector<size_t> home(n);
  for (size_t id = 0; id < n; ++id) {
    const Coordinate c = elements[id].first.Centroid();
    home[id] = partitioner->PartitionFor(c);
    partitioner->GrowExtent(home[id], elements[id].first.envelope());
    local_points[home[id]].push_back({id, c});
    for (size_t p : partitioner->PartitionsWithinDistance(c, params.eps)) {
      if (p != home[id]) local_points[p].push_back({id, c});
    }
  }

  // Local clustering, in parallel per partition.
  struct Occurrence {
    size_t partition;
    int64_t label;
    bool core;
  };
  std::vector<DbscanResult> local_results(num_parts);
  ctx->pool().ParallelFor(num_parts, [&](size_t p) {
    std::vector<Coordinate> coords;
    coords.reserve(local_points[p].size());
    for (const LocalPoint& lp : local_points[p]) coords.push_back(lp.c);
    local_results[p] = DbscanLocal(coords, params);
  });

  // Per-point occurrence lists (home occurrence first, replicas after).
  std::vector<std::vector<Occurrence>> occurrences(n);
  for (size_t p = 0; p < num_parts; ++p) {
    for (size_t k = 0; k < local_points[p].size(); ++k) {
      const size_t id = local_points[p][k].id;
      const Occurrence occ{p, local_results[p].labels[k],
                           local_results[p].core[k] != 0};
      if (p == home[id]) {
        occurrences[id].insert(occurrences[id].begin(), occ);
      } else {
        occurrences[id].push_back(occ);
      }
    }
  }

  // Merge step: local clusters C1 and C2 merge when they share a point that
  // is a core point in at least one of them (MR-DBSCAN merge rule).
  std::vector<size_t> cluster_base(num_parts + 1, 0);
  for (size_t p = 0; p < num_parts; ++p) {
    cluster_base[p + 1] = cluster_base[p] + local_results[p].num_clusters;
  }
  const size_t total_local_clusters = cluster_base[num_parts];
  auto key_of = [&](const Occurrence& occ) {
    return cluster_base[occ.partition] + static_cast<size_t>(occ.label);
  };
  UnionFind uf(total_local_clusters);
  for (size_t id = 0; id < n; ++id) {
    const auto& occs = occurrences[id];
    if (occs.size() < 2) continue;
    for (const Occurrence& core_occ : occs) {
      if (!core_occ.core || core_occ.label == kNoise) continue;
      for (const Occurrence& other : occs) {
        if (other.label == kNoise) continue;
        uf.Union(key_of(core_occ), key_of(other));
      }
    }
  }

  // Dense global ids per union-find root, assigned in deterministic order.
  std::unordered_map<size_t, int64_t> root_to_global;
  root_to_global.reserve(total_local_clusters);
  int64_t next_global = 0;
  auto global_of = [&](size_t key) {
    const size_t root = uf.Find(key);
    auto it = root_to_global.find(root);
    if (it != root_to_global.end()) return it->second;
    root_to_global.emplace(root, next_global);
    return next_global++;
  };

  // Final label: the home occurrence's cluster when labeled there; else any
  // labeled replica occurrence (a border point clustered only across the
  // border); else noise.
  std::vector<std::vector<std::pair<Element, int64_t>>> out(num_parts);
  for (size_t id = 0; id < n; ++id) {
    int64_t label = kNoise;
    for (const Occurrence& occ : occurrences[id]) {
      if (occ.label != kNoise) {
        label = global_of(key_of(occ));
        break;
      }
    }
    out[home[id]].emplace_back(std::move(elements[id]), label);
  }
  return MakeRDDFromPartitions(ctx, std::move(out));
}

}  // namespace stark

#endif  // STARK_CLUSTERING_DISTRIBUTED_DBSCAN_H_
