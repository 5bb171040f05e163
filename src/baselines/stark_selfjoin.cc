#include "baselines/stark_selfjoin.h"

#include <memory>

#include "common/stopwatch.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {

BaselineStats StarkSelfJoin(Context* ctx, const std::vector<STObject>& data,
                            double max_distance,
                            const StarkSelfJoinOptions& options) {
  BaselineStats stats;
  stats.system = "STARK";
  stats.input_size = data.size();
  Stopwatch total;

  std::vector<std::pair<STObject, int64_t>> pairs;
  pairs.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    pairs.emplace_back(data[i], static_cast<int64_t>(i));
  }
  SpatialRDD<int64_t> rdd = SpatialRDD<int64_t>::FromVector(ctx,
                                                            std::move(pairs));

  Envelope universe;
  for (const STObject& obj : data) universe.ExpandToInclude(obj.envelope());

  Stopwatch phase;
  switch (options.partitioner) {
    case StarkPartitionerChoice::kNone:
      stats.config = "none";
      break;
    case StarkPartitionerChoice::kGrid: {
      stats.config = "grid";
      auto grid = std::make_shared<GridPartitioner>(
          universe, options.grid_cells_per_dim);
      rdd = rdd.PartitionBy(std::move(grid));
      break;
    }
    case StarkPartitionerChoice::kBsp: {
      stats.config = "bsp";
      std::vector<Coordinate> centroids;
      centroids.reserve(data.size());
      for (const STObject& obj : data) centroids.push_back(obj.Centroid());
      BSPartitioner::Options bsp_options;
      bsp_options.max_cost = options.bsp_max_cost;
      auto bsp = std::make_shared<BSPartitioner>(universe, centroids,
                                                 bsp_options);
      rdd = rdd.PartitionBy(std::move(bsp));
      break;
    }
  }
  stats.partition_seconds = phase.ElapsedSeconds();

  phase.Restart();
  JoinOptions join_options;
  join_options.index_order = options.index_order;
  rdd = rdd.Cache();
  const JoinPredicate pred = JoinPredicate::WithinDistance(max_distance);
  // Every mode projects to id pairs inside the join tasks (the payload is
  // the id), as a Spark program would map the join output.
  using Element = std::pair<STObject, int64_t>;
  const auto project_ids = [](const Element& l, const Element& r) {
    return std::pair<int64_t, int64_t>(l.second, r.second);
  };
  switch (options.join_mode) {
    case StarkJoinMode::kCachedIndex: {
      stats.config += "+cached-index";
      IndexedSpatialRDD<int64_t> indexed = rdd.Index(options.index_order);
      // Materialize the cached trees outside the timed join phase — the
      // variant measures what a join costs once the index already exists.
      indexed.trees().Count();
      phase.Restart();
      // Exclude identity matches, like the baselines.
      stats.result_pairs =
          SpatialJoinProject(indexed, rdd, pred, join_options, project_ids)
              .Filter([](const std::pair<int64_t, int64_t>& p) {
                return p.first != p.second;
              })
              .Count();
      break;
    }
    case StarkJoinMode::kBroadcast:
      stats.config += "+broadcast";
      // A self join always has a "small enough" side; force the
      // broadcast plan to measure it against pair enumeration.
      join_options.broadcast_threshold = data.size();
      [[fallthrough]];
    case StarkJoinMode::kLiveIndex:
      // The self join drops the identity matches inside its probe.
      stats.result_pairs =
          SelfSpatialJoinProject(
              rdd, pred, join_options,
              [&project_ids](const Element& l, size_t, const Element& r,
                             size_t) { return project_ids(l, r); })
              .Count();
      break;
  }
  stats.join_seconds = phase.ElapsedSeconds();

  stats.total_seconds = total.ElapsedSeconds();
  return stats;
}

}  // namespace stark
