// Tests for shared partitions: cached and collection partitions are handed
// out by shared reference, read-only operators never copy them, and every
// copy that does happen is counted in engine.partition.copied_rows.
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/context.h"
#include "engine/rdd.h"
#include "obs/metrics.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {
namespace {

uint64_t CopiedRows() {
  return obs::DefaultMetrics()
      .GetCounter("engine.partition.copied_rows")
      ->Value();
}

TEST(SharedPartitionTest, CacheHandsOutTheKeptPartition) {
  Context ctx(2);
  RDD<int> cached = MakeRDD(&ctx, std::vector<int>{1, 2, 3, 4, 5, 6}, 2)
                        .Map([](int x) { return x * 10; })
                        .Cache();
  const std::vector<Partition<int>> first = cached.SharedPartitions();
  const std::vector<Partition<int>> again = cached.SharedPartitions();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(first[1].get(), again[1].get());
  EXPECT_EQ(*first[1], (std::vector<int>{40, 50, 60}));
}

TEST(SharedPartitionTest, OwnedCopiesAreCounted) {
  Context ctx(2);
  RDD<int> cached = MakeRDD(&ctx, std::vector<int>{1, 2, 3, 4, 5}, 2).Cache();
  cached.Count();
  const uint64_t before = CopiedRows();
  std::vector<int> part = cached.ComputePartition(0);
  EXPECT_EQ(part, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(CopiedRows() - before, 3u);

  // An owning MapPartitions function needs its own rows: counted copy.
  const uint64_t before_owned = CopiedRows();
  auto sorted = cached.MapPartitionsWithIndex(
      [](size_t, std::vector<int> rows) { return rows; });
  EXPECT_EQ(sorted.Count(), 5u);
  EXPECT_EQ(CopiedRows() - before_owned, 5u);

  // A reading one uses the kept rows in place.
  const uint64_t before_reader = CopiedRows();
  auto sums = cached.MapPartitionsWithIndex(
      [](size_t, const std::vector<int>& rows) {
        int s = 0;
        for (int x : rows) s += x;
        return std::vector<int>{s};
      });
  EXPECT_EQ(sums.Collect(), (std::vector<int>{6, 9}));
  EXPECT_EQ(CopiedRows(), before_reader);
}

TEST(SharedPartitionTest, UncachedPipelineMovesItsOwnPartitions) {
  Context ctx(2);
  RDD<int> data = MakeRDD(&ctx, std::vector<int>{1, 2, 3, 4, 5, 6}, 2);
  // The Map output is a fresh partition its consumer owns outright: the
  // owning MapPartitions function gets it by move, not by copy.
  auto doubled = data.Map([](int x) { return 2 * x; });
  const uint64_t before = CopiedRows();
  auto out = doubled
                 .MapPartitionsWithIndex([](size_t, std::vector<int> rows) {
                   rows.push_back(0);
                   return rows;
                 })
                 .Collect();
  EXPECT_EQ(out, (std::vector<int>{2, 4, 6, 0, 8, 10, 12, 0}));
  EXPECT_EQ(CopiedRows(), before);
}

TEST(SharedPartitionTest, CachedOperatorsCopyNoPartition) {
  Context ctx(2);
  using Element = std::pair<STObject, int64_t>;
  std::vector<Element> points;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 40; ++j) {
      points.emplace_back(
          STObject(Geometry::MakePoint(i * 2.5 + 0.3, j * 2.5 + 0.7)),
          static_cast<int64_t>(i * 40 + j));
    }
  }
  std::vector<Element> boxes;
  for (int b = 0; b < 6; ++b) {
    const double x = 8.0 + 15.0 * b;
    boxes.emplace_back(
        STObject(Geometry::MakeBox(Envelope(x, x, x + 9, x + 7))),
        static_cast<int64_t>(b));
  }
  auto grid = std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 4);
  const SpatialRDD<int64_t> data =
      SpatialRDD<int64_t>::FromVector(&ctx, points, 4)
          .PartitionBy(grid)
          .Cache();
  const SpatialRDD<int64_t> polys =
      SpatialRDD<int64_t>::FromVector(&ctx, boxes, 2).PartitionBy(grid).Cache();
  const size_t total = data.rdd().Count();
  ASSERT_EQ(total, points.size());
  polys.rdd().Count();
  // Index() builds its trees from owned rows: warm it before measuring.
  const IndexedSpatialRDD<int64_t> indexed = data.Index(10);
  indexed.trees().Count();

  const STObject window(Geometry::MakeBox(Envelope(20, 20, 32, 41)));
  const STObject point(Geometry::MakePoint(51.1, 49.2));
  auto ids = [](const std::pair<STObject, int64_t>& l,
                const std::pair<STObject, int64_t>& r) {
    return std::make_pair(l.second, r.second);
  };
  const JoinPredicate contained = JoinPredicate::ContainedBy();
  JoinOptions broadcast;
  broadcast.broadcast_threshold = 100;

  const uint64_t before = CopiedRows();
  const std::vector<Element> hits =
      data.Filter(window, JoinPredicate::Intersects()).Collect();
  const auto knn = data.Knn(point, 10);
  const size_t counted = data.rdd().Count();
  const size_t live =
      SpatialJoinProject(data, polys, contained, JoinOptions{}, ids).Count();
  const size_t cached =
      SpatialJoinProject(indexed, polys, contained, JoinOptions{}, ids).Count();
  const size_t bcast =
      SpatialJoinProject(data, polys, contained, broadcast, ids).Count();
  EXPECT_EQ(CopiedRows(), before);

  EXPECT_FALSE(hits.empty());
  EXPECT_EQ(knn.size(), 10u);
  EXPECT_EQ(counted, total);
  EXPECT_GT(live, 0u);
  EXPECT_EQ(cached, live);
  EXPECT_EQ(bcast, live);

  // An owned partition is a copy, counted by its size.
  const size_t p = 5;
  const size_t rows = data.rdd().SharedPartitions()[p]->size();
  ASSERT_GT(rows, 0u);
  const uint64_t before_copy = CopiedRows();
  EXPECT_EQ(data.rdd().ComputePartition(p).size(), rows);
  EXPECT_EQ(CopiedRows() - before_copy, rows);
}

}  // namespace
}  // namespace stark
