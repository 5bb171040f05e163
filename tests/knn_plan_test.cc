// Differential tests of the kNN plan behind SpatialRDD::Knn and
// IndexedSpatialRDD::Knn: the partitions read by the two-job plan (nearest
// extent first, then only extents that can beat the k-th distance) must
// yield exactly the distances of a brute-force nested loop over every row,
// on every partitioner, for point and polygon queries inside and outside
// the universe, with ties at the k-th distance across a partition boundary
// and with rows whose coordinates are NaN.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/distance.h"
#include "engine/context.h"
#include "geometry/predicates.h"
#include "obs/metrics.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"
#include "partition/st_grid_partitioner.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {
namespace {

using Element = std::pair<STObject, int64_t>;
using Ranked = std::vector<std::pair<double, Element>>;

const Envelope kUniverse(0, 0, 100, 100);
const double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t PrunedPartitions() {
  return obs::DefaultMetrics().GetCounter("engine.partitions.pruned")->Value();
}

/// Partitions computed through a cache node, materialized or not.
uint64_t CacheReads() {
  obs::MetricsRegistry& metrics = obs::DefaultMetrics();
  return metrics.GetCounter("engine.cache.hits")->Value() +
         metrics.GetCounter("engine.cache.misses")->Value();
}

/// Three Gaussian clusters plus uniform noise in y < 90, a few small boxes,
/// four tie rows on the strip y = 95 placed symmetrically about x = 50 (a
/// partition boundary of every grid here), and rows with NaN coordinates.
/// The geometry model has no empty geometry (every factory rejects an empty
/// coordinate list); the NaN rows are the rows with no finite distance.
std::vector<Element> MakeRows() {
  Rng rng(77);
  std::vector<Element> rows;
  auto add = [&rows](Geometry g, bool timed, int64_t t) {
    const int64_t id = static_cast<int64_t>(rows.size());
    rows.emplace_back(
        timed ? STObject(std::move(g), t) : STObject(std::move(g)), id);
  };
  const double centres[3][2] = {{20, 25}, {72, 30}, {38, 70}};
  for (int i = 0; i < 540; ++i) {
    const double* c = centres[i % 3];
    const double x = std::clamp(c[0] + rng.Normal(0, 3), 0.0, 100.0);
    const double y = std::clamp(c[1] + rng.Normal(0, 3), 0.0, 89.0);
    add(Geometry::MakePoint(x, y), i % 2 == 0, rng.UniformInt(0, 999));
  }
  for (int i = 0; i < 40; ++i) {
    add(Geometry::MakePoint(rng.Uniform(0, 100), rng.Uniform(0, 89)), false, 0);
  }
  for (int i = 0; i < 12; ++i) {
    const double x = rng.Uniform(0, 95), y = rng.Uniform(0, 85);
    add(Geometry::MakeBox(Envelope(x, y, x + rng.Uniform(0.5, 4),
                                   y + rng.Uniform(0.5, 4))),
        i % 3 == 0, rng.UniformInt(0, 999));
  }
  for (double x : {49.0, 51.0, 47.0, 53.0}) {
    add(Geometry::MakePoint(x, 95.0), false, 0);
  }
  add(Geometry::MakePoint(kNaN, kNaN), false, 0);
  add(Geometry::MakePoint(kNaN, 40.0), false, 0);
  add(Geometry::MakePoint(60.0, kNaN), true, 500);
  return rows;
}

double RowDistance(const Element& row, const STObject& query) {
  return SanitizeDistance(Distance(row.first.geo(), query.geo()));
}

/// The k smallest distances of a nested loop over every row.
std::vector<double> BruteForce(const std::vector<Element>& rows,
                               const STObject& query, size_t k,
                               const DistanceFunction& fn = nullptr) {
  std::vector<double> d;
  for (const Element& row : rows) {
    d.push_back(fn ? SanitizeDistance(fn(row.first, query))
                   : RowDistance(row, query));
  }
  std::sort(d.begin(), d.end());
  d.resize(std::min(k, d.size()));
  return d;
}

/// Equal up to rounding: the tree path measures through a prepared
/// geometry, the scan and the brute force through Distance().
bool Close(double a, double b) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b));
}

void ExpectMatches(const std::vector<Element>& rows, const Ranked& got,
                   const STObject& query, size_t k, const std::string& what,
                   const DistanceFunction& fn = nullptr) {
  const std::vector<double> want = BruteForce(rows, query, k, fn);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& [dist, row] = got[i];
    EXPECT_TRUE(Close(dist, want[i]))
        << what << " rank " << i << ": " << dist << " vs " << want[i];
    // The reported distance is the returned row's own distance.
    const double own = fn ? SanitizeDistance(fn(row.first, query))
                          : RowDistance(row, query);
    EXPECT_TRUE(Close(dist, own))
        << what << " rank " << i << " id " << row.second;
  }
}

std::shared_ptr<SpatialPartitioner> MakePartitioner(
    const std::string& kind, const std::vector<Element>& rows) {
  if (kind == "grid") return std::make_shared<GridPartitioner>(kUniverse, 4);
  if (kind == "st_grid") {
    return std::make_shared<SpatioTemporalGridPartitioner>(kUniverse, 4, 0,
                                                           999, 3);
  }
  std::vector<Coordinate> centroids;
  for (const Element& row : rows) {
    const Coordinate c = row.first.Centroid();
    if (std::isfinite(c.x) && std::isfinite(c.y)) centroids.push_back(c);
  }
  BSPartitioner::Options options;
  options.max_cost = 60;
  return std::make_shared<BSPartitioner>(kUniverse, centroids, options);
}

struct Query {
  std::string name;
  STObject obj;
};

std::vector<Query> Queries() {
  return {
      {"point in cluster", STObject(Geometry::MakePoint(20.5, 24.0))},
      {"point between clusters", STObject(Geometry::MakePoint(55.0, 55.0))},
      {"point outside universe", STObject(Geometry::MakePoint(160.0, -35.0))},
      {"tie point on boundary", STObject(Geometry::MakePoint(50.0, 95.0))},
      {"polygon in cluster",
       STObject(Geometry::MakeBox(Envelope(70, 28, 74, 33)))},
      {"polygon outside universe",
       STObject(Geometry::MakeBox(Envelope(-40, 120, -20, 140)))},
  };
}

class KnnPlanTest : public ::testing::TestWithParam<const char*> {
 protected:
  KnnPlanTest()
      : rows_(MakeRows()),
        data_(SpatialRDD<int64_t>::FromVector(&ctx_, rows_, 5)
                  .PartitionBy(MakePartitioner(GetParam(), rows_))
                  .Cache()) {}

  Context ctx_{2};
  std::vector<Element> rows_;
  SpatialRDD<int64_t> data_;
};

TEST_P(KnnPlanTest, ScanAndIndexMatchBruteForce) {
  const IndexedSpatialRDD<int64_t> indexed = data_.Index(8);
  const size_t n = rows_.size();
  for (const Query& q : Queries()) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{10}, n - 1, n, n + 5}) {
      const std::string what = std::string(GetParam()) + " / " + q.name +
                               " / k=" + std::to_string(k);
      ExpectMatches(rows_, data_.Knn(q.obj, k), q.obj, k, "scan " + what);
      ExpectMatches(rows_, indexed.Knn(q.obj, k), q.obj, k, "index " + what);
    }
  }
}

TEST_P(KnnPlanTest, TiesAtTheKthDistanceAcrossABoundary) {
  // Rows at x = 49/51 (distance 1) and 47/53 (distance 3) sit on both sides
  // of x = 50; k = 1 and k = 3 cut through a tie.
  const STObject q(Geometry::MakePoint(50.0, 95.0));
  const IndexedSpatialRDD<int64_t> indexed = data_.Index(8);
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    const Ranked scan = data_.Knn(q, k);
    const Ranked tree = indexed.Knn(q, k);
    ExpectMatches(rows_, scan, q, k, "scan tie k=" + std::to_string(k));
    ExpectMatches(rows_, tree, q, k, "index tie k=" + std::to_string(k));
  }
  const Ranked three = data_.Knn(q, 3);
  ASSERT_EQ(three.size(), 3u);
  EXPECT_EQ(three[0].first, 1.0);
  EXPECT_EQ(three[1].first, 1.0);
  EXPECT_EQ(three[2].first, 3.0);
}

TEST_P(KnnPlanTest, QueryInsideAClusterPrunesPartitions) {
  // Every partition is either read once (a cache hit or miss) or counted
  // once as pruned, never both, across both jobs of the plan.
  const STObject q(Geometry::MakePoint(72.0, 30.0));
  const size_t n = data_.NumPartitions();
  uint64_t reads = CacheReads();
  uint64_t pruned = PrunedPartitions();
  ExpectMatches(rows_, data_.Knn(q, 10), q, 10, "scan in cluster");
  const uint64_t scan_reads = CacheReads() - reads;
  const uint64_t scan_pruned = PrunedPartitions() - pruned;
  EXPECT_GT(scan_pruned, 0u);
  EXPECT_EQ(scan_reads + scan_pruned, n);

  const IndexedSpatialRDD<int64_t> indexed = data_.Index(8);
  indexed.trees().Count();
  reads = CacheReads();
  pruned = PrunedPartitions();
  ExpectMatches(rows_, indexed.Knn(q, 10), q, 10, "index in cluster");
  const uint64_t index_reads = CacheReads() - reads;
  const uint64_t index_pruned = PrunedPartitions() - pruned;
  EXPECT_GT(index_pruned, 0u);
  EXPECT_EQ(index_reads + index_pruned, n);
}

TEST_P(KnnPlanTest, CustomDistanceFunctionDoesNotPrune) {
  const STObject q(Geometry::MakePoint(72.0, 30.0));
  const IndexedSpatialRDD<int64_t> indexed = data_.Index(8);
  indexed.trees().Count();
  for (size_t k : {size_t{1}, size_t{10}, rows_.size() + 5}) {
    const uint64_t before = PrunedPartitions();
    ExpectMatches(rows_, data_.Knn(q, k, ManhattanDistance), q, k,
                  "scan manhattan k=" + std::to_string(k), ManhattanDistance);
    ExpectMatches(rows_, indexed.Knn(q, k, ManhattanDistance), q, k,
                  "index manhattan k=" + std::to_string(k), ManhattanDistance);
    EXPECT_EQ(PrunedPartitions(), before);
  }
}

INSTANTIATE_TEST_SUITE_P(Partitioners, KnnPlanTest,
                         ::testing::Values("grid", "bsp", "st_grid"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(KnnPlanUnpartitionedTest, NoExtentsRanksEveryPartitionInOneJob) {
  Context ctx(2);
  const std::vector<Element> rows = MakeRows();
  const SpatialRDD<int64_t> data =
      SpatialRDD<int64_t>::FromVector(&ctx, rows, 6).Cache();
  const STObject q(Geometry::MakePoint(20.5, 24.0));
  obs::Counter* jobs = obs::DefaultMetrics().GetCounter("engine.jobs");
  const uint64_t jobs_before = jobs->Value();
  const uint64_t pruned_before = PrunedPartitions();
  ExpectMatches(rows, data.Knn(q, 10), q, 10, "unpartitioned");
  EXPECT_EQ(jobs->Value() - jobs_before, 1u);
  EXPECT_EQ(PrunedPartitions(), pruned_before);
}

}  // namespace
}  // namespace stark
