// Differential tests of the Probe operator: every site that runs the
// candidate -> refine protocol (filter, indexed filter, snapshot FILTER,
// live / broadcast / cached / unindexed joins) is checked against a nested
// JoinPredicate::Eval loop over seeded mixed point/polygon rows with and
// without time. Also the slab-cache identity rules of SpatialRDD::Filter.
#include <atomic>
#include <cctype>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/columnar.h"
#include "core/distance.h"
#include "geometry/wkt.h"
#include "partition/grid_partitioner.h"
#include "piglet/interpreter.h"
#include "serve/catalog.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"
#include "stream/event.h"
#include "test_util.h"

namespace stark {
namespace {

using Element = std::pair<STObject, int64_t>;
using IdSet = std::set<int64_t>;
using PairSet = std::set<std::pair<int64_t, int64_t>>;

/// \p count rows with ids from \p first_id: two thirds points (the batch
/// kernels' rows), the rest mixed geometry (the scalar fallback's rows);
/// half of them carry a time interval.
std::vector<Element> MixedRows(uint64_t seed, size_t count, int64_t first_id) {
  Rng rng(seed);
  std::vector<Element> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Geometry geo = rng.UniformInt(0, 2) == 0
                       ? test::RandomGeometry(&rng)
                       : Geometry::MakePoint(test::RandomCoord(&rng));
    const int64_t id = first_id + static_cast<int64_t>(i);
    if (rng.UniformInt(0, 1) == 0) {
      rows.emplace_back(STObject(std::move(geo)), id);
    } else {
      const Instant start = rng.UniformInt(0, 900);
      rows.emplace_back(
          STObject(std::move(geo), start, start + rng.UniformInt(0, 100)),
          id);
    }
  }
  return rows;
}

/// All four predicates, plus a custom (non-prunable) distance function.
std::vector<JoinPredicate> Predicates() {
  return {JoinPredicate::Intersects(), JoinPredicate::Contains(),
          JoinPredicate::ContainedBy(), JoinPredicate::WithinDistance(4.0),
          JoinPredicate::WithinDistance(4.0, ManhattanDistance)};
}

std::string Name(const JoinPredicate& pred) {
  return std::string(PredicateName(pred.type)) +
         (pred.distance != nullptr ? "(custom fn)" : "");
}

IdSet BruteFilter(const std::vector<Element>& rows, const STObject& query,
                  const JoinPredicate& pred) {
  IdSet out;
  for (const Element& e : rows) {
    if (pred.Eval(e.first, query)) out.insert(e.second);
  }
  return out;
}

PairSet BruteJoin(const std::vector<Element>& left,
                  const std::vector<Element>& right,
                  const JoinPredicate& pred) {
  PairSet out;
  for (const Element& l : left) {
    for (const Element& r : right) {
      if (pred.Eval(l.first, r.first)) out.emplace(l.second, r.second);
    }
  }
  return out;
}

IdSet Ids(const std::vector<Element>& rows) {
  IdSet out;
  for (const Element& e : rows) out.insert(e.second);
  return out;
}

PairSet Pairs(const RDD<std::pair<Element, Element>>& joined) {
  PairSet out;
  for (const auto& [l, r] : joined.Collect()) out.emplace(l.second, r.second);
  return out;
}

class ProbeDifferentialTest : public ::testing::Test {
 protected:
  std::shared_ptr<GridPartitioner> Grid() const {
    return std::make_shared<GridPartitioner>(
        Envelope(0, 0, test::kFuzzUniverse, test::kFuzzUniverse), 3);
  }

  Context ctx_{4};
  std::vector<Element> big_ = MixedRows(/*seed=*/1301, 300, 0);
  std::vector<Element> small_ = MixedRows(/*seed=*/1302, 120, 10'000);
};

TEST_F(ProbeDifferentialTest, EverySiteMatchesBruteForce) {
  Rng rng(1303);
  const std::vector<STObject> queries = {
      STObject(Geometry::MakeBox(test::RandomEnvelope(&rng, 40.0)), 200, 600),
      STObject(test::RandomStarPolygon(&rng)),
      STObject(Geometry::MakePoint(test::RandomCoord(&rng)), 300, 700),
  };
  const auto plain = SpatialRDD<int64_t>::FromVector(&ctx_, big_, 4);
  const auto cached = plain.PartitionBy(Grid()).Cache();
  const auto indexed = plain.Index(8, Grid());
  const auto live_indexed = plain.LiveIndex(4);
  for (const JoinPredicate& pred : Predicates()) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const IdSet expect = BruteFilter(big_, queries[q], pred);
      const std::string what = Name(pred) + " query " + std::to_string(q);
      EXPECT_EQ(Ids(plain.Filter(queries[q], pred).Collect()), expect)
          << "filter, " << what;
      // Twice: the second run reads the slabs the first one cached.
      for (int run = 0; run < 2; ++run) {
        EXPECT_EQ(Ids(cached.Filter(queries[q], pred).Collect()), expect)
            << "cached filter, " << what;
      }
      EXPECT_EQ(Ids(indexed.Filter(queries[q], pred).Collect()), expect)
          << "indexed filter, " << what;
      EXPECT_EQ(Ids(live_indexed.Filter(queries[q], pred).Collect()), expect)
          << "live indexed filter, " << what;
    }

    const auto big = SpatialRDD<int64_t>::FromVector(&ctx_, big_, 3);
    const auto small = SpatialRDD<int64_t>::FromVector(&ctx_, small_, 2);
    const PairSet big_small = BruteJoin(big_, small_, pred);
    const PairSet small_big = BruteJoin(small_, big_, pred);
    const std::string what = Name(pred);
    EXPECT_EQ(Pairs(SpatialJoin(big, small, pred)), big_small)
        << "live join, " << what;
    EXPECT_EQ(Pairs(SpatialJoin(big.PartitionBy(Grid()),
                                small.PartitionBy(Grid()), pred)),
              big_small)
        << "partitioned live join, " << what;
    JoinOptions broadcast;
    broadcast.broadcast_threshold = 1000;
    EXPECT_EQ(Pairs(SpatialJoin(big, small, pred, broadcast)), big_small)
        << "broadcast-right join, " << what;
    EXPECT_EQ(Pairs(SpatialJoin(small, big, pred, broadcast)), small_big)
        << "broadcast-left join, " << what;
    EXPECT_EQ(Pairs(SpatialJoin(big.Index(8, Grid()),
                                small.PartitionBy(Grid()), pred)),
              big_small)
        << "cached join, " << what;
    JoinOptions no_index;
    no_index.index_order = 0;
    EXPECT_EQ(Pairs(SpatialJoin(big, small, pred, no_index)), big_small)
        << "unindexed join, " << what;
    no_index.broadcast_threshold = 1000;
    EXPECT_EQ(Pairs(SpatialJoin(big, small, pred, no_index)), big_small)
        << "unindexed broadcast join, " << what;
  }
}

TEST_F(ProbeDifferentialTest, SnapshotFilterMatchesBruteForce) {
  // Stream events always carry a time; the snapshot path is reached
  // through Piglet, whose predicates take no custom distance function.
  std::vector<stream::StreamEvent> events;
  std::vector<Element> rows;
  Rng rng(1304);
  for (const Element& e : big_) {
    STObject obj = e.first.HasTime()
                       ? e.first
                       : STObject(e.first.geo(), rng.UniformInt(0, 1000));
    rows.emplace_back(obj, e.second);
    events.emplace_back(e.second, "c", std::move(obj));
  }
  serve::Catalog catalog;
  ASSERT_TRUE(catalog.CreateDataset("events", 8).ok());
  ASSERT_TRUE(catalog.Ingest("events", std::move(events)).ok());
  auto pin = catalog.Pin("events");
  ASSERT_TRUE(pin.ok());

  const std::string box =
      WriteWkt(Geometry::MakeBox(test::RandomEnvelope(&rng, 40.0)));
  const std::string star = WriteWkt(test::RandomStarPolygon(&rng));
  for (const std::string& wkt : {box, star}) {
    for (const bool timed : {true, false}) {
      for (const JoinPredicate& pred : Predicates()) {
        if (pred.distance != nullptr) continue;
        std::string args = "'" + wkt + "'";
        if (pred.type == PredicateType::kWithinDistance) args += ", 4";
        if (timed) args += ", 200, 600";
        std::string name = PredicateName(pred.type);
        for (char& c : name) c = static_cast<char>(std::toupper(c));
        const std::string script =
            "hits = FILTER events BY " + name + "(" + args + ");";
        const STObject query =
            (timed ? STObject::FromWkt(wkt, 200, 600) : STObject::FromWkt(wkt))
                .ValueOrDie();

        std::ostringstream out;
        piglet::Interpreter interp(&ctx_, &out);
        piglet::PigRelation rel;
        rel.schema = {"id", "category", "time", "wkt"};
        rel.spatialized = true;
        rel.snapshot = pin.ValueOrDie().state();
        interp.BindRelation("events", std::move(rel));
        ASSERT_TRUE(interp.RunScript(script).ok()) << script;
        auto hits = interp.relation("hits");
        ASSERT_TRUE(hits.ok());
        IdSet got;
        for (const piglet::PigRow& row : hits.ValueOrDie()->rdd.Collect()) {
          got.insert(std::get<int64_t>(row.fields[0]));
        }
        EXPECT_EQ(got, BruteFilter(rows, query, pred)) << script;
      }
    }
  }
}

// Regression: a filter over an uncached lineage used to reuse the slab an
// earlier filter built whenever the recomputed partition had the same row
// count — here every point has moved out of the box, yet the stale slab
// still answered 4 rows.
TEST(ProbeSlabCacheTest, UncachedLineageNeverReusesAStaleSlab) {
  Context ctx(2);
  std::vector<Element> rows;
  for (int64_t i = 0; i < 4; ++i) {
    rows.emplace_back(STObject(Geometry::MakePoint(
                          {static_cast<double>(i + 1), 1.0})),
                      i);
  }
  auto shift = std::make_shared<std::atomic<int>>(0);
  RDD<Element> moving =
      MakeRDD(&ctx, rows, 1).Map([shift](Element& e) {
        const Coordinate c = e.first.geo().AsPoint();
        return Element(STObject(Geometry::MakePoint({c.x + *shift, c.y})),
                       e.second);
      });
  const SpatialRDD<int64_t> data(moving);
  const STObject box(Geometry::MakeBox(Envelope(0, 0, 10, 10)));
  EXPECT_EQ(data.Filter(box, JoinPredicate::Intersects()).Count(), 4u);
  shift->store(100);  // same row count, every point now outside the box
  EXPECT_EQ(data.Filter(box, JoinPredicate::Intersects()).Count(), 0u);
}

TEST(ProbeSlabCacheTest, OnlyTheCachedWrapperKeepsItsSlabs) {
  Context ctx(2);
  const std::vector<Element> rows = MixedRows(/*seed=*/1305, 200, 0);
  const STObject box(Geometry::MakeBox(Envelope(10, 10, 60, 60)));
  const ColumnarMetricSet& m = GlobalColumnarMetrics();

  const auto plain = SpatialRDD<int64_t>::FromVector(&ctx, rows, 4);
  uint64_t built = m.batches->Value();
  uint64_t reused = m.slab_reuse->Value();
  plain.Intersects(box).Count();
  plain.Intersects(box).Count();
  EXPECT_EQ(m.batches->Value() - built, 8u);  // one slab per task
  EXPECT_EQ(m.slab_reuse->Value(), reused);

  const auto cached = plain.Cache();
  built = m.batches->Value();
  reused = m.slab_reuse->Value();
  cached.Intersects(box).Count();
  cached.Intersects(box).Count();
  EXPECT_EQ(m.batches->Value() - built, 4u);  // built once per partition
  EXPECT_EQ(m.slab_reuse->Value() - reused, 4u);
}

}  // namespace
}  // namespace stark
