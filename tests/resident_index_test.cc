// The resident probe index of a Cache()d SpatialRDD and the self join built
// on the join core: SelfSpatialJoin against its former ZipWithIndex
// definition and a nested loop, over every partitioner, predicate and plan;
// tree and slab reuse across joins and filters; index orders; the identity
// rule that keeps uncached lineages from ever reading a resident structure;
// and the engine.cache.resident_index_bytes gauge.
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"
#include "test_util.h"

namespace stark {
namespace {

using Element = std::pair<STObject, int64_t>;
using Data = SpatialRDD<int64_t>;
using Tagged = std::pair<STObject, std::pair<int64_t, size_t>>;
using TaggedPair = std::pair<Tagged, Tagged>;
using TagSet = std::set<std::pair<size_t, size_t>>;

const Envelope kUniverse(0, 0, test::kFuzzUniverse, test::kFuzzUniverse);

/// \p count rows, id = position: two thirds points, the rest mixed
/// geometry; half of them timed.
std::vector<Element> MixedRows(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Element> rows;
  for (size_t i = 0; i < count; ++i) {
    Geometry geo = rng.UniformInt(0, 2) == 0
                       ? test::RandomGeometry(&rng)
                       : Geometry::MakePoint(test::RandomCoord(&rng));
    const auto id = static_cast<int64_t>(i);
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

/// The self join as it was defined before the join core: tag rows through
/// ZipWithIndex, join the cached tagged copy with itself, and filter the
/// identity pairs out of the full result.
RDD<TaggedPair> ZipWithIndexSelfJoin(const Data& data,
                                     const JoinPredicate& pred,
                                     const JoinOptions& options) {
  RDD<Tagged> tagged = data.rdd().ZipWithIndex().Map(
      [](const std::pair<Element, size_t>& e) {
        return Tagged{e.first.first, {e.first.second, e.second}};
      });
  SpatialRDD<std::pair<int64_t, size_t>> wrapped(tagged.Cache(),
                                                  data.partitioner());
  return SpatialJoin(wrapped, wrapped, pred, options)
      .Filter([](const TaggedPair& p) {
        return p.first.second.second != p.second.second.second;
      });
}

/// Ordered (tag, tag) pairs of a nested loop over \p data's rows in
/// partition order (a row's tag is its position there).
TagSet NestedLoopSelfJoin(const Data& data, const JoinPredicate& pred) {
  const std::vector<Element> rows = data.rdd().Collect();
  TagSet out;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < rows.size(); ++j) {
      if (i != j && pred.Eval(rows[i].first, rows[j].first)) out.emplace(i, j);
    }
  }
  return out;
}

TagSet Tags(const std::vector<TaggedPair>& pairs) {
  TagSet out;
  for (const auto& [l, r] : pairs) {
    EXPECT_TRUE(out.emplace(l.second.second, r.second.second).second)
        << "duplicate pair " << l.second.second << "," << r.second.second;
  }
  return out;
}

struct Counters {
  uint64_t tree_builds;
  uint64_t batches;
  static Counters Now() {
    return {GlobalJoinMetrics().tree_builds->Value(),
            GlobalColumnarMetrics().batches->Value()};
  }
};

size_t JoinCount(const Data& left, const Data& right,
                 const JoinOptions& options = {}) {
  return SpatialJoinProject(left, right, JoinPredicate::Intersects(), options,
                            [](const Element& l, const Element& r) {
                              return std::make_pair(l.second, r.second);
                            })
      .Count();
}

class ResidentIndexTest : public ::testing::Test {
 protected:
  ResidentIndexTest() : rows_(MixedRows(/*seed=*/1509, 160)) {}

  Data Partitioned(const std::string& kind) {
    Data plain = Data::FromVector(&ctx_, rows_, 4);
    if (kind == "grid") {
      return plain.PartitionBy(std::make_shared<GridPartitioner>(kUniverse, 3));
    }
    if (kind == "bsp") {
      std::vector<Coordinate> centroids;
      for (const auto& [obj, id] : rows_) centroids.push_back(obj.Centroid());
      BSPartitioner::Options opt;
      opt.max_cost = 30;
      return plain.PartitionBy(
          std::make_shared<BSPartitioner>(kUniverse, centroids, opt));
    }
    return plain;
  }

  Context ctx_{2};
  std::vector<Element> rows_;
};

TEST_F(ResidentIndexTest, SelfJoinEqualsZipWithIndexDefinitionAndNestedLoop) {
  const std::vector<std::pair<std::string, JoinPredicate>> preds = {
      {"intersects", JoinPredicate::Intersects()},
      {"contains", JoinPredicate::Contains()},
      {"containedby", JoinPredicate::ContainedBy()},
      {"withindistance", JoinPredicate::WithinDistance(4.0)},
  };
  JoinOptions live;
  JoinOptions broadcast;
  broadcast.broadcast_threshold = 1'000;
  JoinOptions nested;
  nested.index_order = 0;
  const std::vector<std::pair<std::string, JoinOptions>> plans = {
      {"live", live}, {"broadcast", broadcast}, {"no-index", nested}};
  for (const std::string kind : {"none", "grid", "bsp"}) {
    const Data data = Partitioned(kind);
    const Data cached = data.Cache();
    for (const auto& [pred_name, pred] : preds) {
      const TagSet want = NestedLoopSelfJoin(data, pred);
      for (const auto& [plan, options] : plans) {
        SCOPED_TRACE(kind + " / " + pred_name + " / " + plan);
        const std::vector<TaggedPair> old =
            ZipWithIndexSelfJoin(data, pred, options).Collect();
        EXPECT_EQ(Tags(old), want);
        // Uncached, then the cached wrapper twice: its first join builds
        // the resident trees and slabs, the second probes them.
        for (const Data* input : {&data, &cached, &cached}) {
          const std::vector<TaggedPair> got =
              SelfSpatialJoin(*input, pred, options).Collect();
          EXPECT_EQ(Tags(got), want);
          // Pair for pair, tags, payloads and objects included, in order.
          EXPECT_TRUE(got == old);
        }
      }
    }
  }
}

TEST_F(ResidentIndexTest, SelfJoinOverNondeterministicLineageIsConsistent) {
  // Every evaluation of this lineage moves every point to a new random
  // place, so a self join that read its input twice would pair rows from
  // two different worlds.
  std::vector<Element> points;
  for (int64_t i = 0; i < 200; ++i) {
    points.emplace_back(STObject(Geometry::MakePoint(0, 0)), i);
  }
  auto evaluation = std::make_shared<std::atomic<uint64_t>>(0);
  const RDD<Element> moving =
      MakeRDD(&ctx_, points, 4).Map([evaluation](Element& e) {
        Rng rng(evaluation->fetch_add(1) * 7919 + 17);
        return Element(STObject(Geometry::MakePoint(rng.Uniform(0, 20),
                                                    rng.Uniform(0, 20))),
                       e.second);
      });
  const Data data(moving);
  const JoinPredicate pred = JoinPredicate::WithinDistance(1.5);
  JoinOptions broadcast;
  broadcast.broadcast_threshold = 1'000;
  for (const JoinOptions& options : {JoinOptions{}, broadcast}) {
    const std::vector<TaggedPair> got =
        SelfSpatialJoin(data, pred, options).Collect();
    ASSERT_FALSE(got.empty());
    std::map<size_t, STObject> object_of;
    TagSet tags;
    for (const auto& [l, r] : got) {
      EXPECT_NE(l.second.second, r.second.second) << "identity pair";
      EXPECT_TRUE(pred.Eval(l.first, r.first));
      // One object per tag: both sides saw the same evaluation.
      for (const Tagged* t : {&l, &r}) {
        const auto [it, inserted] = object_of.emplace(t->second.second, t->first);
        EXPECT_TRUE(inserted || it->second == t->first);
      }
      tags.emplace(l.second.second, r.second.second);
    }
    for (const auto& [a, b] : tags) {
      EXPECT_TRUE(tags.count({b, a})) << a << "," << b << " without mirror";
    }
  }
}

TEST_F(ResidentIndexTest, SecondLiveJoinOverCachedWrapperBuildsNothing) {
  const Data cached = Data::FromVector(&ctx_, rows_, 4).Cache();
  const Data right = Data::FromVector(&ctx_, MixedRows(1510, 40), 2);
  const size_t want = JoinCount(Data::FromVector(&ctx_, rows_, 4), right);

  Counters before = Counters::Now();
  EXPECT_EQ(JoinCount(cached, right), want);
  Counters after = Counters::Now();
  EXPECT_EQ(after.tree_builds - before.tree_builds, 4u);  // one per partition
  EXPECT_EQ(after.batches - before.batches, 4u);

  before = after;
  EXPECT_EQ(JoinCount(cached, right), want);
  const Data copy = cached;  // copies share the resident index
  EXPECT_EQ(JoinCount(copy, right), want);
  after = Counters::Now();
  EXPECT_EQ(after.tree_builds, before.tree_builds);
  EXPECT_EQ(after.batches, before.batches);
}

TEST_F(ResidentIndexTest, FilterSlabServesTheJoin) {
  const Data cached = Data::FromVector(&ctx_, rows_, 4).Cache();
  const Data right = Data::FromVector(&ctx_, MixedRows(1511, 40), 2);
  const STObject everything(Geometry::MakeBox(kUniverse));
  cached.Intersects(everything).Count();  // builds the four slabs
  const Counters before = Counters::Now();
  JoinCount(cached, right);
  const Counters after = Counters::Now();
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.tree_builds - before.tree_builds, 4u);
}

TEST_F(ResidentIndexTest, EachIndexOrderBuildsItsOwnTree) {
  const Data cached = Data::FromVector(&ctx_, rows_, 4).Cache();
  const Data right = Data::FromVector(&ctx_, MixedRows(1512, 40), 2);
  JoinOptions order4;
  order4.index_order = 4;
  const size_t want = JoinCount(cached, right);
  Counters before = Counters::Now();
  EXPECT_EQ(JoinCount(cached, right, order4), want);
  Counters after = Counters::Now();
  EXPECT_EQ(after.tree_builds - before.tree_builds, 4u);
  EXPECT_EQ(after.batches, before.batches);  // one slab serves every order

  before = after;
  EXPECT_EQ(JoinCount(cached, right, order4), want);
  EXPECT_EQ(JoinCount(cached, right), want);
  after = Counters::Now();
  EXPECT_EQ(after.tree_builds, before.tree_builds);
}

TEST_F(ResidentIndexTest, UncachedLineagesNeverReuseATreeOrSlab) {
  std::vector<Element> rows;
  for (int64_t i = 0; i < 4; ++i) {
    rows.emplace_back(
        STObject(Geometry::MakePoint({static_cast<double>(i + 1), 1.0})), i);
  }
  const Data box = Data::FromVector(
      &ctx_, {Element(STObject(Geometry::MakeBox(Envelope(0, 0, 10, 10))), 0)},
      1);
  auto shift = std::make_shared<std::atomic<int>>(0);
  auto move = [shift](Element& e) {
    const Coordinate c = e.first.geo().AsPoint();
    return Element(STObject(Geometry::MakePoint({c.x + *shift, c.y})),
                   e.second);
  };
  const Data cached = Data::FromVector(&ctx_, rows, 1).Cache();
  // An uncached lineage over the cached rows, and one over a collection.
  const Data over_cache(cached.rdd().Map(move));
  const Data over_collection(MakeRDD(&ctx_, rows, 1).Map(move));
  // Another wrapper of the cached RDD shares its partitions, not its index.
  const Data rewrapped(cached.rdd());
  EXPECT_EQ(rewrapped.probe_index(), nullptr);
  EXPECT_EQ(over_cache.probe_index(), nullptr);

  for (const Data* left : {&cached, &over_cache, &over_collection}) {
    EXPECT_EQ(JoinCount(*left, box), 4u);
  }
  shift->store(100);  // same row counts, every point now outside the box
  EXPECT_EQ(JoinCount(cached, box), 4u);
  const Counters before = Counters::Now();
  EXPECT_EQ(JoinCount(over_cache, box), 0u);
  EXPECT_EQ(JoinCount(over_collection, box), 0u);
  EXPECT_EQ(JoinCount(rewrapped, box), 4u);
  const Counters after = Counters::Now();
  EXPECT_EQ(after.tree_builds - before.tree_builds, 3u);  // one per join
  EXPECT_EQ(after.batches - before.batches, 3u);
}

TEST_F(ResidentIndexTest, ConcurrentJoinsBuildEachPartitionOnce) {
  const Data cached = Data::FromVector(&ctx_, rows_, 4).Cache();
  const Data right = Data::FromVector(&ctx_, MixedRows(1513, 40), 2);
  const size_t want = JoinCount(Data::FromVector(&ctx_, rows_, 4), right);
  const Counters before = Counters::Now();
  std::vector<size_t> got(4, 0);
  std::vector<std::thread> joins;
  for (size_t t = 0; t < got.size(); ++t) {
    joins.emplace_back([&, t] { got[t] = JoinCount(cached, right); });
  }
  for (auto& j : joins) j.join();
  const Counters after = Counters::Now();
  for (const size_t n : got) EXPECT_EQ(n, want);
  EXPECT_EQ(after.tree_builds - before.tree_builds, 4u);
  EXPECT_EQ(after.batches - before.batches, 4u);
}

TEST_F(ResidentIndexTest, ResidentBytesGaugeDropsWhenTheWrapperDies) {
  obs::Gauge* gauge =
      obs::DefaultMetrics().GetGauge("engine.cache.resident_index_bytes");
  const int64_t base = gauge->Value();
  const Data plain = Data::FromVector(&ctx_, rows_, 4);
  const Data right = Data::FromVector(&ctx_, MixedRows(1514, 40), 2);
  JoinCount(plain, right);  // builds, but keeps nothing
  EXPECT_EQ(gauge->Value(), base);
  {
    const Data cached = plain.Cache();
    JoinCount(cached, right);
    const int64_t held = cached.probe_index()->bytes();
    EXPECT_GT(held, 0);
    EXPECT_EQ(gauge->Value() - base, held);
    JoinCount(cached, right);  // nothing new to hold
    EXPECT_EQ(gauge->Value() - base, held);
  }
  EXPECT_EQ(gauge->Value(), base);
}

}  // namespace
}  // namespace stark
