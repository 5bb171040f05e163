// Columnar data plane tests: SoA round-trip bit-identity over the shared
// fuzz corpus (NaN coordinates, empty-envelope sentinels, degenerate
// shapes), batch-vs-scalar differentials for every refinement kernel, the
// slab wire format against the per-object serde, the checkpoint slab
// encoding and the CSV point fast path. The contract everywhere is
// exactness: the columnar plane must be byte-for-byte indistinguishable
// from the per-object paths. Query-path differentials live in
// probe_test.cc.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serde.h"
#include "core/columnar.h"
#include "core/st_serde.h"
#include "core/stobject.h"
#include "engine/checkpoint.h"
#include "engine/context.h"
#include "engine/rdd.h"
#include "geometry/kernels.h"
#include "geometry/predicates.h"
#include "geometry/prepared.h"
#include "geometry/wkt.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/predicate.h"
#include "spatial_rdd/value_serde.h"
#include "test_util.h"

namespace stark {
namespace {

using test::RandomPopulation;

// STObject::operator== treats NaN coordinates as unequal-to-themselves, so
// bit-identity is asserted over the serialized form instead: two objects
// are "the same" iff WriteSTObject emits the same bytes.
std::string STBytes(const STObject& obj) {
  BinaryWriter w;
  WriteSTObject(&w, obj);
  return std::string(w.buffer().data(), w.buffer().size());
}

// The prepared-geometry suite's population mix: no-time, instant, and
// interval objects over mixed geometry types.
std::vector<STObject> MakeObjects(const std::vector<Geometry>& pop) {
  std::vector<STObject> out;
  out.reserve(pop.size());
  for (size_t i = 0; i < pop.size(); ++i) {
    switch (i % 3) {
      case 0:
        out.emplace_back(pop[i]);
        break;
      case 1:
        out.emplace_back(pop[i], static_cast<Instant>(100 + i % 7));
        break;
      default:
        out.emplace_back(pop[i], static_cast<Instant>(i % 5),
                         static_cast<Instant>(i % 5 + 10));
        break;
    }
  }
  return out;
}

void ExpectBitIdenticalRoundTrip(const std::vector<STObject>& objs) {
  const ColumnarBatch batch = ColumnarBatch::FromObjects(objs);
  ASSERT_EQ(batch.rows(), objs.size());
  auto back = batch.ToObjects();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const std::vector<STObject>& got = back.ValueOrDie();
  ASSERT_EQ(got.size(), objs.size());
  for (size_t i = 0; i < objs.size(); ++i) {
    ASSERT_EQ(STBytes(got[i]), STBytes(objs[i])) << "row " << i;
    // The envelope slab must carry the object's envelope bit-exactly —
    // FilterEnvelopesBatch reads it in place of obj.envelope().
    EXPECT_EQ(batch.envelopes().min_x[i], objs[i].envelope().min_x())
        << "row " << i;
    EXPECT_EQ(batch.envelopes().Get(i).IsEmpty(), objs[i].envelope().IsEmpty())
        << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Round-trip bit-identity
// ---------------------------------------------------------------------------

TEST(ColumnarBatchTest, RoundTripsFuzzCorpusBitIdentically) {
  ExpectBitIdenticalRoundTrip(
      MakeObjects(RandomPopulation(/*seed=*/9001, 150)));
}

TEST(ColumnarBatchTest, RoundTripsSentinelsAndDegenerateShapes) {
  const double nan = std::nan("");
  std::vector<STObject> objs;
  // NaN coordinates: the point's envelope is the empty sentinel
  // (ExpandToInclude never fires), and the NaN payload bits must survive.
  objs.emplace_back(Geometry::MakePoint({nan, 7.0}));
  objs.emplace_back(Geometry::MakePoint({nan, nan}), Instant{42});
  objs.emplace_back(Geometry::MakePoint({3.0, nan}), Instant{-5}, Instant{5});
  // Signed zero and extreme magnitudes.
  objs.emplace_back(Geometry::MakePoint({-0.0, 0.0}));
  objs.emplace_back(Geometry::MakePoint({1e308, -1e308}));
  // Degenerate-but-accepted shapes: a hairline box and a two-vertex line.
  objs.emplace_back(Geometry::MakeBox(Envelope(5, 5, 5 + 1e-12, 5 + 1e-12)));
  auto line = Geometry::MakeLineString({{0, 0}, {0, 0 + 1e-300}});
  if (line.ok()) objs.emplace_back(line.ValueOrDie(), Instant{0});
  // A NaN vertex inside a multipoint (non-point row with NaN slab data).
  auto mp = Geometry::MakeMultiPoint({{1, 2}, {nan, 4}});
  if (mp.ok()) objs.emplace_back(mp.ValueOrDie());
  ASSERT_TRUE(objs[0].envelope().IsEmpty());
  ExpectBitIdenticalRoundTrip(objs);
}

TEST(ColumnarBatchTest, AllPointsFastPathAndPointDetection) {
  std::vector<STObject> points;
  for (int i = 0; i < 10; ++i) {
    points.emplace_back(Geometry::MakePoint({double(i), double(-i)}),
                        Instant{i});
  }
  ColumnarBatch batch = ColumnarBatch::FromObjects(points);
  EXPECT_TRUE(batch.AllPoints());
  EXPECT_EQ(batch.non_point_rows(), 0u);
  EXPECT_EQ(batch.x()[3], 3.0);
  EXPECT_EQ(batch.y()[3], -3.0);
  EXPECT_EQ(batch.t_start()[3], 3);
  batch.Append(STObject(Geometry::MakeBox(Envelope(0, 0, 1, 1))));
  EXPECT_FALSE(batch.AllPoints());
  EXPECT_EQ(batch.non_point_rows(), 1u);
  EXPECT_GT(batch.MemoryBytes(), 0u);
}

TEST(ColumnarBatchTest, AppendPointMatchesObjectAppendBitIdentically) {
  const double nan = std::nan("");
  const std::vector<std::pair<double, double>> coords = {
      {1.5, -2.5}, {nan, 4.0}, {-0.0, 1e17}};
  ColumnarBatch via_point;
  ColumnarBatch via_object;
  for (const auto& [x, y] : coords) {
    via_point.AppendPoint(x, y, /*has_time=*/true, 7, 9);
    via_object.Append(STObject(Geometry::MakePoint({x, y}), 7, 9));
  }
  auto a = via_point.ToObjects();
  auto b = via_object.ToObjects();
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < coords.size(); ++i) {
    EXPECT_EQ(STBytes(a.ValueOrDie()[i]), STBytes(b.ValueOrDie()[i]));
    EXPECT_EQ(via_point.envelopes().Get(i).IsEmpty(),
              via_object.envelopes().Get(i).IsEmpty());
  }
}

// ---------------------------------------------------------------------------
// Slab serde
// ---------------------------------------------------------------------------

TEST(ColumnarSerdeTest, SlabRoundTripMatchesPerObjectSerde) {
  const std::vector<STObject> objs =
      MakeObjects(RandomPopulation(/*seed=*/777, 80));
  const ColumnarBatch batch = ColumnarBatch::FromObjects(objs);

  BinaryWriter w;
  WriteColumnarBatch(&w, batch);
  BinaryReader r(w.buffer());
  auto read = ReadColumnarBatch(&r);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(r.AtEnd());

  auto got = read.ValueOrDie().ToObjects();
  ASSERT_TRUE(got.ok());
  for (size_t i = 0; i < objs.size(); ++i) {
    // Identical to the object and therefore to what the per-object wire
    // format (WriteSTObject/ReadSTObject) would have reproduced.
    ASSERT_EQ(STBytes(got.ValueOrDie()[i]), STBytes(objs[i])) << "row " << i;
  }
}

TEST(ColumnarSerdeTest, RejectsTruncatedAndCorruptBytes) {
  const std::vector<STObject> objs =
      MakeObjects(RandomPopulation(/*seed=*/31337, 40));
  BinaryWriter w;
  WriteColumnarBatch(&w, ColumnarBatch::FromObjects(objs));
  const std::vector<char>& bytes = w.buffer();

  // Truncations at various depths must all surface as clean errors.
  for (size_t keep : {size_t{0}, size_t{3}, size_t{9}, bytes.size() / 2,
                      bytes.size() - 1}) {
    BinaryReader r(bytes.data(), keep);
    EXPECT_FALSE(ReadColumnarBatch(&r).ok()) << "keep=" << keep;
  }
  // A corrupt geometry-type tag must be rejected by validation, not fed to
  // the row reconstructor.
  std::vector<char> corrupt = bytes;
  // magic(4) + version(1) + rows(8) + non_point(8) + row_ids slab header(8)
  // + row_ids data + geo_type slab header(8) puts the first tag at:
  const size_t first_tag = 4 + 1 + 8 + 8 + 8 + 4 * objs.size() + 8;
  ASSERT_LT(first_tag, corrupt.size());
  corrupt[first_tag] = 0x7f;
  BinaryReader r2(corrupt);
  EXPECT_FALSE(ReadColumnarBatch(&r2).ok());
}

// ---------------------------------------------------------------------------
// Kernel differentials
// ---------------------------------------------------------------------------

TEST(ColumnarKernelsTest, PointSpecializationsMatchGenericPreparedCalls) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/515, 60);
  Rng rng(516);
  std::vector<Coordinate> probes;
  for (int i = 0; i < 40; ++i) probes.push_back(test::RandomCoord(&rng));
  probes.push_back({std::nan(""), 50.0});
  probes.push_back({std::nan(""), std::nan("")});
  for (const Geometry& g : pop) {
    const PreparedGeometry prep(g);
    for (const Coordinate& p : probes) {
      const Geometry pt = Geometry::MakePoint(p);
      ASSERT_EQ(prep.IntersectsPoint(p), prep.IntersectedBy(pt)) << g.ToWkt();
      ASSERT_EQ(prep.ContainsPoint(p), prep.Contains(pt)) << g.ToWkt();
      ASSERT_EQ(prep.ContainedByPoint(p), prep.ContainedBy(pt)) << g.ToWkt();
      const double got = prep.DistanceFromPoint(p);
      const double want = prep.DistanceFrom(pt);
      // Bit comparison so NaN==NaN and -0.0 != 0.0 are handled exactly.
      ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << g.ToWkt();
    }
  }
}

TEST(ColumnarKernelsTest, TemporalOverlapBatchMatchesIntervalOps) {
  Rng rng(99);
  const size_t n = 200;
  std::vector<int64_t> ts(n), te(n);
  std::vector<uint8_t> ht(n);
  for (size_t i = 0; i < n; ++i) {
    ht[i] = static_cast<uint8_t>(rng.UniformInt(0, 1));
    const int64_t s = rng.UniformInt(-20, 20);
    ts[i] = ht[i] ? s : 0;
    te[i] = ht[i] ? s + rng.UniformInt(0, 15) : 0;
  }
  std::vector<uint32_t> cand(n);
  for (size_t i = 0; i < n; ++i) cand[i] = static_cast<uint32_t>(i);
  std::vector<uint32_t> out(n);

  for (const bool query_has_time : {false, true}) {
    const int64_t qs = -3;
    const int64_t qe = 11;
    const TemporalInterval query(qs, qe);
    for (const TemporalPredicate pred :
         {TemporalPredicate::kIntersects, TemporalPredicate::kContains,
          TemporalPredicate::kContainedBy}) {
      for (const bool query_is_left : {true, false}) {
        const size_t kept =
            TemporalOverlapBatch(ts.data(), te.data(), ht.data(),
                                 query_has_time, qs, qe, pred, query_is_left,
                                 cand.data(), n, out.data());
        std::vector<uint32_t> expect;
        for (size_t i = 0; i < n; ++i) {
          // Formulas (1)-(3): both undefined, or both defined and the
          // temporal predicate holds in the stated operand orientation.
          bool hit;
          if (!ht[i] || !query_has_time) {
            hit = !ht[i] && !query_has_time;
          } else {
            const TemporalInterval row(ts[i], te[i]);
            const TemporalInterval& lhs = query_is_left ? query : row;
            const TemporalInterval& rhs = query_is_left ? row : query;
            switch (pred) {
              case TemporalPredicate::kIntersects:
                hit = lhs.Intersects(rhs);
                break;
              case TemporalPredicate::kContains:
                hit = lhs.Contains(rhs);
                break;
              default:
                hit = rhs.Contains(lhs);
                break;
            }
          }
          if (hit) expect.push_back(static_cast<uint32_t>(i));
        }
        ASSERT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + kept),
                  expect)
            << "pred=" << static_cast<int>(pred) << " qleft=" << query_is_left
            << " qtime=" << query_has_time;
      }
    }
  }
}

TEST(ColumnarRefineTest, MatchesBoundPredicateOnMixedBatches) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/246810, 90);
  const std::vector<STObject> objs = MakeObjects(pop);
  const ColumnarBatch batch = ColumnarBatch::FromObjects(objs);
  ASSERT_FALSE(batch.AllPoints());

  const std::vector<JoinPredicate> preds = {
      JoinPredicate::Intersects(),
      JoinPredicate::Contains(),
      JoinPredicate::ContainedBy(),
      JoinPredicate::WithinDistance(3.5),
  };
  std::vector<uint32_t> scratch;
  for (const JoinPredicate& pred : preds) {
    ASSERT_TRUE(columnar_refine::Refinable(pred));
    for (size_t f = 0; f < objs.size(); f += 7) {
      const STObject& fixed = objs[f];
      const PreparedGeometry prep(fixed.geo());
      for (const bool cand_left : {true, false}) {
        BoundPredicate bound(pred, fixed,
                             cand_left ? BoundPredicate::Side::kCandidateLeft
                                       : BoundPredicate::Side::kCandidateRight);
        std::vector<uint32_t> expect;
        std::vector<uint32_t> cand;
        for (uint32_t j = 0; j < objs.size(); ++j) {
          cand.push_back(j);
          if (bound.Eval(objs[j])) expect.push_back(j);
        }
        columnar_refine::Stats stats;
        columnar_refine::RefineCandidates(
            batch, pred, fixed, prep, cand_left, &cand,
            [&](uint32_t j) -> const STObject& { return objs[j]; }, &stats,
            &scratch);
        ASSERT_EQ(cand, expect)
            << PredicateName(pred.type) << " cand_left=" << cand_left
            << " fixed=" << f;
        EXPECT_EQ(stats.kernel_rows + stats.fallback_rows, objs.size());
        EXPECT_GT(stats.kernel_rows, 0u);   // the corpus contains points
        EXPECT_GT(stats.fallback_rows, 0u); // ...and non-points
      }
    }
  }
}

TEST(ColumnarRefineTest, AllPointsBatchStaysOnKernels) {
  Rng rng(4242);
  std::vector<STObject> points;
  for (size_t i = 0; i < 120; ++i) {
    const Coordinate c = test::RandomCoord(&rng);
    switch (i % 3) {
      case 0:
        points.emplace_back(Geometry::MakePoint(c));
        break;
      case 1:
        points.emplace_back(Geometry::MakePoint(c), Instant(i % 11));
        break;
      default:
        points.emplace_back(Geometry::MakePoint(c), Instant(0),
                            Instant(i % 13));
        break;
    }
  }
  points.emplace_back(Geometry::MakePoint({std::nan(""), 1.0}), Instant{3});
  const ColumnarBatch batch = ColumnarBatch::FromObjects(points);
  ASSERT_TRUE(batch.AllPoints());

  const STObject fixed(Geometry::MakeBox(Envelope(20, 20, 70, 70)),
                       Instant{2}, Instant{9});
  const PreparedGeometry prep(fixed.geo());
  std::vector<uint32_t> scratch;
  for (const JoinPredicate& pred :
       {JoinPredicate::Intersects(), JoinPredicate::Contains(),
        JoinPredicate::ContainedBy(), JoinPredicate::WithinDistance(12.0)}) {
    for (const bool cand_left : {true, false}) {
      BoundPredicate bound(pred, fixed,
                           cand_left ? BoundPredicate::Side::kCandidateLeft
                                     : BoundPredicate::Side::kCandidateRight);
      std::vector<uint32_t> expect;
      std::vector<uint32_t> cand;
      for (uint32_t j = 0; j < points.size(); ++j) {
        cand.push_back(j);
        if (bound.Eval(points[j])) expect.push_back(j);
      }
      columnar_refine::Stats stats;
      columnar_refine::RefineCandidates(
          batch, pred, fixed, prep, cand_left, &cand,
          [&](uint32_t j) -> const STObject& { return points[j]; }, &stats,
          &scratch);
      ASSERT_EQ(cand, expect) << PredicateName(pred.type);
      EXPECT_EQ(stats.kernel_rows, points.size());
      EXPECT_EQ(stats.fallback_rows, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: checkpoint slabs, CSV ingest
// ---------------------------------------------------------------------------

TEST(ColumnarEndToEndTest, CheckpointColumnarPartsRoundTrip) {
  using Element = std::pair<STObject, int64_t>;
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/135, 60);
  const std::vector<STObject> objs = MakeObjects(pop);
  std::vector<Element> data;
  for (size_t i = 0; i < objs.size(); ++i) {
    data.emplace_back(objs[i], static_cast<int64_t>(i));
  }
  Context ctx(2);
  const std::string dir = test::UniqueTempPath("columnar_ckpt");
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()), 0);

  ASSERT_TRUE(Checkpoint(MakeRDD(&ctx, data, 3), dir).ok());
  auto loaded = LoadCheckpoint<Element>(&ctx, dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<Element> got = loaded.ValueOrDie().Collect();
  ASSERT_EQ(got.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(got[i].second, data[i].second);
    ASSERT_EQ(STBytes(got[i].first), STBytes(data[i].first)) << "row " << i;
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(CsvColumnarTest, ParsePointWktAgreesWithFullParser) {
  const std::vector<std::string> accepted = {
      "POINT (3 4)", "POINT(3 4)", "  point ( 1.5 -2e3 )  ",
      "POINT (0.1 100000000000000000001)"};
  for (const std::string& wkt : accepted) {
    double x = 0.0, y = 0.0;
    ASSERT_TRUE(ParsePointWkt(wkt, &x, &y)) << wkt;
    auto full = ParseWkt(wkt);
    ASSERT_TRUE(full.ok()) << wkt;
    const Coordinate& c = full.ValueOrDie().AsPoint();
    EXPECT_EQ(x, c.x) << wkt;
    EXPECT_EQ(y, c.y) << wkt;
  }
  const std::vector<std::string> rejected = {
      "LINESTRING (0 0, 1 1)", "POINT (1 2) x", "POINT (1)", "POINT",
      "POLYGON ((0 0, 1 0, 1 1, 0 0))", "", "POINT (a b)"};
  for (const std::string& wkt : rejected) {
    double x = 0.0, y = 0.0;
    EXPECT_FALSE(ParsePointWkt(wkt, &x, &y)) << wkt;
  }
}

TEST(CsvColumnarTest, EventsToColumnarBatchMatchesEventsToPairs) {
  std::vector<EventRecord> records;
  for (int i = 0; i < 20; ++i) {
    EventRecord rec;
    rec.id = i;
    rec.category = i % 2 ? "sports" : "politics";
    rec.time = 100 + i;
    rec.wkt = "POINT (" + std::to_string(i) + " " + std::to_string(2 * i) +
              ".5)";
    records.push_back(rec);
  }
  EventRecord poly;
  poly.id = 99;
  poly.category = "culture";
  poly.time = 7;
  poly.wkt = "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))";
  records.push_back(poly);

  auto batch = EventsToColumnarBatch(records);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  auto pairs = EventsToPairs(records);
  ASSERT_TRUE(pairs.ok());
  auto objs = batch.ValueOrDie().ToObjects();
  ASSERT_TRUE(objs.ok());
  ASSERT_EQ(objs.ValueOrDie().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(STBytes(objs.ValueOrDie()[i]),
              STBytes(pairs.ValueOrDie()[i].first))
        << "row " << i;
  }
  EXPECT_EQ(batch.ValueOrDie().non_point_rows(), 1u);

  // File round trip with payload columns.
  const std::string path = test::UniqueTempPath("columnar_events.csv");
  ASSERT_TRUE(WriteEventsCsv(path, records).ok());
  auto cols = ReadEventsCsvColumnar(path);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  ASSERT_EQ(cols.ValueOrDie().batch.rows(), records.size());
  EXPECT_EQ(cols.ValueOrDie().ids[3], 3);
  EXPECT_EQ(cols.ValueOrDie().categories[1], "sports");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stark
