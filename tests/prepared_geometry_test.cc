// Differential testing of PreparedGeometry and BoundPredicate against the
// plain predicate entry points: over the shared fuzz corpus, every prepared
// evaluation must return exactly what the unprepared call returns —
// including bit-identical distances — and the preparation counters must
// reflect one miss per distinct geometry plus a hit per reuse.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stobject.h"
#include "geometry/geometry.h"
#include "geometry/predicates.h"
#include "geometry/prepared.h"
#include "spatial_rdd/predicate.h"
#include "test_util.h"

namespace stark {
namespace {

using test::RandomPopulation;

// ---------------------------------------------------------------------------
// PreparedGeometry vs plain predicates on the fuzz corpus
// ---------------------------------------------------------------------------

TEST(PreparedGeometryTest, AgreesWithPlainPredicatesOnFuzzCorpus) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/60708, 120);
  size_t intersecting = 0;
  for (size_t i = 0; i < pop.size(); ++i) {
    const PreparedGeometry prep(pop[i]);
    EXPECT_TRUE(prep.envelope() == pop[i].envelope());
    for (size_t j = 0; j < pop.size(); ++j) {
      const Geometry& other = pop[j];
      // IntersectedBy(other) == Intersects(other, mine).
      const bool expected_isect = Intersects(other, pop[i]);
      ASSERT_EQ(prep.IntersectedBy(other), expected_isect)
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      // Contains(other) == Contains(mine, other); ContainedBy mirrors.
      ASSERT_EQ(prep.Contains(other), Contains(pop[i], other))
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      ASSERT_EQ(prep.ContainedBy(other), Contains(other, pop[i]))
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      // DistanceFrom replicates Distance(other, mine) exactly — same part
      // order, same arithmetic — so plain == comparison is the contract.
      ASSERT_EQ(prep.DistanceFrom(other), Distance(other, pop[i]))
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      if (expected_isect) ++intersecting;
    }
  }
  // The corpus must exercise hits, not only misses.
  EXPECT_GT(intersecting, 100u);
}

// ---------------------------------------------------------------------------
// BoundPredicate vs JoinPredicate::Eval, both candidate sides, with and
// without temporal components
// ---------------------------------------------------------------------------

std::vector<STObject> MakeObjects(const std::vector<Geometry>& pop) {
  // Mix of no-time, instant, and interval objects so the combined
  // spatio-temporal rule (paper formulas (1)-(3)) is exercised end to end.
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

TEST(BoundPredicateTest, MatchesJoinPredicateEvalBothSides) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/424242, 90);
  const std::vector<STObject> objs = MakeObjects(pop);

  const std::vector<JoinPredicate> preds = {
      JoinPredicate::Intersects(),
      JoinPredicate::Contains(),
      JoinPredicate::ContainedBy(),
      JoinPredicate::WithinDistance(3.5),
  };
  for (const JoinPredicate& pred : preds) {
    for (size_t f = 0; f < objs.size(); f += 9) {
      const STObject& fixed = objs[f];
      BoundPredicate as_right(pred, fixed,
                              BoundPredicate::Side::kCandidateLeft);
      BoundPredicate as_left(pred, fixed,
                             BoundPredicate::Side::kCandidateRight);
      for (const STObject& cand : objs) {
        ASSERT_EQ(as_right.Eval(cand), pred.Eval(cand, fixed))
            << PredicateName(pred.type) << " candidate-left, fixed " << f;
        ASSERT_EQ(as_left.Eval(cand), pred.Eval(fixed, cand))
            << PredicateName(pred.type) << " candidate-right, fixed " << f;
      }
    }
  }
}

TEST(BoundPredicateTest, PreparesOnceAndCountsReuse) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/5150, 40);
  const std::vector<STObject> objs = MakeObjects(pop);
  const STObject& fixed = objs[0];
  const JoinPredicate pred = JoinPredicate::Intersects();

  BoundPredicate bound(pred, fixed, BoundPredicate::Side::kCandidateLeft);
  EXPECT_EQ(bound.prepared_misses(), 0u);  // nothing until the first Eval
  EXPECT_EQ(bound.prepared_hits(), 0u);
  for (const STObject& cand : objs) bound.Eval(cand);
  EXPECT_EQ(bound.prepared_misses(), 1u);
  EXPECT_EQ(bound.prepared_hits(), objs.size() - 1);
}

TEST(BoundPredicateTest, CustomDistanceFunctionBypassesPreparation) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/321, 30);
  const std::vector<STObject> objs = MakeObjects(pop);
  const JoinPredicate pred = JoinPredicate::WithinDistance(
      5.0, [](const STObject& a, const STObject& b) {
        return EuclideanDistance(a, b);
      });

  BoundPredicate bound(pred, objs[0], BoundPredicate::Side::kCandidateLeft);
  for (const STObject& cand : objs) {
    ASSERT_EQ(bound.Eval(cand), pred.Eval(cand, objs[0]));
  }
  // The custom function never interrogates the prepared form.
  EXPECT_EQ(bound.prepared_misses(), 0u);
  EXPECT_EQ(bound.prepared_hits(), 0u);
}

}  // namespace
}  // namespace stark
