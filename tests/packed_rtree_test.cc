// Tests of the packed (flat SoA) R-tree against a brute-force oracle: same
// candidates for window queries and same kNN distances across orders (the
// paper's liveIndex `order`), random mixed-geometry populations,
// duplicates, and degenerate sizes. Also unit tests of the branchless
// FilterEnvelopesBatch kernel the leaf scans use.
#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/envelope.h"
#include "geometry/geometry.h"
#include "geometry/kernels.h"
#include "geometry/predicates.h"
#include "index/packed_rtree.h"
#include "test_util.h"

namespace stark {
namespace {

using test::RandomEnvelope;
using test::RandomPopulation;

std::vector<std::pair<Envelope, size_t>> EntriesFor(
    const std::vector<Geometry>& pop) {
  std::vector<std::pair<Envelope, size_t>> entries;
  entries.reserve(pop.size());
  for (size_t id = 0; id < pop.size(); ++id) {
    entries.emplace_back(pop[id].envelope(), id);
  }
  return entries;
}

std::multiset<size_t> BruteForceCandidates(
    const std::vector<std::pair<Envelope, size_t>>& entries,
    const Envelope& query) {
  std::multiset<size_t> out;
  for (const auto& [env, id] : entries) {
    if (query.Intersects(env)) out.insert(id);
  }
  return out;
}

template <typename Tree>
std::multiset<size_t> TreeCandidates(const Tree& tree, const Envelope& query) {
  std::multiset<size_t> out;
  tree.Query(query, [&out](const Envelope&, const size_t& id) {
    out.insert(id);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Window queries, kNN and traversal across orders
// ---------------------------------------------------------------------------

class RTreeOrderTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeOrderTest, BulkLoadMatchesBruteForce) {
  const size_t order = GetParam();
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/20260807, 400);
  const auto entries = EntriesFor(pop);
  PackedRTree<size_t> tree(order, entries);
  ASSERT_EQ(tree.size(), pop.size());

  Rng rng(1000 + order);
  size_t nonempty = 0;
  for (int q = 0; q < 150; ++q) {
    const Envelope query = RandomEnvelope(&rng, 25.0);
    const std::multiset<size_t> expected = BruteForceCandidates(entries, query);
    ASSERT_EQ(TreeCandidates(tree, query), expected) << "query " << q;
    if (!expected.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 100u);
}

TEST_P(RTreeOrderTest, KnnMatchesBruteForce) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/909, 250);
  PackedRTree<size_t> tree(GetParam(), EntriesFor(pop));

  Rng rng(606);
  for (int q = 0; q < 60; ++q) {
    const Coordinate c{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const Geometry probe = Geometry::MakePoint(c);
    const size_t k = 1 + static_cast<size_t>(q % 12);
    auto hits = tree.Knn(c, k, [&](const size_t& id) {
      return Distance(pop[id], probe);
    });

    // Brute-force k smallest exact distances.
    std::vector<double> all;
    all.reserve(pop.size());
    for (const Geometry& g : pop) all.push_back(Distance(g, probe));
    std::sort(all.begin(), all.end());
    all.resize(std::min(k, all.size()));

    ASSERT_EQ(hits.size(), all.size()) << "query " << q;
    for (size_t i = 0; i < all.size(); ++i) {
      // Ties may order arbitrarily, but the distance sequence is unique.
      EXPECT_DOUBLE_EQ(hits[i].first, all[i]) << "query " << q;
    }
  }
}

TEST_P(RTreeOrderTest, ForEachVisitsEverything) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/36, 200);
  PackedRTree<size_t> tree(GetParam(), EntriesFor(pop));
  std::multiset<size_t> seen;
  tree.ForEach([&](const Envelope&, const size_t& id) { seen.insert(id); });
  ASSERT_EQ(seen.size(), pop.size());
  for (size_t id = 0; id < pop.size(); ++id) EXPECT_EQ(seen.count(id), 1u);
}

TEST_P(RTreeOrderTest, BoundsCoverAllEntries) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/37, 300);
  PackedRTree<size_t> tree(GetParam(), EntriesFor(pop));
  for (const Geometry& g : pop) {
    EXPECT_TRUE(tree.bounds().Contains(g.envelope()));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, RTreeOrderTest,
                         ::testing::Values(2, 3, 5, 10, 32),
                         [](const auto& info) {
                           return "order" + std::to_string(info.param);
                         });

TEST(RTreeTest, OrderIsClampedToAtLeastTwo) {
  PackedRTree<size_t> tree(0, EntriesFor(RandomPopulation(/*seed=*/39, 5)));
  EXPECT_GE(tree.order(), 2u);
}

TEST(RTreeTest, DepthGrowsWithSize) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/38, 200);
  PackedRTree<size_t> small(4, EntriesFor({pop[0]}));
  EXPECT_EQ(small.Depth(), 1u);
  PackedRTree<size_t> big(4, EntriesFor(pop));
  EXPECT_GT(big.Depth(), 2u);
}

TEST(RTreeTest, EmptyTree) {
  PackedRTree<int> tree(4, {});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  int hits = 0;
  tree.Query(Envelope(-1e9, -1e9, 1e9, 1e9),
             [&](const Envelope&, const int&) { ++hits; });
  EXPECT_EQ(hits, 0);
  EXPECT_TRUE(tree.Knn({0, 0}, 3, [](const int&) { return 0.0; }).empty());
}

TEST(RTreeTest, SingleEntry) {
  std::vector<std::pair<Envelope, size_t>> one;
  one.emplace_back(Envelope(0, 0, 1, 1), 7u);
  PackedRTree<size_t> tree(4, one);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(TreeCandidates(tree, Envelope(0.5, 0.5, 2, 2)),
            (std::multiset<size_t>{7}));
  EXPECT_TRUE(TreeCandidates(tree, Envelope(5, 5, 6, 6)).empty());
}

TEST(RTreeTest, DuplicateEnvelopesAllReturned) {
  std::vector<std::pair<Envelope, size_t>> entries;
  for (size_t i = 0; i < 20; ++i) entries.emplace_back(Envelope(1, 1, 2, 2), i);
  PackedRTree<size_t> tree(4, entries);
  EXPECT_EQ(TreeCandidates(tree, Envelope(0, 0, 3, 3)).size(), 20u);
}

// ---------------------------------------------------------------------------
// Packed tree vs a classic linear scan and brute force. The linear scan is
// the FilterEnvelopesBatch pass Probe runs when a partition has no tree.
// ---------------------------------------------------------------------------

TEST(PackedRTreeTest, QueryMatchesClassicAndBruteForceAcrossOrders) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/20260807, 400);
  const auto entries = EntriesFor(pop);
  EnvelopeSoA soa;
  Envelope all_bounds;
  for (const auto& [env, id] : entries) {
    soa.PushBack(env);
    all_bounds.ExpandToInclude(env);
  }

  for (size_t order : {2u, 3u, 5u, 10u, 32u}) {
    PackedRTree<size_t> packed(order, entries);
    ASSERT_EQ(packed.size(), pop.size());
    ASSERT_TRUE(packed.bounds() == all_bounds) << "order " << order;

    Rng rng(1000 + order);
    size_t nonempty = 0;
    for (int q = 0; q < 150; ++q) {
      const Envelope query = RandomEnvelope(&rng, 25.0);
      const std::multiset<size_t> expected =
          BruteForceCandidates(entries, query);
      std::vector<uint32_t> scanned;
      FilterEnvelopesBatch(soa, query, &scanned);
      ASSERT_EQ(std::multiset<size_t>(scanned.begin(), scanned.end()),
                expected)
          << "order " << order << " query " << q;
      ASSERT_EQ(TreeCandidates(packed, query), expected)
          << "order " << order << " query " << q;
      if (!expected.empty()) ++nonempty;
    }
    EXPECT_GT(nonempty, 100u) << "order " << order;
  }
}

TEST(PackedRTreeTest, KnnMatchesClassicAndBruteForce) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/909, 250);
  PackedRTree<size_t> packed(7, EntriesFor(pop));

  Rng rng(606);
  for (int q = 0; q < 60; ++q) {
    const Coordinate c{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const Geometry probe = Geometry::MakePoint(c);
    const size_t k = 1 + static_cast<size_t>(q % 12);

    auto hits = packed.Knn(c, k, [&](const size_t& id) {
      return Distance(pop[id], probe);
    });

    // Classic linear scan: exact distance to every entry, k smallest.
    std::vector<double> all;
    all.reserve(pop.size());
    for (const Geometry& g : pop) all.push_back(Distance(g, probe));
    std::sort(all.begin(), all.end());
    all.resize(std::min(k, all.size()));

    ASSERT_EQ(hits.size(), all.size()) << "query " << q;
    std::set<size_t> ids;
    for (size_t i = 0; i < all.size(); ++i) {
      // Ties may order arbitrarily, but the distance sequence is unique.
      EXPECT_DOUBLE_EQ(hits[i].first, all[i]) << "query " << q;
      // Each hit carries its own entry's distance, and no entry twice.
      EXPECT_DOUBLE_EQ(hits[i].first, Distance(pop[*hits[i].second], probe))
          << "query " << q;
      EXPECT_TRUE(ids.insert(*hits[i].second).second) << "query " << q;
    }
  }
}

TEST(PackedRTreeTest, QueryCandidatesAndForEachCoverEveryEntry) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/77, 123);
  PackedRTree<size_t> packed(8, EntriesFor(pop));

  // The universe query sees everything, as does ForEach.
  const Envelope all(-1e9, -1e9, 1e9, 1e9);
  EXPECT_EQ(packed.QueryCandidates(all).size(), pop.size());

  std::multiset<size_t> seen;
  packed.ForEach([&seen, &pop](const Envelope& env, const size_t& id) {
    seen.insert(id);
    EXPECT_TRUE(env == pop[id].envelope()) << id;
  });
  EXPECT_EQ(seen.size(), pop.size());
}

TEST(PackedRTreeTest, EmptyAndTinyTrees) {
  PackedRTree<size_t> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.Depth(), 1u);
  EXPECT_TRUE(empty.bounds().IsEmpty());
  EXPECT_TRUE(empty.QueryCandidates(Envelope(0, 0, 1, 1)).empty());
  EXPECT_TRUE(empty.Knn({0, 0}, 3, [](const size_t&) { return 0.0; }).empty());

  // One entry: root is a leaf.
  std::vector<std::pair<Envelope, size_t>> one;
  one.emplace_back(Envelope(1, 1, 2, 2), 42u);
  PackedRTree<size_t> single(4, one);
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.Depth(), 1u);
  EXPECT_EQ(single.num_leaf_nodes(), 1u);
  auto hits = single.QueryCandidates(Envelope(0, 0, 3, 3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(*hits[0], 42u);
  EXPECT_TRUE(single.QueryCandidates(Envelope(5, 5, 6, 6)).empty());
}

TEST(PackedRTreeTest, DuplicateEnvelopesAllReported) {
  std::vector<std::pair<Envelope, size_t>> entries;
  const Envelope dup(3, 3, 4, 4);
  for (size_t i = 0; i < 37; ++i) entries.emplace_back(dup, i);
  PackedRTree<size_t> packed(4, entries);
  const auto got = TreeCandidates(packed, Envelope(0, 0, 10, 10));
  EXPECT_EQ(got.size(), 37u);
  for (size_t i = 0; i < 37; ++i) EXPECT_EQ(got.count(i), 1u) << i;
}

// ---------------------------------------------------------------------------
// FilterEnvelopesBatch kernel
// ---------------------------------------------------------------------------

TEST(PackedRTreeTest, FilterEnvelopesBatchMatchesEnvelopeIntersects) {
  Rng rng(2468);
  EnvelopeSoA soa;
  std::vector<Envelope> envs;
  for (int i = 0; i < 500; ++i) {
    const Envelope e = RandomEnvelope(&rng, 15.0);
    envs.push_back(e);
    soa.PushBack(e);
  }
  for (int q = 0; q < 200; ++q) {
    const Envelope query = RandomEnvelope(&rng, 40.0);
    std::vector<uint32_t> got;
    FilterEnvelopesBatch(soa, query, &got);
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < envs.size(); ++i) {
      if (query.Intersects(envs[i])) expected.push_back(i);
    }
    ASSERT_EQ(got, expected) << "query " << q;
  }
}

TEST(PackedRTreeTest, FilterEnvelopesBatchHandlesEmptyAndNaN) {
  // The contract is consistency with Envelope::Intersects, including for
  // the empty sentinel (never matches: its +inf/-inf bounds fail the
  // comparisons) and all-NaN boxes (every comparison is false, so the
  // negated form matches — same answer Envelope::Intersects gives).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Envelope> envs = {
      Envelope(0, 0, 1, 1),
      Envelope(),  // empty sentinel
      Envelope(nan, nan, nan, nan),
  };
  EnvelopeSoA soa;
  for (const Envelope& e : envs) soa.PushBack(e);

  std::vector<uint32_t> out;
  // Empty query intersects nothing (matches Envelope::Intersects).
  EXPECT_EQ(FilterEnvelopesBatch(soa, Envelope(), &out), 0u);
  out.clear();
  const Envelope query(-1, -1, 2, 2);
  const size_t n = FilterEnvelopesBatch(soa, query, &out);
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < envs.size(); ++i) {
    // Element-wise comparison form, as the kernel computes it (the
    // Envelope::Intersects entry point short-circuits empties first, which
    // the empty sentinel's ordering makes equivalent).
    const Envelope& e = envs[i];
    const bool hit = !(e.min_x() > query.max_x()) &&
                     !(e.max_x() < query.min_x()) &&
                     !(e.min_y() > query.max_y()) &&
                     !(e.max_y() < query.min_y());
    if (hit) expected.push_back(i);
  }
  ASSERT_EQ(n, expected.size());
  EXPECT_EQ(out, expected);
  // The real (non-NaN) envelopes agree with Envelope::Intersects exactly.
  EXPECT_TRUE(query.Intersects(envs[0]));
  EXPECT_FALSE(query.Intersects(envs[1]));
  EXPECT_EQ(out[0], 0u);
}

}  // namespace
}  // namespace stark
