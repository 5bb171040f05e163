// Tests for the WKT parser and writer.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/wkt.h"

namespace stark {
namespace {

TEST(WktParseTest, Point) {
  Geometry g = ParseWkt("POINT (1.5 -2.25)").ValueOrDie();
  EXPECT_EQ(g.type(), GeometryType::kPoint);
  EXPECT_EQ(g.AsPoint().x, 1.5);
  EXPECT_EQ(g.AsPoint().y, -2.25);
}

TEST(WktParseTest, CaseAndWhitespaceInsensitive) {
  EXPECT_TRUE(ParseWkt("point(1 2)").ok());
  EXPECT_TRUE(ParseWkt("  PoInT  (  1   2  )  ").ok());
}

TEST(WktParseTest, ScientificNotation) {
  Geometry g = ParseWkt("POINT (1e3 -2.5e-2)").ValueOrDie();
  EXPECT_EQ(g.AsPoint().x, 1000.0);
  EXPECT_EQ(g.AsPoint().y, -0.025);
}

TEST(WktParseTest, LineString) {
  Geometry g = ParseWkt("LINESTRING (0 0, 1 1, 2 0)").ValueOrDie();
  EXPECT_EQ(g.type(), GeometryType::kLineString);
  ASSERT_EQ(g.coordinates().size(), 3u);
  EXPECT_EQ(g.coordinates()[2].x, 2.0);
}

TEST(WktParseTest, MultiPointBothStyles) {
  Geometry a = ParseWkt("MULTIPOINT (1 2, 3 4)").ValueOrDie();
  Geometry b = ParseWkt("MULTIPOINT ((1 2), (3 4))").ValueOrDie();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.coordinates().size(), 2u);
}

TEST(WktParseTest, Polygon) {
  Geometry g =
      ParseWkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))").ValueOrDie();
  EXPECT_EQ(g.type(), GeometryType::kPolygon);
  ASSERT_EQ(g.polygons().size(), 1u);
  EXPECT_EQ(g.polygons()[0].shell.size(), 5u);
  EXPECT_TRUE(g.polygons()[0].holes.empty());
}

TEST(WktParseTest, PolygonWithHole) {
  Geometry g = ParseWkt(
                   "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), "
                   "(2 2, 4 2, 4 4, 2 4, 2 2))")
                   .ValueOrDie();
  ASSERT_EQ(g.polygons()[0].holes.size(), 1u);
  EXPECT_EQ(g.polygons()[0].holes[0].size(), 5u);
}

TEST(WktParseTest, PolygonAutoCloseRing) {
  // Ring not explicitly closed: the factory closes it.
  Geometry g = ParseWkt("POLYGON ((0 0, 4 0, 4 4, 0 4))").ValueOrDie();
  const Ring& shell = g.polygons()[0].shell;
  EXPECT_EQ(shell.front(), shell.back());
  EXPECT_EQ(shell.size(), 5u);
}

TEST(WktParseTest, MultiPolygon) {
  Geometry g = ParseWkt(
                   "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), "
                   "((5 5, 6 5, 6 6, 5 6, 5 5)))")
                   .ValueOrDie();
  EXPECT_EQ(g.type(), GeometryType::kMultiPolygon);
  EXPECT_EQ(g.polygons().size(), 2u);
}

TEST(WktParseTest, Errors) {
  EXPECT_FALSE(ParseWkt("").ok());
  EXPECT_FALSE(ParseWkt("CIRCLE (0 0, 5)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2) trailing").ok());
  EXPECT_FALSE(ParseWkt("POINT (a b)").ok());
  EXPECT_FALSE(ParseWkt("LINESTRING (1 1)").ok());          // one point
  EXPECT_FALSE(ParseWkt("POLYGON ((0 0, 1 1))").ok());      // short ring
  EXPECT_FALSE(ParseWkt("POINT EMPTY").ok());
}

TEST(WktParseTest, ErrorIsParseError) {
  EXPECT_EQ(ParseWkt("NOPE").status().code(), StatusCode::kParseError);
}

TEST(WktWriteTest, CanonicalForms) {
  EXPECT_EQ(ParseWkt("POINT(1 2)").ValueOrDie().ToWkt(), "POINT (1 2)");
  EXPECT_EQ(ParseWkt("LINESTRING(0 0,1 1)").ValueOrDie().ToWkt(),
            "LINESTRING (0 0, 1 1)");
  EXPECT_EQ(
      ParseWkt("POLYGON((0 0,1 0,1 1,0 0))").ValueOrDie().ToWkt(),
      "POLYGON ((0 0, 1 0, 1 1, 0 0))");
}

TEST(WktWriteTest, CompactNumberFormatting) {
  EXPECT_EQ(ParseWkt("POINT(0.5 100000)").ValueOrDie().ToWkt(),
            "POINT (0.5 100000)");
}

/// The writer's earlier number formatter, kept as the reference: integral
/// values as integers, otherwise the first printf %.{p}g precision whose
/// text scans back to the value, else %.17g. The range test runs before
/// the cast, which is undefined for NaN and out-of-range values.
std::string ReferenceNumber(double v) {
  char buf[32];
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return std::string(buf, static_cast<size_t>(n));
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// The shortest-round-trip formatter must print exactly what the printf
// search printed: random values across magnitudes, random bit patterns,
// subnormals, every power of two and its neighbours, zeros, the integral
// cut-off at 1e15, infinities and NaN.
TEST(WktWriteTest, NumberFormattingMatchesReference) {
  std::vector<double> corpus = {0.0, -0.0, 1e15, -1e15,
                                std::nextafter(1e15, 0.0),
                                std::nextafter(1e15, 2e15),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  Rng rng(2026);
  for (int i = 0; i < 8000; ++i) {
    const double scale = std::pow(10.0, static_cast<double>(i % 40 - 20));
    corpus.push_back(rng.Uniform(-1000, 1000) * scale);
    const uint64_t bits = (static_cast<uint64_t>(rng.UniformInt(0, INT64_MAX))
                           << 1) | static_cast<uint64_t>(i & 1);
    corpus.push_back(FromBits(bits));
    // Subnormal: zero exponent field, random mantissa and sign.
    corpus.push_back(FromBits(bits & ((uint64_t{1} << 52) - 1)) *
                     (i % 2 == 0 ? 1.0 : -1.0));
  }
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, HUGE_VAL)}) {
      corpus.push_back(v);
      corpus.push_back(-v);
    }
  }
  size_t mismatches = 0;
  for (const double v : corpus) {
    const std::string expected = "POINT (" + ReferenceNumber(v) + " 0)";
    const std::string got = WriteWkt(Geometry::MakePoint({v, 0.0}));
    if (got != expected && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": " << got << " vs " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << corpus.size();
}

// Property: parse(write(g)) == g for random geometries of every type.
TEST(WktPropertyTest, RoundTripRandomGeometries) {
  Rng rng(11);
  auto coord = [&] {
    return Coordinate{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
  };
  for (int trial = 0; trial < 300; ++trial) {
    Geometry g = [&]() -> Geometry {
      switch (trial % 4) {
        case 0:
          return Geometry::MakePoint(coord());
        case 1: {
          std::vector<Coordinate> pts(2 + trial % 5);
          for (auto& p : pts) p = coord();
          return Geometry::MakeLineString(std::move(pts)).ValueOrDie();
        }
        case 2: {
          std::vector<Coordinate> pts(1 + trial % 6);
          for (auto& p : pts) p = coord();
          return Geometry::MakeMultiPoint(std::move(pts)).ValueOrDie();
        }
        default: {
          const Coordinate c = coord();
          Ring shell{{c.x, c.y}, {c.x + 3, c.y}, {c.x + 3, c.y + 3},
                     {c.x, c.y + 3}};
          return Geometry::MakePolygon(std::move(shell)).ValueOrDie();
        }
      }
    }();
    const std::string wkt = g.ToWkt();
    auto back = ParseWkt(wkt);
    ASSERT_TRUE(back.ok()) << wkt;
    EXPECT_EQ(back.ValueOrDie(), g) << wkt;
  }
}

}  // namespace
}  // namespace stark
