/// \file prepared.h
/// Prepared geometries (in the JTS PreparedGeometry tradition): a geometry
/// plus cached evaluation structure — the decomposition into simple parts,
/// ring edge lists laid out as structure-of-arrays, and a precomputed
/// interior point — so refining many candidates against the *same* query or
/// join-build geometry stops re-walking raw coordinate vectors per pair.
///
/// Guarantee: every predicate method returns results bit-identical to the
/// corresponding plain entry point in predicates.h (the accelerated paths
/// replicate the exact arithmetic; everything else delegates to the shared
/// kernels). The differential fuzz suite in tests/prepared_geometry_test.cc
/// enforces this.
///
/// Lifetime: a PreparedGeometry holds a pointer to the Geometry it was
/// built from; the Geometry must outlive it (see docs/PERFORMANCE.md,
/// "Lifetime rules").
#ifndef STARK_GEOMETRY_PREPARED_H_
#define STARK_GEOMETRY_PREPARED_H_

#include <cstddef>
#include <memory>

#include "common/macros.h"
#include "geometry/geometry.h"

namespace stark {

/// \brief One geometry with precomputed refinement structure.
class PreparedGeometry {
 public:
  /// Prepares \p geo. Keeps a pointer; \p geo must outlive this object.
  explicit PreparedGeometry(const Geometry& geo);
  ~PreparedGeometry();

  PreparedGeometry(PreparedGeometry&&) noexcept;
  PreparedGeometry& operator=(PreparedGeometry&&) noexcept;
  STARK_DISALLOW_COPY_AND_ASSIGN(PreparedGeometry);

  const Geometry& geometry() const;

  /// Cached bounding box (same object as geometry().envelope()).
  const Envelope& envelope() const;

  /// Precomputed interior/representative point (the geometry centroid).
  const Coordinate& InteriorPoint() const;

  /// Equivalent to Intersects(other, geometry()) — and, by symmetry of the
  /// kernels, to Intersects(geometry(), other).
  bool IntersectedBy(const Geometry& other) const;

  /// Equivalent to Contains(geometry(), other).
  bool Contains(const Geometry& other) const;

  /// Equivalent to Contains(other, geometry()).
  bool ContainedBy(const Geometry& other) const;

  /// Equivalent to Distance(other, geometry()) — identical doubles, same
  /// part iteration order.
  double DistanceFrom(const Geometry& other) const;

  // -- Point specializations (columnar batch kernels) ----------------------
  //
  // Each is bit-identical to the generic method applied to MakePoint(p),
  // but reads the coordinate straight from a slab without materializing a
  // Geometry — the per-row cost the batched refinement kernels rely on.

  /// Equivalent to IntersectedBy(Geometry::MakePoint(p)).
  bool IntersectsPoint(const Coordinate& p) const;

  /// Equivalent to Contains(Geometry::MakePoint(p)).
  bool ContainsPoint(const Coordinate& p) const;

  /// Equivalent to ContainedBy(Geometry::MakePoint(p)).
  bool ContainedByPoint(const Coordinate& p) const;

  /// Equivalent to DistanceFrom(Geometry::MakePoint(p)).
  double DistanceFromPoint(const Coordinate& p) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace stark

#endif  // STARK_GEOMETRY_PREPARED_H_
