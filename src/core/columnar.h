/// \file columnar.h
/// Columnar partition representation: one ColumnarBatch holds a partition's
/// STObjects as structure-of-arrays slabs — representative-point coordinate
/// arrays, timestamp arrays, per-row envelope min/max slabs, an
/// offsets-based vertex array for non-point geometries, and a row-id column
/// — so the filter/join hot paths scan dense cache lines instead of
/// pointer-chasing heap objects (Thrill-style flat data plane, ROADMAP
/// item 5).
///
/// Round-trip contract: Append/FromObjects followed by ToObjects
/// reconstructs every object bit-identically through the same Geometry
/// factories the existing serde path uses — NaN coordinate bits, the empty
/// envelope sentinel (min=+inf/max=-inf), degenerate rings, and optional
/// time all survive. tests/columnar_test.cc enforces this over the fuzz
/// generators by comparing serialized bytes (STObject::operator== is
/// NaN-blind).
///
/// The slab serde (WriteColumnarBatch/ReadColumnarBatch) writes each column
/// as one length-prefixed contiguous block, so saving or loading a columnar
/// partition is a handful of memcpys instead of a per-object field walk.
#ifndef STARK_CORE_COLUMNAR_H_
#define STARK_CORE_COLUMNAR_H_

#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "core/stobject.h"
#include "geometry/kernels.h"
#include "obs/metrics.h"

namespace stark {

/// \brief SoA slab container for one batch/partition of STObjects.
///
/// Row layout: every row has a type tag, a representative point (the
/// coordinate itself for point rows, the first vertex otherwise), a
/// has_time flag with start/end ticks, and an envelope entry in the
/// EnvelopeSoA slab. Non-point rows additionally own a range of the
/// flattened vertex arrays via vertex_offsets, with structure described by
/// the tiling ladder part_offsets -> part_ring_offsets -> ring_offsets:
/// every non-point row contributes parts and vertex runs (a polygon part
/// holds one run per ring; a linestring/multipoint row is one part holding
/// its whole vertex list as a single run), so each level always starts
/// where the previous entry ends. Point rows keep their coordinate
/// only in x/y, so the dominant all-points case stores each coordinate
/// exactly once.
class ColumnarBatch {
 public:
  ColumnarBatch() = default;

  /// Builds a batch from \p objects with row_ids 0..n-1.
  static ColumnarBatch FromObjects(const std::vector<STObject>& objects);

  /// Builds a batch from any container, extracting the STObject per item
  /// with \p obj_of (e.g. `[](const Element& e) -> const STObject& { return
  /// e.first; }`). Row ids are the container positions.
  template <typename Container, typename Fn>
  static ColumnarBatch Build(const Container& items, Fn&& obj_of) {
    ColumnarBatch b;
    b.Reserve(items.size());
    for (const auto& item : items) b.Append(obj_of(item));
    return b;
  }

  void Reserve(size_t rows);

  /// Appends \p obj as the next row (row_id = current rows()).
  void Append(const STObject& obj);

  /// Point-schema fast path: appends a point row without materializing a
  /// Geometry (direct CSV ingest). The envelope is grown exactly like
  /// Geometry's constructor, so NaN coordinates yield the empty sentinel.
  void AppendPoint(double x, double y, bool has_time, Instant t_start,
                   Instant t_end);

  /// Reconstructs the objects in row order. Errors only on structurally
  /// invalid batches (possible after deserializing corrupt bytes).
  Result<std::vector<STObject>> ToObjects() const;

  /// Reconstructs a single row.
  Result<STObject> RowToObject(size_t row) const;

  size_t rows() const { return geo_type_.size(); }
  bool empty() const { return geo_type_.empty(); }

  /// True when every row is a single point — the batch kernels cover all
  /// rows and no scalar fallback is needed.
  bool AllPoints() const { return non_point_rows_ == 0; }
  size_t non_point_rows() const { return non_point_rows_; }

  bool RowIsPoint(size_t i) const {
    return geo_type_[i] == static_cast<uint8_t>(GeometryType::kPoint);
  }
  bool RowHasTime(size_t i) const { return has_time_[i] != 0; }
  GeometryType RowType(size_t i) const {
    return static_cast<GeometryType>(geo_type_[i]);
  }

  // -- slab views (contiguous, unit-stride) --------------------------------
  const std::vector<uint32_t>& row_ids() const { return row_ids_; }
  const std::vector<uint8_t>& geo_type() const { return geo_type_; }
  const std::vector<double>& x() const { return x_; }
  const std::vector<double>& y() const { return y_; }
  const std::vector<uint8_t>& has_time() const { return has_time_; }
  const std::vector<int64_t>& t_start() const { return t_start_; }
  const std::vector<int64_t>& t_end() const { return t_end_; }
  /// Per-row envelope slab — built once with the batch, so repeated
  /// FilterEnvelopesBatch queries reuse it (engine.columnar.slab_reuse).
  const EnvelopeSoA& envelopes() const { return envs_; }
  const std::vector<uint64_t>& vertex_offsets() const {
    return vertex_offsets_;
  }
  const std::vector<double>& vx() const { return vx_; }
  const std::vector<double>& vy() const { return vy_; }

  /// Approximate heap footprint in bytes (capacity-based).
  size_t MemoryBytes() const;

  friend void WriteColumnarBatch(BinaryWriter* w, const ColumnarBatch& b);
  friend Result<ColumnarBatch> ReadColumnarBatch(BinaryReader* r);

 private:
  Result<Geometry> RowGeometry(size_t row) const;
  Status Validate() const;

  std::vector<uint32_t> row_ids_;
  std::vector<uint8_t> geo_type_;
  std::vector<double> x_, y_;  // representative point per row
  std::vector<uint8_t> has_time_;
  std::vector<int64_t> t_start_, t_end_;  // 0/0 when untimed
  EnvelopeSoA envs_;

  // Non-point geometry structure. vertex_offsets_ has rows+1 entries; a
  // point row's range is empty. The remaining ladders tile their levels
  // exactly: row -> parts (part_offsets_, rows+1), part -> vertex runs
  // (part_ring_offsets_, total_parts+1) and run -> vertex range
  // (ring_offsets_, total_runs+1). A polygon part holds one run per ring
  // (closed, shell then holes); a linestring/multipoint row is one part
  // holding its vertex list as a single run.
  std::vector<uint64_t> vertex_offsets_{0};
  std::vector<double> vx_, vy_;
  std::vector<uint64_t> part_offsets_{0};
  std::vector<uint64_t> part_ring_offsets_{0};
  std::vector<uint64_t> ring_offsets_{0};
  size_t non_point_rows_ = 0;
};

/// Appends the batch as length-prefixed contiguous column blocks (the
/// zero-copy slab wire format: one bulk WriteRaw per column).
void WriteColumnarBatch(BinaryWriter* w, const ColumnarBatch& b);

/// Reads a batch written by WriteColumnarBatch; every offset table and enum
/// tag is validated so corrupt bytes surface as IOError, never OOB reads.
Result<ColumnarBatch> ReadColumnarBatch(BinaryReader* r);

template <>
struct Serde<ColumnarBatch> {
  static void Write(BinaryWriter* w, const ColumnarBatch& v) {
    WriteColumnarBatch(w, v);
  }
  static Result<ColumnarBatch> Read(BinaryReader* r) {
    return ReadColumnarBatch(r);
  }
};

/// Coverage counters for the columnar plane, mirrored into the global
/// registry (engine.columnar.*) and bumped batched per task:
/// - batches: ColumnarBatch builds performed by engine paths.
/// - rows: rows refined through the batch kernels (the columnar plane
///   actually executing, not the fallback).
/// - fallbacks: rows refined by scalar prepared evaluation instead (non-point
///   rows of a slab, custom distance functions, and trees whose entries are
///   the elements themselves, which have no slab).
/// - slab_reuse: filters served by an already-built batch/envelope slab
///   instead of rebuilding it.
struct ColumnarMetricSet {
  obs::Counter* batches;
  obs::Counter* rows;
  obs::Counter* fallbacks;
  obs::Counter* slab_reuse;
};

inline const ColumnarMetricSet& GlobalColumnarMetrics() {
  static const ColumnarMetricSet metrics = [] {
    obs::MetricsRegistry& m = obs::DefaultMetrics();
    return ColumnarMetricSet{
        m.GetCounter("engine.columnar.batches"),
        m.GetCounter("engine.columnar.rows"),
        m.GetCounter("engine.columnar.fallbacks"),
        m.GetCounter("engine.columnar.slab_reuse"),
    };
  }();
  return metrics;
}

}  // namespace stark

#endif  // STARK_CORE_COLUMNAR_H_
