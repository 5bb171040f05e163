#include "core/columnar.h"

#include <utility>

namespace stark {

ColumnarBatch ColumnarBatch::FromObjects(const std::vector<STObject>& objects) {
  ColumnarBatch b;
  b.Reserve(objects.size());
  for (const auto& obj : objects) b.Append(obj);
  return b;
}

void ColumnarBatch::Reserve(size_t rows) {
  row_ids_.reserve(rows);
  geo_type_.reserve(rows);
  x_.reserve(rows);
  y_.reserve(rows);
  has_time_.reserve(rows);
  t_start_.reserve(rows);
  t_end_.reserve(rows);
  envs_.Reserve(rows);
  vertex_offsets_.reserve(rows + 1);
  part_offsets_.reserve(rows + 1);
}

void ColumnarBatch::AppendPoint(double x, double y, bool has_time,
                                Instant t_start, Instant t_end) {
  row_ids_.push_back(static_cast<uint32_t>(rows()));
  geo_type_.push_back(static_cast<uint8_t>(GeometryType::kPoint));
  x_.push_back(x);
  y_.push_back(y);
  has_time_.push_back(has_time ? 1 : 0);
  t_start_.push_back(has_time ? t_start : 0);
  t_end_.push_back(has_time ? t_end : 0);
  // Grown exactly like Geometry's constructor so NaN coordinates store the
  // empty-envelope sentinel, not a NaN box.
  Envelope env;
  env.ExpandToInclude({x, y});
  envs_.PushBack(env);
  vertex_offsets_.push_back(vx_.size());
  part_offsets_.push_back(part_ring_offsets_.size() - 1);
}

void ColumnarBatch::Append(const STObject& obj) {
  const Geometry& geo = obj.geo();
  const bool timed = obj.HasTime();
  if (geo.IsPoint()) {
    const Coordinate& c = geo.AsPoint();
    AppendPoint(c.x, c.y, timed, timed ? obj.time()->start() : 0,
                timed ? obj.time()->end() : 0);
    // AppendPoint recomputed the envelope; it is identical to the cached
    // one by construction, so nothing else to fix up.
    return;
  }
  row_ids_.push_back(static_cast<uint32_t>(rows()));
  geo_type_.push_back(static_cast<uint8_t>(geo.type()));
  has_time_.push_back(timed ? 1 : 0);
  t_start_.push_back(timed ? obj.time()->start() : 0);
  t_end_.push_back(timed ? obj.time()->end() : 0);
  envs_.PushBack(geo.envelope());
  ++non_point_rows_;
  switch (geo.type()) {
    case GeometryType::kPoint:
      break;  // handled above
    case GeometryType::kMultiPoint:
    case GeometryType::kLineString:
      for (const auto& c : geo.coordinates()) {
        vx_.push_back(c.x);
        vy_.push_back(c.y);
      }
      // Record the run (and a single part covering it) so every offset
      // ladder tiles its level exactly; without this a later polygon's
      // first ring would start at the previous *ring* end and swallow
      // these vertices.
      ring_offsets_.push_back(vx_.size());
      part_ring_offsets_.push_back(ring_offsets_.size() - 1);
      break;
    case GeometryType::kPolygon:
    case GeometryType::kMultiPolygon:
      for (const auto& poly : geo.polygons()) {
        const auto push_ring = [this](const Ring& ring) {
          for (const auto& c : ring) {
            vx_.push_back(c.x);
            vy_.push_back(c.y);
          }
          ring_offsets_.push_back(vx_.size());
        };
        push_ring(poly.shell);
        for (const auto& hole : poly.holes) push_ring(hole);
        part_ring_offsets_.push_back(ring_offsets_.size() - 1);
      }
      break;
  }
  // Representative point: the first vertex (factories guarantee >= 1).
  const size_t first = vertex_offsets_.back();
  x_.push_back(vx_[first]);
  y_.push_back(vy_[first]);
  vertex_offsets_.push_back(vx_.size());
  part_offsets_.push_back(part_ring_offsets_.size() - 1);
}

Result<Geometry> ColumnarBatch::RowGeometry(size_t row) const {
  const auto type = static_cast<GeometryType>(geo_type_[row]);
  const uint64_t v0 = vertex_offsets_[row];
  const uint64_t v1 = vertex_offsets_[row + 1];
  switch (type) {
    case GeometryType::kPoint:
      return Geometry::MakePoint(x_[row], y_[row]);
    case GeometryType::kMultiPoint:
    case GeometryType::kLineString: {
      std::vector<Coordinate> coords;
      coords.reserve(v1 - v0);
      for (uint64_t i = v0; i < v1; ++i) coords.push_back({vx_[i], vy_[i]});
      if (type == GeometryType::kMultiPoint) {
        return Geometry::MakeMultiPoint(std::move(coords));
      }
      return Geometry::MakeLineString(std::move(coords));
    }
    case GeometryType::kPolygon:
    case GeometryType::kMultiPolygon: {
      std::vector<PolygonData> polys;
      const uint64_t p0 = part_offsets_[row];
      const uint64_t p1 = part_offsets_[row + 1];
      polys.reserve(p1 - p0);
      for (uint64_t p = p0; p < p1; ++p) {
        PolygonData poly;
        const uint64_t r0 = part_ring_offsets_[p];
        const uint64_t r1 = part_ring_offsets_[p + 1];
        for (uint64_t r = r0; r < r1; ++r) {
          Ring ring;
          ring.reserve(ring_offsets_[r + 1] - ring_offsets_[r]);
          for (uint64_t i = ring_offsets_[r]; i < ring_offsets_[r + 1]; ++i) {
            ring.push_back({vx_[i], vy_[i]});
          }
          if (r == r0) {
            poly.shell = std::move(ring);
          } else {
            poly.holes.push_back(std::move(ring));
          }
        }
        polys.push_back(std::move(poly));
      }
      if (type == GeometryType::kPolygon) {
        if (polys.size() != 1) {
          return Status::IOError("columnar polygon row with bad part count");
        }
        return Geometry::MakePolygon(std::move(polys[0].shell),
                                     std::move(polys[0].holes));
      }
      return Geometry::MakeMultiPolygon(std::move(polys));
    }
  }
  return Status::IOError("columnar row with bad geometry tag");
}

Result<STObject> ColumnarBatch::RowToObject(size_t row) const {
  STARK_ASSIGN_OR_RETURN(Geometry geo, RowGeometry(row));
  if (has_time_[row] == 0) return STObject(std::move(geo));
  return STObject(std::move(geo), t_start_[row], t_end_[row]);
}

Result<std::vector<STObject>> ColumnarBatch::ToObjects() const {
  std::vector<STObject> out;
  out.reserve(rows());
  for (size_t i = 0; i < rows(); ++i) {
    STARK_ASSIGN_OR_RETURN(STObject obj, RowToObject(i));
    out.push_back(std::move(obj));
  }
  return out;
}

size_t ColumnarBatch::MemoryBytes() const {
  return row_ids_.capacity() * sizeof(uint32_t) +
         geo_type_.capacity() + has_time_.capacity() +
         (x_.capacity() + y_.capacity()) * sizeof(double) +
         (t_start_.capacity() + t_end_.capacity()) * sizeof(int64_t) +
         (envs_.min_x.capacity() + envs_.min_y.capacity() +
          envs_.max_x.capacity() + envs_.max_y.capacity()) * sizeof(double) +
         (vx_.capacity() + vy_.capacity()) * sizeof(double) +
         (vertex_offsets_.capacity() + part_offsets_.capacity() +
          part_ring_offsets_.capacity() + ring_offsets_.capacity()) *
             sizeof(uint64_t);
}

Status ColumnarBatch::Validate() const {
  const size_t n = rows();
  const auto column_sizes_ok =
      row_ids_.size() == n && x_.size() == n && y_.size() == n &&
      has_time_.size() == n && t_start_.size() == n && t_end_.size() == n &&
      envs_.size() == n && envs_.min_y.size() == n &&
      envs_.max_x.size() == n && envs_.max_y.size() == n &&
      vertex_offsets_.size() == n + 1 && part_offsets_.size() == n + 1;
  if (!column_sizes_ok) {
    return Status::IOError("columnar batch column sizes disagree");
  }
  const auto offsets_ok = [](const std::vector<uint64_t>& offs, uint64_t end) {
    if (offs.empty() || offs.front() != 0 || offs.back() != end) return false;
    for (size_t i = 0; i + 1 < offs.size(); ++i) {
      if (offs[i] > offs[i + 1]) return false;
    }
    return true;
  };
  if (!offsets_ok(vertex_offsets_, vx_.size()) || vx_.size() != vy_.size()) {
    return Status::IOError("columnar batch vertex offsets invalid");
  }
  // Every non-point row contributes parts and vertex runs (a linestring or
  // multipoint row is one part covering one run), so each offset ladder
  // tiles its level exactly: rows -> parts -> runs -> vertices.
  if (!offsets_ok(part_offsets_, part_ring_offsets_.size() - 1) ||
      !offsets_ok(part_ring_offsets_, ring_offsets_.size() - 1) ||
      !offsets_ok(ring_offsets_, vx_.size())) {
    return Status::IOError("columnar batch ring structure invalid");
  }
  size_t non_point = 0;
  for (size_t i = 0; i < n; ++i) {
    if (geo_type_[i] > static_cast<uint8_t>(GeometryType::kMultiPolygon)) {
      return Status::IOError("columnar batch row with bad geometry tag");
    }
    const auto type = static_cast<GeometryType>(geo_type_[i]);
    const bool is_point = type == GeometryType::kPoint;
    non_point += is_point ? 0 : 1;
    if (is_point && vertex_offsets_[i] != vertex_offsets_[i + 1]) {
      return Status::IOError("columnar point row with vertices");
    }
    const bool polygonal = type == GeometryType::kPolygon ||
                           type == GeometryType::kMultiPolygon;
    const uint64_t parts = part_offsets_[i + 1] - part_offsets_[i];
    if (is_point && parts != 0) {
      return Status::IOError("columnar point row with parts");
    }
    if (!is_point && !polygonal && parts != 1) {
      return Status::IOError("columnar linestring row with bad part count");
    }
    if (polygonal && parts == 0) {
      return Status::IOError("columnar polygon row without parts");
    }
    if (has_time_[i] != 0 && t_start_[i] > t_end_[i]) {
      return Status::IOError("columnar row with inverted interval");
    }
  }
  if (non_point != non_point_rows_) {
    return Status::IOError("columnar batch non-point count mismatch");
  }
  return Status::OK();
}

namespace {

constexpr uint32_t kColumnarMagic = 0x53544342;  // "STCB"
constexpr uint8_t kColumnarVersion = 1;

template <typename T>
void WriteSlab(BinaryWriter* w, const std::vector<T>& v) {
  w->WriteU64(v.size());
  // Empty guard keeps nullptr out of the raw-copy path (UBSan-clean).
  if (!v.empty()) w->WriteRaw(v.data(), v.size() * sizeof(T));
}

template <typename T>
Status ReadSlab(BinaryReader* r, std::vector<T>* out) {
  STARK_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  if (n > r->Remaining() / sizeof(T)) {
    return Status::IOError("columnar slab exceeds stream");
  }
  out->resize(n);
  if (n == 0) return Status::OK();
  return r->ReadRaw(out->data(), n * sizeof(T));
}

}  // namespace

void WriteColumnarBatch(BinaryWriter* w, const ColumnarBatch& b) {
  w->WriteU32(kColumnarMagic);
  w->WriteU8(kColumnarVersion);
  w->WriteU64(b.rows());
  w->WriteU64(b.non_point_rows_);
  WriteSlab(w, b.row_ids_);
  WriteSlab(w, b.geo_type_);
  WriteSlab(w, b.x_);
  WriteSlab(w, b.y_);
  WriteSlab(w, b.has_time_);
  WriteSlab(w, b.t_start_);
  WriteSlab(w, b.t_end_);
  WriteSlab(w, b.envs_.min_x);
  WriteSlab(w, b.envs_.min_y);
  WriteSlab(w, b.envs_.max_x);
  WriteSlab(w, b.envs_.max_y);
  WriteSlab(w, b.vertex_offsets_);
  WriteSlab(w, b.vx_);
  WriteSlab(w, b.vy_);
  WriteSlab(w, b.part_offsets_);
  WriteSlab(w, b.part_ring_offsets_);
  WriteSlab(w, b.ring_offsets_);
}

Result<ColumnarBatch> ReadColumnarBatch(BinaryReader* r) {
  STARK_ASSIGN_OR_RETURN(uint32_t magic, r->ReadU32());
  if (magic != kColumnarMagic) {
    return Status::IOError("bad columnar batch magic");
  }
  STARK_ASSIGN_OR_RETURN(uint8_t version, r->ReadU8());
  if (version != kColumnarVersion) {
    return Status::IOError("unsupported columnar batch version");
  }
  STARK_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  ColumnarBatch b;
  STARK_ASSIGN_OR_RETURN(uint64_t non_point, r->ReadU64());
  b.non_point_rows_ = non_point;
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.row_ids_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.geo_type_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.x_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.y_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.has_time_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.t_start_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.t_end_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.envs_.min_x));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.envs_.min_y));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.envs_.max_x));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.envs_.max_y));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.vertex_offsets_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.vx_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.vy_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.part_offsets_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.part_ring_offsets_));
  STARK_RETURN_NOT_OK(ReadSlab(r, &b.ring_offsets_));
  if (b.rows() != n) {
    return Status::IOError("columnar batch row count mismatch");
  }
  STARK_RETURN_NOT_OK(b.Validate());
  return b;
}

}  // namespace stark
