/// \file probe.h
/// Probe: the one candidate -> refine operator behind every spatio-temporal
/// filter and join (§2.2-2.3). A probe fixes one operand (the filter query,
/// or the current probe row of a join), takes envelope candidates from an
/// R-tree or from a scan over a partition, and refines them with the exact
/// predicate: through the columnar batch kernels when the candidates'
/// ColumnarBatch slab is at hand, by scalar prepared evaluation otherwise
/// (custom distance functions, trees whose entries are the elements
/// themselves). Survivors are emitted in candidate order on both paths.
///
/// One Probe lives for one engine task and owns what every candidate loop
/// needs: the cooperative cancel checkpoint, the candidate / prepared /
/// packed-probe / columnar work counters, and (Finish) their once-per-task
/// flush into the global metric sets plus the task-span annotation.
#ifndef STARK_SPATIAL_RDD_PROBE_H_
#define STARK_SPATIAL_RDD_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "core/columnar.h"
#include "engine/job_control.h"
#include "geometry/kernels.h"
#include "geometry/prepared.h"
#include "index/packed_rtree.h"
#include "obs/trace.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/predicate.h"
#include "spatial_rdd/query_stats.h"

namespace stark {

class Probe {
 public:
  /// \p cand_left: a candidate c survives iff pred.Eval(c, fixed); when
  /// false, iff pred.Eval(fixed, c). \p slab, when non-null, holds the
  /// candidates' rows: candidate handles are its row ids. It is ignored for
  /// predicates the kernels cannot evaluate (columnar_refine::Refinable), so
  /// sites build no slab for those.
  Probe(const JoinPredicate& pred, bool cand_left,
        const ColumnarBatch* slab = nullptr)
      : pred_(pred),
        cand_left_(cand_left),
        slab_(columnar_refine::Refinable(pred) ? slab : nullptr) {}

  /// Candidates: the entries of \p tree whose envelope meets the envelope
  /// of \p fixed grown by the predicate margin (every entry when the
  /// predicate admits no envelope pruning). `obj_at(handle)` returns the
  /// candidate's STObject; `emit(handle)` receives each survivor. With a
  /// slab, T must be the integral slab row id.
  template <typename T, typename ObjAt, typename Emit>
  void Tree(const PackedRTree<T>& tree, const STObject& fixed, ObjAt&& obj_at,
            Emit&& emit) {
    if constexpr (std::is_integral_v<T>) {
      if (slab_ != nullptr) {
        cand_.clear();
        Walk(tree, fixed, [this](const Envelope&, const T& row) {
          cand_.push_back(static_cast<uint32_t>(row));
        });
        Advance(1, cand_.size());
        RefineSlab(fixed, obj_at, emit);
        return;
      }
    }
    BoundPredicate bound(pred_, fixed, side());
    Advance(1, 0);
    Walk(tree, fixed, [&](const Envelope&, const T& c) {
      Advance(0, 1);
      Keep(bound.Eval(obj_at(c)), c, emit);
    });
    Account(bound);
  }

  /// Candidates: rows [0, rows) whose envelope meets the probe envelope —
  /// through the slab's envelope kernel when there is a slab (which must
  /// then hold exactly \p rows rows), row by row otherwise, and no envelope
  /// test at all when the predicate admits no pruning. Rows the envelope
  /// test rejects count as envelope_skips().
  template <typename ObjAt, typename Emit>
  void Scan(size_t rows, const STObject& fixed, ObjAt&& obj_at, Emit&& emit) {
    const Envelope env = fixed.envelope().Expanded(pred_.EnvelopeMargin());
    if (slab_ != nullptr) {
      STARK_DCHECK(slab_->rows() == rows);
      cand_.clear();
      FilterEnvelopesBatch(slab_->envelopes(), env, &cand_);
      envelope_skips_ += rows - cand_.size();
      Advance(1, cand_.size());
      RefineSlab(fixed, obj_at, emit);
      return;
    }
    BoundPredicate bound(pred_, fixed, side());
    const bool prunable = pred_.Prunable();
    Advance(1, 0);
    for (size_t i = 0; i < rows; ++i) {
      const STObject& obj = obj_at(i);
      if (prunable && !env.Intersects(obj.envelope())) {
        ++envelope_skips_;
        continue;
      }
      Advance(0, 1);
      Keep(bound.Eval(obj), i, emit);
    }
    Account(bound);
  }

  /// Candidates handed to refinement so far.
  size_t candidates() const { return candidates_; }
  /// Candidates that survived refinement so far.
  size_t results() const { return results_; }
  /// Scan rows rejected by the envelope test before refinement.
  size_t envelope_skips() const { return envelope_skips_; }

  /// Flushes the task's work counters into engine.index.packed_probes,
  /// spatial.prepared.{hits,misses} and engine.columnar.{rows,fallbacks},
  /// and annotates the current task span (when observed) with \p detail,
  /// \p records_in and the candidate/result counts. Call once per task.
  void Finish(const std::string& detail, size_t records_in) const {
    const IndexMetricSet& index = GlobalIndexMetrics();
    index.packed_probes->Add(packed_probes_);
    index.prepared_hits->Add(prepared_hits_);
    index.prepared_misses->Add(prepared_misses_);
    const ColumnarMetricSet& columnar = GlobalColumnarMetrics();
    columnar.rows->Add(refine_.kernel_rows);
    columnar.fallbacks->Add(refine_.fallback_rows);
    if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
      span->detail = (detail.empty() ? "" : detail + " ") +
                     "packed_probes=" + std::to_string(packed_probes_) +
                     " prepared=" + std::to_string(prepared_hits_) + "/" +
                     std::to_string(prepared_misses_);
      span->records_in = records_in;
      span->records_out = results_;
      span->candidates = candidates_;
      span->refined = results_;
    }
  }

 private:
  BoundPredicate::Side side() const {
    return cand_left_ ? BoundPredicate::Side::kCandidateLeft
                      : BoundPredicate::Side::kCandidateRight;
  }

  template <typename T, typename Visit>
  void Walk(const PackedRTree<T>& tree, const STObject& fixed, Visit&& visit) {
    if (pred_.Prunable()) {
      ++packed_probes_;
      tree.Query(fixed.envelope().Expanded(pred_.EnvelopeMargin()), visit);
    } else {
      tree.ForEach(visit);
    }
  }

  /// Counts \p probes probes and \p candidates candidates, and runs the
  /// cancel checkpoint on the first call and whenever the work count
  /// crosses a multiple of 1024, so long tasks stop promptly when their
  /// job is cancelled or past its deadline.
  void Advance(size_t probes, size_t candidates) {
    candidates_ += candidates;
    const size_t before = work_;
    work_ += probes + candidates;
    if (before == 0 || (before >> 10) != (work_ >> 10)) {
      ThrowIfTaskCancelled();
    }
  }

  template <typename H, typename Emit>
  void Keep(bool keep, const H& handle, Emit& emit) {
    ++refine_.fallback_rows;
    if (!keep) return;
    ++results_;
    emit(handle);
  }

  void Account(const BoundPredicate& bound) {
    prepared_hits_ += bound.prepared_hits();
    prepared_misses_ += bound.prepared_misses();
  }

  /// Batch refinement of cand_ against \p fixed, prepared once per probe.
  template <typename ObjAt, typename Emit>
  void RefineSlab(const STObject& fixed, ObjAt& obj_at, Emit& emit) {
    if (cand_.empty()) return;
    const PreparedGeometry prep(fixed.geo());
    ++prepared_misses_;
    prepared_hits_ += cand_.size() - 1;
    columnar_refine::RefineCandidates(
        *slab_, pred_, fixed, prep, cand_left_, &cand_,
        [&obj_at](uint32_t row) -> const STObject& { return obj_at(row); },
        &refine_, &scratch_);
    results_ += cand_.size();
    for (const uint32_t row : cand_) emit(row);
  }

  const JoinPredicate& pred_;
  const bool cand_left_;
  const ColumnarBatch* const slab_;
  std::vector<uint32_t> cand_;
  std::vector<uint32_t> scratch_;
  columnar_refine::Stats refine_;
  size_t work_ = 0;
  size_t candidates_ = 0;
  size_t results_ = 0;
  size_t envelope_skips_ = 0;
  size_t packed_probes_ = 0;
  size_t prepared_hits_ = 0;
  size_t prepared_misses_ = 0;
};

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_PROBE_H_
