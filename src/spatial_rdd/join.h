/// \file join.h
/// Spatio-temporal join (§2.3). STARK assigns each element to exactly one
/// partition (centroid assignment) and keeps overlapping partition extents,
/// so the join enumerates partition *pairs* whose extents can satisfy the
/// predicate, indexes the left side, and probes it with the right
/// partitions — no replication, no result deduplication (contrast with the
/// GeoSpark-style baseline).
///
/// Three execution strategies (see docs/JOINS.md):
///  - live-index: probe an R-tree over each participating left partition
///    (the classic STARK plan), built at join time — once per cached
///    dataset, whose resident ProbeIndex keeps it, else once per call;
///  - cached-index: the overloads taking an IndexedSpatialRDD probe the
///    trees built by Index()/LiveIndex()/Load() instead of rebuilding —
///    `engine.join.tree_builds` stays 0 on this path;
///  - broadcast: when one side is small (`JoinOptions::broadcast_threshold`),
///    it is flattened into a single R-tree and probed against every
///    partition of the large side, skipping partition-pair enumeration.
///
/// Probe work is scheduled skew-aware: per-pair cost is estimated as
/// |probe| * log(|indexed|) (indexed) or |probe| * |build| (nested loop),
/// pairs whose cost exceeds `skew_split_factor` times the mean are split
/// into probe sub-range tasks, and tasks run longest-first so one dense
/// partition no longer serializes the join.
#ifndef STARK_SPATIAL_RDD_JOIN_H_
#define STARK_SPATIAL_RDD_JOIN_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/columnar.h"
#include "engine/context.h"
#include "index/packed_rtree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/probe.h"
#include "spatial_rdd/probe_index.h"
#include "spatial_rdd/query_stats.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {

/// Tuning knobs for SpatialJoin.
struct JoinOptions {
  /// Order of the R-tree built over each left partition (live path) or over
  /// the broadcast side; 0 disables indexing and uses a nested-loop per
  /// partition pair ("No Indexing"). Ignored by the cached-index overloads,
  /// which reuse the trees as built.
  size_t index_order = 10;

  /// When > 0 and one side's total element count is <= this threshold, that
  /// side is broadcast: flattened into one R-tree probed by every partition
  /// of the other side, instead of enumerating nl x nr partition pairs.
  /// 0 disables broadcasting.
  size_t broadcast_threshold = 0;

  /// A partition pair whose estimated cost exceeds this factor times the
  /// mean pair cost is split into probe sub-range tasks (skew mitigation).
  /// <= 0 disables splitting.
  double skew_split_factor = 4.0;

  /// Upper bound on the number of sub-range tasks one pair is split into.
  size_t max_subtasks_per_pair = 32;
};

/// Global named-metric mirrors for the join engine, registered in
/// obs::DefaultMetrics() under engine.join.* (the join analogue of
/// GlobalFilterMetrics). Counters are batched per task, never per element.
struct JoinMetricSet {
  obs::Counter* pairs_enumerated;  ///< partition pairs turned into tasks
  obs::Counter* pairs_pruned;      ///< partition pairs skipped by extents
  obs::Counter* pairs_split;       ///< pairs split into sub-range tasks
  obs::Counter* subtasks;          ///< probe tasks actually scheduled
  obs::Counter* tree_builds;       ///< R-trees built by the join itself
  obs::Counter* tree_reuse_hits;   ///< cached trees probed without rebuild
  obs::Counter* broadcast_joins;   ///< joins that took the broadcast path
  obs::Counter* prefilter_skips;   ///< nested-loop pairs rejected by envelope
  obs::Counter* results;           ///< result records emitted
};

inline const JoinMetricSet& GlobalJoinMetrics() {
  static const JoinMetricSet metrics = [] {
    obs::MetricsRegistry& m = obs::DefaultMetrics();
    return JoinMetricSet{
        m.GetCounter("engine.join.pairs_enumerated"),
        m.GetCounter("engine.join.pairs_pruned"),
        m.GetCounter("engine.join.pairs_split"),
        m.GetCounter("engine.join.subtasks"),
        m.GetCounter("engine.join.tree_builds"),
        m.GetCounter("engine.join.tree_reuse_hits"),
        m.GetCounter("engine.join.broadcast_joins"),
        m.GetCounter("engine.join.prefilter_skips"),
        m.GetCounter("engine.join.results"),
    };
  }();
  return metrics;
}

namespace join_internal {

/// One schedulable unit of probe work: right-partition elements
/// [begin, end) probed against left partition `left`. A whole pair is one
/// task with [0, |R_j|); a skew-split pair becomes several tasks over
/// disjoint sub-ranges.
struct ProbeTask {
  size_t left = 0;
  size_t right = 0;
  size_t begin = 0;
  size_t end = 0;
  double cost = 0.0;
};

/// Estimated cost of probing \p probe_count elements against a partition of
/// \p build_count elements. Indexed probes are logarithmic in the indexed
/// side, nested loops linear. The +2 keeps log2 positive for tiny trees.
inline double PairCost(size_t probe_count, size_t build_count, bool indexed) {
  if (indexed) {
    return static_cast<double>(probe_count) *
           std::log2(2.0 + static_cast<double>(build_count));
  }
  return static_cast<double>(probe_count) * static_cast<double>(build_count);
}

/// \brief Turns surviving partition pairs into an ordered probe-task list.
///
/// Cost per pair is PairCost(|R_j|, |L_i|, indexed). Pairs whose cost
/// exceeds `skew_split_factor` times the mean are split into up to
/// `max_subtasks_per_pair` equal probe sub-ranges (each targeting roughly
/// the mean cost); the final list is sorted cost-descending, which on the
/// FIFO worker pool schedules the longest tasks first (LPT). Increments
/// the pairs_split counter via \p pairs_split when non-null.
inline std::vector<ProbeTask> PlanProbeTasks(
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const std::vector<size_t>& left_sizes,
    const std::vector<size_t>& right_sizes, bool indexed,
    const JoinOptions& options, size_t* pairs_split = nullptr) {
  std::vector<ProbeTask> tasks;
  tasks.reserve(pairs.size());
  double total_cost = 0.0;
  for (const auto& [i, j] : pairs) {
    ProbeTask t;
    t.left = i;
    t.right = j;
    t.begin = 0;
    t.end = right_sizes[j];
    t.cost = PairCost(right_sizes[j], left_sizes[i], indexed);
    total_cost += t.cost;
    tasks.push_back(t);
  }

  if (options.skew_split_factor > 0.0 && tasks.size() > 1) {
    const double mean = total_cost / static_cast<double>(tasks.size());
    const double limit = mean * options.skew_split_factor;
    std::vector<ProbeTask> expanded;
    expanded.reserve(tasks.size());
    size_t split_count = 0;
    for (const ProbeTask& t : tasks) {
      const size_t range = t.end - t.begin;
      size_t subtasks = 1;
      if (mean > 0.0 && t.cost > limit && range > 1) {
        subtasks = static_cast<size_t>(std::ceil(t.cost / mean));
        subtasks = std::min({subtasks, options.max_subtasks_per_pair, range});
      }
      if (subtasks <= 1) {
        expanded.push_back(t);
        continue;
      }
      ++split_count;
      const size_t chunk = (range + subtasks - 1) / subtasks;
      for (size_t b = t.begin; b < t.end; b += chunk) {
        ProbeTask sub = t;
        sub.begin = b;
        sub.end = std::min(t.end, b + chunk);
        sub.cost = t.cost * static_cast<double>(sub.end - sub.begin) /
                   static_cast<double>(range);
        expanded.push_back(sub);
      }
    }
    if (pairs_split != nullptr) *pairs_split = split_count;
    tasks = std::move(expanded);
  } else if (pairs_split != nullptr) {
    *pairs_split = 0;
  }

  // Longest-first: the pool consumes its queue in submission order, so a
  // descending sort is a priority schedule that stops the biggest pair
  // from being picked up last and dragging the join's tail.
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const ProbeTask& a, const ProbeTask& b) {
                     return a.cost > b.cost;
                   });
  return tasks;
}

/// Trace annotation for a probe task, e.g. "L3xR1" or "L3xR1 [500,1000)"
/// for a skew-split sub-range.
inline std::string TaskDetail(const ProbeTask& t, size_t full_range) {
  // Appended piecewise: GCC 12 flags `"L" + std::string` with a false
  // -Wrestrict.
  std::string d = "L";
  d += std::to_string(t.left);
  d += "xR";
  d += std::to_string(t.right);
  if (t.begin != 0 || t.end != full_range) {
    d += " [" + std::to_string(t.begin) + "," + std::to_string(t.end) + ")";
  }
  return d;
}

/// One operand of the join core: its partitions, read once per join; the
/// partitioner that describes them (may be null); and, for the wrapper
/// Cache() returned, its resident probe index (null otherwise).
template <typename T>
struct Side {
  std::vector<Partition<T>> parts;
  std::shared_ptr<SpatialPartitioner> partitioner;
  std::shared_ptr<ProbeIndex> index;
  size_t total = 0;  ///< rows over all partitions
};

/// Reads every partition of \p data once (cached partitions are shared, not
/// copied).
template <typename V>
Side<std::pair<STObject, V>> SideOf(const SpatialRDD<V>& data) {
  Side<std::pair<STObject, V>> side{data.rdd().SharedPartitions(),
                                    data.partitioner(), data.probe_index()};
  for (const auto& part : side.parts) side.total += part->size();
  return side;
}

/// Broadcast plan: the rows of \p small are flattened into one side (as
/// (partition, row) handles; the shared partitions stay uncopied), indexed
/// once (an R-tree when \p use_index, plus its slab), and probed from every
/// partition of \p big, one task per big partition. \p small_left states
/// which operand of the predicate the small side fills. Every match goes to
/// `emit(sink, big partition, big row, small partition, small row)`.
template <typename Out, typename B, typename S, typename Emit>
std::vector<std::vector<Out>> Broadcast(
    Context* ctx, const std::vector<Partition<S>>& small,
    const std::vector<Partition<B>>& big, const JoinPredicate& pred,
    const JoinOptions& options, bool use_index, bool small_left, Emit& emit) {
  const JoinMetricSet& metrics = GlobalJoinMetrics();
  size_t total = 0;
  for (const auto& part : small) total += part->size();
  std::vector<const S*> rows;
  std::vector<std::pair<size_t, size_t>> handles;
  rows.reserve(total);
  handles.reserve(total);
  for (size_t p = 0; p < small.size(); ++p) {
    for (size_t r = 0; r < small[p]->size(); ++r) {
      rows.push_back(&(*small[p])[r]);
      handles.emplace_back(p, r);
    }
  }
  PackedRTree<size_t> tree;
  if (use_index) {
    std::vector<std::pair<Envelope, size_t>> entries;
    entries.reserve(rows.size());
    for (size_t e = 0; e < rows.size(); ++e) {
      entries.emplace_back(rows[e]->first.envelope(), e);
    }
    tree = PackedRTree<size_t>(options.index_order, std::move(entries));
    metrics.tree_builds->Increment();
  }
  // The small side is stable for the whole join: one slab, shared by every
  // task (engine.columnar.slab_reuse once per task).
  std::unique_ptr<const ColumnarBatch> slab;
  if (columnar_refine::Refinable(pred) && !rows.empty() &&
      rows.size() <= UINT32_MAX) {
    slab = std::make_unique<const ColumnarBatch>(ColumnarBatch::Build(
        rows, [](const S* e) -> const STObject& { return e->first; }));
    GlobalColumnarMetrics().batches->Increment();
  }
  std::vector<std::vector<Out>> out(big.size());
  ctx->RunTasks("spatial.join.broadcast", big.size(), [&](size_t b) {
    std::vector<Out>& sink = out[b];
    sink.clear();  // retry-idempotent: a re-run starts from scratch
    Probe probe(pred, small_left, slab.get());
    auto obj = [&rows](size_t e) -> const STObject& { return rows[e]->first; };
    const std::vector<B>& bv = *big[b];
    for (size_t brow = 0; brow < bv.size(); ++brow) {
      auto keep = [&](size_t e) {
        emit(&sink, b, brow, handles[e].first, handles[e].second);
      };
      if (use_index) {
        probe.Tree(tree, bv[brow].first, obj, keep);
      } else {
        probe.Scan(rows.size(), bv[brow].first, obj, keep);
      }
    }
    if (slab != nullptr) GlobalColumnarMetrics().slab_reuse->Increment();
    // The span names the task "L3xR* (broadcast)" or "L*xR3 (broadcast)".
    std::string label = small_left ? "L*xR" : "L";
    label += std::to_string(b);
    label += small_left ? " (broadcast)" : "xR* (broadcast)";
    probe.Finish(label, bv.size());
    metrics.prefilter_skips->Add(probe.envelope_skips());
    metrics.results->Add(sink.size());
  });
  return out;
}

/// \brief The join core behind SpatialJoinProject and SelfSpatialJoin.
///
/// Hands every matching (left partition, left row, right partition, right
/// row) to `emit(sink, li, lrow, ri, rrow)` inside the task that found it;
/// emit appends what it makes of the match to \p sink, the task's output
/// partition. With `options.broadcast_threshold` set and one side small
/// enough, the broadcast plan runs. Otherwise partition pairs are
/// enumerated (pruned by extents when both sides have a partitioner), and
/// each task probes its right rows against the left partition's tree (the
/// live index), or scans the left partition when the predicate cannot use
/// a tree or `index_order` is 0. The left trees and slabs come from the
/// left side's resident index when it has one (built by the first join
/// that needs them, kept for every later one), else are built for this
/// join alone; either way one build-stage task per left partition fetches
/// them before any probe task runs, so builds run in parallel.
template <typename Out, typename L, typename R, typename Emit>
std::vector<std::vector<Out>> Join(Context* ctx, const Side<L>& left,
                                   const Side<R>& right,
                                   const JoinPredicate& pred,
                                   const JoinOptions& options, Emit emit) {
  const size_t nl = left.parts.size();
  const size_t nr = right.parts.size();
  const JoinMetricSet& metrics = GlobalJoinMetrics();

  // An index only helps predicates that admit envelope candidate pruning;
  // for the rest, building trees would be pure wasted work.
  const bool use_index = options.index_order > 0 && pred.Prunable();

  // ---- Broadcast strategy -------------------------------------------------
  // One side fits under the threshold: flatten it, index it once, and probe
  // it from every partition of the other side — no pair enumeration at all.
  if (options.broadcast_threshold > 0 &&
      std::min(left.total, right.total) <= options.broadcast_threshold) {
    metrics.broadcast_joins->Increment();
    if (right.total <= left.total) {
      return Broadcast<Out>(ctx, right.parts, left.parts, pred, options,
                            use_index, /*small_left=*/false, emit);
    }
    auto swapped = [&emit](std::vector<Out>* sink, size_t b, size_t brow,
                           size_t s, size_t srow) {
      emit(sink, s, srow, b, brow);
    };
    return Broadcast<Out>(ctx, left.parts, right.parts, pred, options,
                          use_index, /*small_left=*/true, swapped);
  }

  // ---- Partition-pair strategy (live index / nested loop) ----------------
  // Enumerate candidate partition pairs, pruned by extents when available.
  const auto& lp = left.partitioner;
  const auto& rp = right.partitioner;
  const bool can_prune = pred.Prunable() && lp != nullptr && rp != nullptr;
  const double margin = pred.EnvelopeMargin();
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(can_prune ? nl + nr : nl * nr);
  size_t pruned = 0;
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = 0; j < nr; ++j) {
      if (can_prune) {
        const Envelope le = lp->PartitionExtent(i).Expanded(margin);
        if (!le.Intersects(rp->PartitionExtent(j))) {
          ++pruned;
          continue;
        }
      }
      pairs.emplace_back(i, j);
    }
  }
  metrics.pairs_enumerated->Add(pairs.size());
  metrics.pairs_pruned->Add(pruned);

  // The tree (when the predicate can use one) and the slab of each left
  // partition some pair probes, one task per partition: taken from the
  // left side's resident index, where the first join that needs them
  // builds them, or built for this join alone.
  std::vector<char> left_used(nl, 0);
  for (const auto& [i, j] : pairs) {
    (void)j;
    left_used[i] = 1;
  }
  const bool use_slab = columnar_refine::Refinable(pred);
  std::vector<std::shared_ptr<const PackedRTree<size_t>>> left_trees(nl);
  std::vector<std::shared_ptr<const ColumnarBatch>> left_slabs(nl);
  if (use_index || use_slab) {
    std::vector<char> built(nl, 0);
    ctx->RunTasks("spatial.join.build", nl, [&](size_t i) {
      if (!left_used[i]) return;
      const std::vector<L>& part = *left.parts[i];
      if (use_index) {
        bool tree_built = false;
        left_trees[i] = ProbeIndex::Tree(left.index.get(), i,
                                         options.index_order, part,
                                         &tree_built);
        built[i] = tree_built ? 1 : 0;
      }
      if (use_slab && !part.empty() && part.size() <= UINT32_MAX) {
        left_slabs[i] = ProbeIndex::Slab(left.index.get(), i, part);
      }
    });
    size_t tree_builds = 0;
    size_t tree_hits = 0;
    for (size_t i = 0; i < nl; ++i) {
      if (left_trees[i] != nullptr) ++(built[i] ? tree_builds : tree_hits);
    }
    metrics.tree_builds->Add(tree_builds);
    metrics.tree_reuse_hits->Add(tree_hits);
  }

  // Plan the probe schedule: per-pair costs, skew splitting, longest-first.
  std::vector<size_t> left_sizes(nl, 0);
  std::vector<size_t> right_sizes(nr, 0);
  for (size_t i = 0; i < nl; ++i) left_sizes[i] = left.parts[i]->size();
  for (size_t j = 0; j < nr; ++j) right_sizes[j] = right.parts[j]->size();
  size_t pairs_split = 0;
  const std::vector<ProbeTask> tasks = PlanProbeTasks(
      pairs, left_sizes, right_sizes, use_index, options, &pairs_split);
  metrics.pairs_split->Add(pairs_split);
  metrics.subtasks->Add(tasks.size());

  // Every right row of the task probes the left partition: its tree, or a
  // scan of its rows ("No Indexing").
  std::vector<std::vector<Out>> out(tasks.size());
  ctx->RunTasks("spatial.join.probe", tasks.size(), [&](size_t t) {
    const ProbeTask& task = tasks[t];
    const std::vector<L>& lv = *left.parts[task.left];
    const std::vector<R>& rv = *right.parts[task.right];
    const PackedRTree<size_t>* tree = left_trees[task.left].get();
    const ColumnarBatch* slab = left_slabs[task.left].get();
    std::vector<Out>& sink = out[t];
    sink.clear();  // retry-idempotent: a re-run starts from scratch
    if (slab != nullptr && task.begin != 0) {
      // A skew-split sub-task reuses the slab its sibling shares.
      GlobalColumnarMetrics().slab_reuse->Increment();
    }
    Probe probe(pred, /*cand_left=*/true, slab);
    auto obj = [&lv](size_t e) -> const STObject& { return lv[e].first; };
    for (size_t rix = task.begin; rix < task.end; ++rix) {
      auto keep = [&](size_t e) {
        emit(&sink, task.left, e, task.right, rix);
      };
      if (tree != nullptr) {
        probe.Tree(*tree, rv[rix].first, obj, keep);
      } else {
        probe.Scan(lv.size(), rv[rix].first, obj, keep);
      }
    }
    probe.Finish(TaskDetail(task, rv.size()), task.end - task.begin);
    metrics.prefilter_skips->Add(probe.envelope_skips());
    metrics.results->Add(sink.size());
  });
  return out;
}

}  // namespace join_internal

/// \brief Joins two spatial RDDs on \p pred and emits project(l, r) for
/// every matching pair — the projection runs inside the join tasks, so
/// callers that only need payloads (or ids) avoid materializing full
/// geometry pairs.
///
/// Live-index strategy: each participating left partition is probed
/// through an R-tree over its rows (skipped entirely when the predicate
/// cannot use it). A left side that Cache() returned keeps its trees and
/// slabs resident, so only its first join builds them; any other left side
/// builds them once per call. With `options.broadcast_threshold` set and
/// one side small enough, the broadcast strategy is taken instead.
/// Correctness does not require spatial partitioning; with it, extent
/// pruning skips partition pairs that cannot match.
template <typename V, typename W, typename Project>
auto SpatialJoinProject(const SpatialRDD<V>& left, const SpatialRDD<W>& right,
                        const JoinPredicate& pred, const JoinOptions& options,
                        Project project)
    -> RDD<std::invoke_result_t<Project, const std::pair<STObject, V>&,
                                const std::pair<STObject, W>&>> {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  using Out = std::invoke_result_t<Project, const L&, const R&>;
  const join_internal::Side<L> l = join_internal::SideOf(left);
  const join_internal::Side<R> r = join_internal::SideOf(right);
  return MakeRDDFromPartitions(
      left.ctx(),
      join_internal::Join<Out>(
          left.ctx(), l, r, pred, options,
          [&](std::vector<Out>* sink, size_t li, size_t lrow, size_t ri,
              size_t rrow) {
            sink->push_back(project((*l.parts[li])[lrow], (*r.parts[ri])[rrow]));
          }));
}

/// \brief Cached-index join: probes the R-trees already held by \p left —
/// built once by Index()/LiveIndex() or loaded from disk — instead of
/// rebuilding them per call. `engine.join.tree_builds` stays at 0 on this
/// path; every probed tree counts as an `engine.join.tree_reuse_hits`.
///
/// Partition pairs are pruned with the extents captured at indexing time.
/// A non-prunable predicate cannot query the trees; each probe then walks
/// every tree entry (still no tree build). The broadcast strategy never
/// applies here — the index is already paid for.
template <typename V, typename W, typename Project>
auto SpatialJoinProject(const IndexedSpatialRDD<V>& left,
                        const SpatialRDD<W>& right, const JoinPredicate& pred,
                        const JoinOptions& options, Project project)
    -> RDD<std::invoke_result_t<Project, const std::pair<STObject, V>&,
                                const std::pair<STObject, W>&>> {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  using Out = std::invoke_result_t<Project, const L&, const R&>;
  using TreePtr = typename IndexedSpatialRDD<V>::TreePtr;
  namespace ji = join_internal;

  Context* ctx = right.ctx();
  const size_t nl = left.NumPartitions();
  const size_t nr = right.NumPartitions();
  const double margin = pred.EnvelopeMargin();
  const JoinMetricSet& metrics = GlobalJoinMetrics();

  // A cached trees RDD hands back its shared partitions of tree pointers
  // without copying or rebuilding anything; so does a cached right side.
  const std::vector<Partition<TreePtr>> left_trees =
      left.trees().SharedPartitions();
  const std::vector<Partition<R>> right_parts = right.rdd().SharedPartitions();
  std::vector<size_t> left_sizes(nl, 0);
  std::vector<size_t> right_sizes(nr, 0);
  for (size_t i = 0; i < nl; ++i) {
    for (const TreePtr& tree : *left_trees[i]) left_sizes[i] += tree->size();
  }
  for (size_t j = 0; j < nr; ++j) right_sizes[j] = right_parts[j]->size();

  // Enumerate pairs, pruned with the extents captured when the index was
  // built (they grow with the indexed data, exactly like partitioner
  // extents).
  const auto& extents = left.extents();
  const auto& rp = right.partitioner();
  const bool can_prune = pred.Prunable() && extents != nullptr && rp != nullptr;
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(can_prune ? nl + nr : nl * nr);
  size_t pruned = 0;
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = 0; j < nr; ++j) {
      if (can_prune && i < extents->size()) {
        const Envelope le = (*extents)[i].Expanded(margin);
        if (!le.Intersects(rp->PartitionExtent(j))) {
          ++pruned;
          continue;
        }
      }
      pairs.emplace_back(i, j);
    }
  }
  metrics.pairs_enumerated->Add(pairs.size());
  metrics.pairs_pruned->Add(pruned);

  std::vector<char> left_used(nl, 0);
  for (const auto& [i, j] : pairs) {
    (void)j;
    left_used[i] = 1;
  }
  size_t reuse_hits = 0;
  for (size_t i = 0; i < nl; ++i) {
    if (left_used[i]) reuse_hits += left_trees[i]->size();
  }
  metrics.tree_reuse_hits->Add(reuse_hits);

  size_t pairs_split = 0;
  const std::vector<ji::ProbeTask> tasks =
      ji::PlanProbeTasks(pairs, left_sizes, right_sizes, pred.Prunable(),
                         options, &pairs_split);
  metrics.pairs_split->Add(pairs_split);
  metrics.subtasks->Add(tasks.size());

  // The tree entries are the elements themselves (no slab), so candidates
  // refine by scalar prepared evaluation. A non-prunable predicate walks
  // every entry instead of querying.
  std::vector<std::vector<Out>> out(tasks.size());
  ctx->RunTasks("spatial.join.probe", tasks.size(), [&](size_t t) {
    const ji::ProbeTask& task = tasks[t];
    const std::vector<R>& rv = *right_parts[task.right];
    std::vector<Out>& sink = out[t];
    sink.clear();  // retry-idempotent: a re-run starts from scratch
    Probe probe(pred, /*cand_left=*/true);
    auto obj = [](const L& l) -> const STObject& { return l.first; };
    for (size_t rix = task.begin; rix < task.end; ++rix) {
      const R& r = rv[rix];
      auto keep = [&](const L& l) { sink.push_back(project(l, r)); };
      for (const TreePtr& tree : *left_trees[task.left]) {
        probe.Tree(*tree, r.first, obj, keep);
      }
    }
    probe.Finish(ji::TaskDetail(task, rv.size()), task.end - task.begin);
    metrics.results->Add(sink.size());
  });

  return MakeRDDFromPartitions(ctx, std::move(out));
}

/// Joins two spatial RDDs on \p pred; emits every full pair (l, r) with
/// pred.Eval(l.first, r.first) == true.
template <typename V, typename W>
RDD<std::pair<std::pair<STObject, V>, std::pair<STObject, W>>> SpatialJoin(
    const SpatialRDD<V>& left, const SpatialRDD<W>& right,
    const JoinPredicate& pred, const JoinOptions& options = {}) {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  return SpatialJoinProject(left, right, pred, options,
                            [](const L& l, const R& r) {
                              return std::pair<L, R>(l, r);
                            });
}

/// Cached-index variant of SpatialJoin: probes \p left's persistent trees.
template <typename V, typename W>
RDD<std::pair<std::pair<STObject, V>, std::pair<STObject, W>>> SpatialJoin(
    const IndexedSpatialRDD<V>& left, const SpatialRDD<W>& right,
    const JoinPredicate& pred, const JoinOptions& options = {}) {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  return SpatialJoinProject(left, right, pred, options,
                            [](const L& l, const R& r) {
                              return std::pair<L, R>(l, r);
                            });
}

/// \brief Self join that excludes the trivial identity matches and emits
/// project(l, l_tag, r, r_tag) for every matching pair of distinct rows,
/// inside the join tasks. A row's tag is its global position: the number
/// of rows in the partitions before its own plus its row in its partition.
/// Identity pairs (x, x) are dropped inside the probe; both orderings of a
/// matching pair are emitted (standard join semantics). The input's
/// partitions are read once and serve as both sides, so even a lineage that
/// recomputes different rows on every evaluation joins consistently; a
/// Cache()d input probes its resident trees and slabs.
template <typename V, typename Project>
auto SelfSpatialJoinProject(const SpatialRDD<V>& data,
                            const JoinPredicate& pred,
                            const JoinOptions& options, Project project)
    -> RDD<std::invoke_result_t<Project, const std::pair<STObject, V>&, size_t,
                                const std::pair<STObject, V>&, size_t>> {
  using E = std::pair<STObject, V>;
  using Out = std::invoke_result_t<Project, const E&, size_t, const E&, size_t>;
  const join_internal::Side<E> side = join_internal::SideOf(data);
  std::vector<size_t> offset(side.parts.size(), 0);
  for (size_t p = 1; p < offset.size(); ++p) {
    offset[p] = offset[p - 1] + side.parts[p - 1]->size();
  }
  return MakeRDDFromPartitions(
      data.ctx(),
      join_internal::Join<Out>(
          data.ctx(), side, side, pred, options,
          [&](std::vector<Out>* sink, size_t li, size_t lrow, size_t ri,
              size_t rrow) {
            if (li == ri && lrow == rrow) return;
            sink->push_back(project((*side.parts[li])[lrow], offset[li] + lrow,
                                    (*side.parts[ri])[rrow], offset[ri] + rrow));
          }));
}

/// SelfSpatialJoinProject emitting full pairs, each row tagged with its
/// global position: ((geometry, (payload, tag)), (geometry, (payload, tag))).
template <typename V>
RDD<std::pair<std::pair<STObject, std::pair<V, size_t>>,
              std::pair<STObject, std::pair<V, size_t>>>>
SelfSpatialJoin(const SpatialRDD<V>& data, const JoinPredicate& pred,
                const JoinOptions& options = {}) {
  using E = std::pair<STObject, V>;
  using Tagged = std::pair<STObject, std::pair<V, size_t>>;
  return SelfSpatialJoinProject(
      data, pred, options,
      [](const E& l, size_t l_tag, const E& r, size_t r_tag) {
        return std::pair<Tagged, Tagged>(Tagged{l.first, {l.second, l_tag}},
                                         Tagged{r.first, {r.second, r_tag}});
      });
}

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_JOIN_H_
