/// \file rdd.h
/// Lazy, lineage-based resilient-distributed-dataset abstraction — the
/// sparklet engine's equivalent of Spark's RDD. Transformations build a
/// lineage graph of RDDImpl nodes; actions evaluate all partitions in
/// parallel on the Context's worker pool.
#ifndef STARK_ENGINE_RDD_H_
#define STARK_ENGINE_RDD_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/rng.h"
#include "engine/context.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace stark {

/// A computed partition: an immutable vector of elements behind a shared
/// pointer. Nodes that keep their partitions (CollectionRDD, CacheRDD) hand
/// out the pointer they hold, and read-only consumers use the rows in place;
/// a partition an uncached node has just built has the caller as its only
/// owner, so the caller may take its rows by move (TakeRows).
template <typename T>
using Partition = std::shared_ptr<const std::vector<T>>;

/// Wraps freshly built rows as a partition the caller owns outright.
template <typename T>
Partition<T> MakePartition(std::vector<T> rows) {
  // Allocated non-const, so TakeRows may move out of a sole-owner partition.
  return std::make_shared<std::vector<T>>(std::move(rows));
}

/// Owned rows of \p part: moved out when the caller holds the only reference,
/// else copied. A copy is counted in `engine.partition.copied_rows` with one
/// Add per call (at most once per partition per task).
template <typename T>
std::vector<T> TakeRows(Partition<T> part) {
  static obs::Counter* const copied_rows =
      obs::DefaultMetrics().GetCounter("engine.partition.copied_rows");
  if (part.use_count() == 1) {
    return std::move(const_cast<std::vector<T>&>(*part));
  }
  copied_rows->Add(part->size());
  return *part;
}

/// Lineage node: computes the contents of one partition on demand.
template <typename T>
class RDDImpl {
 public:
  explicit RDDImpl(Context* ctx) : ctx_(ctx) { STARK_CHECK(ctx != nullptr); }
  virtual ~RDDImpl() = default;

  virtual size_t NumPartitions() const = 0;
  /// Never null. Shared with the node when it keeps its partitions.
  virtual Partition<T> Compute(size_t partition) const = 0;

  Context* ctx() const { return ctx_; }

 private:
  Context* ctx_;
};

namespace engine_internal {

/// Calls visit(row) for every row of \p part on behalf of a per-row user
/// function. Rows are read in place when the user function takes const rows
/// (\p kReadsConst) or when the caller owns \p part outright; visit then
/// gets a mutable row it may move from. Otherwise visit runs over an owned
/// copy (TakeRows).
template <bool kReadsConst, typename T, typename Visit>
void VisitRows(Partition<T> part, Visit&& visit) {
  if constexpr (kReadsConst) {
    if (part.use_count() != 1) {
      for (const T& x : *part) visit(x);
      return;
    }
  }
  std::vector<T> rows = TakeRows(std::move(part));
  for (T& x : rows) visit(x);
}

/// True when F's call operator takes its second parameter as an owned
/// std::vector<T> by value. Generic and overloaded call operators count as
/// readers.
template <typename M>
struct SecondParam {
  using type = void;
};
template <typename C, typename R, typename A, typename B>
struct SecondParam<R (C::*)(A, B) const> {
  using type = B;
};
template <typename C, typename R, typename A, typename B>
struct SecondParam<R (C::*)(A, B)> {
  using type = B;
};
template <typename F, typename = void>
struct CallOperator {
  using type = void;
};
template <typename F>
struct CallOperator<F, std::void_t<decltype(&F::operator())>> {
  using type = decltype(&F::operator());
};
template <typename F, typename T>
inline constexpr bool kTakesOwnedRows =
    std::is_same_v<typename SecondParam<typename CallOperator<F>::type>::type,
                   std::vector<T>>;

/// Materialized data, the leaf of every lineage graph.
template <typename T>
class CollectionRDD final : public RDDImpl<T> {
 public:
  CollectionRDD(Context* ctx, std::vector<std::vector<T>> partitions)
      : RDDImpl<T>(ctx) {
    partitions_.reserve(partitions.size());
    for (auto& part : partitions) {
      partitions_.push_back(MakePartition(std::move(part)));
    }
  }

  size_t NumPartitions() const override { return partitions_.size(); }
  Partition<T> Compute(size_t p) const override { return partitions_[p]; }

 private:
  std::vector<Partition<T>> partitions_;
};

template <typename T, typename U, typename F>
class MapRDD final : public RDDImpl<U> {
 public:
  MapRDD(std::shared_ptr<const RDDImpl<T>> parent, F fn)
      : RDDImpl<U>(parent->ctx()), parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  Partition<U> Compute(size_t p) const override {
    Partition<T> in = parent_->Compute(p);
    std::vector<U> out;
    out.reserve(in->size());
    VisitRows<std::is_invocable_v<const F&, const T&>>(
        std::move(in), [&](auto& x) { out.push_back(fn_(x)); });
    return MakePartition(std::move(out));
  }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  F fn_;
};

template <typename T, typename F>
class FilterRDD final : public RDDImpl<T> {
 public:
  FilterRDD(std::shared_ptr<const RDDImpl<T>> parent, F fn)
      : RDDImpl<T>(parent->ctx()), parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  Partition<T> Compute(size_t p) const override {
    std::vector<T> out;
    // A shared row is copied only when it survives; an owned one is moved.
    VisitRows<std::is_invocable_v<const F&, const T&>>(
        parent_->Compute(p), [&](auto& x) {
          if (fn_(x)) out.push_back(std::move(x));
        });
    return MakePartition(std::move(out));
  }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  F fn_;
};

template <typename T, typename U, typename F>
class FlatMapRDD final : public RDDImpl<U> {
 public:
  FlatMapRDD(std::shared_ptr<const RDDImpl<T>> parent, F fn)
      : RDDImpl<U>(parent->ctx()), parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  Partition<U> Compute(size_t p) const override {
    std::vector<U> out;
    VisitRows<std::is_invocable_v<const F&, const T&>>(
        parent_->Compute(p), [&](auto& x) {
          std::vector<U> ys = fn_(x);
          for (auto& y : ys) out.push_back(std::move(y));
        });
    return MakePartition(std::move(out));
  }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  F fn_;
};

/// fn(partition_index, partition_contents) -> new partition contents. A
/// reader fn (taking `const std::vector<T>&`) reads a shared partition in
/// place; a fn taking an owned `std::vector<T>` by value gets the rows by
/// move when the caller owns the partition outright, else a counted copy.
template <typename T, typename U, typename F>
class MapPartitionsRDD final : public RDDImpl<U> {
 public:
  MapPartitionsRDD(std::shared_ptr<const RDDImpl<T>> parent, F fn)
      : RDDImpl<U>(parent->ctx()), parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  Partition<U> Compute(size_t p) const override {
    Partition<T> in = parent_->Compute(p);
    if constexpr (!kTakesOwnedRows<F, T>) {
      if (in.use_count() != 1) return MakePartition(fn_(p, *in));
    }
    return MakePartition(fn_(p, TakeRows(std::move(in))));
  }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  F fn_;
};

template <typename T>
class UnionRDD final : public RDDImpl<T> {
 public:
  UnionRDD(std::shared_ptr<const RDDImpl<T>> a,
           std::shared_ptr<const RDDImpl<T>> b)
      : RDDImpl<T>(a->ctx()), a_(std::move(a)), b_(std::move(b)) {}

  size_t NumPartitions() const override {
    return a_->NumPartitions() + b_->NumPartitions();
  }
  Partition<T> Compute(size_t p) const override {
    if (p < a_->NumPartitions()) return a_->Compute(p);
    return b_->Compute(p - a_->NumPartitions());
  }

 private:
  std::shared_ptr<const RDDImpl<T>> a_;
  std::shared_ptr<const RDDImpl<T>> b_;
};

/// Skips whole partitions without ever computing them — the engine-level
/// hook behind STARK's partition-bound pruning (Spark's
/// PartitionPruningRDD). Pruned partitions yield an empty result.
template <typename T>
class PrunePartitionsRDD final : public RDDImpl<T> {
 public:
  PrunePartitionsRDD(std::shared_ptr<const RDDImpl<T>> parent,
                     std::function<bool(size_t)> keep)
      : RDDImpl<T>(parent->ctx()), parent_(std::move(parent)),
        keep_(std::move(keep)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  Partition<T> Compute(size_t p) const override {
    static obs::Counter* const pruned =
        obs::DefaultMetrics().GetCounter("engine.partitions.pruned");
    if (!keep_(p)) {
      pruned->Increment();
      return MakePartition(std::vector<T>());
    }
    return parent_->Compute(p);
  }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  std::function<bool(size_t)> keep_;
};

/// Partition i is partition parents[i] of the parent; the parent's other
/// partitions are never computed (Spark's PartitionPruningRDD, which also
/// narrows the partition list). Counts nothing: the caller knows how many
/// partitions its whole plan skipped.
template <typename T>
class SelectPartitionsRDD final : public RDDImpl<T> {
 public:
  SelectPartitionsRDD(std::shared_ptr<const RDDImpl<T>> parent,
                      std::vector<size_t> parents)
      : RDDImpl<T>(parent->ctx()), parent_(std::move(parent)),
        parents_(std::move(parents)) {}

  size_t NumPartitions() const override { return parents_.size(); }
  Partition<T> Compute(size_t p) const override {
    return parent_->Compute(parents_[p]);
  }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  std::vector<size_t> parents_;
};

/// Computes each parent partition at most once and keeps it, like Spark's
/// MEMORY-persisted RDDs. Every later Compute hands out the kept partition
/// itself (a shared pointer), never a copy of its rows.
template <typename T>
class CacheRDD final : public RDDImpl<T> {
 public:
  explicit CacheRDD(std::shared_ptr<const RDDImpl<T>> parent)
      : RDDImpl<T>(parent->ctx()), parent_(std::move(parent)),
        slots_(parent_->NumPartitions()) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  Partition<T> Compute(size_t p) const override {
    static obs::Counter* const hits =
        obs::DefaultMetrics().GetCounter("engine.cache.hits");
    static obs::Counter* const misses =
        obs::DefaultMetrics().GetCounter("engine.cache.misses");
    static fault::FailPoint* const cache_fp =
        fault::DefaultFailPoints().Get("engine.cache.materialize");
    Slot& slot = slots_[p];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.data != nullptr) {
      hits->Increment();
      return slot.data;
    }
    // An injected (or real) failure propagates before the slot is set, so
    // a retried task re-materializes the partition: the cache never latches
    // a half-built slot. Concurrent readers of the same partition wait on
    // the slot's mutex for the one materialization.
    fault::MaybeThrow(cache_fp);
    slot.data = parent_->Compute(p);
    misses->Increment();
    return slot.data;
  }

 private:
  struct Slot {
    std::mutex mu;
    Partition<T> data;  // null until materialized
  };
  std::shared_ptr<const RDDImpl<T>> parent_;
  mutable std::vector<Slot> slots_;
};

}  // namespace engine_internal

/// \brief User-facing RDD handle (cheap to copy; shares the lineage node).
template <typename T>
class RDD {
 public:
  using ElementType = T;

  RDD() = default;
  explicit RDD(std::shared_ptr<const RDDImpl<T>> impl)
      : impl_(std::move(impl)) {}

  bool Valid() const { return impl_ != nullptr; }
  Context* ctx() const { return impl_->ctx(); }
  size_t NumPartitions() const { return impl_->NumPartitions(); }

  /// Computes partition \p p and returns its rows as an owned vector. A
  /// partition kept by a cached or collection node is copied (counted in
  /// `engine.partition.copied_rows`); read-only callers use
  /// SharedPartitions() or a `const std::vector<T>&` MapPartitionsWithIndex
  /// function instead.
  std::vector<T> ComputePartition(size_t p) const {
    return TakeRows(impl_->Compute(p));
  }

  // ---- Transformations (lazy) -------------------------------------------

  /// Element-wise transform, like Spark's `map`.
  template <typename F>
  auto Map(F fn) const {
    using U = std::invoke_result_t<F, T&>;
    return RDD<U>(std::make_shared<engine_internal::MapRDD<T, U, F>>(
        impl_, std::move(fn)));
  }

  /// Keeps elements for which \p fn returns true.
  template <typename F>
  RDD<T> Filter(F fn) const {
    return RDD<T>(std::make_shared<engine_internal::FilterRDD<T, F>>(
        impl_, std::move(fn)));
  }

  /// Element to zero-or-more elements; \p fn returns a std::vector.
  template <typename F>
  auto FlatMap(F fn) const {
    using Vec = std::invoke_result_t<F, T&>;
    using U = typename Vec::value_type;
    return RDD<U>(std::make_shared<engine_internal::FlatMapRDD<T, U, F>>(
        impl_, std::move(fn)));
  }

  /// Whole-partition transform: fn(partition_index, rows) must return the
  /// new partition contents (any element type). A fn taking
  /// `const std::vector<T>&` reads cached partitions in place; one taking an
  /// owned `std::vector<T>` gets the rows by move when nothing else holds
  /// them, else a copy counted in `engine.partition.copied_rows`.
  template <typename F>
  auto MapPartitionsWithIndex(F fn) const {
    using Vec = std::invoke_result_t<F, size_t, const std::vector<T>&>;
    using U = typename Vec::value_type;
    return RDD<U>(
        std::make_shared<engine_internal::MapPartitionsRDD<T, U, F>>(
            impl_, std::move(fn)));
  }

  /// Concatenation of the two datasets' partition lists.
  RDD<T> Union(const RDD<T>& other) const {
    return RDD<T>(std::make_shared<engine_internal::UnionRDD<T>>(
        impl_, other.impl_));
  }

  /// Marks this RDD as cached: each partition is computed at most once.
  RDD<T> Cache() const {
    return RDD<T>(std::make_shared<engine_internal::CacheRDD<T>>(impl_));
  }

  /// Skips partitions for which \p keep returns false without computing
  /// them (Spark's PartitionPruningRDD; partition count is preserved).
  RDD<T> PrunePartitions(std::function<bool(size_t)> keep) const {
    return RDD<T>(std::make_shared<engine_internal::PrunePartitionsRDD<T>>(
        impl_, std::move(keep)));
  }

  /// The partitions \p parents of this RDD, in that order, as a new RDD of
  /// parents.size() partitions; no other partition is computed.
  RDD<T> SelectPartitions(std::vector<size_t> parents) const {
    for (size_t p : parents) STARK_CHECK(p < NumPartitions());
    return RDD<T>(std::make_shared<engine_internal::SelectPartitionsRDD<T>>(
        impl_, std::move(parents)));
  }

  /// Bernoulli sample of roughly `fraction` of the elements; deterministic
  /// for a given seed (each partition derives its own stream).
  RDD<T> Sample(double fraction, uint64_t seed = 42) const {
    return MapPartitionsWithIndex(
        [fraction, seed](size_t idx, std::vector<T> part) {
          Rng rng(seed * 1315423911u + idx);
          std::vector<T> out;
          for (auto& x : part) {
            if (rng.Bernoulli(fraction)) out.push_back(std::move(x));
          }
          return out;
        });
  }

  // ---- Shuffles (eager, like a Spark stage boundary) --------------------

  /// Reassigns every element to the partition returned by \p target
  /// (which must be < \p num_partitions). Materializes the shuffle.
  RDD<T> PartitionBy(size_t num_partitions,
                     const std::function<size_t(const T&)>& target) const {
    STARK_CHECK(num_partitions >= 1);
    static obs::Counter* const shuffle_records =
        obs::DefaultMetrics().GetCounter("engine.shuffle.records");
    static obs::Counter* const shuffles =
        obs::DefaultMetrics().GetCounter("engine.shuffles");
    static fault::FailPoint* const shuffle_fp =
        fault::DefaultFailPoints().Get("engine.shuffle.route");
    shuffles->Increment();
    const size_t in_parts = NumPartitions();
    // Route each input partition into per-target buckets in parallel...
    // (Each attempt rebuilds its buckets from the lineage and the metric
    // Add happens after routing succeeds, so a retried map task neither
    // duplicates data nor double-counts records.)
    std::vector<std::vector<std::vector<T>>> routed(in_parts);
    ctx()->RunTasks("rdd.shuffle.map", in_parts, [&](size_t p) {
      fault::MaybeThrow(shuffle_fp);
      std::vector<std::vector<T>> buckets(num_partitions);
      std::vector<T> in = TakeRows(impl_->Compute(p));
      if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
        span->records_in = in.size();
        span->records_out = in.size();
        span->bytes = in.size() * sizeof(T);
      }
      for (auto& x : in) {
        const size_t t = target(x);
        STARK_DCHECK(t < num_partitions);
        buckets[t].push_back(std::move(x));
      }
      shuffle_records->Add(in.size());
      routed[p] = std::move(buckets);
    });
    // ...then concatenate the buckets per target partition.
    std::vector<std::vector<T>> out(num_partitions);
    for (size_t t = 0; t < num_partitions; ++t) {
      size_t total = 0;
      for (size_t p = 0; p < in_parts; ++p) total += routed[p][t].size();
      out[t].reserve(total);
      for (size_t p = 0; p < in_parts; ++p) {
        for (auto& x : routed[p][t]) out[t].push_back(std::move(x));
        routed[p][t].clear();
      }
    }
    return RDD<T>(std::make_shared<engine_internal::CollectionRDD<T>>(
        ctx(), std::move(out)));
  }

  /// Rebalances into \p num_partitions equal chunks (round-robin).
  RDD<T> Repartition(size_t num_partitions) const {
    std::vector<T> all = Collect();
    return MakeRDD(ctx(), std::move(all), num_partitions);
  }

  /// Pairs every element with a globally unique, stable index.
  RDD<std::pair<T, size_t>> ZipWithIndex() const {
    std::vector<Partition<T>> parts = SharedPartitions();
    std::vector<std::vector<std::pair<T, size_t>>> out(parts.size());
    size_t next = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      out[p].reserve(parts[p]->size());
      engine_internal::VisitRows<true>(std::move(parts[p]), [&](auto& x) {
        out[p].emplace_back(std::move(x), next++);
      });
    }
    return RDD<std::pair<T, size_t>>(
        std::make_shared<engine_internal::CollectionRDD<std::pair<T, size_t>>>(
            ctx(), std::move(out)));
  }

  // ---- Actions (trigger evaluation) --------------------------------------
  //
  // Each action has a Status-returning Try* form and a throwing
  // value-returning form. A task that keeps failing after the context's
  // RetryPolicy is exhausted surfaces as a non-OK Result from Try*; the
  // plain forms throw the same failure as a StatusError on the driver
  // thread (never through the worker pool).

  /// Evaluates all partitions as one job and returns them uncopied, in
  /// partition order: the pointers a cached or collection node keeps, or
  /// partitions the caller owns outright.
  Result<std::vector<Partition<T>>> TrySharedPartitions() const {
    const size_t n = NumPartitions();
    std::vector<Partition<T>> parts(n);
    STARK_RETURN_NOT_OK(ctx()->TryRunTasks("rdd.collect", n, [&](size_t p) {
      parts[p] = impl_->Compute(p);
      if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
        span->records_in = parts[p]->size();
        span->records_out = parts[p]->size();
      }
    }));
    return parts;
  }

  std::vector<Partition<T>> SharedPartitions() const {
    Result<std::vector<Partition<T>>> parts = TrySharedPartitions();
    if (!parts.ok()) throw StatusError(parts.status());
    return std::move(parts).ValueOrDie();
  }

  /// Evaluates and returns all partitions as owned vectors, in partition
  /// order. Kept partitions are copied (see ComputePartition).
  Result<std::vector<std::vector<T>>> TryCollectPartitions() const {
    const size_t n = NumPartitions();
    std::vector<std::vector<T>> parts(n);
    STARK_RETURN_NOT_OK(ctx()->TryRunTasks("rdd.collect", n, [&](size_t p) {
      parts[p] = TakeRows(impl_->Compute(p));
      if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
        span->records_in = parts[p].size();
        span->records_out = parts[p].size();
      }
    }));
    return parts;
  }

  std::vector<std::vector<T>> CollectPartitions() const {
    Result<std::vector<std::vector<T>>> parts = TryCollectPartitions();
    if (!parts.ok()) throw StatusError(parts.status());
    return std::move(parts).ValueOrDie();
  }

  /// Evaluates and concatenates all partitions.
  Result<std::vector<T>> TryCollect() const {
    STARK_ASSIGN_OR_RETURN(std::vector<std::vector<T>> parts,
                           TryCollectPartitions());
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    std::vector<T> out;
    out.reserve(total);
    for (auto& part : parts) {
      for (auto& x : part) out.push_back(std::move(x));
    }
    return out;
  }

  std::vector<T> Collect() const {
    Result<std::vector<T>> out = TryCollect();
    if (!out.ok()) throw StatusError(out.status());
    return std::move(out).ValueOrDie();
  }

  /// Number of elements.
  Result<size_t> TryCount() const {
    const size_t n = NumPartitions();
    std::vector<size_t> counts(n, 0);
    STARK_RETURN_NOT_OK(ctx()->TryRunTasks("rdd.count", n, [&](size_t p) {
      counts[p] = impl_->Compute(p)->size();
      if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
        span->records_in = counts[p];
        span->records_out = 1;
      }
    }));
    size_t total = 0;
    for (size_t c : counts) total += c;
    return total;
  }

  size_t Count() const {
    Result<size_t> count = TryCount();
    if (!count.ok()) throw StatusError(count.status());
    return count.ValueOrDie();
  }

  /// Folds all elements with \p fn starting from \p init (fn must be
  /// associative and commutative, as in Spark).
  template <typename F>
  T Fold(T init, F fn) const {
    const size_t n = NumPartitions();
    std::vector<T> partials(n, init);
    ctx()->RunTasks("rdd.fold", n, [&](size_t p) {
      Partition<T> items = impl_->Compute(p);
      if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
        span->records_in = items->size();
        span->records_out = 1;
      }
      T acc = init;
      engine_internal::VisitRows<std::is_invocable_v<F&, T&, const T&>>(
          std::move(items), [&](auto& x) { acc = fn(acc, x); });
      partials[p] = std::move(acc);
    });
    T acc = init;
    for (auto& x : partials) acc = fn(acc, x);
    return acc;
  }

  /// First \p n elements in partition order. Rows of a partition the
  /// caller owns outright are moved; rows of a kept one are copied (counted
  /// in `engine.partition.copied_rows`).
  std::vector<T> Take(size_t n) const {
    static obs::Counter* const copied_rows =
        obs::DefaultMetrics().GetCounter("engine.partition.copied_rows");
    std::vector<T> out;
    for (size_t p = 0; p < NumPartitions() && out.size() < n; ++p) {
      Partition<T> part = impl_->Compute(p);
      const size_t take = std::min(n - out.size(), part->size());
      if (part.use_count() == 1) {
        // Allocated non-const by MakePartition, as TakeRows relies on.
        auto& rows = const_cast<std::vector<T>&>(*part);
        for (size_t i = 0; i < take; ++i) out.push_back(std::move(rows[i]));
      } else {
        out.insert(out.end(), part->begin(),
                   part->begin() + static_cast<ptrdiff_t>(take));
        copied_rows->Add(take);
      }
    }
    return out;
  }

  const std::shared_ptr<const RDDImpl<T>>& impl() const { return impl_; }

 private:
  std::shared_ptr<const RDDImpl<T>> impl_;
};

/// Creates an RDD from in-memory data split into \p num_partitions chunks
/// (0 = the context's default parallelism) — Spark's `parallelize`.
template <typename T>
RDD<T> MakeRDD(Context* ctx, std::vector<T> data, size_t num_partitions = 0) {
  const size_t n =
      num_partitions != 0 ? num_partitions : ctx->default_parallelism();
  std::vector<std::vector<T>> parts(n);
  const size_t chunk = (data.size() + n - 1) / std::max<size_t>(n, 1);
  size_t i = 0;
  for (size_t p = 0; p < n && i < data.size(); ++p) {
    const size_t end = std::min(i + chunk, data.size());
    parts[p].reserve(end - i);
    for (; i < end; ++i) parts[p].push_back(std::move(data[i]));
  }
  return RDD<T>(std::make_shared<engine_internal::CollectionRDD<T>>(
      ctx, std::move(parts)));
}

/// Creates an RDD directly from pre-built partitions.
template <typename T>
RDD<T> MakeRDDFromPartitions(Context* ctx,
                             std::vector<std::vector<T>> partitions) {
  return RDD<T>(std::make_shared<engine_internal::CollectionRDD<T>>(
      ctx, std::move(partitions)));
}

}  // namespace stark

#endif  // STARK_ENGINE_RDD_H_
