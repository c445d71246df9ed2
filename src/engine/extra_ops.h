#ifndef MATRYOSHKA_ENGINE_EXTRA_OPS_H_
#define MATRYOSHKA_ENGINE_EXTRA_OPS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

/// Secondary operators of the flat engine, rounding out the RDD-style API:
/// sampling (the paper's Sec. 2.3 mentions sampling-based hyperparameter
/// techniques that vary sample sizes), multiset difference/intersection,
/// generalized keyed aggregation, and a top-k action.
namespace matryoshka::engine {

/// Bernoulli sample: keeps each element independently with probability
/// `fraction`, deterministically derived from (seed, element hash, position)
/// so re-evaluation is stable. Narrow and fused like Map (ops.h); preserves
/// scale (a real engine's sample of the real data keeps fraction * real
/// elements) and key partitioning.
template <internal::BagHandle B>
auto Sample(const B& bag, double fraction, uint64_t seed) {
  const auto threshold = static_cast<uint64_t>(
      fraction >= 1.0 ? ~uint64_t{0}
                      : fraction * static_cast<double>(~uint64_t{0}));
  return internal::ComposeOnto(
      bag,
      [seed, threshold](auto up) {
        return internal::SampleFeed<decltype(up)>{std::move(up), seed,
                                                  threshold};
      },
      {"sample", 0.25, /*counts_exact=*/false, /*counts_bounded=*/true,
       /*keeps_key_partitions=*/true});
}

/// Multiset difference with set semantics on the right (Spark's subtract):
/// keeps the elements of `a` that do not occur in `b` at all. Shuffles both
/// sides by element hash.
template <typename T>
Bag<T> Subtract(const Bag<T>& a, const Bag<T>& b,
                int64_t num_partitions = -1) {
  MATRYOSHKA_CHECK(a.cluster() == b.cluster());
  Cluster* c = a.cluster();
  if (!c->ok()) return Bag<T>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  auto as = internal::ShuffleBy(a, parts, std::identity{}, "subtract[left]");
  auto bs = internal::ShuffleBy(b, parts, std::identity{}, "subtract[right]");
  c->AccrueStage(internal::CoPartitionCosts(c, as, a.scale(), bs, b.scale(),
                                             0.5),
                 /*lineage_depth=*/1, StageContext{"subtract"});
  typename Bag<T>::Partitions out(static_cast<std::size_t>(parts));
  internal::GuardedParallelFor(c, static_cast<std::size_t>(parts), [&](std::size_t i) {
    external::KeyedTable<T, external::NoValue> exclude;
    exclude.reserve(bs[i].size());
    for (const auto& x : bs[i]) exclude.FindOrInsert(x);
    for (const auto& x : as[i]) {
      if (exclude.Find(x) == exclude.kAbsent) out[i].push_back(x);
    }
  });
  return Bag<T>(c, std::move(out), a.scale());
}

/// Set intersection (deduplicated, like Spark's intersection): the distinct
/// elements occurring on both sides.
template <typename T>
Bag<T> Intersection(const Bag<T>& a, const Bag<T>& b,
                    int64_t num_partitions = -1) {
  MATRYOSHKA_CHECK(a.cluster() == b.cluster());
  Cluster* c = a.cluster();
  if (!c->ok()) return Bag<T>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  auto as =
      internal::ShuffleBy(a, parts, std::identity{}, "intersection[left]");
  auto bs =
      internal::ShuffleBy(b, parts, std::identity{}, "intersection[right]");
  c->AccrueStage(internal::CoPartitionCosts(c, as, a.scale(), bs, b.scale(),
                                             0.5),
                 /*lineage_depth=*/1, StageContext{"intersection"});
  typename Bag<T>::Partitions out(static_cast<std::size_t>(parts));
  internal::GuardedParallelFor(c, static_cast<std::size_t>(parts), [&](std::size_t i) {
    // Right-side elements, each flagged once emitted.
    external::KeyedTable<T, bool> right;
    right.reserve(bs[i].size());
    for (const auto& x : bs[i]) right.FindOrInsert(x);
    for (const auto& x : as[i]) {
      const std::size_t slot = right.Find(x);
      if (slot == right.kAbsent || right.value(slot)) continue;
      right.value(slot) = true;
      out[i].push_back(x);
    }
  });
  return Bag<T>(c, std::move(out), std::min(a.scale(), b.scale()));
}

/// Generalized keyed aggregation (Spark's aggregateByKey): folds each key's
/// values into an accumulator of a different type. `seq(acc, v)` absorbs a
/// value; `comb(acc, acc)` merges partial accumulators across partitions.
/// Map-side combining applies, like ReduceByKey; see shuffle.h for
/// `result_scale`.
template <typename K, typename V, typename A, typename Seq, typename Comb>
Bag<std::pair<K, A>> AggregateByKey(const Bag<std::pair<K, V>>& bag, A zero,
                                    Seq seq, Comb comb,
                                    int64_t num_partitions = -1,
                                    double weight = 1.0,
                                    double result_scale = -1.0) {
  using KA = std::pair<K, A>;
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<KA>(c);
  // Map side: fold values into accumulators per partition with `seq`, in
  // stream order, through the budgeted keyed build; charged as the
  // whole-partition pass it is (forcing point, scan stage, lineage + 1).
  // The partials then merge with an ordinary ReduceByKey.
  bag.Force();
  internal::ChargeScanStage(bag, weight, "aggregateByKey[seq]");
  const auto& in = bag.partitions();
  auto absorb = [&seq](A& acc, V&& v) { acc = seq(acc, v); };
  auto partials = internal::KeyedBuild<K, V>(
      c, in.size(),
      [&zero, &absorb](V&& v) {
        A acc = zero;
        absorb(acc, std::move(v));
        return acc;
      },
      absorb, [](const V&) { return std::size_t{0}; },
      [&in](std::size_t i, auto& agg) {
        for (const auto& [k, v] : in[i]) agg.Feed(k, v);
      },
      "aggregateByKey[seq]");
  if (!c->ok()) return Bag<KA>(c);
  return ReduceByKey(
      internal::MaybeAutoCheckpoint(Bag<KA>(c, std::move(partials), bag.scale(),
                                            0, bag.lineage_depth() + 1)),
      comb, num_partitions, weight, result_scale);
}

/// The k smallest elements under `cmp` (an action; k is expected to be
/// driver-sized). Deterministic: ties are broken by comparison order after
/// a full sort of the per-partition winners.
template <typename T, typename Cmp>
std::vector<T> TopK(const Bag<T>& bag, std::size_t k, Cmp cmp) {
  Cluster* c = bag.cluster();
  if (!c->ok() || k == 0) return {};
  bag.Force();  // actions are forcing points
  c->BeginJob("top");
  internal::ChargeScanStage(bag, 0.5, "top");
  std::vector<T> heap;
  for (const auto& part : bag.partitions()) {
    for (const auto& x : part) {
      heap.push_back(x);
      std::push_heap(heap.begin(), heap.end(), cmp);
      if (heap.size() > k) {
        std::pop_heap(heap.begin(), heap.end(), cmp);
        heap.pop_back();
      }
    }
  }
  std::sort(heap.begin(), heap.end(), cmp);
  return heap;
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_EXTRA_OPS_H_
