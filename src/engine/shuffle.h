#ifndef MATRYOSHKA_ENGINE_SHUFFLE_H_
#define MATRYOSHKA_ENGINE_SHUFFLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "engine/bag.h"
#include "engine/external/external_group.h"
#include "engine/ops.h"
#include "engine/parallel_shuffle.h"

/// Wide (shuffling) operators: repartitioning, keyed aggregation, grouping,
/// and duplicate elimination. Joins live in join.h.
///
/// Scale semantics: repartitioning keeps the input scale. Aggregating
/// operators (ReduceByKey, Distinct) take an optional `result_scale`: by
/// default the input scale is kept (right when the key space scales with
/// the data, e.g. visitor IPs); pass an explicit value — typically 1.0 or
/// the tag bag's scale — when the operator collapses onto a fixed key space
/// (e.g. per-(run, centroid) aggregates in lifted K-means), so the tiny
/// combined intermediate is not billed as if it were data-sized.
///
/// Lineage semantics (fault model): a shuffle is a stage boundary, so every
/// wide operator's output restarts at lineage depth 1 — after a machine
/// loss, only the narrow chain since the last shuffle is recomputed. The
/// co-partitioned ReduceByKey fast path is narrow and keeps growing the
/// depth.
namespace matryoshka::engine {

namespace internal {

inline int64_t ResolveParallelism(Cluster* c, int64_t requested) {
  // effective_parallelism == config default_parallelism until machine loss
  // with degraded re-planning on, which scales it to the surviving machines.
  return requested > 0 ? requested : c->effective_parallelism();
}

inline double ResolveScale(double requested, double input_scale) {
  return requested >= 0 ? requested : input_scale;
}

/// True when a keyed bag is already hash-partitioned on its key into
/// exactly `parts` partitions — the shuffle is then a no-op on the network.
template <typename T>
bool AlreadyKeyPartitioned(const Bag<T>& bag, int64_t parts) {
  return bag.key_partitions() == parts && bag.num_partitions() == parts;
}

/// The scatter funnel of every wide operator: the one deterministic kernel
/// (parallel_shuffle.h) under the producers' static share of the real
/// budget — SIZE_MAX, never spilling, when the budget is unbounded or the
/// element type is not spillable. Its real spill totals, reduced in
/// producer order, go into the cluster's real_* metrics, driver-side.
///
/// Graceful degradation (the real-fault contract): when the scatter's spill
/// IO fails — ENOSPC, EIO through the retry budget, a checksum mismatch on
/// merge-on-read — the inputs are still untouched, so with
/// RealIoPolicy::fallback_in_memory (the default) the op re-runs the kernel
/// unbounded, ignoring the scratch budget for this one op: bit-identical
/// output, counted in inmemory_fallbacks and logged. With the fallback off,
/// or on an injected allocation failure (falling back to MORE memory use
/// would be self-defeating), the job fails with the typed Status instead.
template <typename T, typename PartOf>
std::vector<std::vector<T>> BudgetedScatter(
    Cluster* c, const std::vector<std::vector<T>>& inputs,
    std::size_t num_parts, const PartOf& part_of, const char* label) {
  const std::size_t quota = external::kSpillable<T>
                                ? c->real_budget().ShareFor(inputs.size())
                                : SIZE_MAX;
  external::SpillStats stats;
  std::vector<std::vector<T>> out;
  Status st = ParallelScatter(c->pool(), inputs, num_parts, part_of, quota,
                              c->failpoints(), &stats, &out);
  const bool disk_failure =
      st.IsResourceExhausted() || st.IsIOError() || st.IsDataCorruption();
  if (disk_failure && c->failpoints()->policy().fallback_in_memory) {
    stats.inmemory_fallbacks += 1;
    MATRYOSHKA_LOG(kWarning)
        << label << ": spill IO failed (" << st.ToString()
        << "); re-running the scatter in memory";
    st = ParallelScatter(c->pool(), inputs, num_parts, part_of, SIZE_MAX,
                         c->failpoints(), &stats, &out);
  }
  c->NoteRealSpill(stats, label);
  if (st.ok()) return out;
  c->Fail(st);
  return std::vector<std::vector<T>>(num_parts);
}

/// The one per-partition keyed build (ReduceByKey's three builds,
/// GroupByKey, CoGroup, AggregateByKey's map side): a BoundedAggregator per
/// partition on the pool under the partition's static budget share
/// (SIZE_MAX, never spilling, when unbounded); `feed(i, agg)` streams
/// partition i's (K, P) elements into it in order. Keys come out in
/// first-occurrence order with `absorb` applied in exact stream order, for
/// any budget (external/external_group.h). Spill stats are summed in
/// partition order and reported under `label`. On a build failure the
/// cluster fails with the first failing Status by ascending partition index
/// (deterministic for any pool size) and the partitions come back empty.
template <typename K, typename P, typename Init, typename Absorb,
          typename Growth, typename FeedPart>
auto KeyedBuild(Cluster* c, std::size_t parts, const Init& init,
                const Absorb& absorb, const Growth& growth,
                const FeedPart& feed, const char* label) {
  using Acc = std::decay_t<std::invoke_result_t<const Init&, P&&>>;
  std::vector<std::vector<std::pair<K, Acc>>> out(parts);
  std::vector<external::SpillStats> stats(parts);
  std::vector<Status> status(parts);
  const std::size_t quota = c->real_budget().ShareFor(parts);
  GuardedParallelFor(c, parts, [&](std::size_t i) {
    external::BoundedAggregator<K, P, Acc, Init, Absorb, Growth> agg(
        quota, init, absorb, growth, &stats[i], c->failpoints(),
        /*stream_id=*/i);
    feed(i, agg);
    out[i] = agg.Finish();
    status[i] = agg.status();
  });
  external::SpillStats total;
  for (const auto& s : stats) total.Add(s);
  c->NoteRealSpill(total, label);
  const auto failed = std::find_if(status.begin(), status.end(),
                                   [](const Status& st) { return !st.ok(); });
  if (failed == status.end()) return out;
  c->Fail(*failed);
  return decltype(out)(parts);
}

template <typename K>
std::size_t PartitionOfKey(const K& key, int64_t num_parts) {
  return static_cast<std::size_t>(Hasher{}(key) %
                                  static_cast<uint64_t>(num_parts));
}

/// Redistributes elements into `num_parts` hash partitions by
/// PartitionOfKey(key_of(elem)). Charges the map-side scan and the network
/// shuffle, not the reduce side. The data movement runs on the
/// deterministic parallel shuffle kernel (parallel_shuffle.h): bit-identical
/// partition contents and ordering for any pool size, exact-reserved output
/// vectors via the counting pre-pass.
template <typename T, typename KeyOf>
typename Bag<T>::Partitions ShuffleBy(const Bag<T>& bag, int64_t num_parts,
                                      const KeyOf& key_of, const char* label) {
  Cluster* c = bag.cluster();
  if (!c->ok()) {
    return typename Bag<T>::Partitions(static_cast<std::size_t>(num_parts));
  }
  // Wide operators are forcing points: a pending fused chain materializes
  // (charge-free) before the shuffle's own scan + network charges.
  bag.Force();
  ChargeScanStage(bag, 0.25, label);
  c->AccrueShuffle(RealBagBytes(bag), label);
  return BudgetedScatter(
      c, bag.partitions(), static_cast<std::size_t>(num_parts),
      [&](const T& x) { return PartitionOfKey(key_of(x), num_parts); }, label);
}

/// ShuffleBy's key projection for keyed (pair) elements; std::identity
/// shuffles by the whole element.
struct PairKey {
  template <typename K, typename V>
  const K& operator()(const std::pair<K, V>& kv) const {
    return kv.first;
  }
};

/// Sample-estimated footprint of one materialized group (GroupByKey,
/// CoGroup): its first element's size times its length.
template <typename V>
double GroupBytes(const std::vector<V>& g) {
  return g.empty() ? 0.0
                   : EstimateSize(g.front()) * static_cast<double>(g.size());
}

/// Per partition, the first occurrence of each distinct element, in order
/// (both Distinct passes). The table is an unbudgeted in-memory build.
template <typename T>
std::vector<std::vector<T>> DedupPartitions(
    Cluster* c, const std::vector<std::vector<T>>& in) {
  std::vector<std::vector<T>> out(in.size());
  GuardedParallelFor(c, in.size(), [&](std::size_t i) {
    external::KeyedTable<T, external::NoValue> seen;
    seen.reserve(in[i].size());
    for (const auto& x : in[i]) seen.FindOrInsert(x);
    out[i].reserve(seen.size());
    for (auto& [x, none] : seen.Release()) out[i].push_back(std::move(x));
  });
  return out;
}

/// Per-task costs of processing already-shuffled reduce-side partitions at
/// the given scale, inflated by the stage's `spill` factor.
template <typename T>
std::vector<double> PartitionCosts(
    Cluster* c, const std::vector<std::vector<T>>& parts, double weight,
    double scale, double spill = 1.0) {
  std::vector<double> costs;
  costs.reserve(parts.size());
  for (const auto& p : parts) {
    costs.push_back(
        c->ComputeCost(static_cast<double>(p.size()) * scale, weight) *
        spill);
  }
  return costs;
}

/// Per-task costs of processing co-partitions: task i reads `as[i]` at
/// `a_scale` and `bs[i]` at `b_scale` (the joins, CoGroup and the set ops).
template <typename A, typename B>
std::vector<double> CoPartitionCosts(
    Cluster* c, const std::vector<std::vector<A>>& as, double a_scale,
    const std::vector<std::vector<B>>& bs, double b_scale, double weight,
    double spill = 1.0) {
  std::vector<double> costs;
  costs.reserve(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    costs.push_back(
        c->ComputeCost(static_cast<double>(as[i].size()) * a_scale +
                           static_cast<double>(bs[i].size()) * b_scale,
                       weight) *
        spill);
  }
  return costs;
}

/// The reduce side of a map-side-combined op (ReduceByKey, Distinct):
/// charges the network for `combined`, scatters it onto `parts` hash
/// partitions by PartitionOfKey(key_of(elem)), and charges one stage
/// processing them at `weight` and the bag's scale, inflated when the
/// combined data overflows the planning machines' memory.
template <typename T, typename KeyOf>
std::vector<std::vector<T>> ShuffleCombined(const Bag<T>& combined,
                                            int64_t parts, const KeyOf& key_of,
                                            double weight, const char* label,
                                            const char* stage_label) {
  Cluster* c = combined.cluster();
  c->AccrueShuffle(RealBagBytes(combined), label);
  auto shuffled = BudgetedScatter(
      c, combined.partitions(), static_cast<std::size_t>(parts),
      [&](const T& x) { return PartitionOfKey(key_of(x), parts); }, label);
  const double spill = c->SpillFactor(
      RealBagBytes(combined) / static_cast<double>(c->planning_machines()));
  c->AccrueStage(
      PartitionCosts(c, shuffled, weight, combined.scale(), spill),
      /*lineage_depth=*/1, StageContext{stage_label, spill});
  return shuffled;
}

}  // namespace internal

/// Redistributes the bag into `num_partitions` hash partitions (by element
/// hash). A full shuffle.
template <typename T>
Bag<T> Repartition(const Bag<T>& bag, int64_t num_partitions = -1) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<T>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  auto out = internal::ShuffleBy(bag, parts, std::identity{}, "repartition");
  c->AccrueStage(internal::PartitionCosts(c, out, 0.1, bag.scale()),
                 /*lineage_depth=*/1, StageContext{"repartition[reduce]"});
  return Bag<T>(c, std::move(out), bag.scale());
}

/// Redistributes a bag of pairs so all elements of one key share a
/// partition. A full shuffle.
template <typename K, typename V>
Bag<std::pair<K, V>> PartitionByKey(const Bag<std::pair<K, V>>& bag,
                                    int64_t num_partitions = -1) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<std::pair<K, V>>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  // Metadata-only no-op when already co-partitioned (charge-free); a
  // pending key-preserving chain stays pending.
  if (internal::AlreadyKeyPartitioned(bag, parts)) return bag;
  auto out =
      internal::ShuffleBy(bag, parts, internal::PairKey{}, "partitionByKey");
  c->AccrueStage(internal::PartitionCosts(c, out, 0.1, bag.scale()),
                 /*lineage_depth=*/1, StageContext{"partitionByKey[reduce]"});
  return Bag<std::pair<K, V>>(c, std::move(out), bag.scale(), parts);
}

/// Merges the values of each key with the associative, commutative `f`.
///
/// Does map-side combining (like Spark's reduceByKey): only one combined
/// value per (partition, key) crosses the shuffle, so memory on the reduce
/// side is bounded by the number of distinct keys, not the input size.
/// See the header comment for `result_scale`.
template <typename K, typename V, typename F>
Bag<std::pair<K, V>> ReduceByKey(const Bag<std::pair<K, V>>& bag, F f,
                                 int64_t num_partitions = -1,
                                 double weight = 1.0,
                                 double result_scale = -1.0) {
  using KV = std::pair<K, V>;
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<KV>(c);
  // Forcing point (both the narrow fast path and the shuffle path execute
  // on materialized partitions).
  bag.Force();
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  const double out_scale = internal::ResolveScale(result_scale, bag.scale());

  // All three builds fold each key's values with `f` in stream order.
  auto build = [c, &f](const typename Bag<KV>::Partitions& in,
                       const char* label) {
    return internal::KeyedBuild<K, V>(
        c, in.size(), [](V&& v) { return std::move(v); },
        [&f](V& acc, V&& v) { acc = f(acc, v); },
        [](const V&) { return std::size_t{0}; },
        [&in](std::size_t i, auto& agg) {
          for (const auto& [k, v] : in[i]) agg.Feed(k, v);
        },
        label);
  };

  if (internal::AlreadyKeyPartitioned(bag, parts)) {
    // Co-partitioned input: the whole reduction is map-side; no shuffle.
    // This path is narrow, so lineage keeps growing.
    internal::ChargeScanStage(bag, weight, "reduceByKey[narrow]");
    auto out = build(bag.partitions(), "reduceByKey[narrow]");
    if (!c->ok()) return Bag<KV>(c);
    return internal::MaybeAutoCheckpoint(
        Bag<KV>(c, std::move(out), out_scale, parts, bag.lineage_depth() + 1));
  }

  // Map side: per-partition combine at the input scale.
  internal::ChargeScanStage(bag, weight, "reduceByKey[combine]");
  auto combined = build(bag.partitions(), "reduceByKey[combine]");
  if (!c->ok()) return Bag<KV>(c);
  // The combined intermediate lives at the RESULT scale: when the key space
  // is fixed, combining saturates in the real run just as it does here.
  Bag<KV> combined_bag(c, std::move(combined), out_scale);

  // Shuffle the combined data, then reduce-side merge. The scatter runs on
  // the deterministic parallel kernel with exact-reserved buckets.
  auto shuffled =
      internal::ShuffleCombined(combined_bag, parts, internal::PairKey{},
                                weight, "reduceByKey", "reduceByKey[merge]");
  auto out = build(shuffled, "reduceByKey[merge]");
  if (!c->ok()) return Bag<KV>(c);
  return Bag<KV>(c, std::move(out), out_scale, parts);
}

/// Collects all values of each key into one in-memory group
/// (Bag[(K, Array[V])] in the paper's notation).
///
/// No map-side combining is possible, so the *whole group* must materialize
/// inside a single reduce task: the cost model checks every group (scaled by
/// `group_expansion`, the working-set multiplier of whatever will process
/// the group in the same task) against the per-task memory budget and fails
/// with OutOfMemory when one does not fit. This is precisely the mechanism
/// that breaks the outer-parallel workaround on big or skewed groups.
///
/// The output bag keeps the input scale: group *contents* scale with the
/// data even though the number of groups usually does not.
template <typename K, typename V>
Bag<std::pair<K, std::vector<V>>> GroupByKey(const Bag<std::pair<K, V>>& bag,
                                             int64_t num_partitions = -1,
                                             double group_expansion = 1.0) {
  using KG = std::pair<K, std::vector<V>>;
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<KG>(c);
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  auto shuffled =
      internal::ShuffleBy(bag, parts, internal::PairKey{}, "groupByKey");
  const double spill = c->SpillFactor(
      RealBagBytes(bag) / static_cast<double>(c->planning_machines()));
  c->AccrueStage(internal::PartitionCosts(c, shuffled, 0.5, bag.scale(), spill),
                 /*lineage_depth=*/1, StageContext{"groupByKey[group]", spill});

  // Group build: each key's values in arrival order, for any budget.
  auto out = internal::KeyedBuild<K, V>(
      c, shuffled.size(),
      [](V&& v) {
        std::vector<V> g;
        g.push_back(std::move(v));
        return g;
      },
      [](std::vector<V>& g, V&& v) { g.push_back(std::move(v)); },
      [](const V& v) { return EstimateSize(v); },
      [&shuffled](std::size_t i, auto& agg) {
        for (auto& [k, v] : shuffled[i]) agg.Feed(k, std::move(v));
      },
      "groupByKey[group]");
  if (!c->ok()) return Bag<KG>(c);
  double max_group_bytes = 0.0;
  for (const auto& part : out) {
    for (const auto& [k, vs] : part) {
      max_group_bytes = std::max(
          max_group_bytes,
          static_cast<double>(sizeof(KG)) + internal::GroupBytes(vs));
    }
  }
  c->CheckTaskMemory(max_group_bytes * bag.scale() * group_expansion,
                     "groupByKey");
  if (!c->ok()) return Bag<KG>(c);
  return Bag<KG>(c, std::move(out), bag.scale(), parts);
}

/// Removes duplicate elements (shuffle by element, then per-partition
/// dedup). Requires std::hash-able, equality-comparable elements. See the
/// header comment for `result_scale` (e.g. 1.0 when deduplicating onto a
/// fixed key space such as the grouping keys of an experiment's x-axis).
template <typename T>
Bag<T> Distinct(const Bag<T>& bag, int64_t num_partitions = -1,
                double result_scale = -1.0) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<T>(c);
  bag.Force();  // forcing point
  const int64_t parts = internal::ResolveParallelism(c, num_partitions);
  const double out_scale = internal::ResolveScale(result_scale, bag.scale());

  // Map-side pre-dedup keeps the shuffle volume at one copy per distinct
  // value per partition (Spark implements distinct via reduceByKey).
  internal::ChargeScanStage(bag, 0.5, "distinct[pre]");
  Bag<T> pre_bag(c, internal::DedupPartitions(c, bag.partitions()),
                 out_scale);

  auto shuffled = internal::ShuffleCombined(
      pre_bag, parts, std::identity{}, 0.5, "distinct", "distinct[dedup]");
  return Bag<T>(c, internal::DedupPartitions(c, shuffled), out_scale);
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_SHUFFLE_H_
