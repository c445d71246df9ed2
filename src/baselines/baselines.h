#ifndef MATRYOSHKA_BASELINES_BASELINES_H_
#define MATRYOSHKA_BASELINES_BASELINES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

/// The two workarounds users of flat dataflow engines employ for
/// nested-parallel tasks (Sec. 1), plus a DIQL-like comparator. These are
/// the baselines every experiment in Sec. 9 compares against.
namespace matryoshka::baselines {

/// Outer-parallel workaround: parallelize over the groups only; each group
/// is materialized inside one task and processed by a *sequential* UDF.
///
/// `work(key, values)` really computes the per-group result in memory.
/// `cost_elements(key, values)` returns the number of element-passes the
/// sequential UDF performs (e.g. iterations * group size for K-means) —
/// charged to the cost model at weight `cost_weight`. `expansion` is the
/// UDF's working-set multiplier over the raw group bytes (hash maps, boxed
/// objects); the memory check fails the cluster with OutOfMemory when one
/// group's working set exceeds a task slot's budget.
///
/// The two failure modes of this workaround fall out of the model:
///  - fewer groups than cores => idle cores (makespan = max task),
///  - big/skewed groups => per-task OutOfMemory.
template <typename K, typename V, typename WorkFn, typename CostFn>
auto ProcessGroupsSequentially(
    const engine::Bag<std::pair<K, std::vector<V>>>& groups, WorkFn work,
    CostFn cost_elements, double expansion, double cost_weight = 1.0)
    -> engine::Bag<std::pair<
        K, std::decay_t<decltype(work(std::declval<const K&>(),
                                      std::declval<const std::vector<V>&>()))>>> {
  using R = std::decay_t<decltype(work(std::declval<const K&>(),
                                       std::declval<const std::vector<V>&>()))>;
  using Out = engine::Bag<std::pair<K, R>>;
  engine::Cluster* c = groups.cluster();
  if (!c->ok()) return Out(c);

  // One task per group: the whole group's sequential processing is a single
  // unit of scheduling (this is what caps the parallelism at #groups).
  std::vector<double> task_costs;
  double max_group_bytes = 0.0;
  for (const auto& part : groups.partitions()) {
    for (const auto& [k, vs] : part) {
      task_costs.push_back(c->ComputeCost(
          static_cast<double>(cost_elements(k, vs)) * groups.scale(),
          cost_weight));
      double bytes = 0.0;
      if (!vs.empty()) {
        bytes = EstimateSize(vs.front()) * static_cast<double>(vs.size());
      }
      max_group_bytes = std::max(max_group_bytes, bytes * groups.scale());
    }
  }
  c->CheckTaskMemory(max_group_bytes * expansion, "outer-parallel group UDF");
  if (!c->ok()) return Out(c);
  c->AccrueStage(task_costs, /*lineage_depth=*/1,
                 engine::StageContext{"outer-parallel[group-udf]"});

  typename Out::Partitions out(groups.partitions().size());
  engine::internal::GuardedParallelFor(
      c, groups.partitions().size(), [&](std::size_t i) {
        for (const auto& [k, vs] : groups.partitions()[i]) {
          out[i].emplace_back(k, work(k, vs));
        }
      });
  return Out(c, std::move(out));
}

/// Inner-parallel workaround: a driver loop iterates over the groups
/// sequentially and processes each group with parallel engine operations.
///
/// Returns the distinct group keys (one job), and hands `per_group` a
/// *filter-derived* bag for each key — the Array[(K, Bag[V])] pattern of
/// Sec. 2.1, where producing each inner bag scans the full input. Every
/// engine action inside `per_group` launches its own job, so the total
/// job-launch overhead grows with (#groups x #actions-per-group), which is
/// exactly the overhead the paper attributes to this workaround.
template <typename K, typename V, typename PerGroup>
void ForEachGroupInnerParallel(const engine::Bag<std::pair<K, V>>& input,
                               PerGroup per_group) {
  engine::Cluster* c = input.cluster();
  if (!c->ok()) return;
  std::vector<K> keys = engine::Collect(engine::Distinct(engine::Keys(input)));
  for (const K& key : keys) {
    if (!c->ok()) return;
    auto group = engine::Values(engine::Filter(
        input,
        [key](const std::pair<K, V>& p) { return p.first == key; },
        /*weight=*/0.1));
    per_group(key, group);
  }
}

/// Configuration of the DIQL-like baseline (Sec. 9.4, Fig. 5-6): a
/// flattening system that (a) cannot flatten group-wise aggregation
/// programs like Bounce Rate and silently falls back to the outer-parallel
/// workaround, (b) does not support control flow at inner nesting levels at
/// all, and (c) performs no runtime optimization (no partition tuning, no
/// join/broadcast selection) and pays a constant interpretation overhead.
struct DiqlLikeOptions {
  /// Multiplier over the hand-written outer-parallel UDF cost (generated
  /// code without the fusion/combining a hand optimizer applies, boxed
  /// iterators between generated operators).
  double interpretation_overhead = 4.0;
  /// Working-set multiplier of the generated per-group processing (the
  /// generated pipeline streams part of its state, so this sits below the
  /// hand-written workaround's hash-map expansion).
  double group_expansion = 3.0;
};

}  // namespace matryoshka::baselines

#endif  // MATRYOSHKA_BASELINES_BASELINES_H_
