#ifndef MATRYOSHKA_ENGINE_OPS_H_
#define MATRYOSHKA_ENGINE_OPS_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/fused_feed.h"
#include "engine/recovery.h"

/// Narrow (pipelined) transformations and actions of the flat dataflow
/// engine. Wide (shuffling) operators live in shuffle.h and join.h.
///
/// Conventions shared by every operator:
///  - `weight` is the relative CPU cost of the operator's UDF per element
///    (1.0 = a trivial projection). The cost model charges
///    synthetic_elements * bag.scale() * per_element_cost * weight.
///  - Element-wise operators propagate the input bag's scale to the output.
///  - Operators are no-ops returning empty results once the owning cluster
///    is in a failed state (sticky status; check cluster->status() at the
///    end of a program).
///  - Actions (Count, Collect, Reduce, NotEmpty, ...) charge one job-launch
///    overhead, mirroring Spark where every action triggers a job.
namespace matryoshka::engine {

/// Narrow ops compose at most this many ops into one pending chain before a
/// forced materialization boundary (ComposeReady), bounding the nesting
/// depth of a chain's type and Drive loop.
inline constexpr int kMaxChainDepth = 16;

namespace internal {

/// Per-task costs of scanning each partition once at the given UDF weight.
/// Uses the bag's tracked cardinalities, so charging a pending (fused) bag
/// does not materialize it and yields the costs of its materialized output.
template <typename T>
std::vector<double> ScanCosts(const Bag<T>& bag, double weight) {
  const std::vector<std::size_t> sizes = bag.PartitionSizes();
  std::vector<double> costs;
  costs.reserve(sizes.size());
  for (const std::size_t s : sizes) {
    costs.push_back(bag.cluster()->ComputeCost(
        static_cast<double>(s) * bag.scale(), weight));
  }
  return costs;
}

template <typename T>
void ChargeScanStage(const Bag<T>& bag, double weight,
                     const char* label = "scan") {
  Cluster* c = bag.cluster();
  if (!c->ok()) return;
  c->mutable_metrics().elements_processed +=
      static_cast<int64_t>(bag.RealSize());
  c->AccrueStage(ScanCosts(bag, weight), bag.lineage_depth(),
                 StageContext{label});
}

/// Materializes `bag` where the next narrow op must not compose onto its
/// pending chain — the forced boundaries of the fusion contract: a pending
/// input whose tracked cardinality is inexact (a cardinality-changing op
/// ended the chain) or whose chain is at kMaxChainDepth. The new op then
/// starts a fresh chain on the result.
template <typename T>
void ComposeReady(const Bag<T>& bag) {
  if (bag.pending() && (!bag.counts_exact() ||
                        bag.pending_chain_ops() >= kMaxChainDepth)) {
    bag.Force();
  }
}

/// True when a narrow op on this FusedBag handle should extend the concrete
/// chain in place (the zero-erasure path). Call AFTER ComposeReady enforced
/// the forced boundaries: a still-pending input is then size-preserving and
/// under the depth cap by construction. Declines when a sibling handle
/// already forced the shared state (extending would re-run the chain the
/// memoized result already paid for) — the caller re-roots at the
/// materialization instead.
template <typename Chain>
bool ExtendReady(const FusedBag<Chain>& bag) {
  return bag.chain() != nullptr && bag.pending() &&
         !bag.pending_materialized();
}

/// What a fused narrow op tells the compose sequence about itself.
struct NarrowSpec {
  /// Label and UDF weight of the op's scan stage.
  const char* label;
  double weight;
  /// Per-partition output count equals the input's (size-preserving op).
  bool counts_exact;
  /// Per-partition output count is at most the input's (filtering op);
  /// false for expanding ops, which keep only the partition count.
  bool counts_bounded;
  /// Keys unchanged and elements never moved: key partitioning survives.
  bool keeps_key_partitions;
};

/// The compose sequence every fused narrow op runs, once: charge the op's
/// scan stage from tracked metadata (no UDF runs), build its chain node
/// with `make_node()` (fused_feed.h; stacked onto the upstream), erase it
/// into the pending Feed/Run pair, and pass the deferred output through the
/// auto-checkpoint probe. The cost model is fully charged here, so the
/// later Force() charges nothing.
template <typename T, typename MakeNode>
auto Compose(const Bag<T>& bag, MakeNode make_node, const NarrowSpec& spec) {
  using Chain = decltype(make_node());
  using U = typename Chain::Out;
  ChargeScanStage(bag, spec.weight, spec.label);
  const int chain_ops = bag.pending_chain_ops() + 1;
  auto chain = std::make_shared<const Chain>(make_node());
  typename Bag<U>::Feed feed;
  typename Bag<U>::Run run;
  EraseChain(chain, &feed, &run);
  return FusedBag<Chain>(
      MaybeAutoCheckpoint(Bag<U>::Deferred(
          bag.cluster(), std::move(feed), std::move(run),
          bag.PartitionSizes(), spec.counts_exact, spec.counts_bounded,
          chain_ops, bag.scale(),
          spec.keeps_key_partitions ? bag.key_partitions() : 0,
          bag.lineage_depth() + 1)),
      std::move(chain));
}

/// Applies the narrow op whose chain node `wrap(upstream)` builds to a
/// plain Bag: roots a fresh chain at its materialized partitions (or, for
/// a sliced pending bag, at its erased feed — one erased hop).
template <typename T, typename Wrap>
auto ComposeOnto(const Bag<T>& bag, Wrap wrap, const NarrowSpec& spec) {
  using Chain = decltype(wrap(std::declval<SourceFeed<T>>()));
  Cluster* c = bag.cluster();
  if (!c->ok()) {
    return FusedBag<Chain>(Bag<typename Chain::Out>(c), nullptr);
  }
  ComposeReady(bag);
  return Compose(bag, [&] { return wrap(MakeSourceFeed(bag)); }, spec);
}

/// The same op on a FusedBag: extends the concrete chain type in place —
/// the composed pipeline stays ONE monomorphic loop — and re-roots through
/// the Bag overload at any runtime boundary (chain forced, depth cap,
/// shared materialization), where the extended chain type is dropped.
template <typename Up, typename Wrap>
auto ComposeOnto(const FusedBag<Up>& bag, Wrap wrap, const NarrowSpec& spec) {
  using Chain = decltype(wrap(std::declval<const Up&>()));
  Cluster* c = bag.cluster();
  if (!c->ok()) {
    return FusedBag<Chain>(Bag<typename Chain::Out>(c), nullptr);
  }
  ComposeReady(bag);
  if (ExtendReady(bag)) {
    return Compose(bag, [&] { return wrap(*bag.chain()); }, spec);
  }
  return FusedBag<Chain>(
      ComposeOnto(static_cast<const Bag<typename Up::Out>&>(bag), wrap, spec),
      nullptr);
}

/// A Bag or a FusedBag handle (the fused narrow ops accept both).
template <typename B>
concept BagHandle = std::derived_from<B, Bag<typename B::Element>>;

}  // namespace internal

// --- Fused narrow ops ---
//
// Map, Filter, FlatMap, MapValues, FlatMapValues, ZipWithUniqueId (and
// Sample in extra_ops.h) never execute on their own: each composes its
// chain node (fused_feed.h) onto the input's pending chain, and the next
// forcing point (any wide operator, any action, Checkpoint, Bag::Force)
// runs the whole chain as ONE fused pass per partition. Each returns an
// internal::FusedBag — a Bag subclass additionally carrying the chain's
// concrete type. Holding the result in `auto` lets the next narrow op
// extend that static chain without type erasure; assigning to a plain
// Bag<U> slices the handle and still works through the erased pending
// state (at one erased hop per such boundary).

/// Applies `f` to every element. f: T -> U.
template <internal::BagHandle B, typename F>
auto Map(const B& bag, F f, double weight = 1.0) {
  return internal::ComposeOnto(
      bag,
      [f](auto up) {
        return internal::MapFeed<F, decltype(up)>{std::move(up), f};
      },
      {"map", weight, /*counts_exact=*/true, /*counts_bounded=*/true,
       /*keeps_key_partitions=*/false});
}

/// Keeps the elements for which `pred` returns true. The output cardinality
/// is data-dependent: the tracked counts demote to an upper bound, making
/// this chain a forced boundary for the next narrow op. Filtering never
/// moves elements, so key partitioning survives.
template <internal::BagHandle B, typename P>
auto Filter(const B& bag, P pred, double weight = 1.0) {
  return internal::ComposeOnto(
      bag,
      [pred](auto up) {
        return internal::FilterFeed<P, decltype(up)>{std::move(up), pred};
      },
      {"filter", weight, /*counts_exact=*/false, /*counts_bounded=*/true,
       /*keeps_key_partitions=*/true});
}

/// Applies `f` to every element and concatenates the results.
/// f: T -> iterable of U. Expansion is unbounded: the tracked counts keep
/// only the partition count (no output reservation at force time).
template <internal::BagHandle B, typename F>
auto FlatMap(const B& bag, F f, double weight = 1.0) {
  return internal::ComposeOnto(
      bag,
      [f](auto up) {
        return internal::FlatMapFeed<F, decltype(up)>{std::move(up), f};
      },
      {"flatMap", weight, /*counts_exact=*/false, /*counts_bounded=*/false,
       /*keeps_key_partitions=*/false});
}

/// Transforms whole partitions. f: const std::vector<T>& -> std::vector<U>.
template <typename T, typename F>
auto MapPartitions(const Bag<T>& bag, F f, double weight = 1.0)
    -> Bag<typename std::decay_t<
        decltype(f(std::declval<const std::vector<T>&>()))>::value_type> {
  using U = typename std::decay_t<
      decltype(f(std::declval<const std::vector<T>&>()))>::value_type;
  Cluster* c = bag.cluster();
  if (!c->ok()) return Bag<U>(c);
  // Whole-partition transforms cannot be fused per element: a pending input
  // chain is forced here (driver thread, before the parallel region).
  bag.Force();
  internal::ChargeScanStage(bag, weight, "mapPartitions");
  const auto& parts = bag.partitions();
  typename Bag<U>::Partitions out(parts.size());
  internal::GuardedParallelFor(c, parts.size(), [&](std::size_t i) {
    out[i] = f(parts[i]);
  });
  return internal::MaybeAutoCheckpoint(
      Bag<U>(c, std::move(out), bag.scale(), 0, bag.lineage_depth() + 1));
}

/// First components of a bag of pairs.
template <typename K, typename V>
auto Keys(const Bag<std::pair<K, V>>& bag) {
  return Map(bag, [](const std::pair<K, V>& p) { return p.first; });
}

/// Second components of a bag of pairs.
template <typename K, typename V>
auto Values(const Bag<std::pair<K, V>>& bag) {
  return Map(bag, [](const std::pair<K, V>& p) { return p.second; });
}

/// Applies `f` to the value of every pair, keeping keys, and — since keys
/// do not change — preserving the bag's key partitioning (Spark's
/// mapValues-with-preservesPartitioning).
template <internal::BagHandle B, typename F>
auto MapValues(const B& bag, F f, double weight = 1.0) {
  return internal::ComposeOnto(
      bag,
      [f](auto up) {
        return internal::MapValuesFeed<F, decltype(up)>{std::move(up), f};
      },
      {"mapValues", weight, /*counts_exact=*/true, /*counts_bounded=*/true,
       /*keeps_key_partitions=*/true});
}

/// Applies `f` to the value of every pair and emits one output pair per
/// produced value, under the same key; preserves key partitioning.
/// f: V -> iterable of W.
template <internal::BagHandle B, typename F>
auto FlatMapValues(const B& bag, F f, double weight = 1.0) {
  return internal::ComposeOnto(
      bag,
      [f](auto up) {
        return internal::FlatMapValuesFeed<F, decltype(up)>{std::move(up), f};
      },
      {"flatMapValues", weight, /*counts_exact=*/false,
       /*counts_bounded=*/false, /*keeps_key_partitions=*/true});
}

/// Bag union (multiset semantics, like Spark's union): concatenates the two
/// bags' partition lists. Metadata-only; free in the cost model. The result
/// takes the larger scale (unioning bags of different scales is rare and
/// the bigger side dominates the cost model). When both inputs share the
/// same key partitioning, partitions are merged pairwise so the result
/// stays co-partitioned (a zipPartitions-style union).
template <typename T>
Bag<T> Union(const Bag<T>& a, const Bag<T>& b) {
  MATRYOSHKA_CHECK(a.cluster() == b.cluster());
  Cluster* c = a.cluster();
  if (!c->ok()) return Bag<T>(c);
  // Union concatenates materialized partition lists; pending chains on
  // either side are forced (charge-free) rather than composed.
  a.Force();
  b.Force();
  const double scale = std::max(a.scale(), b.scale());
  // Metadata-only: lineage is whichever input chain is deeper.
  const int lineage = std::max(a.lineage_depth(), b.lineage_depth());
  if (a.key_partitions() > 0 && a.key_partitions() == b.key_partitions() &&
      a.num_partitions() == b.num_partitions()) {
    typename Bag<T>::Partitions out = a.partitions();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].insert(out[i].end(), b.partitions()[i].begin(),
                    b.partitions()[i].end());
    }
    return Bag<T>(c, std::move(out), scale, a.key_partitions(), lineage);
  }
  typename Bag<T>::Partitions out = a.partitions();
  for (const auto& p : b.partitions()) out.push_back(p);
  return Bag<T>(c, std::move(out), scale, 0, lineage);
}

/// Pairs every element with a unique 64-bit id (narrow: ids are formed from
/// the partition index and the offset within the partition, like Spark's
/// zipWithUniqueId).
template <internal::BagHandle B>
auto ZipWithUniqueId(const B& bag) {
  const uint64_t stride =
      static_cast<uint64_t>(std::max<int64_t>(1, bag.num_partitions()));
  return internal::ComposeOnto(
      bag,
      [stride](auto up) {
        return internal::ZipUniqueIdFeed<decltype(up)>{std::move(up), stride};
      },
      {"zipWithUniqueId", 1.0, /*counts_exact=*/true,
       /*counts_bounded=*/true, /*keeps_key_partitions=*/false});
}

// --- Actions ---
//
// Every action is a forcing point for pending fused chains: the chain
// materializes (charge-free — composition already paid) before the action's
// own job/scan charges, mirroring Spark where an action runs the pipelined
// stage it terminates.

/// Number of synthetic elements. Charges a job plus a scan.
template <typename T>
int64_t Count(const Bag<T>& bag) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return 0;
  bag.Force();
  c->BeginJob("count");
  internal::ChargeScanStage(bag, 0.25, "count");
  return bag.Size();
}

/// True iff the bag has at least one element. Charges a job plus a scan
/// (used by lifted loops to test their exit condition, Listing 4 line 9).
template <typename T>
bool NotEmpty(const Bag<T>& bag) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return false;
  bag.Force();
  c->BeginJob("notEmpty");
  internal::ChargeScanStage(bag, 0.05, "notEmpty");
  return bag.Size() > 0;
}

/// Folds all elements with the associative, commutative `f`; nullopt for an
/// empty bag. Charges a job plus a scan.
template <typename T, typename F>
std::optional<T> Reduce(const Bag<T>& bag, F f, double weight = 1.0) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return std::nullopt;
  bag.Force();
  c->BeginJob("reduce");
  internal::ChargeScanStage(bag, weight, "reduce");
  std::optional<T> acc;
  for (const auto& part : bag.partitions()) {
    for (const auto& x : part) {
      if (!acc.has_value()) {
        acc = x;
      } else {
        acc = f(*acc, x);
      }
    }
  }
  return acc;
}

/// Materializes the bag at the driver. Charges a job, a scan, and the
/// network transfer to the driver; fails the cluster with OutOfMemory if the
/// data does not fit into one machine.
template <typename T>
std::vector<T> Collect(const Bag<T>& bag) {
  Cluster* c = bag.cluster();
  if (!c->ok()) return {};
  bag.Force();
  c->BeginJob("collect");
  internal::ChargeScanStage(bag, 0.25, "collect");
  const double bytes = RealBagBytes(bag);
  if (bytes > c->config().memory_per_machine_bytes) {
    c->Fail(Status::OutOfMemory("collect result does not fit on the driver"));
    return {};
  }
  c->AccrueCollect(bytes);
  return bag.ToVector();
}

}  // namespace matryoshka::engine

#endif  // MATRYOSHKA_ENGINE_OPS_H_
