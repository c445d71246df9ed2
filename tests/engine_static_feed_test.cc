// Mechanics of the fused narrow-op chains (engine/fused_feed.h) that the
// bit-identity sweeps in engine_parallel_determinism_test cannot observe:
// chains stay pending until forced, the forced boundaries (inexact counts,
// the kMaxChainDepth cap), the sibling-memoization re-rooting contract, and
// a compile guard that the narrow-op path stays usable for move-only
// (non-spillable) element types.

#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/cluster.h"
#include "engine/extra_ops.h"
#include "engine/ops.h"
#include "gtest/gtest.h"

namespace matryoshka::engine {

/// A deliberately move-only, non-trivially-copyable element: the compile
/// guard below pins that pure map chains neither copy elements nor drag in
/// the spill serializer for types that cannot support either.
struct MoveOnlyElem {
  std::unique_ptr<int64_t> v;
};

/// MaybeAutoCheckpoint probes RealBagBytes on every narrow-op output, so
/// even a never-spilled element type needs a size estimate.
inline std::size_t EstimateSize(const MoveOnlyElem&) {
  return sizeof(MoveOnlyElem) + sizeof(int64_t);
}

namespace {

ClusterConfig SerialConfig() {
  ClusterConfig cfg;
  cfg.num_machines = 2;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 4;
  return cfg;
}

Bag<std::pair<int64_t, int64_t>> MakePairs(Cluster* c) {
  std::vector<std::pair<int64_t, int64_t>> data;
  for (int64_t i = 0; i < 200; ++i) data.emplace_back(i % 7, i);
  return Parallelize(c, std::move(data), 4);
}

// --- Pending chains and their forced boundaries -----------------------------

TEST(StaticFeedTest, ChainOfNarrowOpsStaysPendingUntilForced) {
  Cluster c(SerialConfig());
  auto s1 = Map(MakePairs(&c), [](const std::pair<int64_t, int64_t>& p) {
    return std::pair<int64_t, int64_t>(p.first, p.second + 1);
  });
  auto s2 = MapValues(s1, [](int64_t v) { return v * 3; });
  auto s3 = Map(s2, [](const std::pair<int64_t, int64_t>& p) {
    return std::pair<int64_t, int64_t>(p.first ^ 1, p.second);
  });
  auto s4 = MapValues(s3, [](int64_t v) { return v - 2; });
  EXPECT_TRUE(s4.pending());
  EXPECT_EQ(s4.pending_chain_ops(), 4);

  // Reference: the same ops with every step forced (one pass per op).
  Cluster eager(SerialConfig());
  auto e1 = Map(MakePairs(&eager), [](const std::pair<int64_t, int64_t>& p) {
    return std::pair<int64_t, int64_t>(p.first, p.second + 1);
  });
  e1.Force();
  auto e2 = MapValues(e1, [](int64_t v) { return v * 3; });
  e2.Force();
  auto e3 = Map(e2, [](const std::pair<int64_t, int64_t>& p) {
    return std::pair<int64_t, int64_t>(p.first ^ 1, p.second);
  });
  e3.Force();
  auto e4 = MapValues(e3, [](int64_t v) { return v - 2; });
  e4.Force();
  EXPECT_FALSE(e4.pending());
  EXPECT_EQ(Collect(s4), Collect(e4));
}

TEST(StaticFeedTest, InexactCountsForceABoundaryMidChain) {
  Cluster c(SerialConfig());
  // FlatMap demotes the tracked counts to a bound, so the next narrow op
  // must materialize the chain and start fresh on the forced output.
  auto flat = FlatMap(Keys(MakePairs(&c)), [](int64_t k) {
    return std::vector<int64_t>{k, k + 100};
  });
  EXPECT_TRUE(flat.pending());
  EXPECT_FALSE(flat.counts_exact());
  auto next = Map(flat, [](int64_t v) { return v * 2; });
  // ComposeReady forced the inexact upstream; the new op starts a fresh
  // one-op chain over the materialization.
  EXPECT_TRUE(next.pending());
  EXPECT_EQ(next.pending_chain_ops(), 1);
  std::vector<int64_t> got = Collect(next);
  ASSERT_EQ(got.size(), 400u);
  EXPECT_TRUE(c.ok());
}

/// A namespace-scope UDF: a lambda inside AddOneTimes would name the whole
/// chain type it extends, and the type names would double per op.
struct AddOne {
  int64_t operator()(int64_t v) const { return v + 1; }
};

/// `N` value increments, each extending the static chain held in `auto`.
template <int N, typename B>
auto AddOneTimes(const B& bag) {
  auto next = MapValues(bag, AddOne{});
  if constexpr (N == 1) {
    return next;
  } else {
    return AddOneTimes<N - 1>(next);
  }
}

TEST(StaticFeedTest, DepthCapForcesMidChainGracefully) {
  Cluster c(SerialConfig());
  // Literal auto chaining keeps extending the concrete FusedBag chain, so
  // the cap is enforced on the zero-erasure path itself.
  auto capped = AddOneTimes<kMaxChainDepth>(MakePairs(&c));
  EXPECT_TRUE(capped.pending());
  EXPECT_EQ(capped.pending_chain_ops(), kMaxChainDepth);
  auto past = AddOneTimes<1>(capped);
  // `capped` hit the cap: composing one more op forced it and started a
  // fresh chain.
  EXPECT_FALSE(capped.pending());
  EXPECT_TRUE(past.pending());
  EXPECT_EQ(past.pending_chain_ops(), 1);
  std::vector<std::pair<int64_t, int64_t>> got = Collect(past);
  ASSERT_EQ(got.size(), 200u);
  EXPECT_EQ(got.front().second, 0 + kMaxChainDepth + 1);
  EXPECT_TRUE(c.ok());
}

TEST(StaticFeedTest, SiblingForceMemoizesAndLaterOpsReuse) {
  // Once any handle of a shared pending chain forces it, later narrow ops
  // must re-root at the memoized partitions instead of re-running the
  // chain's UDFs (the udf-call counter would double otherwise) — whether
  // they extend the static handle or compose on a sliced Bag<T> of it.
  for (bool sliced : {false, true}) {
    Cluster c(SerialConfig());
    auto calls = std::make_shared<int64_t>(0);
    auto mapped = Map(MakePairs(&c),
                      [calls](const std::pair<int64_t, int64_t>& p) {
                        ++*calls;
                        return std::pair<int64_t, int64_t>(p.first,
                                                           p.second * 2);
                      });
    EXPECT_TRUE(mapped.pending());
    // Force through a sibling handle: `mapped` itself stays pending but its
    // shared chain state now carries the memoized partitions — the exact
    // state in which a composing consumer must NOT copy and re-run the
    // chain.
    Bag<std::pair<int64_t, int64_t>> sibling = mapped;
    sibling.Force();
    EXPECT_EQ(*calls, 200) << "sliced=" << sliced;
    EXPECT_TRUE(mapped.pending());
    EXPECT_TRUE(mapped.pending_materialized());
    auto add_one = [](int64_t v) { return v + 1; };
    const Bag<std::pair<int64_t, int64_t>> plain = mapped;
    std::vector<std::pair<int64_t, int64_t>> got =
        sliced ? Collect(MapValues(plain, add_one))
               : Collect(MapValues(mapped, add_one));
    ASSERT_EQ(got.size(), 200u);
    EXPECT_EQ(*calls, 200) << "sliced=" << sliced
                           << ": composing past a memoized chain re-ran it";
  }
}

// --- Compile guard: move-only, non-spillable element types ------------------

TEST(StaticFeedTest, MoveOnlyElementsFlowThroughNarrowChains) {
  Cluster c(SerialConfig());
  std::vector<MoveOnlyElem> data;
  for (int64_t i = 0; i < 64; ++i) {
    data.push_back(MoveOnlyElem{std::make_unique<int64_t>(i)});
  }
  auto bag = Parallelize(&c, std::move(data), 4);
  auto bumped = Map(bag, [](const MoveOnlyElem& e) {
    return MoveOnlyElem{std::make_unique<int64_t>(*e.v + 1)};
  });
  // One static extension and one composition across a sliced Bag<T>.
  auto summed = Map(bumped, [](const MoveOnlyElem& e) { return *e.v; });
  const Bag<MoveOnlyElem> sliced = bumped;
  auto resliced = Map(sliced, [](const MoveOnlyElem& e) { return *e.v; });
  EXPECT_EQ(Count(summed), 64);
  std::vector<int64_t> values = Collect(summed);
  EXPECT_EQ(std::accumulate(values.begin(), values.end(), int64_t{0}),
            64 * 65 / 2);
  EXPECT_EQ(Collect(resliced), values);
  EXPECT_TRUE(c.ok());
}

}  // namespace
}  // namespace matryoshka::engine
