// Locks down that the real thread pool (ClusterConfig::execute_parallel) is
// invisible to everything but wall-clock time: the full operator suite must
// produce identical results AND identical simulated metrics with the pool on
// and off, including under an active fault plan. The cost model is charged
// from the driver thread only, so nothing may depend on execution order.
//
// The FusionDeterminismTest section extends the same contract to the fused
// narrow-op layer: every narrow op and every wide-op/action forcing point
// must produce bit-identical data (contents AND order, key_partitions),
// bit-identical Metrics, and byte-identical exported traces whether the
// program holds its chains in `auto`, slices every step to a Bag<T>, or
// forces after every op — clean, under an active FaultPlan, and under a
// RecoveryPolicy with auto-checkpointing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/extra_ops.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/parallel_shuffle.h"
#include "engine/recovery.h"
#include "engine/shuffle.h"
#include "obs/chrome_trace.h"
#include "obs/trace_recorder.h"

namespace matryoshka::engine {
namespace {

constexpr uint64_t kSeed = 77;

ClusterConfig Config(bool parallel) {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.execute_parallel = parallel;
  // Pin the pool size so real multi-thread scatter/concat runs regardless of
  // how many hardware threads the host exposes (CI containers often pin 1).
  cfg.pool_threads = 4;
  return cfg;
}

// A narrow-op program can be spelled three ways, and all three must be
// bit-identical on data, metrics, and traces — with all charging done at
// composition time. The programs below apply their spelling to the result
// of every narrow op:
//  - KeepChain holds the chain in `auto`: every op extends the static chain
//    and the whole chain runs as one monomorphic loop.
//  - SliceToBag assigns every step to a plain Bag<T>: every op composes
//    through the one erased hop src/core's InnerBag makes.
//  - ForceEach calls Force() after every op: one pass per op, the
//    unfused baseline (Force charges nothing).

struct KeepChain {
  template <typename B>
  B operator()(B bag) const {
    return bag;
  }
};

struct SliceToBag {
  template <typename B>
  Bag<typename B::Element> operator()(const B& bag) const {
    return bag;
  }
};

struct ForceEach {
  template <typename B>
  Bag<typename B::Element> operator()(const B& bag) const {
    bag.Force();
    return bag;
  }
};

struct SuiteOutcome {
  Metrics metrics;
  bool ok = false;
  // Sorted driver-side snapshots of every operator chain's output.
  std::vector<int64_t> ints;
  std::vector<std::pair<int64_t, int64_t>> pairs;
  std::vector<int64_t> extras;
  int64_t count = 0;
  int64_t reduced = 0;
};

/// Runs one fixed program through every operator family and snapshots both
/// the results and the complete metrics. `step` is applied to the result of
/// every narrow op (see the spellings above).
template <typename Step = KeepChain>
SuiteOutcome RunSuite(ClusterConfig cfg, const Step& step = {}) {
  Cluster c(cfg);
  SuiteOutcome out;

  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 3000; ++i) kv.emplace_back(i % 64, i % 11);
  auto pairs = Parallelize(&c, kv, 8);

  // Narrow chain.
  auto mapped = step(Map(pairs, [](const std::pair<int64_t, int64_t>& p) {
    return std::pair<int64_t, int64_t>(p.first, p.second + 1);
  }));
  auto filtered =
      step(Filter(mapped, [](const std::pair<int64_t, int64_t>& p) {
        return p.second % 3 != 0;
      }));
  auto flat = step(FlatMapValues(filtered, [](int64_t v) {
    return std::vector<int64_t>{v, v * 2};
  }));
  auto repartitioned = MapPartitions(
      flat, [](const std::vector<std::pair<int64_t, int64_t>>& part) {
        return part;
      });
  auto with_ids = step(ZipWithUniqueId(step(Values(repartitioned))));
  auto sampled = step(Sample(step(Keys(pairs)), 0.5, kSeed));

  // Wide operators.
  auto reduced_bag = ReduceByKey(
      repartitioned, [](int64_t a, int64_t b) { return a + b; }, 8);
  auto grouped = GroupByKey(filtered, 8);
  auto grouped_sizes =
      step(MapValues(grouped, [](const std::vector<int64_t>& g) {
        return static_cast<int64_t>(g.size());
      }));
  auto distinct = Distinct(step(Keys(filtered)), 8);
  auto aggregated = AggregateByKey(
      filtered, int64_t{0}, [](int64_t a, int64_t v) { return a + v; },
      [](int64_t a, int64_t b) { return a + b; }, 8);

  // Joins.
  auto joined = RepartitionJoin(reduced_bag, aggregated, 8);
  auto joined_flat =
      step(MapValues(joined, [](const std::pair<int64_t, int64_t>& vw) {
        return vw.first + vw.second;
      }));
  std::vector<std::pair<int64_t, int64_t>> small_kv;
  for (int64_t i = 0; i < 16; ++i) small_kv.emplace_back(i, i * 10);
  auto small = Parallelize(&c, small_kv, 2, /*scale=*/1.0);
  auto bjoined = BroadcastJoin(reduced_bag, small);
  auto louter = LeftOuterJoin(small, reduced_bag, 8);
  auto cogrouped = CoGroup(reduced_bag, aggregated, 8);
  auto cg_sizes = step(MapValues(
      cogrouped,
      [](const std::pair<std::vector<int64_t>, std::vector<int64_t>>& g) {
        return static_cast<int64_t>(g.first.size() + 100 * g.second.size());
      }));
  auto cart = Cartesian(distinct, step(Keys(small)));
  auto cart_sums = step(Map(cart, [](const std::pair<int64_t, int64_t>& p) {
    return p.first * 1000 + p.second;
  }));

  // Set ops.
  // Empty by construction.
  auto sub = Subtract(step(Keys(filtered)), distinct, 8);
  auto inter = Intersection(step(Keys(filtered)), sampled, 8);
  auto unioned = Union(distinct, inter);

  // Actions.
  out.count = Count(unioned);
  out.reduced =
      Reduce(step(Values(aggregated)),
             [](int64_t a, int64_t b) { return a + b; })
          .value_or(0);
  auto top = TopK(step(Keys(pairs)), 5, std::less<int64_t>());

  auto snap_pairs = [](std::vector<std::pair<int64_t, int64_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  auto snap_ints = [](std::vector<int64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };

  out.pairs = snap_pairs(Collect(joined_flat));
  auto more_pairs = snap_pairs(Collect(grouped_sizes));
  out.pairs.insert(out.pairs.end(), more_pairs.begin(), more_pairs.end());
  auto bj = snap_pairs(Collect(
      step(MapValues(bjoined, [](const std::pair<int64_t, int64_t>& vw) {
        return vw.first - vw.second;
      }))));
  out.pairs.insert(out.pairs.end(), bj.begin(), bj.end());
  auto cg = snap_pairs(Collect(cg_sizes));
  out.pairs.insert(out.pairs.end(), cg.begin(), cg.end());

  out.ints = snap_ints(Collect(cart_sums));
  auto extra1 = snap_ints(Collect(sub));
  auto extra2 = snap_ints(Collect(unioned));
  auto extra3 = snap_ints(Collect(
      step(Map(with_ids, [](const std::pair<uint64_t, int64_t>& p) {
        return static_cast<int64_t>(p.first);
      }))));
  out.extras = extra1;
  out.extras.insert(out.extras.end(), extra2.begin(), extra2.end());
  out.extras.insert(out.extras.end(), extra3.begin(), extra3.end());
  out.extras.insert(out.extras.end(), top.begin(), top.end());
  (void)NotEmpty(louter);

  out.ok = c.ok();
  out.metrics = c.metrics();
  return out;
}

// The simulated cost model must be bit-identical: the pool may only change
// wall-clock time, never a single charged metric.
void ExpectSameMetrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.simulated_time_s, b.simulated_time_s);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.elements_processed, b.elements_processed);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.broadcast_bytes, b.broadcast_bytes);
  EXPECT_EQ(a.spilled_bytes, b.spilled_bytes);
  EXPECT_EQ(a.spill_events, b.spill_events);
  EXPECT_EQ(a.peak_task_bytes, b.peak_task_bytes);
  EXPECT_EQ(a.peak_machine_bytes, b.peak_machine_bytes);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.speculative_launches, b.speculative_launches);
  EXPECT_EQ(a.machines_lost, b.machines_lost);
  EXPECT_EQ(a.recovery_time_s, b.recovery_time_s);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes);
  EXPECT_EQ(a.driver_retries, b.driver_retries);
  EXPECT_EQ(a.plan_fallbacks, b.plan_fallbacks);
}

void ExpectSameOutcome(const SuiteOutcome& a, const SuiteOutcome& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.ints, b.ints);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.extras, b.extras);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.reduced, b.reduced);
  ExpectSameMetrics(a.metrics, b.metrics);
}

// --- Per-operator bit-identity -------------------------------------------
//
// The suite tests above compare sorted snapshots; the checks below are
// stricter: for each wide operator the pool-off and pool-on (4 threads)
// outputs must match partition by partition, element by element, IN ORDER —
// the exact guarantee of the ParallelScatter kernel — along with the
// key_partitions metadata and the full simulated metrics.

template <typename T>
void ExpectBitIdenticalBags(const Bag<T>& a, const Bag<T>& b) {
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  EXPECT_EQ(a.key_partitions(), b.key_partitions());
  for (int64_t i = 0; i < a.num_partitions(); ++i) {
    EXPECT_EQ(a.partitions()[static_cast<std::size_t>(i)],
              b.partitions()[static_cast<std::size_t>(i)])
        << "partition " << i << " differs between pool-off and pool-on";
  }
}

ClusterConfig WithFaults(ClusterConfig cfg) {
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 0.05;
  cfg.faults.straggler_fraction = 0.1;
  cfg.faults.straggler_slowdown = 4.0;
  cfg.faults.speculative_execution = true;
  return cfg;
}

Bag<std::pair<int64_t, int64_t>> MakePairs(Cluster* c) {
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 5000; ++i) kv.emplace_back((i * 37) % 128, i % 17);
  return Parallelize(c, kv, 8);
}

Bag<std::pair<int64_t, int64_t>> MakeSmallPairs(Cluster* c) {
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 32; ++i) kv.emplace_back(i * 4, i * 10);
  return Parallelize(c, kv, 2, /*scale=*/1.0);
}

/// Runs `make_op` (Cluster* -> Bag) once with the pool off and once with a
/// 4-thread pool — clean and again under an active FaultPlan — and requires
/// bit-identical bags and metrics each time.
template <typename MakeOp>
void ExpectOpBitIdentical(const MakeOp& make_op) {
  for (bool faulty : {false, true}) {
    ClusterConfig off_cfg = Config(false);
    ClusterConfig on_cfg = Config(true);
    if (faulty) {
      off_cfg = WithFaults(off_cfg);
      on_cfg = WithFaults(on_cfg);
    }
    Cluster off(off_cfg);
    Cluster on(on_cfg);
    auto a = make_op(&off);
    auto b = make_op(&on);
    ASSERT_TRUE(off.ok());
    ASSERT_TRUE(on.ok());
    ExpectBitIdenticalBags(a, b);
    ExpectSameMetrics(off.metrics(), on.metrics());
  }
}

TEST(ParallelDeterminismTest, ScatterKernelMatchesReferenceLoop) {
  // The kernel's ground truth: the sequential producer-order scatter loop.
  // Skewed, empty, and ragged producers; pool sizes 1..4 plus no pool.
  std::vector<std::vector<int64_t>> inputs(7);
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    if (p == 3) continue;  // leave one producer empty
    for (std::size_t j = 0; j < 100 * p * p + 5; ++j) {
      inputs[p].push_back(static_cast<int64_t>(p * 131071 + j * 2654435761u));
    }
  }
  const std::size_t kParts = 9;
  auto part_of = [&](int64_t x) {
    return static_cast<std::size_t>(static_cast<uint64_t>(x) % kParts);
  };
  std::vector<std::vector<int64_t>> expected(kParts);
  for (const auto& in : inputs) {
    for (int64_t x : in) expected[part_of(x)].push_back(x);
  }
  auto scatter = [&](ThreadPool* pool) {
    external::SpillStats stats;
    std::vector<std::vector<int64_t>> out;
    const Status st = internal::ParallelScatter(pool, inputs, kParts, part_of,
                                                SIZE_MAX, nullptr, &stats,
                                                &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.spill_events, 0);
    return out;
  };
  EXPECT_EQ(scatter(nullptr), expected);
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    EXPECT_EQ(scatter(&pool), expected)
        << "with a " << threads << "-thread pool";
  }
}

TEST(ParallelDeterminismTest, RepartitionBitIdentical) {
  ExpectOpBitIdentical(
      [](Cluster* c) { return Repartition(MakePairs(c), 5); });
}

TEST(ParallelDeterminismTest, PartitionByKeyBitIdentical) {
  ExpectOpBitIdentical(
      [](Cluster* c) { return PartitionByKey(MakePairs(c), 8); });
}

TEST(ParallelDeterminismTest, ReduceByKeyBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return ReduceByKey(
        MakePairs(c), [](int64_t a, int64_t b) { return a + b; }, 8);
  });
}

TEST(ParallelDeterminismTest, GroupByKeyBitIdentical) {
  ExpectOpBitIdentical(
      [](Cluster* c) { return GroupByKey(MakePairs(c), 8); });
}

TEST(ParallelDeterminismTest, AggregateByKeyBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return AggregateByKey(
        MakePairs(c), int64_t{0},
        [](int64_t a, int64_t v) { return a + v; },
        [](int64_t a, int64_t b) { return a + b; }, 8);
  });
}

TEST(ParallelDeterminismTest, DistinctBitIdentical) {
  ExpectOpBitIdentical(
      [](Cluster* c) { return Distinct(Keys(MakePairs(c)), 8); });
}

TEST(ParallelDeterminismTest, SubtractBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return Subtract(Keys(MakePairs(c)), Keys(MakeSmallPairs(c)), 8);
  });
}

TEST(ParallelDeterminismTest, IntersectionBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return Intersection(Keys(MakePairs(c)), Keys(MakeSmallPairs(c)), 8);
  });
}

TEST(ParallelDeterminismTest, RepartitionJoinBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    auto pairs = MakePairs(c);
    auto reduced = ReduceByKey(
        pairs, [](int64_t a, int64_t b) { return a + b; }, 8);
    return RepartitionJoin(pairs, reduced, 8);
  });
}

TEST(ParallelDeterminismTest, BroadcastJoinBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return BroadcastJoin(MakePairs(c), MakeSmallPairs(c));
  });
}

TEST(ParallelDeterminismTest, LeftOuterJoinBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return LeftOuterJoin(MakePairs(c), MakeSmallPairs(c), 8);
  });
}

TEST(ParallelDeterminismTest, CoGroupBitIdentical) {
  ExpectOpBitIdentical([](Cluster* c) {
    return CoGroup(MakePairs(c), MakeSmallPairs(c), 8);
  });
}

TEST(ParallelDeterminismTest, PoolDoesNotPerturbResultsOrCostModel) {
  SuiteOutcome serial = RunSuite(Config(false));
  SuiteOutcome parallel = RunSuite(Config(true));
  ASSERT_TRUE(serial.ok);
  EXPECT_GT(serial.count, 0);
  ExpectSameOutcome(serial, parallel);
}

TEST(ParallelDeterminismTest, PoolIsRepeatableAcrossRuns) {
  SuiteOutcome first = RunSuite(Config(true));
  SuiteOutcome second = RunSuite(Config(true));
  ExpectSameOutcome(first, second);
}

TEST(ParallelDeterminismTest, PoolDoesNotPerturbFaultInjection) {
  // Fault draws are keyed on (seed, stage, task), not on execution order, so
  // an active plan must stay bit-identical under the pool too.
  ClusterConfig serial_cfg = Config(false);
  ClusterConfig parallel_cfg = Config(true);
  for (ClusterConfig* cfg : {&serial_cfg, &parallel_cfg}) {
    cfg->faults.seed = 5;
    cfg->faults.task_failure_prob = 0.05;
    cfg->faults.straggler_fraction = 0.1;
    cfg->faults.straggler_slowdown = 4.0;
    cfg->faults.speculative_execution = true;
  }
  SuiteOutcome serial = RunSuite(serial_cfg);
  SuiteOutcome parallel = RunSuite(parallel_cfg);
  ASSERT_TRUE(serial.ok);
  EXPECT_GT(serial.metrics.failed_tasks, 0);
  ExpectSameOutcome(serial, parallel);
}

// --- Fusion bit-identity --------------------------------------------------
//
// Every program below runs in the three spellings defined before RunSuite.

ClusterConfig WithRecovery(ClusterConfig cfg) {
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 0.05;
  cfg.faults.max_task_retries = 8;
  cfg.faults.machine_loss_times_s = {0.01};
  cfg.recovery.auto_checkpoint = true;
  cfg.recovery.min_checkpoint_lineage = 2;
  cfg.recovery.checkpoint_bytes_per_s = 1e12;  // checkpoints almost free
  cfg.recovery.degraded_replanning = true;
  return cfg;
}

/// A map -> filter -> mapValues chain (the filter demotes the tracked
/// counts to a bound, so the trailing mapValues starts a fresh chain on the
/// forced filter output).
template <typename Step>
auto NarrowChain(Cluster* c, const Step& step) {
  auto mapped =
      step(Map(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
        return std::pair<int64_t, int64_t>(p.first, p.second + 3);
      }));
  auto filtered =
      step(Filter(mapped, [](const std::pair<int64_t, int64_t>& p) {
        return p.second % 5 != 0;
      }));
  return step(MapValues(filtered, [](int64_t v) { return v * 7; }));
}

/// Runs `make_op(cluster, step)` in all three spellings — pool off/on ×
/// {clean, active FaultPlan, FaultPlan + RecoveryPolicy with
/// auto-checkpointing} — and requires bit-identical bags (contents AND
/// order, key_partitions) and full Metrics each time. Metrics are compared
/// BEFORE the chained and sliced results are materialized: the fusion
/// contract charges everything at composition time, and forcing must charge
/// nothing.
template <typename MakeOp>
void ExpectFusionBitIdentical(const MakeOp& make_op) {
  for (int regime = 0; regime < 3; ++regime) {
    for (bool parallel : {false, true}) {
      ClusterConfig cfg = Config(parallel);
      if (regime == 1) cfg = WithFaults(cfg);
      if (regime == 2) cfg = WithRecovery(cfg);
      Cluster forced(cfg);
      Cluster sliced(cfg);
      Cluster chained(cfg);
      auto forced_bag = make_op(&forced, ForceEach{});
      auto sliced_bag = make_op(&sliced, SliceToBag{});
      auto chained_bag = make_op(&chained, KeepChain{});
      ASSERT_EQ(forced.ok(), sliced.ok())
          << "regime " << regime << " pool " << parallel;
      ASSERT_EQ(forced.ok(), chained.ok())
          << "regime " << regime << " pool " << parallel;
      ExpectSameMetrics(forced.metrics(), sliced.metrics());
      ExpectSameMetrics(forced.metrics(), chained.metrics());
      ExpectBitIdenticalBags(forced_bag, sliced_bag);
      ExpectBitIdenticalBags(forced_bag, chained_bag);
      // ExpectBitIdenticalBags forced any pending chain; that must not have
      // added a single charge in either spelling.
      ExpectSameMetrics(forced.metrics(), sliced.metrics());
      ExpectSameMetrics(forced.metrics(), chained.metrics());
    }
  }
}

// Per narrow op: every spelling must match exactly.

TEST(FusionDeterminismTest, MapChainBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto once =
        step(Map(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
          return std::pair<int64_t, int64_t>(p.first, p.second + 1);
        }));
    return step(Map(once, [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.second, p.first * 2);
    }));
  });
}

TEST(FusionDeterminismTest, FilterBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return step(
        Filter(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
          return (p.first + p.second) % 3 != 0;
        }));
  });
}

TEST(FusionDeterminismTest, FlatMapBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return step(FlatMap(step(Keys(MakePairs(c))), [](int64_t k) {
      return std::vector<int64_t>{k, -k};
    }));
  });
}

TEST(FusionDeterminismTest, MapValuesBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return step(MapValues(MakePairs(c), [](int64_t v) { return v * 11 - 5; }));
  });
}

TEST(FusionDeterminismTest, FlatMapValuesBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return step(FlatMapValues(MakePairs(c), [](int64_t v) {
      return std::vector<int64_t>{v, v + 1, v + 2};
    }));
  });
}

TEST(FusionDeterminismTest, ZipWithUniqueIdBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    // Composed onto a size-preserving chain: stream offsets must equal the
    // materialized offsets, so the assigned ids match the forced spelling.
    auto mapped = step(
        Map(step(Keys(MakePairs(c))), [](int64_t k) { return k * 3; }));
    auto zipped = step(ZipWithUniqueId(mapped));
    return step(Map(zipped, [](const std::pair<uint64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(static_cast<int64_t>(p.first),
                                         p.second);
    }));
  });
}

TEST(FusionDeterminismTest, SampleBitIdentical) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    // The per-partition position counter drives Sample's deterministic
    // draws; composing must reproduce them exactly.
    auto mapped = step(
        Map(step(Keys(MakePairs(c))), [](int64_t k) { return k + 100; }));
    return step(Sample(mapped, 0.5, kSeed));
  });
}

TEST(FusionDeterminismTest, MapPartitionsForcesPendingInput) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto mapped =
        step(Map(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
          return std::pair<int64_t, int64_t>(p.first, p.second * 2);
        }));
    return MapPartitions(
        mapped, [](const std::vector<std::pair<int64_t, int64_t>>& part) {
          std::vector<std::pair<int64_t, int64_t>> out(part.rbegin(),
                                                       part.rend());
          return out;
        });
  });
}

TEST(FusionDeterminismTest, CardinalityChangingChainBitIdentical) {
  // filter -> map -> sample: every op after the filter composes on a forced
  // boundary; the data and charges must still match exactly.
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto filtered =
        step(Filter(MakePairs(c), [](const std::pair<int64_t, int64_t>& p) {
          return p.first % 2 == 0;
        }));
    auto mapped =
        step(Map(filtered, [](const std::pair<int64_t, int64_t>& p) {
          return std::pair<int64_t, int64_t>(p.first / 2, p.second);
        }));
    return step(Sample(mapped, 0.7, kSeed + 1));
  });
}

/// A namespace-scope UDF: a lambda inside IncrementTimes would name the
/// whole chain type it extends, and the type names would double per op.
struct IncrementValue {
  std::pair<int64_t, int64_t> operator()(
      const std::pair<int64_t, int64_t>& p) const {
    return {p.first, p.second + 1};
  }
};

/// `N` Maps in sequence, each result passed through `step`.
template <int N, typename B, typename Step>
auto IncrementTimes(const B& bag, const Step& step) {
  auto next = step(Map(bag, IncrementValue{}));
  if constexpr (N == 1) {
    return next;
  } else {
    return IncrementTimes<N - 1>(next, step);
  }
}

TEST(FusionDeterminismTest, DepthCapForcesBoundary) {
  // A chain one op longer than kMaxChainDepth must force mid-chain and keep
  // data and metrics identical in every spelling.
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return IncrementTimes<kMaxChainDepth + 1>(MakePairs(c), step);
  });
  Cluster c(Config(false));
  auto chained = IncrementTimes<kMaxChainDepth + 1>(MakePairs(&c), KeepChain{});
  EXPECT_EQ(chained.pending_chain_ops(), 1);
}

// Per wide-op forcing point: a pending chain consumed by each wide operator
// must materialize to exactly the forced input, leaving the wide op's output
// and charges bit-identical.

TEST(FusionDeterminismTest, ForcedByRepartition) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return Repartition(NarrowChain(c, step), 5);
  });
}

TEST(FusionDeterminismTest, ForcedByPartitionByKey) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return PartitionByKey(NarrowChain(c, step), 8);
  });
}

TEST(FusionDeterminismTest, ForcedByReduceByKeyBothPaths) {
  // Shuffle path.
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return ReduceByKey(
        NarrowChain(c, step), [](int64_t a, int64_t b) { return a + b; }, 8);
  });
  // Co-partitioned narrow path: a key-preserving pending chain over an
  // already-partitioned bag.
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto keyed = PartitionByKey(MakePairs(c), 8);
    auto chain = step(MapValues(keyed, [](int64_t v) { return v + 2; }));
    return ReduceByKey(
        chain, [](int64_t a, int64_t b) { return a + b; }, 8);
  });
}

TEST(FusionDeterminismTest, ForcedByGroupByKeyAndDistinct) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto grouped = GroupByKey(NarrowChain(c, step), 8);
    return step(MapValues(grouped, [](const std::vector<int64_t>& g) {
      return static_cast<int64_t>(g.size());
    }));
  });
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return Distinct(step(Keys(NarrowChain(c, step))), 8);
  });
}

TEST(FusionDeterminismTest, ForcedByJoins) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto joined = RepartitionJoin(NarrowChain(c, step), MakeSmallPairs(c), 8);
    return step(MapValues(joined, [](const std::pair<int64_t, int64_t>& vw) {
      return vw.first + vw.second;
    }));
  });
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto joined = BroadcastJoin(NarrowChain(c, step), MakeSmallPairs(c));
    return step(MapValues(joined, [](const std::pair<int64_t, int64_t>& vw) {
      return vw.first - vw.second;
    }));
  });
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto joined = LeftOuterJoin(MakeSmallPairs(c), NarrowChain(c, step), 8);
    return step(MapValues(
        joined, [](const std::pair<int64_t, std::optional<int64_t>>& vw) {
          return vw.first + vw.second.value_or(-1);
        }));
  });
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto cg = CoGroup(NarrowChain(c, step), MakeSmallPairs(c), 8);
    return step(MapValues(
        cg, [](const std::pair<std::vector<int64_t>, std::vector<int64_t>>& g) {
          return static_cast<int64_t>(g.first.size() + 100 * g.second.size());
        }));
  });
}

TEST(FusionDeterminismTest, ForcedBySetOpsUnionAndCartesian) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return Subtract(step(Keys(NarrowChain(c, step))),
                    step(Keys(MakeSmallPairs(c))), 8);
  });
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return Intersection(step(Keys(NarrowChain(c, step))),
                        step(Keys(MakePairs(c))), 8);
  });
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto left = step(
        Map(step(Keys(MakePairs(c))), [](int64_t k) { return k + 1; }));
    return Union(left, step(Keys(MakeSmallPairs(c))));
  });
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    auto cart = Cartesian(step(Keys(MakeSmallPairs(c))),
                          Distinct(step(Keys(NarrowChain(c, step))), 4));
    return step(Map(cart, [](const std::pair<int64_t, int64_t>& p) {
      return std::pair<int64_t, int64_t>(p.first, p.second);
    }));
  });
}

TEST(FusionDeterminismTest, ForcedByCheckpoint) {
  ExpectFusionBitIdentical([](Cluster* c, const auto& step) {
    return Checkpoint(NarrowChain(c, step));
  });
}

TEST(FusionDeterminismTest, ActionsForceAndMatch) {
  // Count / NotEmpty / Reduce / Collect / TopK on a pending chain must
  // return the same values and charge the same metrics in every spelling.
  for (int regime = 0; regime < 3; ++regime) {
    ClusterConfig cfg = Config(true);
    if (regime == 1) cfg = WithFaults(cfg);
    if (regime == 2) cfg = WithRecovery(cfg);
    Cluster forced(cfg);
    Cluster sliced(cfg);
    Cluster chained(cfg);
    auto run = [](Cluster* c, const auto& step) {
      auto chain = NarrowChain(c, step);
      auto keys = step(Keys(NarrowChain(c, step)));
      return std::tuple<int64_t, bool, int64_t,
                        std::vector<std::pair<int64_t, int64_t>>,
                        std::vector<int64_t>>(
          Count(chain), NotEmpty(chain),
          Reduce(keys, [](int64_t a, int64_t b) { return a + b; }).value_or(0),
          Collect(NarrowChain(c, step)), TopK(keys, 5, std::less<int64_t>()));
    };
    const auto expected = run(&forced, ForceEach{});
    EXPECT_EQ(expected, run(&sliced, SliceToBag{})) << "regime " << regime;
    EXPECT_EQ(expected, run(&chained, KeepChain{})) << "regime " << regime;
    ExpectSameMetrics(forced.metrics(), sliced.metrics());
    ExpectSameMetrics(forced.metrics(), chained.metrics());
  }
}

// Suite level: the full operator program, the fault program, and the
// recovery program must be outcome- and metric-identical in every spelling.

void ExpectSpellingsAgree(const ClusterConfig& cfg) {
  SuiteOutcome forced = RunSuite(cfg, ForceEach{});
  ExpectSameOutcome(forced, RunSuite(cfg, SliceToBag{}));
  ExpectSameOutcome(forced, RunSuite(cfg, KeepChain{}));
}

TEST(FusionDeterminismTest, FusionDoesNotPerturbSuiteResultsOrCostModel) {
  SuiteOutcome forced = RunSuite(Config(true), ForceEach{});
  ASSERT_TRUE(forced.ok);
  EXPECT_GT(forced.count, 0);
  ExpectSpellingsAgree(Config(true));
}

TEST(FusionDeterminismTest, FusionDoesNotPerturbFaultInjection) {
  SuiteOutcome forced = RunSuite(WithFaults(Config(true)), ForceEach{});
  ASSERT_TRUE(forced.ok);
  EXPECT_GT(forced.metrics.failed_tasks, 0);
  ExpectSpellingsAgree(WithFaults(Config(true)));
}

TEST(FusionDeterminismTest, FusionDoesNotPerturbRecoveryFeatures) {
  SuiteOutcome forced = RunSuite(WithRecovery(Config(true)), ForceEach{});
  ASSERT_TRUE(forced.ok);
  EXPECT_EQ(forced.metrics.machines_lost, 1);
  EXPECT_GT(forced.metrics.checkpoints_written, 0);
  ExpectSpellingsAgree(WithRecovery(Config(true)));
}

/// Exported trace of a narrow-chain + wide-op + action program (the obs
/// suite's byte-identity pattern).
template <typename Step>
std::string FusionTraceFor(ClusterConfig cfg, const Step& step) {
  Cluster c(cfg);
  obs::TraceRecorder rec;
  rec.SetRunNameHint("fusion-suite");
  c.set_trace(&rec);
  auto chain = NarrowChain(&c, step);
  auto reduced = ReduceByKey(
      chain, [](int64_t a, int64_t b) { return a + b; }, 8);
  (void)Count(reduced);
  (void)Collect(step(Keys(chain)));
  EXPECT_TRUE(c.ok());
  return obs::ChromeTraceToString(rec);
}

TEST(FusionDeterminismTest, TraceIsByteIdenticalAcrossFusionArms) {
  for (int regime = 0; regime < 3; ++regime) {
    ClusterConfig cfg = Config(true);
    if (regime == 1) cfg = WithFaults(cfg);
    if (regime == 2) cfg = WithRecovery(cfg);
    const std::string forced = FusionTraceFor(cfg, ForceEach{});
    EXPECT_EQ(forced, FusionTraceFor(cfg, SliceToBag{})) << "regime " << regime;
    EXPECT_EQ(forced, FusionTraceFor(cfg, KeepChain{})) << "regime " << regime;
  }
}

TEST(ParallelDeterminismTest, PoolDoesNotPerturbRecoveryFeatures) {
  // Auto-checkpointing, degraded re-planning, and machine loss are all
  // charged from the driver thread; the pool must not perturb a single new
  // counter either.
  ClusterConfig serial_cfg = Config(false);
  ClusterConfig parallel_cfg = Config(true);
  for (ClusterConfig* cfg : {&serial_cfg, &parallel_cfg}) {
    cfg->faults.seed = 5;
    cfg->faults.task_failure_prob = 0.05;
    cfg->faults.max_task_retries = 8;
    cfg->faults.machine_loss_times_s = {0.01};
    cfg->recovery.auto_checkpoint = true;
    cfg->recovery.min_checkpoint_lineage = 2;
    cfg->recovery.checkpoint_bytes_per_s = 1e12;  // checkpoints almost free
    cfg->recovery.degraded_replanning = true;
  }
  SuiteOutcome serial = RunSuite(serial_cfg);
  SuiteOutcome parallel = RunSuite(parallel_cfg);
  ASSERT_TRUE(serial.ok);
  EXPECT_EQ(serial.metrics.machines_lost, 1);
  EXPECT_GT(serial.metrics.checkpoints_written, 0);
  ExpectSameOutcome(serial, parallel);
}

}  // namespace
}  // namespace matryoshka::engine
