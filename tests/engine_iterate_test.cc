// Native iteration (engine::Iterate) contract tests. The in-engine
// convergence helpers (FilterMapCount, AnyMatch) must be invisible to the
// simulated cost model: driver-visible outputs, partitioning metadata
// (key_partitions), and the complete simulated Metrics must equal those of
// the op sequence each one replaces, spelled out on a twin cluster — with
// the thread pool on or off, and under clean, fault, and
// recovery/checkpoint regimes. The k-means, PageRank, and connected
// components loops are pinned to the outcomes every execution arm of the
// engine agreed on before the arms were removed. Only the real-execution
// counters (native_iterations, hoisted_broadcast_reuses,
// convergence_checks_in_engine) tell Iterate apart from a spelled-out
// driver loop. The suite also locks down the loop-invariant broadcast
// residency registry: re-broadcasting an already resident payload charges
// nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/matryoshka.h"
#include "datagen/datagen.h"
#include "engine/bag.h"
#include "engine/iterate.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/recovery.h"
#include "engine/shuffle.h"
#include "obs/chrome_trace.h"
#include "obs/trace_recorder.h"
#include "workloads/connected_components.h"
#include "workloads/kmeans.h"
#include "workloads/pagerank.h"

namespace matryoshka {
namespace {

using engine::Bag;
using engine::Cluster;
using engine::ClusterConfig;
using engine::Metrics;
using engine::Parallelize;

ClusterConfig Config(bool parallel) {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.execute_parallel = parallel;
  cfg.pool_threads = 4;
  return cfg;
}

ClusterConfig WithFaults(ClusterConfig cfg) {
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 0.05;
  cfg.faults.straggler_fraction = 0.1;
  cfg.faults.straggler_slowdown = 4.0;
  cfg.faults.speculative_execution = true;
  return cfg;
}

ClusterConfig WithRecovery(ClusterConfig cfg) {
  cfg.faults.seed = 5;
  cfg.faults.task_failure_prob = 0.05;
  cfg.faults.max_task_retries = 8;
  cfg.faults.machine_loss_times_s = {0.01};
  cfg.recovery.auto_checkpoint = true;
  cfg.recovery.min_checkpoint_lineage = 2;
  cfg.recovery.checkpoint_bytes_per_s = 1e12;
  cfg.recovery.degraded_replanning = true;
  return cfg;
}

/// Applies the fault regime (0 = clean, 1 = faults, 2 = recovery).
ClusterConfig WithRegime(ClusterConfig cfg, int regime) {
  if (regime == 1) return WithFaults(cfg);
  if (regime == 2) return WithRecovery(cfg);
  return cfg;
}

/// Every simulated-cost-model field. The three real-execution iteration
/// counters are deliberately NOT here: they are what tells native execution
/// apart and are asserted separately.
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

/// The simulated Metrics fields of ExpectSameMetrics, as literals.
struct PinnedMetrics {
  double simulated_time_s;
  int64_t jobs;
  int64_t stages;
  int64_t tasks;
  int64_t elements_processed;
  double shuffle_bytes;
  double broadcast_bytes;
  double spilled_bytes;
  int64_t spill_events;
  double peak_task_bytes;
  double peak_machine_bytes;
  int64_t failed_tasks;
  int64_t task_retries;
  int64_t speculative_launches;
  int64_t machines_lost;
  double recovery_time_s;
  int64_t checkpoints_written;
  double checkpoint_bytes;
  int64_t driver_retries;
  int64_t plan_fallbacks;
};

void ExpectPinnedMetrics(const Metrics& m, const PinnedMetrics& pin) {
  Metrics expected;
  expected.simulated_time_s = pin.simulated_time_s;
  expected.jobs = pin.jobs;
  expected.stages = pin.stages;
  expected.tasks = pin.tasks;
  expected.elements_processed = pin.elements_processed;
  expected.shuffle_bytes = pin.shuffle_bytes;
  expected.broadcast_bytes = pin.broadcast_bytes;
  expected.spilled_bytes = pin.spilled_bytes;
  expected.spill_events = pin.spill_events;
  expected.peak_task_bytes = pin.peak_task_bytes;
  expected.peak_machine_bytes = pin.peak_machine_bytes;
  expected.failed_tasks = pin.failed_tasks;
  expected.task_retries = pin.task_retries;
  expected.speculative_launches = pin.speculative_launches;
  expected.machines_lost = pin.machines_lost;
  expected.recovery_time_s = pin.recovery_time_s;
  expected.checkpoints_written = pin.checkpoints_written;
  expected.checkpoint_bytes = pin.checkpoint_bytes;
  expected.driver_retries = pin.driver_retries;
  expected.plan_fallbacks = pin.plan_fallbacks;
  ExpectSameMetrics(m, expected);
}

/// Native iteration's observable (real-execution) side: the engine reports
/// in-engine loop activity.
void ExpectIterationCounters(const Metrics& m) {
  EXPECT_GT(m.native_iterations, 0);
  EXPECT_GT(m.convergence_checks_in_engine, 0);
}

// ---------- Workload arms ----------

struct KMeansOutcome {
  bool ok = false;
  std::vector<std::pair<int64_t, workloads::KMeansModel>> groups;
  Metrics metrics;
};

KMeansOutcome RunKMeansArm(const ClusterConfig& cfg) {
  Cluster c(cfg);
  auto points = datagen::GenerateGroupedPoints(600, 4, 3, 21);
  auto bag = Parallelize(&c, points, 8);
  workloads::KMeansParams params;
  params.k = 3;
  params.max_iterations = 6;
  params.epsilon = 1e-3;
  auto r = workloads::KMeansMatryoshka(&c, bag, params);
  KMeansOutcome out;
  out.ok = r.ok();
  out.groups = std::move(r.per_group);
  std::sort(out.groups.begin(), out.groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.metrics = r.metrics;
  return out;
}

struct PageRankOutcome {
  bool ok = false;
  std::vector<std::pair<int64_t, double>> groups;
  Metrics metrics;
};

PageRankOutcome RunPageRankArm(const ClusterConfig& cfg) {
  Cluster c(cfg);
  auto edges = datagen::GenerateGroupedEdges(600, 4, 16, 0.0, 13);
  auto bag = Parallelize(&c, edges, 8);
  workloads::PageRankParams params;
  params.iterations = 4;
  auto r = workloads::PageRankMatryoshka(&c, bag, params);
  PageRankOutcome out;
  out.ok = r.ok();
  out.groups = std::move(r.per_group);
  std::sort(out.groups.begin(), out.groups.end());
  out.metrics = r.metrics;
  return out;
}

struct CcOutcome {
  bool ok = false;
  /// Raw partition-by-partition snapshot: data, order, AND partitioning.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> partitions;
  int64_t key_partitions = 0;
  Metrics metrics;
};

CcOutcome RunCcArm(const ClusterConfig& cfg) {
  Cluster c(cfg);
  auto edges = datagen::GenerateComponents(3, 8, 4, 37);
  auto bag = Parallelize(&c, edges, 8);
  auto comps = workloads::ConnectedComponents(bag, 100);
  CcOutcome out;
  out.ok = c.ok();
  if (out.ok) {
    out.key_partitions = comps.key_partitions();
    for (int64_t i = 0; i < comps.num_partitions(); ++i) {
      out.partitions.push_back(
          comps.partitions()[static_cast<std::size_t>(i)]);
    }
  }
  out.metrics = c.metrics();
  return out;
}

// ---------- Pinned workload outcomes ----------
//
// Outcomes of the three loops above, taken from the engine while it still
// carried the eager and type-erased narrow-op arms and the driver-loop
// iteration arm — every arm agreed on them bit for bit. The pool does not
// move them; index = regime (clean, faults, recovery).

constexpr PinnedMetrics kKMeansMetrics[3] = {
    {0x1.5e615d9b9a2d2p+0, 7, 162, 1200, 12160, 0x1.a8f8p+14, 0x1.74fp+14,
     0x0p+0, 0, 0x0p+0, 0x1.04p+12, 0, 0, 0, 0, 0x0p+0, 0, 0x0p+0, 0, 0},
    {0x1.f924d21b118c9p+2, 7, 162, 1200, 12160, 0x1.a8f8p+14, 0x1.74fp+14,
     0x0p+0, 0, 0x0p+0, 0x1.04p+12, 78, 78, 163, 0, 0x1.48001107a011p+5, 0,
     0x0p+0, 0, 0},
    {0x1.c7758c20fb1f3p+4, 7, 162, 968, 12160, 0x1.012cp+15, 0x1.74fp+14,
     0x0p+0, 0, 0x0p+0, 0x1.45p+12, 58, 58, 0, 1, 0x1.f0059a2b383bap+4, 111,
     0x1.d15c4p+20, 0, 0},
};

constexpr PinnedMetrics kPageRankMetrics[3] = {
    {0x1.291e85daa88b3p+0, 5, 159, 1284, 25468, 0x1.78dp+16, 0x1.1p+9,
     0x0p+0, 0, 0x0p+0, 0x1.88ap+12, 0, 0, 0, 0, 0x0p+0, 0, 0x0p+0, 0, 0},
    {0x1.0731cd148b98fp+3, 5, 159, 1284, 25468, 0x1.78dp+16, 0x1.1p+9,
     0x0p+0, 0, 0x0p+0, 0x1.88ap+12, 89, 89, 159, 0, 0x1.7c004974a9029p+5, 0,
     0x0p+0, 0, 0},
    {0x1.d2ea0e63a073cp+4, 5, 159, 994, 25468, 0x1.667p+16, 0x1.1p+9, 0x0p+0,
     0, 0x0p+0, 0x1.05cp+13, 60, 60, 0, 1, 0x1.0402df98caa6fp+5, 99,
     0x1.9d51p+19, 0, 0},
};

constexpr PinnedMetrics kCcMetrics[3] = {
    {0x1.8734d5a846385p-1, 5, 61, 528, 1904, 0x1.8dp+13, 0x0p+0, 0x0p+0, 0,
     0x0p+0, 0x1.e6p+9, 0, 0, 0, 0, 0x0p+0, 0, 0x0p+0, 0, 0},
    {0x1.3f3cc1c269c8p+2, 5, 61, 528, 1904, 0x1.8dp+13, 0x0p+0, 0x0p+0, 0,
     0x0p+0, 0x1.e6p+9, 37, 37, 61, 0, 0x1.4000099d041b3p+4, 0, 0x0p+0, 0, 0},
    {0x1.b9221d45ad1bep+3, 5, 61, 412, 1904, 0x1.7ep+13, 0x0p+0, 0x0p+0, 0,
     0x0p+0, 0x1.2cp+10, 27, 27, 0, 1, 0x1.e00afecf0eba7p+3, 14, 0x1.16p+14, 0,
     0},
};

/// Per-run k-means models (the same in every regime).
const std::vector<std::pair<int64_t, workloads::KMeansModel>> kKMeansModels =
    {
        {0,
         {{{0x1.6de90020b6417p+5, 0x1.537774f593876p+6},
           {0x1.015741c0e097ep+6, 0x1.21c560996c615p+3},
           {0x1.6fc2bf70ee2e2p+6, 0x1.a297e66426638p+5}},
          0x1.c50380118fcap+10,
          3}},
        {1,
         {{{0x1.e7aad20c9bd53p+5, 0x1.1b92122153a99p+6},
           {0x1.4c39fd5d76bc5p+6, 0x1.5de755c6db62p-3},
           {0x1.1176d82ee2ee3p+3, 0x1.22e093615512dp+5}},
          0x1.2f4b8a175db76p+13,
          2}},
        {2,
         {{{0x1.a8f6cc30a8d1bp+5, 0x1.2ad41a25678abp+5},
           {0x1.41d066405d4d8p+6, 0x1.36082a37b83d1p+6},
           {0x1.3a25bddf502b1p+6, 0x1.4347c9f7fdf4bp+6}},
          0x1.d2afd616a1689p+12,
          6}},
        {3,
         {{{0x1.88c99683efb49p+6, 0x1.a8f4453cbaea8p+5},
           {0x1.9152fd44e2c95p+5, 0x1.8444a33db233fp+4},
           {0x1.fc7e4a4262bdap+3, 0x1.78d56a5aa7319p+5}},
          0x1.45f0c1c985d34p+13,
          3}},
};

/// Per-group rank sums (the same in every regime).
const std::vector<std::pair<int64_t, double>> kPageRankSums = {
    {0, 0x1p+0}, {1, 0x1p+0}, {2, 0x1p+0}, {3, 0x1p+0}};

using CcPartitions = std::vector<std::vector<std::pair<int64_t, int64_t>>>;

/// Component labels partition by partition, in order: clean and faults
/// share one layout; recovery re-plans onto the surviving machines.
const CcPartitions kCcPartitions = {
    {{0, 0}, {0, 3}, {8, 8}},
    {{8, 10}, {8, 13}, {8, 14}, {8, 15}, {16, 18}, {16, 21}},
    {{0, 2}, {16, 20}},
    {{16, 22}},
    {{0, 4}, {0, 5}, {0, 6}, {0, 7}, {8, 12}},
    {{0, 1}, {8, 11}, {16, 16}, {16, 23}},
    {{16, 17}},
    {{8, 9}, {16, 19}},
};
const CcPartitions kCcPartitionsRecovery = {
    {{0, 0}, {0, 5}, {16, 17}},
    {{0, 1}, {8, 13}, {8, 15}, {16, 21}, {16, 23}},
    {{0, 3}, {0, 4}},
    {{8, 9}, {8, 14}, {16, 18}, {16, 22}},
    {{0, 2}, {0, 6}, {0, 7}, {8, 8}, {8, 12}, {16, 20}},
    {{8, 10}, {8, 11}, {16, 16}, {16, 19}},
};

/// (regime, fused, pool). Every run is fused and natively iterated, so
/// `fused` takes only `true`; it stays in the tuple so the instance names
/// and printed parameters match those from before the other arms left.
class IterateBitIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(IterateBitIdentityTest, KMeans) {
  auto [regime, fused, pool] = GetParam();
  ASSERT_TRUE(fused);
  auto out = RunKMeansArm(WithRegime(Config(pool), regime));
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.groups.size(), kKMeansModels.size());
  for (std::size_t i = 0; i < out.groups.size(); ++i) {
    EXPECT_EQ(out.groups[i].first, kKMeansModels[i].first);
    const auto& got = out.groups[i].second;
    const auto& want = kKMeansModels[i].second;
    EXPECT_EQ(got.iterations, want.iterations) << "run " << i;
    EXPECT_EQ(got.means, want.means) << "run " << i;
    EXPECT_EQ(got.inertia, want.inertia) << "run " << i;
  }
  ExpectPinnedMetrics(out.metrics, kKMeansMetrics[regime]);
  ExpectIterationCounters(out.metrics);
}

TEST_P(IterateBitIdentityTest, PageRank) {
  auto [regime, fused, pool] = GetParam();
  ASSERT_TRUE(fused);
  auto out = RunPageRankArm(WithRegime(Config(pool), regime));
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.groups, kPageRankSums);
  ExpectPinnedMetrics(out.metrics, kPageRankMetrics[regime]);
  ExpectIterationCounters(out.metrics);
}

TEST_P(IterateBitIdentityTest, ConnectedComponents) {
  auto [regime, fused, pool] = GetParam();
  ASSERT_TRUE(fused);
  auto out = RunCcArm(WithRegime(Config(pool), regime));
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.key_partitions, 0);
  EXPECT_EQ(out.partitions,
            regime == 2 ? kCcPartitionsRecovery : kCcPartitions);
  ExpectPinnedMetrics(out.metrics, kCcMetrics[regime]);
  ExpectIterationCounters(out.metrics);
}

std::string BitIdentityArmName(
    const ::testing::TestParamInfo<std::tuple<int, bool, bool>>& info) {
  static const char* kRegimes[] = {"clean", "faults", "recovery"};
  std::string n = kRegimes[std::get<0>(info.param)];
  n += std::get<2>(info.param) ? "_fused_pool" : "_fused_serial";
  return n;
}

INSTANTIATE_TEST_SUITE_P(Regimes, IterateBitIdentityTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(true),
                                            ::testing::Bool()),
                         BitIdentityArmName);

// ---------- Convergence helpers vs the ops they replace ----------

/// A pending pair chain with lineage 2, so the recovery regime's
/// auto-checkpoint probes (min lineage 2) see every filtered output.
Bag<std::pair<int64_t, int64_t>> HelperInput(Cluster* c) {
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 4000; ++i) kv.emplace_back(i % 97, i % 13);
  return engine::MapValues(Parallelize(c, kv, 8),
                           [](int64_t v) { return v * 3 + 1; });
}

TEST(ConvergenceHelperTest, FilterMapCountMatchesSpelledOutOps) {
  auto sel = [](const std::pair<int64_t, int64_t>& p) {
    return p.second % 5 != 0;
  };
  auto proj = [](const std::pair<int64_t, int64_t>& p) {
    return std::pair<int64_t, int64_t>(p.first, p.second + p.first);
  };
  for (int regime = 0; regime < 3; ++regime) {
    for (bool pool : {false, true}) {
      const ClusterConfig cfg = WithRegime(Config(pool), regime);
      Cluster helper(cfg);
      Cluster spelled(cfg);
      auto got = engine::FilterMapCount(HelperInput(&helper), sel, proj);
      Bag<std::pair<int64_t, int64_t>> mapped =
          engine::Map(engine::Filter(HelperInput(&spelled), sel), proj);
      const int64_t count = engine::Count(mapped);
      ASSERT_TRUE(helper.ok()) << helper.status().ToString();
      ASSERT_TRUE(spelled.ok()) << spelled.status().ToString();
      EXPECT_EQ(got.count, count);
      EXPECT_EQ(got.mapped.key_partitions(), mapped.key_partitions());
      EXPECT_EQ(got.mapped.lineage_depth(), mapped.lineage_depth());
      EXPECT_EQ(got.mapped.partitions(), mapped.partitions())
          << "regime " << regime << " pool " << pool;
      ExpectSameMetrics(helper.metrics(), spelled.metrics());
      EXPECT_EQ(helper.metrics().convergence_checks_in_engine, 1);
      EXPECT_EQ(spelled.metrics().convergence_checks_in_engine, 0);
    }
  }
}

TEST(ConvergenceHelperTest, AnyMatchMatchesSpelledOutOps) {
  for (int64_t cutoff : {int64_t{20}, int64_t{1000}}) {
    auto pred = [cutoff](const std::pair<int64_t, int64_t>& p) {
      return p.second > cutoff;
    };
    for (int regime = 0; regime < 3; ++regime) {
      for (bool pool : {false, true}) {
        const ClusterConfig cfg = WithRegime(Config(pool), regime);
        Cluster helper(cfg);
        Cluster spelled(cfg);
        const bool got = engine::AnyMatch(HelperInput(&helper), pred);
        const bool want =
            engine::NotEmpty(engine::Filter(HelperInput(&spelled), pred));
        ASSERT_TRUE(helper.ok()) << helper.status().ToString();
        ASSERT_TRUE(spelled.ok()) << spelled.status().ToString();
        EXPECT_EQ(got, want) << "cutoff " << cutoff;
        EXPECT_EQ(got, cutoff < 37) << "cutoff " << cutoff;
        ExpectSameMetrics(helper.metrics(), spelled.metrics());
        EXPECT_EQ(helper.metrics().convergence_checks_in_engine, 1);
      }
    }
  }
}

// ---------- Engine-level Iterate semantics ----------

TEST(IterateTest, RunsUntilConvergedAndCountsIterations) {
  Cluster c(Config(false));
  engine::IterateOptions opt;
  opt.max_iterations = 100;
  opt.label = "countdown";
  int64_t calls = 0;
  int64_t state = engine::Iterate(
      &c, int64_t{5},
      [&calls](int64_t s, int64_t) {
        ++calls;
        return s - 1;
      },
      [](int64_t* s, int64_t) { return *s == 0; }, opt);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(state, 0);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(c.metrics().native_iterations, 5);
}

TEST(IterateTest, LegacyArmRunsTheSameLoopWithoutCounters) {
  // The same halving loop as an Iterate with an AnyMatch check and as a
  // hand-written driver loop with NotEmpty(Filter(..)): same final bag and
  // simulated Metrics; only Iterate counts iterations and in-engine checks.
  using Pair = std::pair<int64_t, int64_t>;
  auto halve = [](const Bag<Pair>& b) -> Bag<Pair> {
    return engine::MapValues(b, [](int64_t v) { return v / 2; });
  };
  auto positive = [](const Pair& p) { return p.second > 0; };
  auto input = [](Cluster* c) {
    std::vector<Pair> kv;
    for (int64_t i = 0; i < 512; ++i) kv.emplace_back(i % 16, i);
    return Parallelize(c, kv, 8);
  };
  Cluster native(Config(true));
  engine::IterateOptions opt;
  opt.max_iterations = 64;
  Bag<Pair> iterated = engine::Iterate(
      &native, input(&native),
      [&](Bag<Pair> s, int64_t) { return halve(s); },
      [&](Bag<Pair>* s, int64_t) { return !engine::AnyMatch(*s, positive); },
      opt);
  Cluster driver(Config(true));
  Bag<Pair> looped = input(&driver);
  for (int64_t i = 0; i < 64; ++i) {
    looped = halve(looped);
    if (!engine::NotEmpty(engine::Filter(looped, positive))) break;
  }
  ASSERT_TRUE(native.ok());
  ASSERT_TRUE(driver.ok());
  EXPECT_EQ(iterated.partitions(), looped.partitions());
  ExpectSameMetrics(native.metrics(), driver.metrics());
  EXPECT_EQ(native.metrics().native_iterations, 9);
  EXPECT_EQ(native.metrics().convergence_checks_in_engine, 9);
  EXPECT_EQ(driver.metrics().native_iterations, 0);
  EXPECT_EQ(driver.metrics().convergence_checks_in_engine, 0);
}

TEST(IterateTest, ExhaustedBudgetFailsWithLoopLabel) {
  Cluster c(Config(false));
  engine::IterateOptions opt;
  opt.max_iterations = 3;
  opt.label = "spin";
  int64_t calls = 0;
  engine::Iterate(
      &c, int64_t{0},
      [&calls](int64_t s, int64_t) {
        ++calls;
        return s;
      },
      [](int64_t*, int64_t) { return false; }, opt);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInternal) << c.status().ToString();
  EXPECT_NE(c.status().ToString().find(
                "spin did not converge within max_iterations = 3"),
            std::string::npos)
      << c.status().ToString();
  EXPECT_EQ(calls, 3);
}

TEST(IterateTest, ZeroIterationBudgetFailsByDefault) {
  Cluster c(Config(false));
  int64_t calls = 0;
  engine::IterateOptions opt;
  opt.max_iterations = 0;
  engine::Iterate(
      &c, int64_t{0},
      [&calls](int64_t s, int64_t) {
        ++calls;
        return s;
      },
      [](int64_t*, int64_t) { return true; }, opt);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(calls, 0);
}

TEST(IterateTest, ZeroIterationBudgetCanExitQuietly) {
  Cluster c(Config(false));
  engine::IterateOptions opt;
  opt.max_iterations = 0;
  opt.exhausted = [](int64_t) { return Status::OK(); };
  int64_t state = engine::Iterate(
      &c, int64_t{7}, [](int64_t s, int64_t) { return s; },
      [](int64_t*, int64_t) { return true; }, opt);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(state, 7);
  EXPECT_EQ(c.metrics().native_iterations, 0);
}

TEST(IterateTest, ConnectedComponentsZeroBudgetKeepsSelfLabels) {
  // A driver for-loop with max_iterations = 0 skips the loop without
  // failing; the native loop must preserve that edge case.
  Cluster c(Config(false));
  auto edges = datagen::GenerateComponents(2, 5, 2, 37);
  auto bag = Parallelize(&c, edges, 4);
  auto got = engine::Collect(workloads::ConnectedComponents(bag, 0));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(got.size(), 10u);
  for (const auto& [comp, v] : got) EXPECT_EQ(comp, v);
}

TEST(IterateTest, LiftedWhileBudgetFailureMatchesAcrossArms) {
  // A lifted while loop that never exits fails with the lifting layer's
  // own status, not Iterate's default exhaustion error.
  Cluster c(Config(false));
  auto params = Parallelize(&c, std::vector<int64_t>{1}, 1);
  auto init = core::LiftFlatBag(params);
  core::LiftedWhileScalar(
      init,
      [](const core::LiftingContext&, const core::InnerScalar<int64_t>& s,
         int64_t) {
        auto next = core::UnaryScalarOp(s, [](int64_t x) { return x; });
        auto cond = core::UnaryScalarOp(next, [](int64_t) { return true; });
        return std::make_pair(next, cond);
      },
      /*max_iterations=*/10);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kCancelled)
      << c.status().ToString();
  EXPECT_NE(c.status().ToString().find(
                "lifted while loop exceeded max_iterations = 10"),
            std::string::npos)
      << c.status().ToString();
}

// ---------- Broadcast residency (invariant hoisting) ----------

TEST(BroadcastResidencyTest, SecondBroadcastOfSamePayloadIsFree) {
  Cluster c(Config(false));
  std::vector<std::pair<int64_t, int64_t>> left_kv, right_kv;
  for (int64_t i = 0; i < 256; ++i) left_kv.emplace_back(i % 16, i);
  for (int64_t i = 0; i < 16; ++i) right_kv.emplace_back(i, i * 10);
  auto left = Parallelize(&c, left_kv, 8);
  auto right = Parallelize(&c, right_kv, 2);

  (void)engine::Collect(engine::BroadcastJoin(left, right));
  ASSERT_TRUE(c.ok());
  const int64_t bytes_once = c.metrics().broadcast_bytes;
  ASSERT_GT(bytes_once, 0);

  // Same payload again: resident, no re-transfer, counted as a reuse.
  (void)engine::Collect(engine::BroadcastJoin(left, right));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.metrics().broadcast_bytes, bytes_once);
  EXPECT_EQ(c.metrics().hoisted_broadcast_reuses, 1);
}

TEST(BroadcastResidencyTest, ResetClearsResidency) {
  Cluster c(Config(false));
  auto run_join = [&c]() {
    std::vector<std::pair<int64_t, int64_t>> left_kv, right_kv;
    for (int64_t i = 0; i < 128; ++i) left_kv.emplace_back(i % 8, i);
    for (int64_t i = 0; i < 8; ++i) right_kv.emplace_back(i, i);
    auto left = Parallelize(&c, left_kv, 4);
    auto right = Parallelize(&c, right_kv, 2);
    (void)engine::Collect(engine::BroadcastJoin(left, right));
    return c.metrics().broadcast_bytes;
  };
  const int64_t first = run_join();
  ASSERT_GT(first, 0);
  c.Reset();
  // After Reset the registry is empty: a fresh identical join is charged
  // the same transfer again, not treated as resident.
  EXPECT_EQ(run_join(), first);
  EXPECT_EQ(c.metrics().hoisted_broadcast_reuses, 0);
}

TEST(BroadcastResidencyTest, PageRankReusesLoopInvariantClosure) {
  // The Sec. 5.1 init-weight closure is broadcast by every iteration's
  // MapWithClosure; from iteration 2 on it must be found resident.
  auto on = RunPageRankArm(Config(false));
  ASSERT_TRUE(on.ok);
  EXPECT_GT(on.metrics.hoisted_broadcast_reuses, 0);
}

TEST(BroadcastResidencyTest, HyperparameterKMeansReusesSharedPoints) {
  // Hyperparameter mode: every run clusters the SAME shared point set; the
  // per-iteration cross against it must pay the broadcast only once.
  Cluster c(Config(false));
  auto points = datagen::GeneratePoints(400, 3, 17);
  auto bag = Parallelize(&c, points, 8);
  workloads::KMeansParams params;
  params.k = 3;
  params.max_iterations = 5;
  core::OptimizerOptions opts;
  opts.cross_strategy = core::CrossStrategy::kBroadcastPrimary;
  auto r = workloads::KMeansHyperparameterMatryoshka(&c, bag, 3, params, opts);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_GT(r.metrics.hoisted_broadcast_reuses, 0);
}

// ---------- Traces ----------

std::string CcTraceFor(const ClusterConfig& cfg) {
  Cluster c(cfg);
  obs::TraceRecorder rec;
  rec.SetRunNameHint("iterate-suite");
  c.set_trace(&rec);
  auto edges = datagen::GenerateComponents(2, 6, 2, 37);
  auto bag = Parallelize(&c, edges, 6);
  (void)engine::Collect(workloads::ConnectedComponents(bag, 100));
  EXPECT_TRUE(c.ok());
  return obs::ChromeTraceToString(rec);
}

TEST(IterateTraceTest, NativeArmEmitsIterateSpans) {
  const std::string trace = CcTraceFor(Config(false));
  EXPECT_NE(trace.find("connected-components[iter 0]"), std::string::npos);
}

}  // namespace
}  // namespace matryoshka
