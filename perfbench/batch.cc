// Batch workloads: Bounce Rate (in memory and spilling) and grouped
// PageRank, each run through its packaged runner on PaperCluster() with the
// real thread pool on. See README.md for why each workload is here.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/matryoshka.h"
#include "datagen/datagen.h"
#include "engine/bag.h"
#include "engine/ops.h"
#include "perfbench/common.h"
#include "workloads/bounce_rate.h"
#include "workloads/pagerank.h"

namespace matryoshka::perfbench {
namespace {

using PerGroup = std::vector<std::pair<int64_t, double>>;
using Result = workloads::WorkloadResult<int64_t, double>;

/// Wall time of the calls a traced run makes into `core` and `engine`,
/// summed over one job.
struct Spans {
  double group = 0, reduce_by_key = 0, distinct = 0, count = 0,
         scalar_op = 0, collect = 0;
  double Sum() const {
    return group + reduce_by_key + distinct + count + scalar_op + collect;
  }
};

/// Runs `f`, adding its wall time to `*acc`.
template <typename F>
auto Timed(double* acc, F&& f) {
  const double t0 = NowSeconds();
  auto out = f();
  *acc += NowSeconds() - t0;
  return out;
}

template <typename T>
struct BatchWorkload {
  engine::ClusterConfig config;
  std::function<std::vector<T>()> generate;
  std::function<Result(engine::Cluster*, const engine::Bag<T>&)> run;
  std::function<PerGroup(const std::vector<T>&)> reference;
  /// The traced run: replays the runner's `core` call sequence with one
  /// span per call. Null when the workload has no replay; its traced run
  /// is then the runner call itself.
  std::function<PerGroup(engine::Cluster*, const engine::Bag<T>&, Spans*)>
      replay;
};

/// Allowed |got - want| relative to max(1, |want|): the runners and the
/// sequential references sum floating-point values in different orders.
constexpr double kTolerance = 1e-9;

bool Matches(PerGroup got, const PerGroup& want) {
  std::sort(got.begin(), got.end());
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double err = std::fabs(got[i].second - want[i].second);
    if (got[i].first != want[i].first ||
        !(err <= kTolerance * std::max(1.0, std::fabs(want[i].second)))) {
      return false;
    }
  }
  return true;
}

bool SameOutput(const PerGroup& a, const PerGroup& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::bit_cast<uint64_t>(a[i].second) !=
            std::bit_cast<uint64_t>(b[i].second)) {
      return false;
    }
  }
  return true;
}

void SetEngineCounters(const engine::Metrics& m, RunResult* out) {
  constexpr double kMb = 1 << 20;
  out->Set("engine.jobs", static_cast<double>(m.jobs));
  out->Set("engine.stages", static_cast<double>(m.stages));
  out->Set("engine.tasks", static_cast<double>(m.tasks));
  out->Set("engine.elements_processed",
           static_cast<double>(m.elements_processed));
  out->Set("engine.shuffle_mb", m.shuffle_bytes / kMb);
  out->Set("engine.broadcast_mb", m.broadcast_bytes / kMb);
  out->Set("engine.real_spilled_mb", m.real_spilled_bytes / kMb);
  out->Set("engine.real_spill_runs", static_cast<double>(m.real_spill_runs));
  out->Set("engine.real_spill_events",
           static_cast<double>(m.real_spill_events));
  out->Set("engine.native_iterations",
           static_cast<double>(m.native_iterations));
  out->Set("engine.hoisted_broadcast_reuses",
           static_cast<double>(m.hoisted_broadcast_reuses));
  out->Set("engine.convergence_checks_in_engine",
           static_cast<double>(m.convergence_checks_in_engine));
}

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;

template <typename T>
RunResult MeasureBatch(const Args& args, const BatchWorkload<T>& w) {
  RunResult out;
  out.pool_threads = w.config.pool_threads;

  // Set-up: input generation + Cluster construction + Parallelize.
  std::vector<double> setup_s, generate_s, parallelize_s;
  std::vector<T> data;
  std::unique_ptr<engine::Cluster> cluster;
  for (int rep = 0; rep < (args.smoke ? 1 : kSetupReps); ++rep) {
    data.clear();
    data.shrink_to_fit();
    cluster.reset();
    const double t0 = NowSeconds();
    data = w.generate();
    const double t1 = NowSeconds();
    cluster = std::make_unique<engine::Cluster>(w.config);
    const double t2 = NowSeconds();
    engine::Bag<T> bag = engine::Parallelize(cluster.get(), data);
    const double t3 = NowSeconds();
    setup_s.push_back(t3 - t0);
    generate_s.push_back(t1 - t0);
    parallelize_s.push_back(t3 - t2);
  }
  out.Set("setup_s", Median(setup_s));
  out.Set("datagen.generate_s", Median(generate_s));
  out.Set("engine.parallelize_s", Median(parallelize_s));

  const PerGroup want = w.reference(data);

  // One job on a freshly reset cluster; the input is re-parallelized
  // outside the timed region, as every bench binary of the repo does.
  struct Job {
    Result result;
    double wall_s = 0, cpu_s = 0, rss_mb = 0;
    bool ok = false;
  };
  auto run_job = [&](engine::Cluster* c) {
    c->Reset();
    engine::Bag<T> bag = engine::Parallelize(c, data);
    ResetPeakRss();
    Job job;
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    job.result = w.run(c, bag);
    job.ok = job.result.ok() && Matches(job.result.per_group, want);
    job.wall_s = NowSeconds() - t0;
    job.cpu_s = ProcessCpuSeconds() - cpu0;
    job.rss_mb = PeakRssMb();
    return job;
  };

  // Untimed warm-up: first-touch page faults and pool start-up.
  const Job warmup = run_job(cluster.get());
  out.Check(warmup.ok);
  out.Set("warmup_s", warmup.wall_s);
  const engine::Metrics& reference_metrics = warmup.result.metrics;

  std::vector<double> job_s, cpu_s, rss_mb, traced_s, unattributed;
  std::vector<Spans> spans;
  const double deadline = NowSeconds() + args.seconds;
  do {
    const Job job = run_job(cluster.get());
    // Every run must verify and reproduce the warm-up's simulated metrics.
    out.Check(job.ok && SameMetrics(job.result.metrics, reference_metrics) &&
              SameOutput(job.result.per_group, warmup.result.per_group));
    job_s.push_back(job.wall_s);
    cpu_s.push_back(job.cpu_s);
    rss_mb.push_back(job.rss_mb);
    if (!args.trace) continue;

    // Traced run: the same job through the span-instrumented replay.
    cluster->Reset();
    engine::Bag<T> bag = engine::Parallelize(cluster.get(), data);
    Spans s;
    const double t0 = NowSeconds();
    PerGroup got;
    if (w.replay) {
      got = w.replay(cluster.get(), bag, &s);
    } else {
      Result r = w.run(cluster.get(), bag);
      got = r.ok() ? std::move(r.per_group) : PerGroup{};
    }
    const double traced = NowSeconds() - t0;
    out.Check(cluster->ok() && SameOutput(got, warmup.result.per_group) &&
              SameMetrics(cluster->metrics(), reference_metrics) &&
              Matches(got, want));
    traced_s.push_back(traced);
    spans.push_back(s);
    if (w.replay) unattributed.push_back(100.0 * (traced - s.Sum()) / traced);
  } while (NowSeconds() < deadline && !args.smoke);

  const double job = Median(job_s);
  out.Set("job_s", job);
  out.Set("p50_ms", 1e3 * job);
  out.Set("p99_ms", 1e3 * Percentile(job_s, 0.99));
  double busy = 0;
  for (double s : job_s) busy += s;
  out.Set("saturation_rps", static_cast<double>(job_s.size()) / busy);
  out.Set("peak_rss_mb", Median(rss_mb));
  out.Set("simulated_s", reference_metrics.simulated_time_s);
  out.Set("proc.cpu_s", Median(cpu_s));
  SetEngineCounters(reference_metrics, &out);
  std::fprintf(stderr, "perfbench: %zu timed jobs, job_s median %.4f\n",
               job_s.size(), job);

  if (args.trace) {
    auto median_of = [&](double Spans::*field) {
      std::vector<double> v;
      for (const Spans& s : spans) v.push_back(s.*field);
      return Median(v);
    };
    out.Set("core.group_s", median_of(&Spans::group));
    out.Set("core.reduce_by_key_s", median_of(&Spans::reduce_by_key));
    out.Set("core.distinct_s", median_of(&Spans::distinct));
    out.Set("core.count_s", median_of(&Spans::count));
    out.Set("core.scalar_op_s", median_of(&Spans::scalar_op));
    out.Set("engine.collect_s", median_of(&Spans::collect));
    out.Set("trace.overhead_pct", 100.0 * (Median(traced_s) - job) / job);
    if (!unattributed.empty()) {
      out.Set("trace.unattributed_pct", Median(unattributed));
    }

    // The pool's baseline: the same job on one thread.
    engine::ClusterConfig serial = w.config;
    serial.execute_parallel = false;
    engine::Cluster serial_cluster(serial);
    const Job s = run_job(&serial_cluster);
    out.Check(s.ok && SameMetrics(s.result.metrics, reference_metrics) &&
              SameOutput(s.result.per_group, warmup.result.per_group));
    out.Set("pool.serial_job_s", s.wall_s);
    out.Set("pool.speedup", s.wall_s / job);
  }
  return out;
}

engine::ClusterConfig PooledPaperCluster() {
  engine::ClusterConfig cfg = bench::PaperCluster();
  cfg.execute_parallel = true;
  // The driver thread runs partition tasks too: pool + driver = nproc.
  cfg.pool_threads = std::max(1, UsableCpus() - 1);
  return cfg;
}

// Bounce Rate inputs: Zipf(1.0) day keys, the skew setting of Sec. 9.5.
constexpr int64_t kDays = 64;
constexpr double kDayZipf = 1.0;
constexpr double kBounceFraction = 0.5;

/// BounceRateMatryoshka's `core` call sequence, one span per call. Narrow
/// ops stay deferred exactly as in the runner, so their cost lands in the
/// span of the call that forces them; nothing here forces on its own.
PerGroup ReplayBounceRate(const engine::Bag<datagen::Visit>& visits,
                          Spans* s) {
  using Ip = int64_t;
  using Day = int64_t;
  auto nested = Timed(&s->group,
                      [&] { return core::GroupByKeyIntoNestedBag(visits); });
  auto rates = core::MapWithLiftedUdf(
      nested, [&](const core::LiftingContext&, const core::InnerScalar<Day>&,
                  const core::InnerBag<Ip>& group) {
        auto counts_per_ip = Timed(&s->reduce_by_key, [&] {
          return core::LiftedReduceByKey(
              core::LiftedMap(
                  group, [](Ip ip) { return std::pair<Ip, int64_t>(ip, 1); }),
              [](int64_t a, int64_t b) { return a + b; });
        });
        auto num_bounces = Timed(&s->count, [&] {
          return core::LiftedCount(core::LiftedFilter(
              counts_per_ip,
              [](const std::pair<Ip, int64_t>& p) { return p.second == 1; }));
        });
        auto distinct =
            Timed(&s->distinct, [&] { return core::LiftedDistinct(group); });
        auto num_total =
            Timed(&s->count, [&] { return core::LiftedCount(distinct); });
        return Timed(&s->scalar_op, [&] {
          return core::BinaryScalarOp(
              num_bounces, num_total, [](int64_t b, int64_t t) {
                return t == 0 ? 0.0
                              : static_cast<double>(b) /
                                    static_cast<double>(t);
              });
        });
      });
  auto keyed = Timed(&s->scalar_op,
                     [&] { return core::ZipWithKeys(nested.keys(), rates); });
  return Timed(&s->collect, [&] { return engine::Collect(keyed); });
}

}  // namespace

RunResult RunBounceRate(const Args& args, bool spill) {
  // In memory: 2M visits. Spilling: 1M visits under a 4 MB real budget,
  // far below the keyed builds' working set, so every build spills.
  const int64_t visits =
      args.smoke ? 20000 : (spill ? int64_t{1} << 20 : int64_t{2} << 20);
  BatchWorkload<datagen::Visit> w;
  w.config = PooledPaperCluster();
  if (spill) w.config.real_memory_budget_bytes = args.smoke ? 64 << 10 : 4 << 20;
  w.generate = [&] {
    return datagen::GenerateVisits(visits, kDays, kDayZipf, kBounceFraction,
                                   args.seed);
  };
  w.run = [](engine::Cluster* c, const engine::Bag<datagen::Visit>& bag) {
    return workloads::RunBounceRate(c, bag, workloads::Variant::kMatryoshka);
  };
  w.reference = workloads::BounceRateReference;
  w.replay = [](engine::Cluster* c, const engine::Bag<datagen::Visit>& bag,
                Spans* s) {
    PerGroup got = ReplayBounceRate(bag, s);
    return c->ok() ? got : PerGroup{};
  };
  return MeasureBatch(args, w);
}

RunResult RunPageRank(const Args& args) {
  constexpr int64_t kGroups = 64;
  constexpr int64_t kVerticesPerGroup = 2000;
  const int64_t edges = args.smoke ? 4000 : 300000;
  const workloads::PageRankParams params;  // 10 iterations, damping 0.85
  BatchWorkload<std::pair<int64_t, datagen::Edge>> w;
  w.config = PooledPaperCluster();
  w.generate = [&] {
    return datagen::GenerateGroupedEdges(edges, kGroups, kVerticesPerGroup,
                                         /*zipf_s=*/0.0, args.seed);
  };
  w.run = [&](engine::Cluster* c,
              const engine::Bag<std::pair<int64_t, datagen::Edge>>& bag) {
    return workloads::RunPageRank(c, bag, params,
                                  workloads::Variant::kMatryoshka);
  };
  w.reference = [&](const std::vector<std::pair<int64_t, datagen::Edge>>& e) {
    return workloads::PageRankReference(e, params);
  };
  return MeasureBatch(args, w);
}

}  // namespace matryoshka::perfbench
