// Serving workload: an open-loop generator offers a fixed schedule of
// Bounce Rate requests to serve::ServingDriver at a fixed rate. Each request
// runs the src/lang surface program (parsing phase + lowering phase) over
// its own window of a seeded visit log, so repeated parameter points hit
// the memo cache and fresh ones compute. See README.md.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "datagen/datagen.h"
#include "engine/bag.h"
#include "lang/expr.h"
#include "lang/lowering_phase.h"
#include "lang/parsing_phase.h"
#include "lang/value.h"
#include "perfbench/common.h"
#include "serve/registry.h"
#include "serve/serving_driver.h"
#include "workloads/bounce_rate.h"

namespace matryoshka::perfbench {
namespace {

using lang::Value;

// Two serving workers; each also runs its request's partition tasks, so
// with the engine pool they make `nproc - 1` busy threads, leaving one CPU
// to the generator and the host.
constexpr int kWorkers = 2;
// Each parameter point is its own window of the base log.
constexpr int64_t kWindowVisits = 4000;
constexpr int64_t kWindowStride = 97;
constexpr int64_t kDays = 8;
// Share of requests that repeat an earlier point (memo-cache hits when
// the earlier request has completed). Below one half, so p50 is a computed
// request, not a cache hit.
constexpr double kRepeatShare = 0.3;
// A repeat targets a point first sent at least this many requests earlier.
constexpr int kRepeatGap = 32;
// Set-up repetitions per run (set-up takes milliseconds); setup_s is their
// median.
constexpr int kSetupReps = 9;
// Saturation-phase repeats per run; job_s is their median.
constexpr int kSaturationReps = 3;
// Generator lateness beyond which the run is invalid, not slow.
constexpr double kMaxGenLateMs = 50.0;

/// Listing 1 in the lang IR: per-day bounce rate of the `visits` source.
lang::Program BounceRateProgram() {
  using namespace lang;
  using B = BinOpKind;
  Program p;
  p.stmts.push_back(Stmt{"visitsPerDay", GroupByKey(Source("visits"))});
  std::vector<Stmt> body;
  body.push_back(Stmt{
      "countsPerIP",
      ReduceByKey(Map(Var("group"),
                      Lam("ip", MakeTuple({Var("ip"), Lit(Value(1))}))),
                  Lam2("a", "b", BinOp(B::kAdd, Var("a"), Var("b"))))});
  body.push_back(Stmt{
      "numBounces",
      Count(Filter(Var("countsPerIP"),
                   Lam("p", BinOp(B::kEq, Field(Var("p"), 1),
                                  Lit(Value(1))))))});
  body.push_back(Stmt{"numTotal", Count(Distinct(Var("group")))});
  p.stmts.push_back(
      Stmt{"rates", Map(Var("visitsPerDay"),
                        LamProgram({"day", "group"}, std::move(body),
                                   BinOp(B::kDiv, Var("numBounces"),
                                         Var("numTotal"))))});
  p.result = "rates";
  return p;
}

/// Time stamps one plan-body execution records about itself.
struct BodyRecord {
  int64_t point = 0;
  double entry = 0, exit = 0;
  double parallelize_s = 0, rewrite_s = 0, execute_s = 0;
};

/// Immutable inputs shared by every request, plus the (locked) stamp sink.
struct Inputs {
  std::vector<Value> rows;   // base log as (day, ip) tuples
  int64_t num_points = 0;    // windows of `rows`
  lang::Program program = BounceRateProgram();
  bool stamp = false;        // record BodyRecords (traced runs only)
  mutable std::mutex mu;
  mutable std::vector<BodyRecord> records;
};

serve::PlanSpec BounceRateSpec(std::shared_ptr<const Inputs> in) {
  serve::PlanSpec spec;
  spec.name = "bounce_rate";
  spec.description = "per-day bounce rate of one visit-log window (lang)";
  for (const Value& v : in->rows) {
    spec.input_fingerprint =
        Mix64(spec.input_fingerprint ^ static_cast<uint64_t>(v.HashValue()));
  }
  spec.body = [in](engine::Cluster* c,
                   const serve::PlanParams& params) -> serve::PlanOutput {
    BodyRecord rec;
    rec.entry = NowSeconds();
    rec.point = params.GetInt("point", -1);
    if (rec.point < 0 || rec.point >= in->num_points) {
      c->Fail(Status::InvalidArgument("no such parameter point"));
      return {};
    }
    const auto first = in->rows.begin() + rec.point * kWindowStride;
    engine::Bag<Value> bag = engine::Parallelize(
        c, std::vector<Value>(first, first + kWindowVisits));
    const double t1 = NowSeconds();
    lang::ParsingPhase parser;
    Result<lang::Program> plan = parser.Rewrite(in->program);
    const double t2 = NowSeconds();
    if (!plan.ok()) {
      c->Fail(plan.status());
      return {};
    }
    lang::LoweringPhase lowering(c);
    lowering.BindSource("visits", std::move(bag));
    Result<std::vector<Value>> rates = lowering.Execute(*plan);
    const double t3 = NowSeconds();
    if (!rates.ok()) {
      c->Fail(rates.status());
      return {};
    }
    serve::PlanOutput out;
    out.partitions.push_back(std::move(*rates));
    rec.exit = NowSeconds();
    rec.parallelize_s = t1 - rec.entry;
    rec.rewrite_s = t2 - t1;
    rec.execute_s = t3 - t2;
    if (in->stamp) {
      std::lock_guard<std::mutex> lock(in->mu);
      in->records.push_back(rec);
    }
    return out;
  };
  return spec;
}

struct Request {
  int64_t point = 0;
  double due_s = 0;  // offset from the schedule's start
};

/// The fixed send schedule: `n` requests `1/rate` apart. A request repeats
/// an earlier point with probability kRepeatShare, else takes a fresh one.
std::vector<Request> MakeSchedule(int n, double rate, uint64_t seed,
                                  int64_t* points_used) {
  std::mt19937_64 rng(seed ^ 0x5e4f1ce5ULL);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Request> reqs;
  std::vector<int64_t> first_sent;  // request index that introduced point p
  int64_t eligible = 0;  // points introduced at least kRepeatGap ago
  for (int i = 0; i < n; ++i) {
    Request r;
    r.due_s = i / rate;
    while (eligible < static_cast<int64_t>(first_sent.size()) &&
           first_sent[eligible] + kRepeatGap <= i) {
      ++eligible;
    }
    if (eligible > 0 && unit(rng) < kRepeatShare) {
      r.point = static_cast<int64_t>(rng() % static_cast<uint64_t>(eligible));
    } else {
      r.point = static_cast<int64_t>(first_sent.size());
      first_sent.push_back(i);
    }
    reqs.push_back(r);
  }
  *points_used = static_cast<int64_t>(first_sent.size());
  return reqs;
}

/// Two weighted tenants. A point always maps to the same tenant, so the
/// requests of one point leave their tenant queue in send order.
std::string TenantOf(int64_t point) {
  return point % 3 == 0 ? "batch" : "interactive";
}

engine::ClusterConfig ServedCluster() {
  engine::ClusterConfig cfg = bench::PaperCluster();
  cfg.execute_parallel = true;
  return cfg;
}

int PoolThreads() { return std::max(1, UsableCpus() - kWorkers - 1); }

std::unique_ptr<serve::ServingDriver> MakeDriver(
    const serve::PlanRegistry* registry, int queue_depth) {
  serve::ServingConfig cfg;
  cfg.cluster = ServedCluster();
  cfg.max_in_flight = kWorkers;
  cfg.pool_threads = PoolThreads();
  cfg.max_queue_depth = queue_depth;
  cfg.cache_entries = 1 << 16;  // never evicts within a run
  cfg.tenant_weights = {{"interactive", 2}, {"batch", 1}};
  return std::make_unique<serve::ServingDriver>(registry, cfg);
}

struct Sent {
  double submit = 0;  // absolute steady-clock seconds
  std::shared_ptr<serve::ServeTicket> ticket;
};

struct PhaseOutcome {
  std::vector<Sent> sent;
  double start = 0;
  double makespan_s = 0;  // first send to last completion
  double max_late_ms = 0;
  int64_t max_in_system = 0;
  serve::ServingDriver::Stats stats;
};

/// Sends `schedule` (all at once when `open_rate` is false) and waits for
/// every response.
PhaseOutcome Drive(serve::ServingDriver* driver,
                   const std::vector<Request>& schedule, bool open_rate) {
  PhaseOutcome out;
  out.sent.resize(schedule.size());
  out.start = NowSeconds() + 0.01;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const double due = out.start + (open_rate ? schedule[i].due_s : 0.0);
    const double now = NowSeconds();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
    }
    serve::ServeRequest req;
    req.plan = "bounce_rate";
    req.tenant = TenantOf(schedule[i].point);
    req.params.Set("point", Value(schedule[i].point));
    out.sent[i].submit = NowSeconds();
    out.max_late_ms =
        std::max(out.max_late_ms, 1e3 * (out.sent[i].submit - due));
    out.sent[i].ticket = driver->Submit(std::move(req));
    if (open_rate) {
      const serve::ServingDriver::Stats s = driver->GetStats();
      out.max_in_system = std::max(out.max_in_system, s.accepted - s.completed);
    }
  }
  double last = out.start;
  for (Sent& s : out.sent) {
    last = std::max(last, s.submit + s.ticket->Wait().wall_s);
  }
  out.makespan_s = last - out.start;
  out.stats = driver->GetStats();
  return out;
}

/// Per-point expected rates, computed once outside timing.
std::vector<std::map<int64_t, double>> References(
    const std::vector<datagen::Visit>& log, int64_t num_points) {
  std::vector<std::map<int64_t, double>> refs;
  refs.reserve(static_cast<std::size_t>(num_points));
  for (int64_t p = 0; p < num_points; ++p) {
    const auto first = log.begin() + p * kWindowStride;
    const auto pairs = workloads::BounceRateReference(
        std::vector<datagen::Visit>(first, first + kWindowVisits));
    refs.emplace_back(pairs.begin(), pairs.end());
  }
  return refs;
}

/// Verifies every response of a phase; returns the latencies (ms, from the
/// due time) of the requests that completed correctly.
std::vector<double> CheckPhase(const PhaseOutcome& phase,
                               const std::vector<Request>& schedule,
                               bool open_rate,
                               const std::vector<std::map<int64_t, double>>&
                                   refs,
                               RunResult* out, double* simulated_s) {
  std::vector<double> latency_ms;
  *simulated_s = 0;
  for (std::size_t i = 0; i < phase.sent.size(); ++i) {
    const serve::ServeResponse& resp = phase.sent[i].ticket->Wait();
    bool ok = !resp.rejected && resp.status.ok() &&
              resp.output.partitions.size() == 1;
    if (ok) {
      const auto& want = refs[static_cast<std::size_t>(schedule[i].point)];
      const auto& rows = resp.output.partitions[0];
      ok = rows.size() == want.size();
      for (const Value& row : rows) {
        if (!ok) break;
        auto it = want.find(row.Field(0).AsInt());
        ok = it != want.end() &&
             std::fabs(row.Field(1).AsDouble() - it->second) <= 1e-9;
      }
    }
    out->Check(ok);
    if (!ok) continue;
    *simulated_s += resp.metrics.simulated_time_s;
    const double due = phase.start + (open_rate ? schedule[i].due_s : 0.0);
    latency_ms.push_back(1e3 * (phase.sent[i].submit + resp.wall_s - due));
  }
  return latency_ms;
}

/// Splits each computed request of a traced phase into queue / execute /
/// complete time. Requests of one point share a tenant queue, so they enter
/// the plan body in send order: the k-th computed request of a point
/// matches the k-th body record of that point.
void LayerTimes(const PhaseOutcome& phase,
                const std::vector<Request>& schedule, const Inputs& in,
                RunResult* out) {
  std::map<int64_t, std::vector<std::size_t>> computed;  // point -> sends
  for (std::size_t i = 0; i < phase.sent.size(); ++i) {
    const serve::ServeResponse& resp = phase.sent[i].ticket->Wait();
    if (!resp.rejected && !resp.cache_hit) {
      computed[schedule[i].point].push_back(i);
    }
  }
  std::map<int64_t, std::vector<BodyRecord>> bodies;
  for (const BodyRecord& r : in.records) bodies[r.point].push_back(r);
  std::vector<double> queue, execute, complete, lang_exec, rewrite, parallel;
  for (auto& [point, recs] : bodies) {
    std::sort(recs.begin(), recs.end(),
              [](const BodyRecord& a, const BodyRecord& b) {
                return a.entry < b.entry;
              });
    const std::vector<std::size_t>& sends = computed[point];
    if (sends.size() != recs.size()) continue;  // unmatched: leave out
    for (std::size_t k = 0; k < recs.size(); ++k) {
      const Sent& s = phase.sent[sends[k]];
      const double done = s.submit + s.ticket->Wait().wall_s;
      queue.push_back(1e3 * (recs[k].entry - s.submit));
      execute.push_back(1e3 * (recs[k].exit - recs[k].entry));
      complete.push_back(1e3 * (done - recs[k].exit));
      lang_exec.push_back(1e3 * recs[k].execute_s);
      rewrite.push_back(1e3 * recs[k].rewrite_s);
      parallel.push_back(recs[k].parallelize_s);
    }
  }
  out->Set("serve.queue_ms", Percentile(queue, 0.99));
  out->Set("serve.execute_ms", Median(execute));
  out->Set("serve.complete_ms", Median(complete));
  out->Set("lang.execute_ms", Median(lang_exec));
  out->Set("lang.rewrite_ms", Median(rewrite));
  out->Set("engine.parallelize_s", Median(parallel));
}

}  // namespace

RunResult RunServing(const Args& args) {
  RunResult out;
  out.serving_workers = kWorkers;
  out.pool_threads = PoolThreads();

  // The fixed offered rate is about a third of the saturation rate. At 20 s
  // the schedule has 1040 requests, so p99 has ten samples beyond it; the
  // saturation phase then re-offers it all at once, 1 + kSaturationReps
  // times.
  const double rate = 80.0;
  const int n =
      args.smoke ? 24 : static_cast<int>(0.65 * args.seconds * rate);
  int64_t points = 0;
  const std::vector<Request> schedule = MakeSchedule(n, rate, args.seed,
                                                     &points);

  // Set-up: generate the base log, convert it to lang rows, register the
  // plan, construct the driver (workers + shared pool).
  std::vector<double> setup_s, generate_s;
  std::vector<datagen::Visit> log;
  std::shared_ptr<Inputs> inputs;
  std::unique_ptr<serve::PlanRegistry> registry;
  for (int rep = 0; rep < (args.smoke ? 1 : kSetupReps); ++rep) {
    registry.reset();
    inputs.reset();
    const double t0 = NowSeconds();
    log = datagen::GenerateVisits((points - 1) * kWindowStride + kWindowVisits,
                                  kDays, /*zipf_s=*/1.0,
                                  /*bounce_fraction=*/0.5, args.seed);
    const double t1 = NowSeconds();
    inputs = std::make_shared<Inputs>();
    inputs->num_points = points;
    inputs->rows.reserve(log.size());
    for (const auto& [day, ip] : log) {
      inputs->rows.push_back(Value::MakeTuple({Value(day), Value(ip)}));
    }
    registry = std::make_unique<serve::PlanRegistry>();
    const Status st = registry->Register(BounceRateSpec(inputs));
    MATRYOSHKA_CHECK(st.ok()) << st.ToString();
    auto driver = MakeDriver(registry.get(), n);
    setup_s.push_back(NowSeconds() - t0);
    generate_s.push_back(t1 - t0);
  }
  out.Set("setup_s", Median(setup_s));
  out.Set("datagen.generate_s", Median(generate_s));
  const auto refs = References(log, points);

  // Untimed warm-up on a throwaway driver: the whole schedule at once, so
  // the heap and the page tables reach their working size before timing.
  {
    auto driver = MakeDriver(registry.get(), n);
    const PhaseOutcome warm = Drive(driver.get(), schedule, false);
    double sim = 0;
    CheckPhase(warm, schedule, false, refs, &out, &sim);
    out.Set("warmup_s", warm.makespan_s);
  }

  // Fixed-rate phase: latency from each request's due time.
  inputs->stamp = args.trace;
  ResetPeakRss();
  const PhaseOutcome fixed =
      Drive(MakeDriver(registry.get(), n).get(), schedule, true);
  out.Set("peak_rss_mb", PeakRssMb());
  double simulated_s = 0;
  const std::vector<double> latency =
      CheckPhase(fixed, schedule, true, refs, &out, &simulated_s);
  out.Set("p50_ms", Percentile(latency, 0.5));
  out.Set("p99_ms", Percentile(latency, 0.99));
  out.Set("simulated_s", simulated_s);
  out.Set("serve.cache_hit_ratio",
          static_cast<double>(fixed.stats.cache_hits) /
              static_cast<double>(std::max<int64_t>(1, fixed.stats.completed)));
  out.Set("serve.max_queue_depth", static_cast<double>(fixed.max_in_system));
  out.Set("serve.gen_late_ms", fixed.max_late_ms);
  out.Set("serve.rejected", static_cast<double>(fixed.stats.rejected));
  out.Set("serve.shed", static_cast<double>(fixed.stats.shed));
  const engine::Metrics& agg = fixed.stats.aggregate;
  constexpr double kMb = 1 << 20;
  out.Set("engine.jobs", static_cast<double>(agg.jobs));
  out.Set("engine.stages", static_cast<double>(agg.stages));
  out.Set("engine.tasks", static_cast<double>(agg.tasks));
  out.Set("engine.elements_processed",
          static_cast<double>(agg.elements_processed));
  out.Set("engine.shuffle_mb", agg.shuffle_bytes / kMb);
  out.Set("engine.broadcast_mb", agg.broadcast_bytes / kMb);
  if (args.trace) LayerTimes(fixed, schedule, *inputs, &out);
  if (fixed.max_late_ms > kMaxGenLateMs) {
    // The generator, not the system under test, fell behind: the latencies
    // of this run do not describe the offered rate.
    std::fprintf(stderr,
                 "perfbench: invalid run: generator fell %.1f ms behind\n",
                 fixed.max_late_ms);
    out.correct = false;
  }
  inputs->stamp = false;

  // Saturation phase: the same schedule offered at once to a fresh driver
  // whose queue admits all of it; the median of kSaturationReps repeats.
  std::vector<double> makespan_s, sat_cpu_s;
  for (int rep = 0; rep < (args.smoke ? 1 : kSaturationReps); ++rep) {
    const double cpu0 = ProcessCpuSeconds();
    auto driver = MakeDriver(registry.get(), n);
    const PhaseOutcome sat = Drive(driver.get(), schedule, false);
    sat_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    double sim = 0;
    CheckPhase(sat, schedule, false, refs, &out, &sim);
    makespan_s.push_back(sat.makespan_s);
  }
  const double makespan = Median(makespan_s);
  out.Set("job_s", makespan);
  out.Set("saturation_rps", static_cast<double>(n) / makespan);
  out.Set("proc.cpu_s", Median(sat_cpu_s));
  if (args.trace) {
    // Tracing cost: the saturation phase once more with body stamps on.
    inputs->stamp = true;
    auto driver = MakeDriver(registry.get(), n);
    const PhaseOutcome traced = Drive(driver.get(), schedule, false);
    double sim = 0;
    CheckPhase(traced, schedule, false, refs, &out, &sim);
    out.Set("trace.overhead_pct",
            100.0 * (traced.makespan_s - makespan) / makespan);
  }
  std::fprintf(stderr,
               "perfbench: %d requests at %.0f/s over %lld points, "
               "p50 %.2f ms p99 %.2f ms, saturation %.1f/s\n",
               n, rate, static_cast<long long>(points),
               Percentile(latency, 0.5), Percentile(latency, 0.99),
               n / makespan);
  return out;
}

}  // namespace matryoshka::perfbench
