// perfbench: real-clock benchmark of the paper's workloads.
//
//   perfbench --workload <bounce_rate|bounce_rate_spill|pagerank|serving>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints a host/build signature line, then one JSON result line. run.py
// builds this binary and is the command BENCHMARK.json names.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/common.h"

namespace matryoshka::perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"job_s", "s"},       {"setup_s", "s"},        {"peak_rss_mb", "MB"},
    {"simulated_s", "s"}, {"p50_ms", "ms"},        {"saturation_rps", "1/s"},
};

// p99_ms leads this table, not the end-to-end one: on a shared VM its
// run-to-run spread exceeds any allowed regression bound (README.md).
const std::vector<MetricSpec> kPerLayer = {
    {"p99_ms", "ms"},
    {"datagen.generate_s", "s"},
    {"engine.parallelize_s", "s"},
    {"core.group_s", "s"},
    {"core.reduce_by_key_s", "s"},
    {"core.distinct_s", "s"},
    {"core.count_s", "s"},
    {"core.scalar_op_s", "s"},
    {"engine.collect_s", "s"},
    {"engine.jobs", "count"},
    {"engine.stages", "count"},
    {"engine.tasks", "count"},
    {"proc.cpu_s", "s"},
    {"pool.serial_job_s", "s"},
    {"pool.speedup", "x"},
    {"engine.real_spilled_mb", "MB"},
    {"engine.real_spill_runs", "count"},
    {"engine.real_spill_events", "count"},
    {"engine.native_iterations", "count"},
    {"engine.hoisted_broadcast_reuses", "count"},
    {"engine.convergence_checks_in_engine", "count"},
    {"engine.shuffle_mb", "MB"},
    {"engine.broadcast_mb", "MB"},
    {"engine.elements_processed", "count"},
    {"serve.queue_ms", "ms"},
    {"serve.execute_ms", "ms"},
    {"serve.complete_ms", "ms"},
    {"lang.execute_ms", "ms"},
    {"lang.rewrite_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.max_queue_depth", "count"},
    {"serve.gen_late_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"warmup_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

bool ResetPeakRss() {
  // "5" resets the peak resident set size (VmHWM) to the current RSS.
  std::ofstream os("/proc/self/clear_refs");
  if (!os) return false;
  os << "5";
  os.flush();
  return static_cast<bool>(os);
}

double PeakRssMb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool SameMetrics(const engine::Metrics& a, const engine::Metrics& b) {
  auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  return same(a.simulated_time_s, b.simulated_time_s) && a.jobs == b.jobs &&
         a.stages == b.stages && a.tasks == b.tasks &&
         a.elements_processed == b.elements_processed &&
         same(a.shuffle_bytes, b.shuffle_bytes) &&
         same(a.broadcast_bytes, b.broadcast_bytes) &&
         same(a.spilled_bytes, b.spilled_bytes) &&
         a.spill_events == b.spill_events &&
         same(a.peak_task_bytes, b.peak_task_bytes) &&
         same(a.peak_machine_bytes, b.peak_machine_bytes) &&
         a.failed_tasks == b.failed_tasks &&
         a.task_retries == b.task_retries &&
         a.speculative_launches == b.speculative_launches &&
         a.machines_lost == b.machines_lost &&
         same(a.recovery_time_s, b.recovery_time_s) &&
         a.checkpoints_written == b.checkpoints_written &&
         same(a.checkpoint_bytes, b.checkpoint_bytes) &&
         a.driver_retries == b.driver_retries &&
         a.plan_fallbacks == b.plan_fallbacks &&
         same(a.real_spilled_bytes, b.real_spilled_bytes) &&
         a.real_spill_events == b.real_spill_events &&
         a.real_spill_runs == b.real_spill_runs &&
         a.real_io_faults_injected == b.real_io_faults_injected &&
         a.real_io_retries == b.real_io_retries &&
         a.checksum_failures == b.checksum_failures &&
         a.inmemory_fallbacks == b.inmemory_fallbacks &&
         a.native_iterations == b.native_iterations &&
         a.hoisted_broadcast_reuses == b.hoisted_broadcast_reuses &&
         a.convergence_checks_in_engine == b.convergence_checks_in_engine;
}

double StolenCpuShare() {
  // /proc/stat "cpu" line: user nice system idle iowait irq softirq steal.
  std::ifstream is("/proc/stat");
  std::string cpu;
  double field = 0, total = 0, steal = 0;
  is >> cpu;
  for (int i = 0; i < 8 && is >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  static const double steal0 = steal, total0 = total;
  return total > total0 ? (steal - steal0) / (total - total0) : 0.0;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Filesystem type of `path`, by statfs magic number.
std::string FsType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace

std::string SignatureJson(const Args& args, int pool_threads,
                          int serving_workers) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string tmpdir = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  std::ostringstream os;
  os << "{\"signature\": {"
     << "\"workload\": " << Quoted(args.workload)
     << ", \"seed\": " << args.seed << ", \"seconds\": " << Num(args.seconds)
     << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"smoke\": " << (args.smoke ? "true" : "false")
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"nproc\": " << UsableCpus()
     << ", \"build_type\": " << Quoted(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << Quoted(kCompiler)
     << ", \"pool_threads\": " << pool_threads
     << ", \"serving_workers\": " << serving_workers
     << ", \"tmpdir\": " << Quoted(tmpdir)
     << ", \"tmpdir_fs\": " << Quoted(FsType(tmpdir))
     << ", \"peak_rss_isolated\": " << (ResetPeakRss() ? "true" : "false")
     << ", \"host_steal_pct\": " << Num(100.0 * StolenCpuShare())
     << "}}";
  return os.str();
}

std::string ResultJson(const RunResult& r, bool trace) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : trace ? kPerLayer : kEndToEnd) {
    auto it = r.metrics.find(spec.name);
    // A per-layer metric of a layer this workload never calls reads 0; an
    // end-to-end metric is always measured.
    if (it == r.metrics.end() && !trace) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   spec.name);
      std::exit(3);
    }
    const double value = it == r.metrics.end() ? 0.0 : it->second;
    if (!first) os << ", ";
    first = false;
    os << Quoted(spec.name) << ": {\"value\": " << Num(value)
       << ", \"unit\": " << Quoted(spec.unit) << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace matryoshka::perfbench

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<bounce_rate|bounce_rate_spill|pagerank|serving> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace matryoshka::perfbench;
  StolenCpuShare();  // starts the window the signature reports
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }

  RunResult result;
  if (args.workload == "bounce_rate") {
    result = RunBounceRate(args, /*spill=*/false);
  } else if (args.workload == "bounce_rate_spill") {
    result = RunBounceRate(args, /*spill=*/true);
  } else if (args.workload == "pagerank") {
    result = RunPageRank(args);
  } else if (args.workload == "serving") {
    result = RunServing(args);
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (result.attempted < 1) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 3;
  }
  std::printf("%s\n", SignatureJson(args, result.pool_threads,
                                    result.serving_workers)
                          .c_str());
  std::printf("%s\n", ResultJson(result, args.trace).c_str());
  return 0;
}
