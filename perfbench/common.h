#ifndef MATRYOSHKA_PERFBENCH_COMMON_H_
#define MATRYOSHKA_PERFBENCH_COMMON_H_

// Shared plumbing of the perfbench binary: arguments, real-clock timing,
// per-run peak RSS, the metric table every workload reports into, and the
// result line. See README.md in this directory for what each metric means.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/cluster.h"

namespace matryoshka::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs, one job, every check on: the benchmark's own self-test.
  bool smoke = false;
};

/// Seconds on the steady clock since an arbitrary origin.
double NowSeconds();

/// CPU seconds (user + system) the whole process has used so far.
double ProcessCpuSeconds();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// next PeakRssMb() reads the peak of what ran in between. Returns false
/// when the kernel refuses (then PeakRssMb() is the process-lifetime peak).
bool ResetPeakRss();
double PeakRssMb();

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

/// The engine::Metrics fields compared bit for bit (doubles by their bits).
bool SameMetrics(const engine::Metrics& a, const engine::Metrics& b);

/// Result of one benchmark invocation. `metrics` is keyed by the names in
/// kEndToEnd / kPerLayer; ResultJson() emits exactly the table for the mode.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// For the signature line.
  int pool_threads = 0;
  int serving_workers = 0;

  /// Counts one checked operation; a false `ok` marks it failed.
  void Check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  void Set(const std::string& name, double value) { metrics[name] = value; }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric; each workload must set all of them.
extern const std::vector<MetricSpec> kEndToEnd;
/// Every per-layer metric; a layer a workload does not exercise reads 0.
extern const std::vector<MetricSpec> kPerLayer;

/// Host and build signature line (one JSON object) printed before the
/// result so rows from different machines are never compared blindly.
std::string SignatureJson(const Args& args, int pool_threads,
                          int serving_workers);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& r, bool trace);

/// Share of all CPU time the hypervisor stole from this machine since the
/// first call (the first call returns 0). Timings of a run with a large
/// share describe the host more than the program.
double StolenCpuShare();

/// Threads the benchmark may use in total: the CPUs this process may run
/// on (sched_getaffinity), which is what `nproc` prints.
int UsableCpus();

// Workload entry points (batch.cc, serving.cc).
RunResult RunBounceRate(const Args& args, bool spill);
RunResult RunPageRank(const Args& args);
RunResult RunServing(const Args& args);

}  // namespace matryoshka::perfbench

#endif  // MATRYOSHKA_PERFBENCH_COMMON_H_
