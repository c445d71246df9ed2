#ifndef MATRYOSHKA_ENGINE_PARALLEL_SHUFFLE_H_
#define MATRYOSHKA_ENGINE_PARALLEL_SHUFFLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoints.h"
#include "common/hash.h"
#include "common/sizing.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/external/memory_budget.h"
#include "engine/external/serde.h"
#include "engine/external/spill_file.h"

/// The deterministic shuffle kernel: every wide operator's data movement
/// (Repartition, PartitionByKey, the ReduceByKey / Distinct reduce-side
/// scatters, both join sides, Subtract, Intersection) funnels through
/// ParallelScatter below, for every real memory budget.
///
/// Determinism contract (locked by engine_parallel_determinism_test and
/// engine_external_test): the output is BIT-IDENTICAL — contents and
/// element order per partition — to the reference sequential scatter loop
///
///   for (p in input partition order)
///     for (x in inputs[p] in element order)
///       out[part_of(x)].push_back(x)
///
/// for every pool size, including no pool at all, and every per-producer
/// byte quota. The kernel achieves this with the two-phase partitioned
/// layout of cache-conscious radix join / sort-shuffle writers:
///
///  Phase 1 (parallel across input partitions / "producers"): each producer
///  scans its elements once to count per-bucket occupancy (the counting
///  pre-pass, which remembers every element's destination). Under a bounded
///  quota it then walks its elements summing EstimateSize; whenever the sum
///  reaches the quota, the elements since the previous flush are serialized
///  grouped by bucket, in stream order within a bucket, into one "run"
///  appended to the producer's own unlinked temp file (created by its first
///  flush), and the sum resets. The flush points depend only on producer
///  p's elements and the quota — never on thread timing. The elements after
///  the last flush (all of them when unbounded) are prefix-summed into
///  bucket offsets and written grouped by bucket into one contiguous
///  scratch vector: one exact reservation per producer, no push_back
///  growth, input order within each (producer, bucket) pair.
///
///  Phase 2 (parallel across output partitions): each output partition
///  reserves its exact total size and takes the producers in ascending
///  order: each producer's runs in chronological order, then its scratch
///  bucket, moved out.
///
/// Within a producer, runs cover consecutive stretches of its stream and
/// the residue is the last stretch, and phase 2 concatenates in producer
/// order, so the result equals the sequential loop's regardless of the
/// quota or of which thread ran what when.
///
/// Real-fault hardening (DESIGN.md, "The real-fault contract"): every run
/// segment carries a checksum computed over its bytes BEFORE they left
/// memory and verified on merge-on-read; every IO failure surfaces as a
/// typed Status instead of aborting. Each producer (phase 1) and each
/// bucket (phase 2) records its own first failure; the kernel reports the
/// failure of the lowest producer index, then the lowest bucket index —
/// independent of thread timing. The inputs are never touched, so the
/// caller (BudgetedScatter in shuffle.h) can re-run the scatter in memory.
/// Temp files are closed (freeing the blocks) when the kernel returns, on
/// every path — see SpillFile's cleanup contract.
namespace matryoshka::engine::internal {

namespace scatter_detail {

/// One bucket's segment of one flushed run in a producer's spill file.
/// Checksums live in memory (trusted); only the bytes round-trip the disk.
struct RunSegment {
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint32_t count = 0;
  uint64_t checksum = 0;
};

template <typename T>
struct Producer {
  /// Destination bucket of every element (the counting pre-pass).
  std::vector<uint32_t> dest;
  /// Residue bucket b is scratch[off[b], off[b + 1]).
  std::vector<std::size_t> off;
  std::vector<T> scratch;
  /// Flushed runs, chronological: runs[r * num_parts + b] is run r's
  /// bucket-b segment. Empty when nothing spilled.
  std::vector<RunSegment> runs;
  /// Created by the first flush: a producer that never fills its quota
  /// touches no file.
  std::unique_ptr<external::SpillFile> file;
  external::SpillStats stats;
  /// First IO/alloc failure of this producer's own stream (phase 1).
  Status status;
};

/// Walks producer `p`'s stream under `quota`. Each time the estimated bytes
/// since the last flush reach it, those elements become one run: grouped
/// by bucket (stream order within a bucket), serialized, appended to the
/// producer's spill file and taken out of the residue counts
/// `pr->off[b + 1]`. Returns the index of the first residue element; a
/// failure lands in pr->status.
template <typename T>
std::size_t SpillRuns(std::size_t p, const std::vector<T>& in,
                      std::size_t num_parts, std::size_t quota,
                      const FailpointRegistry* fp, Producer<T>* pr) {
  // Counting-sort state of one run: after the sort, order[k] for k in
  // [end[b - 1], end[b]) are the run's bucket-b elements, in stream order.
  std::vector<std::size_t> end(num_parts + 1);
  std::vector<std::size_t> order;
  std::string buf;
  auto flush = [&](std::size_t lo, std::size_t hi) -> Status {
    // Real scratch charge point: injected allocation failure surfaces
    // here, before the serialization buffers grow.
    if (fp != nullptr && fp->armed() &&
        fp->Fires(p, kFpAlloc, static_cast<uint64_t>(pr->stats.spill_events),
                  fp->plan().alloc_failure_prob)) {
      pr->stats.io_faults_injected += 1;
      return Status::OutOfMemory(
          "injected allocation failure charging scatter scratch");
    }
    std::fill(end.begin(), end.end(), 0);
    for (std::size_t j = lo; j < hi; ++j) ++end[pr->dest[j] + 1];
    for (std::size_t b = 1; b <= num_parts; ++b) end[b] += end[b - 1];
    order.resize(hi - lo);
    for (std::size_t j = lo; j < hi; ++j) order[end[pr->dest[j]]++] = j;
    const std::size_t first_seg = pr->runs.size();
    pr->runs.resize(first_seg + num_parts);
    RunSegment* run = pr->runs.data() + first_seg;
    buf.clear();
    for (std::size_t b = 0, k = 0; b < num_parts; ++b) {
      const uint64_t at = buf.size();
      const std::size_t count = end[b] - k;
      for (; k < end[b]; ++k) {
        external::SpillSerde<T>::Write(in[order[k]], &buf);
      }
      run[b].offset = at;  // relative; rebased below
      run[b].bytes = buf.size() - at;
      run[b].count = static_cast<uint32_t>(count);
      // Checksum over the segment's serialized bytes, in memory, before
      // the write: disk contents must reproduce exactly this.
      run[b].checksum =
          HashBytes(buf.data() + at, static_cast<std::size_t>(run[b].bytes));
      pr->off[b + 1] -= count;
      pr->stats.spill_runs += count > 0 ? 1 : 0;
    }
    if (pr->file == nullptr) {
      pr->file = std::make_unique<external::SpillFile>();
      pr->file->Arm(fp, /*stream_id=*/p);
    }
    uint64_t base = 0;
    MATRYOSHKA_RETURN_NOT_OK(pr->file->Write(buf, &base, &pr->stats));
    for (std::size_t b = 0; b < num_parts; ++b) run[b].offset += base;
    pr->stats.spill_events += 1;
    pr->stats.spilled_bytes += static_cast<double>(buf.size());
    return Status::OK();
  };
  std::size_t buffered = 0;
  std::size_t lo = 0;
  for (std::size_t j = 0; j < in.size(); ++j) {
    buffered += EstimateSize(in[j]);
    // >= so a zero quota still makes progress (one element per run).
    if (buffered < quota) continue;
    pr->status = flush(lo, j + 1);
    if (!pr->status.ok()) break;
    lo = j + 1;
    buffered = 0;
  }
  return lo;
}

/// Appends bucket `b` of every run of `pr`, chronologically, to `dst`,
/// verifying each segment's checksum as it reads.
template <typename T>
Status ReadRuns(const Producer<T>& pr, std::size_t b, std::size_t num_parts,
                std::vector<T>* dst, external::SpillStats* stats) {
  std::string buf;
  for (std::size_t s = b; s < pr.runs.size(); s += num_parts) {
    const RunSegment& seg = pr.runs[s];
    if (seg.count == 0) continue;
    MATRYOSHKA_RETURN_NOT_OK(
        pr.file->ReadRun(seg.offset, static_cast<std::size_t>(seg.bytes),
                         seg.checksum, &buf, stats));
    const char* rp = buf.data();
    const char* rend = buf.data() + buf.size();
    for (uint32_t i = 0; i < seg.count; ++i) {
      dst->push_back(external::SpillSerde<T>::Read(&rp, rend));
    }
  }
  return Status::OK();
}

}  // namespace scatter_detail

/// Redistributes `inputs` into `num_parts` buckets by `part_of(element)`
/// (which must be pure and return a value in [0, num_parts)) into `*out`.
/// Elements are copied out of `inputs`; T must be default-constructible
/// (scratch storage) — true of every bag element type the engine shuffles.
///
/// `quota` is each producer's scratch budget in estimated bytes; SIZE_MAX
/// never spills, and so does any quota when T is not spillable. The
/// unbounded scatter cannot fail. Spill counters are reduced into `*stats`
/// in ascending producer order, then ascending bucket order, on the calling
/// thread; `*out` is unspecified when the returned Status is not OK.
template <typename T, typename PartOf>
Status ParallelScatter(ThreadPool* pool,
                       const std::vector<std::vector<T>>& inputs,
                       std::size_t num_parts, const PartOf& part_of,
                       std::size_t quota, const FailpointRegistry* fp,
                       external::SpillStats* stats,
                       std::vector<std::vector<T>>* out) {
  out->assign(num_parts, {});
  const std::size_t producers = inputs.size();
  if (producers == 0 || num_parts == 0) return Status::OK();
  const bool bounded = external::kSpillable<T> && quota != SIZE_MAX;

  if (!bounded && (pool == nullptr || pool->num_threads() < 2)) {
    // Single-threaded fast path (also taken when the pool cannot provide
    // two concurrent workers, where the two-phase layout's extra copy can
    // never pay for itself): same counting pre-pass (destinations are
    // hashed once and remembered), exact reservation of every output
    // partition, then ONE copy pass straight into the outputs — strictly
    // less work than the two-phase layout, identical results by the same
    // ordering argument (producers ascending, element order within).
    std::vector<std::vector<uint32_t>> dests(producers);
    std::vector<std::size_t> counts(num_parts, 0);
    for (std::size_t p = 0; p < producers; ++p) {
      const std::vector<T>& in = inputs[p];
      std::vector<uint32_t>& dest = dests[p];
      dest.resize(in.size());
      for (std::size_t j = 0; j < in.size(); ++j) {
        dest[j] = static_cast<uint32_t>(part_of(in[j]));
        ++counts[dest[j]];
      }
    }
    for (std::size_t b = 0; b < num_parts; ++b) (*out)[b].reserve(counts[b]);
    for (std::size_t p = 0; p < producers; ++p) {
      const std::vector<T>& in = inputs[p];
      const std::vector<uint32_t>& dest = dests[p];
      for (std::size_t j = 0; j < in.size(); ++j) {
        (*out)[dest[j]].push_back(in[j]);
      }
    }
    return Status::OK();
  }

  // Phase 1: counting pre-pass, runs under the quota, then the residue
  // grouped by bucket into contiguous scratch. A producer that hits a hard
  // IO/alloc fault records it and stops feeding its own stream (the whole
  // scatter is void on failure anyway); other producers run to completion,
  // keeping every per-producer counter a pure function of its own input.
  std::vector<scatter_detail::Producer<T>> state(producers);
  ParallelFor(pool, producers, [&](std::size_t p) {
    scatter_detail::Producer<T>& pr = state[p];
    const std::vector<T>& in = inputs[p];
    std::vector<uint32_t>& dest = pr.dest;
    dest.resize(in.size());
    std::vector<std::size_t>& off = pr.off;
    off.assign(num_parts + 1, 0);
    for (std::size_t j = 0; j < in.size(); ++j) {
      dest[j] = static_cast<uint32_t>(part_of(in[j]));
      ++off[dest[j] + 1];
    }
    std::size_t first = 0;
    if constexpr (external::kSpillable<T>) {
      if (bounded) {
        first = scatter_detail::SpillRuns(p, in, num_parts, quota, fp, &pr);
        if (!pr.status.ok()) return;
      }
    }
    for (std::size_t b = 1; b <= num_parts; ++b) off[b] += off[b - 1];
    std::vector<std::size_t> cursor(off.begin(), off.end() - 1);
    std::vector<T>& sc = pr.scratch;
    sc.resize(in.size() - first);
    for (std::size_t j = first; j < in.size(); ++j) {
      sc[cursor[dest[j]]++] = in[j];
    }
  });

  // First failure by ascending producer index: deterministic for any pool.
  Status failure;
  for (const auto& pr : state) {
    if (!pr.status.ok()) {
      failure = pr.status;
      break;
    }
  }

  // Phase 2: exact-reserve + concatenate in producer order, each producer's
  // runs before its residue. Distinct output partitions touch disjoint
  // scratch ranges and read with positional pread, so concurrent phase-2
  // tasks never share mutable state.
  std::vector<Status> bucket_status(bounded ? num_parts : 0);
  std::vector<external::SpillStats> bucket_stats(bounded ? num_parts : 0);
  if (failure.ok()) {
    ParallelFor(pool, num_parts, [&](std::size_t b) {
      std::size_t total = 0;
      for (const auto& pr : state) {
        total += pr.off[b + 1] - pr.off[b];
        for (std::size_t s = b; s < pr.runs.size(); s += num_parts) {
          total += pr.runs[s].count;
        }
      }
      std::vector<T>& dst = (*out)[b];
      dst.reserve(total);
      for (auto& pr : state) {
        if constexpr (external::kSpillable<T>) {
          if (!pr.runs.empty()) {
            bucket_status[b] = scatter_detail::ReadRuns(pr, b, num_parts, &dst,
                                                        &bucket_stats[b]);
            if (!bucket_status[b].ok()) return;
          }
        }
        auto begin =
            pr.scratch.begin() + static_cast<std::ptrdiff_t>(pr.off[b]);
        auto end =
            pr.scratch.begin() + static_cast<std::ptrdiff_t>(pr.off[b + 1]);
        dst.insert(dst.end(), std::make_move_iterator(begin),
                   std::make_move_iterator(end));
      }
    });
    for (const Status& st : bucket_status) {
      if (!st.ok()) {
        failure = st;
        break;
      }
    }
  }

  // Driver-side reduction: producers ascending, then buckets ascending —
  // deterministic totals for any pool size.
  for (const auto& pr : state) stats->Add(pr.stats);
  for (const auto& s : bucket_stats) stats->Add(s);
  return failure;
}

}  // namespace matryoshka::engine::internal

#endif  // MATRYOSHKA_ENGINE_PARALLEL_SHUFFLE_H_
