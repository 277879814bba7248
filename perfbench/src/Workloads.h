//===- perfbench/src/Workloads.h - The four benchmark workloads -*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the workloads and the helpers they share.  An untraced
/// run sets up several times (setup_s is the median), then measures for
/// the requested time and fills every end-to-end metric.  A traced run
/// sets up once, measures half the time untraced and half traced, and
/// fills every per-layer metric its workload exercises, plus the tracing
/// overhead (traced versus untraced operation time) and the share of
/// operation time no layer span covers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Spans.h"

namespace pb {

RunResult runCompile(const RunOptions &O);
RunResult runMarshal(const RunOptions &O);
RunResult runRpcBulk(const RunOptions &O);
RunResult runRpcOpen(const RunOptions &O);

/// How many times an untraced run repeats its set-up.
constexpr int SetupReps = 9;

/// Runs \p Fn untimed for SetupWarmNs (at least once), then \p Reps times
/// timed, and returns the median duration in seconds.  A set-up takes a
/// few milliseconds, and a CPU that was idle runs the first tens of
/// milliseconds of work up to 1.5x slower on a virtualized host, so
/// timing from a cold start measures how long the CPU had idled.
template <typename Fn> double medianSetupSeconds(int Reps, Fn &&F) {
  constexpr uint64_t SetupWarmNs = 100000000;
  uint64_t WarmEnd = nowNs() + SetupWarmNs;
  do
    F();
  while (nowNs() < WarmEnd);
  std::vector<double> Secs;
  for (int I = 0; I != Reps; ++I) {
    uint64_t T0 = nowNs();
    F();
    Secs.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
  }
  return medianOf(Secs);
}

/// The process's peak resident set so far, in MB.
double peakRssMb();

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per StepNs, and restores its CPU mask when destroyed.  On a
/// shared host each core's speed drifts with what its neighbours run; a
/// single-threaded workload that stayed on one core would report that
/// core's luck, one that rotates reports the host's average.
class CpuRotation {
public:
  /// 100 ms: long next to a migration's cache refill, short next to the
  /// seconds a core's speed drifts for.
  static constexpr uint64_t StepNs = 100000000;

  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Moves to the next CPU when a step has passed since the last move.
  void tick(uint64_t NowNs);

private:
  uint64_t NextNs = 0;
  std::vector<int> Cpus;
  size_t Pos = 0;
  std::vector<unsigned char> Saved; ///< the original cpu_set_t
};

/// Adds the end-to-end latency metrics and their sample-count note.
void reportLatency(RunResult &R, const SliceReport &S);

/// Adds trace.overhead_frac and trace.unattributed_frac: \p BaseOpUs and
/// \p TracedOpUs are operation times of the untraced and traced halves,
/// measured alike (mean or median); the unattributed share is the self time of \p T's "op" roots
/// over their total.
void reportTraceIntegrity(RunResult &R, double BaseOpUs, double TracedOpUs,
                          const Tracer &T);

/// Writes the traced run's spans to <TraceDir>/<Workload>.json and
/// notes where; a write failure is only noted (the metrics stand).
void saveTrace(RunResult &R, const RunOptions &O, const char *Workload,
               const std::vector<const Tracer *> &Tracers);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
