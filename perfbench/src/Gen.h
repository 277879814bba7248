//===- perfbench/src/Gen.h - Seeded input generators ------------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generators for the benchmark's inputs: the IDL corpus of the
/// compile workload (CORBA IDL, ONC RPC `.x` and MIG `.defs` modules grown
/// by a small rewriting grammar in the spirit of L-system benchmark
/// generation) and the open-loop arrival schedule with its lateness
/// accounting.  The program under test only ever sees what these produce.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include "Common.h"
#include <string>
#include <vector>

namespace pb {

/// One compile-workload input.
struct IdlModule {
  enum Lang { Corba, Onc, Mig };
  Lang L = Corba;
  std::string Name;    ///< file name passed to the front end
  std::string Source;
  std::string Backend; ///< a back end the front end's presentation supports
  /// Operation and type names the generator emitted; each must appear in
  /// the generated header.  Empty for the repository's own idl/ files.
  std::vector<std::string> Names;
  size_t Ops = 0;
};

/// \p PerLang generated modules for each of the three front ends, with
/// operation counts stratified log-uniform over [1, \p MaxOps].  The same
/// seed gives byte-identical sources.
std::vector<IdlModule> generateCorpus(uint64_t Seed, size_t PerLang,
                                      size_t MaxOps);

/// One generated module of \p Ops operations in language \p L, named after
/// \p Index (its back end alternates with the index's parity).  The same
/// arguments give a byte-identical source.
IdlModule generateModule(uint64_t Seed, IdlModule::Lang L, size_t Index,
                         size_t Ops);

/// Reads the repository's idl/ files (fixed back end per front end).
/// Returns false when any listed file is missing.
bool loadRepoIdl(const std::string &Dir, std::vector<IdlModule> &Out);

/// Poisson arrival times at a fixed absolute rate, in nanoseconds since
/// the start of the schedule.
class ArrivalSchedule {
public:
  ArrivalSchedule(uint64_t Seed, double RatePerSec)
      : R(Seed), MeanGapNs(1e9 / RatePerSec) {}

  /// The scheduled time of the next arrival.
  double next() {
    double T = NextNs;
    NextNs += R.exponential(1.0) * MeanGapNs;
    return T;
  }

private:
  Rng R;
  double MeanGapNs;
  double NextNs = 0;
};

/// Open-loop bookkeeping.  Latency runs from the *scheduled* arrival, so a
/// stall that delays later sends is charged to every request it delayed
/// (no coordinated omission); the generator's own lateness (actual send
/// minus scheduled) is kept apart so a slow generator shows.  Times are
/// nanoseconds since the schedule's start; both are summarized per slice
/// of \p SliceNs (see Slicer), latency at the end-to-end tail and lag, a
/// per-layer figure, at p99.
class OpenLoopBook {
public:
  OpenLoopBook(double SliceNs, bool KeepAll)
      : Latency(SliceNs, KeepAll), Lag(SliceNs, KeepAll, 0.99) {}

  void sent(double SchedNs, double SendNs) {
    Lag.add(SendNs, SendNs > SchedNs ? (SendNs - SchedNs) * 1e-3 : 0, 0);
  }
  void done(double SchedNs, double DoneNs, double Bytes) {
    Latency.add(DoneNs, (DoneNs - SchedNs) * 1e-3, Bytes);
  }

  Slicer Latency;
  Slicer Lag;
};

} // namespace pb

#endif // PERFBENCH_GEN_H
