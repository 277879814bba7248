//===- perfbench/src/Common.h - Clock, RNG, percentiles, results -*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the repository benchmark shares: a
/// monotonic nanosecond clock, a seeded generator (splitmix64, so a seed
/// gives the same inputs on every host and compiler), stratified
/// log-uniform size draws, exact order-statistic percentiles, and the
/// result record each workload fills in.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: tiny, fast, and fully specified, so a seed names the same
/// input stream everywhere (std::mt19937 distributions are not portable).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }

  /// Exponential with the given rate (mean 1/Rate).
  double exponential(double Rate) { return -std::log1p(-uniform()) / Rate; }

  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// Derives an independent stream for one purpose from the run seed.
inline uint64_t subSeed(uint64_t Seed, uint64_t Purpose) {
  Rng R(Seed ^ (Purpose * 0xD1B54A32D192ED03ull));
  return R.next();
}

/// \p N sizes log-uniform over [Lo, Hi] on a jittered grid: size I is
/// drawn from the middle SizeJitter share of the I-th of N equal slices of
/// [log Lo, log Hi], then the list is shuffled.  Every seed thus gets
/// nearly the same size *distribution* (so throughput, tail percentiles
/// and memory do not move with the seed) while the sizes themselves, their
/// order and the content built from them differ.
inline std::vector<size_t> stratifiedLogSizes(Rng &R, size_t N, double Lo,
                                              double Hi) {
  constexpr double SizeJitter = 0.2;
  std::vector<size_t> Out;
  Out.reserve(N);
  double L0 = std::log(Lo), Span = std::log(Hi) - L0;
  for (size_t I = 0; I != N; ++I) {
    double U = (static_cast<double>(I) + 0.5 +
                SizeJitter * (R.uniform() - 0.5)) /
               static_cast<double>(N);
    Out.push_back(static_cast<size_t>(std::llround(std::exp(L0 + U * Span))));
  }
  R.shuffle(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Order statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile of \p Sorted (ascending): the smallest sample
/// with at least a P share of samples at or below it.  0 when empty.
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = std::ceil(P * static_cast<double>(Sorted.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

/// Median by the usual definition (mean of the two middle samples when
/// the count is even).  0 when empty.
inline double medianOf(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The tail level of the end-to-end latency metric.  Per-layer tails are
/// p99, but on a shared host the open loop's p99 is set by the few percent
/// of requests that wait for an idle vCPU to wake: on one host and one
/// build it read 100-130 us in one set of runs and 220-290 us in a set ten
/// minutes later, while p90 moved by a tenth.
constexpr double EndToEndTail = 0.9;

/// Whether \p N samples leave at least ten beyond percentile \p P.
inline bool supportsTail(size_t N, double P) {
  return static_cast<double>(N) * (1 - P) >= 10 - 1e-9;
}

/// The highest tail level a sample of \p N supports: the largest of the
/// ladder below, up to \p Top, that still leaves at least ten samples
/// beyond it.  Below twenty samples only the median is supported.
inline double supportedTail(size_t N, double Top = 0.99) {
  static const double Ladder[] = {0.99, 0.98, 0.975, 0.95, 0.9, 0.5};
  for (double P : Ladder)
    if (P <= Top && supportsTail(N, P))
      return P;
  return 0.5;
}

/// A latency sample set summarized the way the benchmark reports it.
struct LatencySummary {
  size_t Count = 0;
  double P50 = 0;
  double TailLevel = 0.5; ///< the percentile reported as the tail
  double Tail = 0;        ///< value at TailLevel
  double Mean = 0;
};

/// \p V's count, mean, median and highest supported tail up to \p Top.
inline LatencySummary summarize(std::vector<double> V, double Top = 0.99) {
  LatencySummary S;
  S.Count = V.size();
  if (V.empty())
    return S;
  std::sort(V.begin(), V.end());
  double Sum = 0;
  for (double X : V)
    Sum += X;
  S.Mean = Sum / static_cast<double>(V.size());
  S.P50 = percentileSorted(V, 0.5);
  S.TailLevel = supportedTail(V.size(), Top);
  S.Tail = percentileSorted(V, S.TailLevel);
  return S;
}

/// A phase's end-to-end numbers, robust to the host slowing down for a
/// while: the phase is cut into slices and each number is the median of
/// its per-slice values.
struct SliceReport {
  double BytesPerSec = 0; ///< payload per second of operation time
  LatencySummary Lat;
  size_t Slices = 0;
};

/// Folds operation samples into per-slice summaries as they arrive, so the
/// benchmark's own bookkeeping stays one slice big whatever the run
/// length (it would otherwise show in peak_rss_mb).  Slices end every
/// SliceNs of phase time, or where the caller says (SliceNs == 0).
class Slicer {
public:
  /// Slices report percentile \p Tail; with \p KeepAll, every sample is
  /// also kept for a pooled summary, used when no slice leaves ten samples
  /// beyond \p Tail.
  explicit Slicer(double SliceNs = 1e9, bool KeepAll = false,
                  double Tail = EndToEndTail)
      : SliceNs(SliceNs), KeepAll(KeepAll), Tail(Tail), SliceEnd(SliceNs) {}

  /// One operation of \p LatUs carrying \p Bytes, completed \p AtNs after
  /// the phase started.
  void add(double AtNs, double LatUs, double Bytes) {
    if (SliceNs > 0 && AtNs >= SliceEnd) {
      endSlice();
      SliceEnd = (std::floor(AtNs / SliceNs) + 1) * SliceNs;
    }
    Cur.push_back(LatUs);
    CurBytes += Bytes;
    CurUs += LatUs;
    SumUs += LatUs;
    ++N;
    if (KeepAll)
      All.push_back(LatUs);
  }

  void endSlice() {
    if (Cur.empty())
      return;
    if (CurUs > 0)
      Rates.push_back(CurBytes / (CurUs * 1e-6));
    if (supportsTail(Cur.size(), Tail)) {
      LatencySummary S = summarize(Cur, Tail);
      P50s.push_back(S.P50);
      Tails.push_back(S.Tail);
    }
    Cur.clear();
    CurBytes = CurUs = 0;
  }

  /// Forgets the open slice's rate and percentiles (its samples stay in
  /// the count, the mean and the pooled set).
  void dropSlice() {
    Cur.clear();
    CurBytes = CurUs = 0;
  }

  /// Closes the open slice and reports medians over slices; latency comes
  /// from the slices that support the tail, else from the pooled samples.
  SliceReport report() {
    endSlice();
    SliceReport Out;
    Out.Slices = Rates.size();
    Out.BytesPerSec = medianOf(Rates);
    if (!Tails.empty()) {
      Out.Lat.Count = N;
      Out.Lat.Mean = meanUs();
      Out.Lat.P50 = medianOf(P50s);
      Out.Lat.TailLevel = Tail;
      Out.Lat.Tail = medianOf(Tails);
    } else {
      Out.Lat = summarize(All, Tail);
    }
    return Out;
  }

  size_t count() const { return N; }
  double meanUs() const { return N ? SumUs / static_cast<double>(N) : 0; }

private:
  double SliceNs;
  bool KeepAll;
  double Tail;
  double SliceEnd;
  std::vector<double> Cur, All, Rates, P50s, Tails;
  double CurBytes = 0, CurUs = 0, SumUs = 0;
  size_t N = 0;
};

//===----------------------------------------------------------------------===//
// Checksums
//===----------------------------------------------------------------------===//

/// FNV-1a over bytes, continuing from \p H.
inline uint64_t fnv1a(const void *Data, size_t Len,
                      uint64_t H = 0xCBF29CE484222325ull) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 0x100000001B3ull;
  }
  return H;
}

/// Order-sensitive 32-bit mix of a word stream; the RPC payload checksum.
inline uint32_t mixWords(const uint32_t *W, size_t N, uint32_t H = 2166136261u) {
  for (size_t I = 0; I != N; ++I)
    H = (H ^ W[I]) * 16777619u + static_cast<uint32_t>(I);
  return H;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// One reported number and its unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What a workload run hands back to main().
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Machine-read metrics (the last output line).
  std::map<std::string, Metric> Metrics;
  /// Human-readable lines printed before the result (workload-specific
  /// metrics, sample counts, the supported tail level).
  std::vector<std::string> Notes;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
};

/// Options every workload receives.
struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  std::string IdlDir;   ///< the repository's idl/ directory
  std::string TraceDir; ///< where a traced run writes its spans
};

std::string fmt(const char *Format, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace pb

#endif // PERFBENCH_COMMON_H
