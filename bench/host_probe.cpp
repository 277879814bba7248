//===- bench/host_probe.cpp - host-noise covariate for benchmark runs -----===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A one-second reading of how busy the machine is, to log beside each
/// benchmark run.  Two threads ping-pong a token through one mutex and one
/// condition variable; every round trip is two park-and-wake handoffs, so
/// its latency is what a blocked RPC thread pays to be woken.  On a quiet
/// 4-vCPU Xeon VM the round-trip p50 reads 5-16 us and p99 11-24 us; when
/// other tenants crowd the host p99 reads 40-460 us, and a benchmark run
/// taken then measures the host, not the code.  The steal time over the
/// same second (from the first line of /proc/stat) is the hypervisor's own
/// account of that.
///
/// Prints one JSON line:
///   {"probe": "condvar_pingpong", "seconds": 1.0, "round_trips": N,
///    "rt_p50_us": ..., "rt_p99_us": ..., "steal_frac": ...}
/// steal_frac is steal ticks over all ticks of every CPU in that second
/// (-1 when /proc/stat is unreadable).
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;
using Micros = std::chrono::duration<double, std::micro>;

/// Total and steal ticks summed over every CPU; false when unreadable.
bool readCpuTicks(uint64_t &Total, uint64_t &Steal) {
  std::ifstream In("/proc/stat");
  std::string Tag;
  if (!(In >> Tag) || Tag != "cpu")
    return false;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice, so it is not added again).
  uint64_t F[8] = {};
  for (uint64_t &V : F)
    if (!(In >> V))
      return false;
  Total = 0;
  for (uint64_t V : F)
    Total += V;
  Steal = F[7];
  return true;
}

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  size_t K = static_cast<size_t>(P * static_cast<double>(V.size() - 1));
  std::nth_element(V.begin(), V.begin() + K, V.end());
  return V[K];
}

} // namespace

int main() {
  const auto Run = std::chrono::seconds(1);
  std::mutex Mu;
  std::condition_variable Cv;
  bool PingTurn = true; // true: the ponger owes nothing, the pinger moves
  bool Stop = false;

  std::thread Ponger([&] {
    std::unique_lock<std::mutex> L(Mu);
    for (;;) {
      Cv.wait(L, [&] { return !PingTurn || Stop; });
      if (Stop)
        return;
      PingTurn = true;
      Cv.notify_one();
    }
  });

  uint64_t Total0 = 0, Steal0 = 0, Total1 = 0, Steal1 = 0;
  bool Ticks = readCpuTicks(Total0, Steal0);
  std::vector<double> RtUs;
  RtUs.reserve(1 << 16);
  auto Start = Clock::now(), End = Start + Run;
  for (auto Now = Start; Now < End;) {
    {
      std::unique_lock<std::mutex> L(Mu);
      PingTurn = false;
      Cv.notify_one();
      Cv.wait(L, [&] { return PingTurn; });
    }
    auto Back = Clock::now();
    RtUs.push_back(Micros(Back - Now).count());
    Now = Back;
  }
  double Secs = std::chrono::duration<double>(Clock::now() - Start).count();
  Ticks = Ticks && readCpuTicks(Total1, Steal1);
  {
    std::lock_guard<std::mutex> L(Mu);
    Stop = true;
  }
  Cv.notify_one();
  Ponger.join();

  double StealFrac = -1;
  if (Ticks) {
    double Dt = static_cast<double>(Total1 - Total0);
    StealFrac = Dt > 0 ? static_cast<double>(Steal1 - Steal0) / Dt : 0;
  }
  size_t N = RtUs.size();
  double P50 = percentile(RtUs, 0.50), P99 = percentile(RtUs, 0.99);
  std::printf("{\"probe\": \"condvar_pingpong\", \"seconds\": %.3f, "
              "\"round_trips\": %zu, \"rt_p50_us\": %.2f, "
              "\"rt_p99_us\": %.2f, \"steal_frac\": %.4f}\n",
              Secs, N, P50, P99, StealFrac);
  return 0;
}
