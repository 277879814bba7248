//===- runtime/Sampler.cpp - Runtime flight recorder ----------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include "support/BuildInfo.h"
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

//===----------------------------------------------------------------------===//
// Gauges
//===----------------------------------------------------------------------===//

flick_gauges flick_gauges_global;
std::atomic<int> flick_gauges_enabled{0};

namespace {

std::chrono::steady_clock::time_point gaugeEpoch() {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return Epoch;
}

} // namespace

uint64_t flick_gauge_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - gaugeEpoch())
          .count());
}

void flick_gauges_enable() {
  flick_gauges &G = flick_gauges_global;
  for (std::atomic<uint64_t> *F :
       {&G.queue_depth, &G.inflight_rpcs, &G.pool_buffers, &G.workers_busy,
        &G.workers_running, &G.rpcs_completed, &G.queue_enqueues,
        &G.queue_dequeues, &G.queue_wait_ns, &G.lock_wait_ns, &G.lock_acquires,
        &G.queue_full_waits, &G.pool_gauge_hits, &G.pool_gauge_misses,
        &G.worker_busy_ns, &G.stalls_detected, &G.ring_wait_ns, &G.steals,
        &G.sock_syscalls, &G.sock_eagain, &G.window_stalls,
        &G.shard_slots_live})
    F->store(0, std::memory_order_relaxed);
  for (std::atomic<uint64_t> &F : G.shard_depth)
    F.store(0, std::memory_order_relaxed);
  flick_gauges_enabled.store(1, std::memory_order_release);
}

void flick_gauges_disable() {
  flick_gauges_enabled.store(0, std::memory_order_relaxed);
}

void flick_gauge_lock_end(uint64_t t0_ns) {
  if (!t0_ns || !flick_gauges_on())
    return;
  uint64_t Now = flick_gauge_now_ns();
  flick_gauges_global.lock_wait_ns.fetch_add(Now > t0_ns ? Now - t0_ns : 0,
                                             std::memory_order_relaxed);
  flick_gauges_global.lock_acquires.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Stall watchdog slots
//===----------------------------------------------------------------------===//

namespace {

/// Start timestamp (ns on the gauge clock, 0 = no RPC in flight) per slot.
std::atomic<uint64_t> StallStarts[FLICK_STALL_SLOTS];

int mySlot() {
  static std::atomic<unsigned> NextSlot{0};
  thread_local int Slot = static_cast<int>(
      NextSlot.fetch_add(1, std::memory_order_relaxed) % FLICK_STALL_SLOTS);
  return Slot;
}

} // namespace

int flick_stall_mark_begin() {
  if (!flick_gauges_on())
    return -1;
  int Slot = mySlot();
  uint64_t Now = flick_gauge_now_ns();
  // 0 means "empty"; an RPC starting at the exact epoch still gets a stamp.
  StallStarts[Slot].store(Now ? Now : 1, std::memory_order_relaxed);
  return Slot;
}

void flick_stall_mark_end(int slot) {
  if (slot < 0)
    return;
  StallStarts[slot].store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// The sampler
//===----------------------------------------------------------------------===//

namespace {

struct Sampler {
  std::mutex Mu; ///< serializes start/stop and protects the fields below
  std::thread Thread;
  bool Running = false;
  bool EverStarted = false;

  // Wake/stop signalling for the sampling thread.
  std::mutex CvMu;
  std::condition_variable Cv;
  bool StopRequested = false;

  flick_sampler_opts Opts;
  std::string PostmortemPath; ///< owned copy of Opts.postmortem_path
  std::chrono::steady_clock::time_point Epoch; ///< sampler session start

  /// The ring: written only by the sampling thread, published through
  /// Head.  Head counts samples ever taken; slot = index % Ring.size().
  std::vector<flick_sample> Ring;
  std::atomic<uint64_t> Head{0};

  std::atomic<flick_metrics *> Watched{nullptr};

  // Sampling-thread-only watchdog state: the start stamp each slot was
  // last flagged at, so one stuck RPC counts as one stall, not one per
  // tick; and whether the post-mortem has been written this session.
  uint64_t LastFlagged[FLICK_STALL_SLOTS] = {};
  bool PostmortemDumped = false;
};

Sampler &sampler() {
  static Sampler S;
  return S;
}

/// Relaxed read of a plain uint64_t field the owning thread writes
/// non-atomically.  Values may lag by a store but are never torn;
/// ThreadSanitizer is right that this is a race, which is why the sampler
/// only does it to blocks registered through flick_sampler_watch.
uint64_t watchedLoad(const uint64_t *p) {
  return __atomic_load_n(p, __ATOMIC_RELAXED);
}

void takeSample(Sampler &S) {
  const flick_gauges &G = flick_gauges_global;
  flick_sample Smp;
  Smp.t_us = std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - S.Epoch)
                 .count();
  auto Ld = [](const std::atomic<uint64_t> &A) {
    return A.load(std::memory_order_relaxed);
  };
  Smp.queue_depth = Ld(G.queue_depth);
  Smp.inflight_rpcs = Ld(G.inflight_rpcs);
  Smp.pool_buffers = Ld(G.pool_buffers);
  Smp.workers_busy = Ld(G.workers_busy);
  Smp.workers_running = Ld(G.workers_running);
  Smp.rpcs_completed = Ld(G.rpcs_completed);
  Smp.queue_enqueues = Ld(G.queue_enqueues);
  Smp.queue_dequeues = Ld(G.queue_dequeues);
  Smp.queue_wait_ns = Ld(G.queue_wait_ns);
  Smp.lock_wait_ns = Ld(G.lock_wait_ns);
  Smp.lock_acquires = Ld(G.lock_acquires);
  Smp.queue_full_waits = Ld(G.queue_full_waits);
  Smp.pool_hits = Ld(G.pool_gauge_hits);
  Smp.pool_misses = Ld(G.pool_gauge_misses);
  Smp.worker_busy_ns = Ld(G.worker_busy_ns);
  Smp.ring_wait_ns = Ld(G.ring_wait_ns);
  Smp.steals = Ld(G.steals);
  Smp.sock_syscalls = Ld(G.sock_syscalls);
  Smp.sock_eagain = Ld(G.sock_eagain);
  Smp.window_stalls = Ld(G.window_stalls);
  uint64_t DepthSum = 0;
  for (const std::atomic<uint64_t> &F : G.shard_depth) {
    uint64_t V = Ld(F);
    DepthSum += V;
    if (V > Smp.shard_depth_max)
      Smp.shard_depth_max = V;
  }
  // Mean occupancy over the slots actually in use, not all
  // FLICK_GAUGE_SHARD_SLOTS: prefer the live count the sharded link
  // reported, fall back to the worker count (shards default to one per
  // worker), then to every slot.
  Smp.shard_slots_live = Ld(G.shard_slots_live);
  uint64_t LiveSlots = Smp.shard_slots_live;
  if (!LiveSlots)
    LiveSlots =
        std::min<uint64_t>(Smp.workers_running, FLICK_GAUGE_SHARD_SLOTS);
  if (!LiveSlots)
    LiveSlots = FLICK_GAUGE_SHARD_SLOTS;
  Smp.shard_depth_avg =
      static_cast<double>(DepthSum) / static_cast<double>(LiveSlots);

  // Watchdog scan: count everything currently past the deadline, and bump
  // stalls_detected once per (slot, start stamp) so a stuck RPC is one
  // detection however many ticks it stays stuck.
  bool NewStall = false;
  if (S.Opts.stall_deadline_us > 0) {
    uint64_t Now = flick_gauge_now_ns();
    uint64_t DeadlineNs =
        static_cast<uint64_t>(S.Opts.stall_deadline_us * 1000.0);
    for (int I = 0; I != FLICK_STALL_SLOTS; ++I) {
      uint64_t Start = StallStarts[I].load(std::memory_order_relaxed);
      if (!Start || Now - Start <= DeadlineNs)
        continue;
      ++Smp.stalled_rpcs;
      if (S.LastFlagged[I] != Start) {
        S.LastFlagged[I] = Start;
        flick_gauges_global.stalls_detected.fetch_add(
            1, std::memory_order_relaxed);
        NewStall = true;
      }
    }
  }
  Smp.stalls_detected = Ld(G.stalls_detected);

  if (flick_metrics *M = S.Watched.load(std::memory_order_relaxed)) {
    Smp.m_rpcs_sent = watchedLoad(&M->rpcs_sent);
    Smp.m_rpcs_handled = watchedLoad(&M->rpcs_handled);
    Smp.m_request_bytes = watchedLoad(&M->request_bytes);
    Smp.m_queue_full = watchedLoad(&M->queue_full);
    for (int E = 0; E != FLICK_MAX_ENDPOINTS; ++E) {
      Smp.slo_met += watchedLoad(&M->anatomy[E].slo_met);
      Smp.slo_violated += watchedLoad(&M->anatomy[E].slo_violated);
    }
  }

  uint64_t H = S.Head.load(std::memory_order_relaxed);
  S.Ring[H % S.Ring.size()] = Smp;
  S.Head.store(H + 1, std::memory_order_release);

  if (NewStall && !S.PostmortemDumped && !S.PostmortemPath.empty()) {
    S.PostmortemDumped = true;
    if (std::FILE *F = std::fopen(S.PostmortemPath.c_str(), "w")) {
      std::string Doc = flick_sampler_to_json();
      std::fwrite(Doc.data(), 1, Doc.size(), F);
      std::fclose(F);
    }
  }
}

void samplerMain() {
  Sampler &S = sampler();
  auto Interval = std::chrono::duration<double, std::micro>(
      S.Opts.interval_us > 0 ? S.Opts.interval_us : 1000.0);
  for (;;) {
    {
      std::unique_lock<std::mutex> L(S.CvMu);
      if (S.Cv.wait_for(L, Interval, [&] { return S.StopRequested; }))
        break;
    }
    takeSample(S);
  }
  // One final sample so short sessions (and the moments right before a
  // stop) are represented in the ring.
  takeSample(S);
}

} // namespace

int flick_sampler_start(const flick_sampler_opts *opts) {
  Sampler &S = sampler();
  std::lock_guard<std::mutex> L(S.Mu);
  if (S.Running)
    return FLICK_ERR_ALLOC;
  flick_sampler_opts O = opts ? *opts : flick_sampler_opts{};
  if (O.interval_us <= 0 || O.ring_cap == 0)
    return FLICK_ERR_ALLOC;
  S.Opts = O;
  S.PostmortemPath = O.postmortem_path ? O.postmortem_path : "";
  S.Opts.postmortem_path = nullptr; // the std::string owns it now
  S.Ring.assign(O.ring_cap, flick_sample{});
  S.Head.store(0, std::memory_order_relaxed);
  for (uint64_t &F : S.LastFlagged)
    F = 0;
  S.PostmortemDumped = false;
  S.StopRequested = false;
  S.Epoch = std::chrono::steady_clock::now();
  S.EverStarted = true;
  flick_gauges_enable();
  S.Thread = std::thread(samplerMain);
  S.Running = true;
  return FLICK_OK;
}

void flick_sampler_stop() {
  Sampler &S = sampler();
  std::lock_guard<std::mutex> L(S.Mu);
  if (!S.Running)
    return;
  {
    std::lock_guard<std::mutex> CvL(S.CvMu);
    S.StopRequested = true;
  }
  S.Cv.notify_all();
  S.Thread.join();
  S.Running = false;
  flick_gauges_disable();
}

int flick_sampler_running() {
  Sampler &S = sampler();
  std::lock_guard<std::mutex> L(S.Mu);
  return S.Running ? 1 : 0;
}

void flick_sampler_watch(flick_metrics *m) {
  sampler().Watched.store(m, std::memory_order_relaxed);
}

size_t flick_sampler_count() {
  Sampler &S = sampler();
  uint64_t Total = S.Head.load(std::memory_order_acquire);
  size_t Cap = S.Ring.size();
  return Total < Cap ? static_cast<size_t>(Total) : Cap;
}

int flick_sampler_get(size_t i, flick_sample *out) {
  Sampler &S = sampler();
  uint64_t Total = S.Head.load(std::memory_order_acquire);
  size_t Cap = S.Ring.size();
  if (Cap == 0)
    return 0;
  uint64_t Retained = Total < Cap ? Total : Cap;
  if (i >= Retained)
    return 0;
  uint64_t Abs = Total - Retained + i;
  *out = S.Ring[Abs % Cap];
  // If the writer lapped this slot while we copied, the copy may be torn:
  // discard it.  (Reads after flick_sampler_stop never hit this.)
  if (S.Head.load(std::memory_order_acquire) > Abs + Cap)
    return 0;
  return 1;
}

uint64_t flick_sampler_stalls() {
  return flick_gauges_global.stalls_detected.load(std::memory_order_relaxed);
}

double flick_sampler_epoch_offset_us(const flick_tracer *t) {
  Sampler &S = sampler();
  std::lock_guard<std::mutex> L(S.Mu);
  if (!t || !S.EverStarted)
    return 0;
  return std::chrono::duration<double, std::micro>(S.Epoch - t->epoch)
      .count();
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

namespace {

/// Copies out every readable sample (skipping any that were lapped
/// mid-copy while the sampler is live).
std::vector<flick_sample> snapshotRing() {
  std::vector<flick_sample> Out;
  size_t N = flick_sampler_count();
  Out.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    flick_sample Smp;
    if (flick_sampler_get(I, &Smp))
      Out.push_back(Smp);
  }
  return Out;
}

/// Renders one sample as a JSON object (one line, no trailing newline).
/// Cumulative gauges become per-interval rates against \p Prev; \p
/// HavePrev false (first retained sample of a wrapped ring) zeroes them.
std::string sampleJson(const flick_sample &Smp, const flick_sample &Prev,
                       bool HavePrev) {
  double DtUs = HavePrev ? Smp.t_us - Prev.t_us : 0;
  auto D = [&](uint64_t Cur, uint64_t Old) {
    return HavePrev && Cur > Old ? Cur - Old : 0;
  };
  uint64_t DRpcs = D(Smp.rpcs_completed, Prev.rpcs_completed);
  uint64_t DEnq = D(Smp.queue_enqueues, Prev.queue_enqueues);
  uint64_t DDeq = D(Smp.queue_dequeues, Prev.queue_dequeues);
  uint64_t DWaitNs = D(Smp.queue_wait_ns, Prev.queue_wait_ns);
  uint64_t DLockNs = D(Smp.lock_wait_ns, Prev.lock_wait_ns);
  uint64_t DBusyNs = D(Smp.worker_busy_ns, Prev.worker_busy_ns);
  uint64_t DHits = D(Smp.pool_hits, Prev.pool_hits);
  uint64_t DMiss = D(Smp.pool_misses, Prev.pool_misses);
  uint64_t DRingNs = D(Smp.ring_wait_ns, Prev.ring_wait_ns);
  uint64_t DSteals = D(Smp.steals, Prev.steals);
  uint64_t DSys = D(Smp.sock_syscalls, Prev.sock_syscalls);
  uint64_t DEagain = D(Smp.sock_eagain, Prev.sock_eagain);
  double PerS = DtUs > 0 ? 1e6 / DtUs : 0;
  double IntervalNs = DtUs * 1000.0;
  uint64_t Workers = Smp.workers_running ? Smp.workers_running : 1;

  // Error-budget burn rate over this interval: the fraction of RPCs that
  // violated their SLO, normalized by the tightest allowed-violation
  // fraction across configured objectives.  1.0 burns the budget exactly
  // at the sustainable pace; >1 exhausts it early.
  uint64_t DMet = D(Smp.slo_met, Prev.slo_met);
  uint64_t DViol = D(Smp.slo_violated, Prev.slo_violated);
  double Allowed = flick_slo_strictest_allowed();
  double BurnRate =
      Allowed > 0 && DMet + DViol
          ? (static_cast<double>(DViol) / static_cast<double>(DMet + DViol)) /
                Allowed
          : 0.0;

  char Buf[2048];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"t_us\": %.1f, \"queue_depth\": %llu, \"inflight_rpcs\": %llu, "
      "\"pool_buffers\": %llu, \"workers_busy\": %llu, "
      "\"workers_running\": %llu, \"stalled_rpcs\": %llu, "
      "\"stalls_detected\": %llu, \"rpcs_completed\": %llu, "
      "\"queue_full_waits\": %llu, \"shard_depth_max\": %llu, "
      "\"shard_depth_avg\": %.3f, \"shard_slots_live\": %llu, "
      "\"rpcs_per_s\": %.1f, "
      "\"enqueues_per_s\": %.1f, \"queue_wait_avg_us\": %.3f, "
      "\"lock_wait_frac\": %.4f, \"ring_wait_frac\": %.4f, "
      "\"steals_per_s\": %.1f, \"syscalls_per_rpc\": %.2f, "
      "\"eagain_retries\": %llu, \"window_stalls\": %llu, "
      "\"worker_busy_frac\": %.4f, "
      "\"pool_hit_rate\": %.3f, \"m_rpcs_sent\": %llu, "
      "\"m_rpcs_handled\": %llu, \"m_request_bytes\": %llu, "
      "\"m_queue_full\": %llu, \"slo_met\": %llu, "
      "\"slo_violated\": %llu, \"slo_burn_rate\": %.3f}",
      Smp.t_us, static_cast<unsigned long long>(Smp.queue_depth),
      static_cast<unsigned long long>(Smp.inflight_rpcs),
      static_cast<unsigned long long>(Smp.pool_buffers),
      static_cast<unsigned long long>(Smp.workers_busy),
      static_cast<unsigned long long>(Smp.workers_running),
      static_cast<unsigned long long>(Smp.stalled_rpcs),
      static_cast<unsigned long long>(Smp.stalls_detected),
      static_cast<unsigned long long>(Smp.rpcs_completed),
      static_cast<unsigned long long>(Smp.queue_full_waits),
      static_cast<unsigned long long>(Smp.shard_depth_max),
      Smp.shard_depth_avg,
      static_cast<unsigned long long>(Smp.shard_slots_live),
      static_cast<double>(DRpcs) * PerS, static_cast<double>(DEnq) * PerS,
      DDeq ? static_cast<double>(DWaitNs) / 1000.0 /
                 static_cast<double>(DDeq)
           : 0.0,
      IntervalNs > 0 ? static_cast<double>(DLockNs) / IntervalNs : 0.0,
      IntervalNs > 0 ? static_cast<double>(DRingNs) / IntervalNs : 0.0,
      static_cast<double>(DSteals) * PerS,
      DRpcs ? static_cast<double>(DSys) / static_cast<double>(DRpcs) : 0.0,
      static_cast<unsigned long long>(DEagain),
      static_cast<unsigned long long>(Smp.window_stalls),
      IntervalNs > 0 ? static_cast<double>(DBusyNs) /
                           (IntervalNs * static_cast<double>(Workers))
                     : 0.0,
      DHits + DMiss ? static_cast<double>(DHits) /
                          static_cast<double>(DHits + DMiss)
                    : 0.0,
      static_cast<unsigned long long>(Smp.m_rpcs_sent),
      static_cast<unsigned long long>(Smp.m_rpcs_handled),
      static_cast<unsigned long long>(Smp.m_request_bytes),
      static_cast<unsigned long long>(Smp.m_queue_full),
      static_cast<unsigned long long>(Smp.slo_met),
      static_cast<unsigned long long>(Smp.slo_violated), BurnRate);
  return Buf;
}

std::string configJson(const Sampler &S) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "{\"interval_us\": %.1f, \"ring_cap\": %u, "
                "\"stall_deadline_us\": %.1f}",
                S.Opts.interval_us, S.Opts.ring_cap,
                S.Opts.stall_deadline_us);
  return Buf;
}

} // namespace

std::string flick_sampler_to_jsonl() {
  Sampler &S = sampler();
  std::vector<flick_sample> Samples = snapshotRing();
  uint64_t Total = S.Head.load(std::memory_order_acquire);
  bool Wrapped = Total > S.Ring.size();
  std::string Out = "{\"type\": \"header\", \"build\": " +
                    flick_build_info_json() +
                    ", \"config\": " + configJson(S) + ", \"samples\": " +
                    std::to_string(Samples.size()) + ", \"stalls_detected\": " +
                    std::to_string(flick_sampler_stalls()) + "}\n";
  for (size_t I = 0; I != Samples.size(); ++I) {
    bool HavePrev = I > 0 || !Wrapped;
    Out += sampleJson(Samples[I], I ? Samples[I - 1] : flick_sample{},
                      HavePrev);
    Out += "\n";
  }
  return Out;
}

std::string flick_sampler_to_json(const char *indent) {
  Sampler &S = sampler();
  std::vector<flick_sample> Samples = snapshotRing();
  uint64_t Total = S.Head.load(std::memory_order_acquire);
  bool Wrapped = Total > S.Ring.size();
  std::string Ind = indent ? indent : "";
  std::string Out = "{\n";
  Out += Ind + "\"build\": " + flick_build_info_json() + ",\n";
  Out += Ind + "\"config\": " + configJson(S) + ",\n";
  Out += Ind + "\"stalls_detected\": " +
         std::to_string(flick_sampler_stalls()) + ",\n";
  Out += Ind + "\"samples\": [";
  for (size_t I = 0; I != Samples.size(); ++I) {
    bool HavePrev = I > 0 || !Wrapped;
    Out += I ? "," : "";
    Out += "\n" + Ind + Ind +
           sampleJson(Samples[I], I ? Samples[I - 1] : flick_sample{},
                      HavePrev);
  }
  Out += Samples.empty() ? "]\n" : "\n" + Ind + "]\n";
  Out += "}\n";
  return Out;
}

std::string flick_sampler_chrome_counters(double epoch_offset_us) {
  std::vector<flick_sample> Samples = snapshotRing();
  Sampler &S = sampler();
  uint64_t Total = S.Head.load(std::memory_order_acquire);
  bool Wrapped = Total > S.Ring.size();
  std::string Out;
  char Buf[256];
  auto Counter = [&](const char *Name, double Ts, const char *Key,
                     double Value) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n    {\"name\": \"%s\", \"ph\": \"C\", "
                  "\"ts\": %.3f, \"pid\": 1, \"tid\": 0, "
                  "\"args\": {\"%s\": %.3f}}",
                  Out.empty() ? "" : ",", Name, Ts, Key, Value);
    Out += Buf;
  };
  for (size_t I = 0; I != Samples.size(); ++I) {
    const flick_sample &Smp = Samples[I];
    double Ts = Smp.t_us + epoch_offset_us;
    if (Ts < 0)
      Ts = 0;
    Counter("queue_depth", Ts, "depth",
            static_cast<double>(Smp.queue_depth));
    Counter("inflight_rpcs", Ts, "inflight",
            static_cast<double>(Smp.inflight_rpcs));
    Counter("workers_busy", Ts, "busy",
            static_cast<double>(Smp.workers_busy));
    bool HavePrev = I > 0 || !Wrapped;
    const flick_sample &Prev = I ? Samples[I - 1] : flick_sample{};
    double DtUs = HavePrev ? Smp.t_us - Prev.t_us : 0;
    double DLockNs =
        HavePrev && Smp.lock_wait_ns > Prev.lock_wait_ns
            ? static_cast<double>(Smp.lock_wait_ns - Prev.lock_wait_ns)
            : 0;
    double DRpcs =
        HavePrev && Smp.rpcs_completed > Prev.rpcs_completed
            ? static_cast<double>(Smp.rpcs_completed - Prev.rpcs_completed)
            : 0;
    Counter("lock_wait_frac", Ts, "frac",
            DtUs > 0 ? DLockNs / (DtUs * 1000.0) : 0);
    Counter("rpcs_per_s", Ts, "rate", DtUs > 0 ? DRpcs * 1e6 / DtUs : 0);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

namespace {

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string promEscape(const char *S) {
  std::string Out;
  for (; *S; ++S) {
    if (*S == '\\' || *S == '"')
      Out += '\\';
    if (*S == '\n') {
      Out += "\\n";
      continue;
    }
    Out += *S;
  }
  return Out;
}

void promMetric(std::string &Out, const char *Name, const char *Type,
                const char *Help, double Value) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "# HELP %s %s\n# TYPE %s %s\n%s %.9g\n", Name, Help, Name,
                Type, Name, Value);
  Out += Buf;
}

} // namespace

std::string flick_metrics_to_prometheus(const flick_metrics *m,
                                        const flick_tracer *exemplars) {
  std::string Out;
  Out += "# HELP flick_build_info Build attribution; value is always 1.\n";
  Out += "# TYPE flick_build_info gauge\n";
  Out += "flick_build_info{git=\"" + promEscape(flick_build_git_hash()) +
         "\",compiler=\"" + promEscape(flick_build_compiler()) +
         "\",build_type=\"" + promEscape(flick_build_type()) + "\"} 1\n";

  if (m) {
    struct Counter {
      const char *Name;
      const char *Help;
      uint64_t Value;
    };
    const Counter Counters[] = {
        {"flick_rpcs_sent_total", "Two-way invokes issued.", m->rpcs_sent},
        {"flick_oneways_sent_total", "One-way sends issued.",
         m->oneways_sent},
        {"flick_replies_received_total", "Replies successfully received.",
         m->replies_received},
        {"flick_request_bytes_total", "Bytes sent client to server.",
         m->request_bytes},
        {"flick_reply_bytes_total", "Bytes received server to client.",
         m->reply_bytes},
        {"flick_rpcs_handled_total", "Requests received and dispatched.",
         m->rpcs_handled},
        {"flick_replies_sent_total", "Non-empty replies sent.",
         m->replies_sent},
        {"flick_buf_grows_total", "Marshal buffer grow slow paths.",
         m->buf_grows},
        {"flick_buf_reuses_total", "Buffer resets that kept an allocation.",
         m->buf_reuses},
        {"flick_decode_errors_total", "Malformed or truncated messages.",
         m->decode_errors},
        {"flick_transport_errors_total", "Channel send/recv failures.",
         m->transport_errors},
        {"flick_bytes_copied_total", "Payload bytes moved by copies.",
         m->bytes_copied},
        {"flick_copy_ops_total", "Bulk copy operations on the message path.",
         m->copy_ops},
        {"flick_pool_hits_total", "Pooled wire buffers reused.",
         m->pool_hits},
        {"flick_pool_misses_total", "Wire-buffer pool misses.",
         m->pool_misses},
        {"flick_queue_full_total", "Sends that met a full request queue.",
         m->queue_full},
        {"flick_corr_drops_total",
         "Replies whose correlation id matched no pending call.",
         m->corr_drops},
        {"flick_interp_dispatches_total",
         "Dynamic dispatches run by the interpretive marshaler.",
         m->interp_dispatches},
        {"flick_spec_programs_total",
         "Type programs compiled by the runtime specializer.",
         m->spec_programs},
        {"flick_spec_cache_hits_total",
         "Specialized-program cache hits.", m->spec_cache_hits},
        {"flick_spec_steps_fused_total",
         "Primitive marshal steps fused at specialization time.",
         m->spec_steps_fused},
        {"flick_spec_dispatches_avoided_total",
         "Interpreter dispatches saved by specialized programs.",
         m->spec_dispatches_avoided},
    };
    for (const Counter &C : Counters)
      promMetric(Out, C.Name, "counter", C.Help,
                 static_cast<double>(C.Value));
    promMetric(Out, "flick_wire_time_seconds_total", "counter",
               "Simulated wire time accumulated by modeled links.",
               m->wire_time_us / 1e6);
    promMetric(Out, "flick_spec_compile_seconds_total", "counter",
               "Time spent specializing type programs.",
               static_cast<double>(m->spec_compile_ns) / 1e9);

    // The RPC latency histogram, in base-unit seconds with cumulative
    // buckets as the exposition format requires.  When a tracer with a
    // tail-exemplar reservoir is supplied, each bucket line gets at most
    // one OpenMetrics exemplar annotation: the slowest retained RPC whose
    // duration falls in that bucket, so the post-mortem trace for a tail
    // latency is one trace_id lookup away from the histogram.
    const flick_exemplar *BucketEx[FLICK_HIST_BUCKETS] = {};
    if (exemplars) {
      for (int E = 0; E != FLICK_MAX_ENDPOINTS; ++E)
        for (int S = 0; S != FLICK_EXEMPLAR_SLOTS; ++S) {
          const flick_exemplar &X = exemplars->exemplars.slots[E][S];
          if (!X.n_spans)
            continue;
          // Same bucket rule as flick_hist_record: smallest I with
          // dur < 2^I us.
          int I = 0;
          while (I < FLICK_HIST_BUCKETS - 1 &&
                 X.dur_us >= static_cast<double>(uint64_t(1) << I))
            ++I;
          if (!BucketEx[I] || X.dur_us > BucketEx[I]->dur_us)
            BucketEx[I] = &X;
        }
    }
    const flick_latency_hist &H = m->rpc_latency;
    Out += "# HELP flick_rpc_latency_seconds Client round-trip latency.\n";
    Out += "# TYPE flick_rpc_latency_seconds histogram\n";
    char Buf[256];
    uint64_t Cum = 0;
    for (int I = 0; I != FLICK_HIST_BUCKETS; ++I) {
      if (!H.buckets[I])
        continue;
      Cum += H.buckets[I];
      std::snprintf(Buf, sizeof(Buf),
                    "flick_rpc_latency_seconds_bucket{le=\"%.9g\"} %llu",
                    static_cast<double>(uint64_t(1) << I) / 1e6,
                    static_cast<unsigned long long>(Cum));
      Out += Buf;
      if (const flick_exemplar *X = BucketEx[I]) {
        std::snprintf(Buf, sizeof(Buf),
                      " # {trace_id=\"0x%llx\",endpoint=\"%s\"} %.9g",
                      static_cast<unsigned long long>(X->trace_id),
                      promEscape(flick_endpoint_name(X->endpoint)).c_str(),
                      X->dur_us / 1e6);
        Out += Buf;
      }
      Out += "\n";
    }
    std::snprintf(Buf, sizeof(Buf),
                  "flick_rpc_latency_seconds_bucket{le=\"+Inf\"} %llu\n"
                  "flick_rpc_latency_seconds_sum %.9g\n"
                  "flick_rpc_latency_seconds_count %llu\n",
                  static_cast<unsigned long long>(H.count), H.sum_us / 1e6,
                  static_cast<unsigned long long>(H.count));
    Out += Buf;

    // SLO error-budget counters: one series per endpoint with a
    // configured objective, labeled with the endpoint name and the
    // objective's source text.
    bool AnySlo = false;
    uint32_t NEndpoints = flick_endpoint_count();
    if (NEndpoints > FLICK_MAX_ENDPOINTS)
      NEndpoints = FLICK_MAX_ENDPOINTS;
    for (uint32_t E = 0; E != NEndpoints; ++E)
      if (flick_slo_for(E)->set)
        AnySlo = true;
    if (AnySlo) {
      struct SloFamily {
        const char *Name;
        const char *Help;
        uint64_t flick_endpoint_stats::*Field;
      };
      const SloFamily Families[] = {
          {"flick_slo_met_total",
           "RPCs that completed within their endpoint's latency objective.",
           &flick_endpoint_stats::slo_met},
          {"flick_slo_violated_total",
           "RPCs over their endpoint's latency objective (budget spend).",
           &flick_endpoint_stats::slo_violated},
      };
      for (const SloFamily &F : Families) {
        Out += std::string("# HELP ") + F.Name + " " + F.Help + "\n";
        Out += std::string("# TYPE ") + F.Name + " counter\n";
        for (uint32_t E = 0; E != NEndpoints; ++E) {
          const flick_slo *Slo = flick_slo_for(E);
          if (!Slo->set)
            continue;
          std::snprintf(Buf, sizeof(Buf),
                        "%s{endpoint=\"%s\",objective=\"%s\"} %llu\n", F.Name,
                        promEscape(flick_endpoint_name(E)).c_str(),
                        promEscape(Slo->objective).c_str(),
                        static_cast<unsigned long long>(m->anatomy[E].*
                                                        F.Field));
          Out += Buf;
        }
      }
    }
  }

  // The live gauge block: instantaneous values as gauges, cumulative ones
  // as counters in base units.
  const flick_gauges &G = flick_gauges_global;
  auto Ld = [](const std::atomic<uint64_t> &A) {
    return static_cast<double>(A.load(std::memory_order_relaxed));
  };
  promMetric(Out, "flick_queue_depth", "gauge",
             "Transport requests currently queued.", Ld(G.queue_depth));
  promMetric(Out, "flick_inflight_rpcs", "gauge",
             "Client invokes currently in flight.", Ld(G.inflight_rpcs));
  promMetric(Out, "flick_pool_buffers", "gauge",
             "Wire buffers parked in per-thread pools.", Ld(G.pool_buffers));
  promMetric(Out, "flick_workers_busy", "gauge",
             "Pool workers currently inside dispatch.", Ld(G.workers_busy));
  promMetric(Out, "flick_workers_running", "gauge",
             "Live pool worker threads.", Ld(G.workers_running));
  promMetric(Out, "flick_rpcs_completed_total", "counter",
             "Client invokes finished.", Ld(G.rpcs_completed));
  promMetric(Out, "flick_queue_enqueues_total", "counter",
             "Requests pushed to the MPSC queue.", Ld(G.queue_enqueues));
  promMetric(Out, "flick_queue_dequeues_total", "counter",
             "Requests popped by workers.", Ld(G.queue_dequeues));
  promMetric(Out, "flick_queue_wait_seconds_total", "counter",
             "Total enqueue-to-dequeue wait.", Ld(G.queue_wait_ns) / 1e9);
  promMetric(Out, "flick_lock_wait_seconds_total", "counter",
             "Total time blocked acquiring the queue mutex.",
             Ld(G.lock_wait_ns) / 1e9);
  promMetric(Out, "flick_lock_acquires_total", "counter",
             "Timed queue-mutex acquisitions.", Ld(G.lock_acquires));
  promMetric(Out, "flick_queue_full_waits_total", "counter",
             "Sends that met a full request queue.", Ld(G.queue_full_waits));
  promMetric(Out, "flick_pool_gauge_hits_total", "counter",
             "Pooled wire buffers reused (gauge-side count).",
             Ld(G.pool_gauge_hits));
  promMetric(Out, "flick_pool_gauge_misses_total", "counter",
             "Wire-buffer pool misses (gauge-side count).",
             Ld(G.pool_gauge_misses));
  promMetric(Out, "flick_worker_busy_seconds_total", "counter",
             "Total time pool workers spent dispatching.",
             Ld(G.worker_busy_ns) / 1e9);
  promMetric(Out, "flick_stalls_detected_total", "counter",
             "Watchdog deadline violations.", Ld(G.stalls_detected));
  promMetric(Out, "flick_ring_wait_seconds_total", "counter",
             "Total time senders blocked on a full sharded ring.",
             Ld(G.ring_wait_ns) / 1e9);
  promMetric(Out, "flick_steals_total", "counter",
             "Cross-shard request pops by pool workers.", Ld(G.steals));
  promMetric(Out, "flick_sock_syscalls_total", "counter",
             "Socket-transport syscalls issued.", Ld(G.sock_syscalls));
  promMetric(Out, "flick_sock_eagain_total", "counter",
             "Socket-transport send EAGAIN retries.", Ld(G.sock_eagain));
  promMetric(Out, "flick_window_stalls_total", "counter",
             "Async-client submits that found the pipeline window full.",
             Ld(G.window_stalls));
  {
    Out += "# HELP flick_shard_depth Requests queued per transport shard.\n";
    Out += "# TYPE flick_shard_depth gauge\n";
    char Buf[96];
    for (int I = 0; I != FLICK_GAUGE_SHARD_SLOTS; ++I) {
      std::snprintf(Buf, sizeof(Buf),
                    "flick_shard_depth{shard=\"%d\"} %llu\n", I,
                    static_cast<unsigned long long>(G.shard_depth[I].load(
                        std::memory_order_relaxed)));
      Out += Buf;
    }
  }
  return Out;
}
