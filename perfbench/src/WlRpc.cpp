//===- perfbench/src/WlRpc.cpp - The rpc_bulk and rpc_open workloads ------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// rpc_bulk: closed loop, one synchronous client and one pool worker over
// the socket transport.  Requests are seeded 4 KB - 256 KB values through
// the XDR, CDR and CDR-gather stubs, so marshal cost, copies and the
// scatter-gather path dominate and per-message overhead is small.  The
// only workload that exercises flick_client_invoke and the gather path.
//
// rpc_open: open loop.  Poisson arrivals at fixed absolute rates (never a
// fraction of a capacity measured in the same run, which would move with
// the change under test) drive one async client (window 16) into two pool
// workers over the sharded transport with small 64 B - 1 KB int/rect
// requests.  Per-message cost of transport, server and async dominates;
// marshaling is a few percent.  Latency runs from each request's
// scheduled arrival.  Between arrivals the client completes outstanding
// calls oldest first (flick_async_wait), the event loop a caller of the
// async API would run.
//
// Checks: the benchmark's own server work functions verify a checksum of
// every payload they receive; every reply must decode as success.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include "Values.h"
#include "Workloads.h"
#include "runtime/Sampler.h"
#include "runtime/transport/Transport.h"
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>

namespace pb {
namespace {

//===----------------------------------------------------------------------===//
// Server side: work functions and the dispatch wrapper
//===----------------------------------------------------------------------===//

std::atomic<uint64_t> ServerBad{0};
std::atomic<bool> ServerTracing{false};

/// What the work function saw, for the wrapper's spans.
thread_local uint64_t WorkEnterNs = 0, WorkExitNs = 0;
thread_local uint32_t WorkOpId = 0;
thread_local size_t WorkBytes = 0;

/// One worker's recorder plus the payload bytes it decoded per format.
struct ServerRecorder {
  explicit ServerRecorder(uint32_t Thread) : T(Thread) {}
  Tracer T;
  double DecodeBytes[2] = {0, 0}; ///< [0 xdr, 1 cdr]
};

std::mutex RecordersMu;
std::vector<std::unique_ptr<ServerRecorder>> Recorders;
thread_local ServerRecorder *MyRecorder = nullptr;

ServerRecorder *recorder() {
  if (!MyRecorder) {
    std::lock_guard<std::mutex> Lock(RecordersMu);
    Recorders.push_back(std::make_unique<ServerRecorder>(
        100 + static_cast<uint32_t>(Recorders.size())));
    MyRecorder = Recorders.back().get();
  }
  return MyRecorder;
}

template <typename F, typename S> void serve(const S *Seq, size_t ElemBytes) {
  bool Tracing = ServerTracing.load(std::memory_order_relaxed);
  if (Tracing)
    WorkEnterNs = nowNs();
  if (payloadChecksum<F>(*Seq) != payloadStamp<F>(*Seq))
    ServerBad.fetch_add(1, std::memory_order_relaxed);
  if (Tracing) {
    WorkOpId = payloadOpId<F>(*Seq);
    WorkBytes = F::len(*Seq) * ElemBytes;
    WorkExitNs = nowNs();
  }
}

/// The pool's dispatch function: routes GIOP requests to the CDR
/// dispatcher and everything else to the ONC RPC one, and in a traced run
/// records the server-side spans.
int benchDispatch(flick_server *S, flick_buf *Req, flick_buf *Rep) {
  bool Giop = Req->len - Req->pos >= 4 &&
              std::memcmp(Req->data + Req->pos, "GIOP", 4) == 0;
  if (!ServerTracing.load(std::memory_order_relaxed))
    return Giop ? C_Transfer_dispatch(S, Req, Rep)
                : F_BENCHPROG_dispatch(S, Req, Rep);
  ServerRecorder *Rec = recorder();
  uint64_t T0 = nowNs();
  Rec->T.beginOp("server.dispatch", 0, T0);
  WorkEnterNs = 0;
  int Rc = Giop ? C_Transfer_dispatch(S, Req, Rep)
                : F_BENCHPROG_dispatch(S, Req, Rep);
  uint64_t T1 = nowNs();
  if (WorkEnterNs) {
    Rec->T.record(Giop ? "stubs.cdr.decode" : "stubs.xdr.decode", T0,
                  WorkEnterNs);
    Rec->T.record("server.work", WorkEnterNs, WorkExitNs);
    Rec->T.setOpId(WorkOpId);
    Rec->DecodeBytes[Giop ? 1 : 0] += static_cast<double>(WorkBytes);
  }
  Rec->T.endOp(T1);
  return Rc;
}

/// One transport, a pool of workers running benchDispatch, and one
/// connected synchronous client.  Destruction stops the pool (joining its
/// threads and merging their metrics into the block active at start).
struct Rig {
  std::unique_ptr<flick::Transport> Link;
  flick_server_pool Pool;
  flick_client Cli;
  bool Ok = false;

  Rig(const char *Transport, unsigned Workers) {
    Link = flick::makeTransport(Transport);
    if (!Link ||
        flick_server_pool_start(&Pool, Link.get(), benchDispatch, Workers) !=
            FLICK_OK)
      return;
    flick_client_init(&Cli, &Link->connect());
    Ok = true;
  }
  ~Rig() {
    if (Ok) {
      flick_client_destroy(&Cli);
      flick_server_pool_stop(&Pool);
    }
  }
  Rig(const Rig &) = delete;
  Rig &operator=(const Rig &) = delete;
};

/// Server-side layer totals and decoded bytes, after every pool stopped.
struct ServerTotals {
  Tracer T{100};
  double DecodeBytes[2] = {0, 0};
};

ServerTotals collectServer() {
  ServerTotals Out;
  std::lock_guard<std::mutex> Lock(RecordersMu);
  for (const auto &R : Recorders) {
    Out.T.absorbTotals(R->T);
    Out.DecodeBytes[0] += R->DecodeBytes[0];
    Out.DecodeBytes[1] += R->DecodeBytes[1];
  }
  return Out;
}

std::vector<const Tracer *> serverTracers() {
  std::lock_guard<std::mutex> Lock(RecordersMu);
  std::vector<const Tracer *> Out;
  for (const auto &R : Recorders)
    Out.push_back(&R->T);
  return Out;
}

/// Counters a traced half reads: the merged metrics block and the gauge
/// deltas, with the wall time they cover.
struct Telemetry {
  flick_metrics M;
  double WallNs = 0;
  uint64_t Syscalls = 0, QueueWaitNs = 0, Steals = 0, BusyNs = 0,
           Stalls = 0;

  void readGauges() {
    const flick_gauges &G = flick_gauges_global;
    Syscalls = G.sock_syscalls.load(std::memory_order_relaxed);
    QueueWaitNs = G.queue_wait_ns.load(std::memory_order_relaxed);
    Steals = G.steals.load(std::memory_order_relaxed);
    BusyNs = G.worker_busy_ns.load(std::memory_order_relaxed);
    Stalls = G.window_stalls.load(std::memory_order_relaxed);
  }
};

//===----------------------------------------------------------------------===//
// rpc_bulk
//===----------------------------------------------------------------------===//

enum class Stub { Xdr, Cdr, Gather };

/// One request value, presented for its stub family.  Never moves.
struct BulkEntry {
  Raw V;
  Stub S = Stub::Xdr;
  uint32_t Checksum = 0;
  Presented<XdrFamily> X;
  Presented<CdrFamily> C;
  Presented<GatherFamily> G;
};

struct BulkPhase {
  Slicer Log;
  double Bytes = 0;
  double EncodeBytes[2] = {0, 0}; ///< [0 xdr, 1 cdr] (gather apart)
  uint64_t Ops = 0;
  uint64_t Failed = 0;
};

class BulkBench {
public:
  static constexpr size_t Strata = 8;

  void generate(uint64_t Seed) {
    Pool.clear();
    Rng R(subSeed(Seed, 4));
    for (Kind K : {Kind::Ints, Kind::Rects, Kind::Dirents})
      for (Stub S : {Stub::Xdr, Stub::Cdr, Stub::Gather})
        for (size_t Bytes : stratifiedLogSizes(R, Strata, 4096, 262144)) {
          auto E = std::make_unique<BulkEntry>();
          E->V = makeRaw(R, K, Bytes);
          E->S = S;
          E->Checksum = rawChecksum(E->V);
          if (S == Stub::Xdr)
            E->X.present(E->V);
          else if (S == Stub::Cdr)
            E->C.present(E->V);
          else
            E->G.present(E->V);
          Pool.push_back(std::move(E));
        }
    Order.resize(Pool.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);
  }

  /// Calls in pool order until \p Seconds pass.
  BulkPhase run(Rig &Rg, double Seconds, Tracer *T) {
    BulkPhase P;
    PhaseStart = nowNs();
    uint64_t Deadline = PhaseStart + static_cast<uint64_t>(Seconds * 1e9);
    for (size_t Pos = 0; nowNs() < Deadline; Pos = (Pos + 1) % Order.size())
      call(Rg, *Pool[Order[Pos]], T, P);
    return P;
  }

  /// One call per pool value; returns the failures.
  uint64_t warmUp(Rig &Rg) {
    BulkPhase P;
    for (size_t Idx : Order)
      call(Rg, *Pool[Idx], nullptr, P);
    return P.Failed;
  }

  std::vector<std::string> Errors;

private:
  void call(Rig &Rg, BulkEntry &E, Tracer *T, BulkPhase &P) {
    static const char *const EncName[] = {
        "stubs.xdr.encode", "stubs.cdr.encode", "stubs.gather.encode"};
    uint32_t Id = ++NextOp;
    int S = static_cast<int>(E.S);
    if (E.S == Stub::Xdr)
      E.X.stamp(Id, E.Checksum);
    else if (E.S == Stub::Cdr)
      E.C.stamp(Id, E.Checksum);
    else
      E.G.stamp(Id, E.Checksum);
    uint64_t T0 = nowNs();
    if (T)
      T->beginOp("op", Id, T0);
    flick_buf *B = flick_client_begin(&Rg.Cli);
    int Err;
    {
      Scope Sc(T, EncName[S]);
      Err = E.S == Stub::Xdr   ? E.X.encode(B, Rg.Cli.next_xid)
            : E.S == Stub::Cdr ? E.C.encode(B, Rg.Cli.next_xid)
                               : E.G.encode(B, Rg.Cli.next_xid);
    }
    if (!Err) {
      Scope Sc(T, "client.invoke");
      Err = flick_client_invoke(&Rg.Cli);
    }
    if (!Err) {
      Scope Sc(T, "stubs.decode_reply");
      Err = E.S == Stub::Xdr ? XdrFamily::decodeReply(&Rg.Cli.rep, E.V.K)
                             : CdrFamily::decodeReply(&Rg.Cli.rep, E.V.K);
    }
    uint64_t T1 = nowNs();
    if (T)
      T->endOp(T1);
    ++P.Ops;
    P.Log.add(static_cast<double>(T1 - PhaseStart),
              static_cast<double>(T1 - T0) * 1e-3,
              static_cast<double>(E.V.Payload));
    P.Bytes += static_cast<double>(E.V.Payload);
    if (E.S != Stub::Gather)
      P.EncodeBytes[S] += static_cast<double>(E.V.Payload);
    if (Err) {
      ++P.Failed;
      if (Errors.size() < 8)
        Errors.push_back(fmt("%s call of %zu B failed with status %d",
                             kindName(E.V.K), E.V.Payload, Err));
    }
  }

  std::vector<std::unique_ptr<BulkEntry>> Pool;
  std::vector<size_t> Order;
  uint32_t NextOp = 0;
  uint64_t PhaseStart = 0;
};

/// Server-side payload mismatches since the last call, as failures.
uint64_t takeServerFailures(std::vector<std::string> &Errors) {
  uint64_t Bad = ServerBad.exchange(0);
  if (Bad)
    Errors.push_back(fmt("%llu payloads failed the server's checksum",
                         static_cast<unsigned long long>(Bad)));
  return Bad;
}

//===----------------------------------------------------------------------===//
// rpc_open
//===----------------------------------------------------------------------===//

/// The fixed absolute rates (requests/s).  Latency is reported at
/// LatencyRate.  Capacity is found on a fixed ladder, LadderBase times
/// powers of RungStep up to TopRung: a rate meets the limit when a
/// StepSecs step at it keeps the end-to-end tail (p90) within LimitUs
/// while the generator keeps pace with the schedule (at least KeepPace of
/// the arrivals due in the step are sent within it).  The ladder spans
/// 150k - 1.4M requests/s, far past the few hundred thousand the sharded
/// transport reaches on a 4-CPU host; a step at either end is noted, since
/// the rate is then a bound.
///
/// Percentiles are medians over SliceNs slices.  A shared host preempts
/// the client thread for milliseconds up to tens of times a second, and
/// each preemption delays every request in flight or due during it.  Most
/// 12.5 ms slices are free of it, so the median slice reports the
/// system's tail, not the host's.
constexpr double LatencyRate = 100000;
constexpr double SliceNs = 12.5e6;
constexpr double LadderBase = 150000;
constexpr double RungStep = 1.03;
constexpr int TopRung = 75;
constexpr int ClimbRungs = 4; ///< rungs per step until the first miss
constexpr double StepSecs = 0.1;
constexpr double LimitUs = 5000;
constexpr double KeepPace = 0.95;
constexpr unsigned Window = 16;

struct OpenEntry {
  Raw V;
  uint32_t Checksum = 0;
  Presented<CdrFamily> C;
};

struct OpenBench;

/// One scheduled request, from arrival to completion; recycled through a
/// free list once it and every earlier request have completed.
struct Arrival {
  OpenBench *B = nullptr;
  Arrival *Next = nullptr;
  flick_call *Call = nullptr; ///< until released
  bool Done = false;
  Kind K = Kind::Ints;
  uint32_t OpId = 0;
  double Bytes = 0;
  double SchedNs = 0, SendNs = 0, EncNs = 0, SubmitNs = 0, DecNs = 0,
         DoneNs = 0; ///< since the schedule's start
};

struct StepResult {
  uint64_t Sent = 0;
  uint64_t SentInWindow = 0; ///< arrivals sent before the step ended
  uint64_t Failed = 0;
  SliceReport Latency;
  LatencySummary Lag;
  std::vector<double> SubmitUs; ///< traced runs only
  double WallNs = 0;

  bool meetsLimit() const {
    return Failed == 0 && Sent > 0 && Latency.Lat.Tail <= LimitUs &&
           static_cast<double>(SentInWindow) >=
               KeepPace * static_cast<double>(Sent);
  }
};

struct OpenBench {
  static constexpr size_t Strata = 32;

  void generate(uint64_t Seed) {
    Pool.clear();
    Rng R(subSeed(Seed, 5));
    for (Kind K : {Kind::Ints, Kind::Rects})
      for (size_t Bytes : stratifiedLogSizes(R, Strata, 64, 1024)) {
        auto E = std::make_unique<OpenEntry>();
        E->V = makeRaw(R, K, Bytes);
        E->Checksum = rawChecksum(E->V);
        E->C.present(E->V);
        Pool.push_back(std::move(E));
      }
    Order.resize(Pool.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);
    double Sum = 0;
    for (const auto &E : Pool)
      Sum += static_cast<double>(E->V.Payload);
    MeanPayload = Sum / static_cast<double>(Pool.size());
  }

  /// Poisson arrivals at \p Rate for \p Seconds on \p Rg's connection.
  /// Each request is submitted when due.  Until the next one is due the
  /// client completes outstanding calls oldest first; a wait that runs
  /// past an arrival delays its send, which latency from the scheduled
  /// arrival charges.  A submit that finds the window full pumps replies
  /// itself, and a drain ends the step.
  StepResult runAt(Rig &Rg, double Rate, double Seconds, uint64_t Seed,
                   Tracer *T) {
    StepResult S;
    flick_async_opts Opts;
    Opts.window = Window;
    flick_async_client A;
    if (flick_async_client_init(&A, Rg.Cli.chan, &Opts) != FLICK_OK) {
      S.Failed = 1;
      return S;
    }
    Async = &A;
    Trace = T;
    OpenLoopBook Book(SliceNs, false);
    this->Book = &Book;
    Slab.clear();
    Free = nullptr;
    ArrivalSchedule Sch(Seed, Rate);
    double DurNs = Seconds * 1e9;
    Start = nowNs();
    for (;;) {
      double Sched = Sch.next();
      if (Sched >= DurNs)
        break;
      while (!Outstanding.empty() && since() < Sched)
        retireOldest();
      // Spinning keeps the schedule honest at microsecond gaps.
      while (since() < Sched)
        ;
      Arrival *Ar = takeArrival();
      Ar->SchedNs = Sched;
      Ar->SendNs = since();
      Book.sent(Sched, Ar->SendNs);
      if (Ar->SendNs < DurNs)
        ++S.SentInWindow;
      OpenEntry &E = *Pool[Order[NextPos]];
      NextPos = (NextPos + 1) % Order.size();
      Ar->K = E.V.K;
      Ar->Bytes = static_cast<double>(E.V.Payload);
      Ar->OpId = ++NextOp;
      E.C.stamp(Ar->OpId, E.Checksum);
      int Err = E.C.encode(flick_async_begin(&A), Ar->OpId);
      Ar->EncNs = since();
      flick_call *Call = nullptr;
      if (!Err)
        Err = flick_async_submit(&A, &Call, onDone, Ar);
      Ar->SubmitNs = since();
      if (T)
        S.SubmitUs.push_back((Ar->SubmitNs - Ar->EncNs) * 1e-3);
      ++S.Sent;
      if (!Err) {
        ++Submitted;
        Ar->Call = Call;
        Outstanding.push_back(Ar);
        popDone();
      } else {
        // Never submitted: it fails now and nothing will complete it.
        fail(fmt("call %u not submitted (status %d)", Ar->OpId, Err));
        Ar->Next = Free;
        Free = Ar;
      }
    }
    if (flick_async_drain(&A) != FLICK_OK)
      fail("drain failed");
    while (!Outstanding.empty())
      retireOldest();
    S.WallNs = since();
    flick_async_client_destroy(&A);
    // The drain completes every submitted call, or fails them all.
    S.Failed = Failures + (Submitted - std::min(Submitted, Completed));
    S.Latency = Book.Latency.report();
    S.Lag = Book.Lag.report().Lat;
    this->Book = nullptr;
    Failures = Completed = Submitted = 0;
    return S;
  }

  /// \p N synchronous calls on the rig's client; returns the failures.
  uint64_t warmUp(Rig &Rg, size_t N) {
    uint64_t Bad = 0;
    for (size_t I = 0; I != N; ++I) {
      OpenEntry &E = *Pool[Order[I % Order.size()]];
      E.C.stamp(++NextOp, E.Checksum);
      flick_buf *Buf = flick_client_begin(&Rg.Cli);
      int Err = E.C.encode(Buf, Rg.Cli.next_xid);
      if (!Err)
        Err = flick_client_invoke(&Rg.Cli);
      if (!Err)
        Err = CdrFamily::decodeReply(&Rg.Cli.rep, E.V.K);
      if (Err)
        ++Bad;
    }
    return Bad;
  }

  double MeanPayload = 0;
  std::vector<std::string> Errors;

private:
  double since() const { return static_cast<double>(nowNs() - Start); }

  void fail(const std::string &Msg) {
    ++Failures;
    if (Errors.size() < 8)
      Errors.push_back(Msg);
  }

  Arrival *takeArrival() {
    Arrival *Ar = Free;
    if (Ar) {
      Free = Ar->Next;
    } else {
      Slab.emplace_back();
      Ar = &Slab.back();
      Ar->B = this;
    }
    Ar->Call = nullptr;
    Ar->Done = false;
    return Ar;
  }

  /// Waits for the oldest outstanding call (replies to later calls that
  /// arrive meanwhile complete those calls), then recycles the completed
  /// requests at the front of the queue.
  void retireOldest() {
    Arrival *Ar = Outstanding.front();
    if (!Ar->Done) {
      Waiting = Ar->Call;
      flick_async_wait(Async, Ar->Call); // onDone records any failure
      Waiting = nullptr;
      flick_async_release(Async, Ar->Call);
      Ar->Call = nullptr;
      Ar->Done = true;
    }
    popDone();
  }

  void popDone() {
    while (!Outstanding.empty() && Outstanding.front()->Done) {
      Arrival *Ar = Outstanding.front();
      Outstanding.pop_front();
      Ar->Next = Free;
      Free = Ar;
    }
  }

  static void onDone(flick_call *Call, void *Ctx) {
    auto *Ar = static_cast<Arrival *>(Ctx);
    OpenBench &B = *Ar->B;
    Ar->DecNs = B.since();
    bool Ok = Call->status == FLICK_OK &&
              CdrFamily::decodeReply(&Call->rep, Ar->K) == FLICK_OK;
    Ar->DoneNs = B.since();
    B.Book->done(Ar->SchedNs, Ar->DoneNs, Ar->Bytes);
    ++B.Completed;
    if (!Ok)
      B.fail(fmt("call %u failed with status %d", Ar->OpId, Call->status));
    if (Tracer *T = B.Trace) {
      // The call's spans, recorded when it closes (open-loop calls
      // overlap, so each is assembled from its own timestamps).
      auto Abs = [&](double Ns) {
        return B.Start + static_cast<uint64_t>(Ns);
      };
      T->beginOp("op", Ar->OpId, Abs(Ar->SchedNs));
      T->record("gen.lag", Abs(Ar->SchedNs), Abs(Ar->SendNs));
      T->record("stubs.cdr.encode", Abs(Ar->SendNs), Abs(Ar->EncNs));
      T->record("async.submit", Abs(Ar->EncNs), Abs(Ar->SubmitNs));
      T->record("async.inflight", Abs(Ar->SubmitNs), Abs(Ar->DecNs));
      T->record("stubs.decode_reply", Abs(Ar->DecNs), Abs(Ar->DoneNs));
      T->endOp(Abs(Ar->DoneNs));
    }
    // Released at once, so completed replies never pile up behind a slow
    // oldest call -- unless a wait on this very call reads it after us.
    Ar->Done = true;
    if (Call != B.Waiting) {
      flick_async_release(B.Async, Call);
      Ar->Call = nullptr;
    }
  }

  std::vector<std::unique_ptr<OpenEntry>> Pool;
  std::vector<size_t> Order;
  size_t NextPos = 0;
  uint32_t NextOp = 0;
  /// Arrival contexts (stable addresses).  Completed requests wait behind
  /// the oldest outstanding one to be recycled, so their number has no
  /// fixed bound.
  std::deque<Arrival> Slab;
  Arrival *Free = nullptr;
  std::deque<Arrival *> Outstanding; ///< submitted, not recycled; oldest first
  flick_call *Waiting = nullptr;     ///< the call flick_async_wait is on
  flick_async_client *Async = nullptr;
  Tracer *Trace = nullptr;
  OpenLoopBook *Book = nullptr;
  uint64_t Start = 0;
  uint64_t Submitted = 0;
  uint64_t Completed = 0;
  uint64_t Failures = 0;
};

/// capacity_rps, by an up-down staircase on the ladder for \p Seconds (at
/// least one step): a step that meets the limit moves one rung up, one
/// that misses moves one rung down, and the rate the staircase settles
/// around -- the median of the rungs it visits after its first miss -- is
/// the one met half the time.  Every step after the climb measures near
/// capacity, so the whole phase averages out the host's drift.  A climb
/// that reaches the top rung counts from there.
double capacity(OpenBench &B, Rig &Rg, double Seconds, uint64_t Seed,
                std::vector<std::string> &Notes, uint64_t &Sent,
                uint64_t &Failed) {
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  std::vector<double> Visited;
  int Rung = 0, Steps = 0, AtEnds = 0;
  bool Climbing = true;
  do {
    double Rate = LadderBase * std::pow(RungStep, Rung);
    StepResult S = B.runAt(Rg, Rate, StepSecs, Seed + Steps++, nullptr);
    Sent += S.Sent;
    Failed += S.Failed;
    bool Met = S.meetsLimit();
    Climbing &= Met;
    if (!Climbing || Rung == TopRung)
      Visited.push_back(Rate);
    if ((Met && Rung == TopRung) || (!Met && Rung == 0))
      ++AtEnds;
    Rung = Met ? std::min(TopRung, Rung + (Climbing ? ClimbRungs : 1))
               : std::max(0, Rung - 1);
  } while (nowNs() < Deadline);
  double Cap = medianOf(Visited);
  Notes.push_back(fmt("capacity_rps %.0f 1/s (median of %zu staircase steps "
                      "of %.1f s after the climb; p%g limit %.0f us, %.0f%% "
                      "of arrivals sent on time)",
                      Cap, Visited.size(), StepSecs, EndToEndTail * 100,
                      LimitUs, KeepPace * 100));
  if (AtEnds)
    Notes.push_back(fmt("capacity_rps: %d steps met the limit on the top "
                        "rung or missed it on the bottom one of the %.0f - "
                        "%.0f 1/s ladder, so the rate is a bound, not a "
                        "measurement",
                        AtEnds, LadderBase,
                        LadderBase * std::pow(RungStep, TopRung)));
  return Cap;
}

} // namespace

RunResult runRpcBulk(const RunOptions &O) {
  RunResult R;
  BulkBench B;
  ServerBad = 0;
  std::unique_ptr<Rig> Rg;
  // Set-up: values, transport + worker start, one warm-up pass.
  uint64_t WarmFailed = 0;
  auto Setup = [&] {
    Rg.reset();
    B.generate(O.Seed);
    Rg = std::make_unique<Rig>("socket", 1);
    if (Rg->Ok)
      WarmFailed = B.warmUp(*Rg);
  };
  double SetupS = medianSetupSeconds(O.Traced ? 1 : SetupReps, Setup);
  if (!Rg->Ok) {
    R.Attempted = R.Failed = 1;
    R.Notes.push_back("could not start the socket transport");
    return R;
  }
  if (!O.Traced) {
    BulkPhase P = B.run(*Rg, O.Seconds, nullptr);
    Rg.reset();
    R.Attempted = P.Ops;
    R.Failed = P.Failed + WarmFailed + takeServerFailures(B.Errors);
    SliceReport S = P.Log.report();
    double MeanBytes = P.Bytes / static_cast<double>(P.Ops);
    R.set("setup_s", SetupS, "s");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    R.set("throughput_mb_per_s", S.BytesPerSec / 1e6, "MB/s");
    reportLatency(R, S);
    R.Notes.push_back(fmt("throughput_rps %.1f 1/s (mean request %.1f KB)",
                          S.BytesPerSec / MeanBytes, MeanBytes / 1e3));
  } else {
    BulkPhase Base = B.run(*Rg, O.Seconds / 2, nullptr);
    Rg.reset();
    Telemetry Tel;
    flick_metrics_enable(&Tel.M);
    flick_gauges_enable();
    ServerTracing = true;
    Tracer T(0);
    Rg = std::make_unique<Rig>("socket", 1);
    BulkPhase P = B.run(*Rg, O.Seconds / 2, &T);
    Rg.reset();
    ServerTracing = false;
    Tel.readGauges();
    flick_gauges_disable();
    flick_metrics_disable();
    R.Attempted = Base.Ops + P.Ops;
    R.Failed = Base.Failed + P.Failed + WarmFailed +
               takeServerFailures(B.Errors);

    ServerTotals Srv = collectServer();
    double Ops = static_cast<double>(P.Ops);
    LayerTotals Inv = T.find("client.invoke");
    LayerTotals Disp = Srv.T.find("server.dispatch");
    double InvokeUs = Inv.Count ? Inv.TotalNs * 1e-3 / Inv.Count : 0;
    double DispatchUs = Disp.Count ? Disp.TotalNs * 1e-3 / Disp.Count : 0;
    R.set("client.invoke_us", InvokeUs, "us");
    R.set("server.dispatch_us", DispatchUs, "us");
    R.set("transport.us_per_rpc", InvokeUs - DispatchUs, "us");
    R.set("transport.copies_per_rpc", Tel.M.copy_ops / Ops, "count");
    R.set("transport.bytes_copied_per_rpc", Tel.M.bytes_copied / Ops, "B");
    R.set("transport.syscalls_per_rpc", Tel.Syscalls / Ops, "count");
    double PoolAll = static_cast<double>(Tel.M.pool_hits + Tel.M.pool_misses);
    R.set("transport.pool_hit_frac", PoolAll ? Tel.M.pool_hits / PoolAll : 0,
          "ratio");
    R.set("transport.gather_refs_per_rpc", Tel.M.gather_refs / Ops, "count");
    auto NsPerKb = [](double Ns, double Bytes) {
      return Bytes > 0 ? Ns / (Bytes / 1e3) : 0;
    };
    R.set("stubs.xdr.encode.large_ns_per_kb",
          NsPerKb(T.find("stubs.xdr.encode").TotalNs, P.EncodeBytes[0]),
          "ns/KB");
    R.set("stubs.cdr.encode.large_ns_per_kb",
          NsPerKb(T.find("stubs.cdr.encode").TotalNs, P.EncodeBytes[1]),
          "ns/KB");
    R.set("stubs.xdr.decode.large_ns_per_kb",
          NsPerKb(Srv.T.find("stubs.xdr.decode").TotalNs, Srv.DecodeBytes[0]),
          "ns/KB");
    R.set("stubs.cdr.decode.large_ns_per_kb",
          NsPerKb(Srv.T.find("stubs.cdr.decode").TotalNs, Srv.DecodeBytes[1]),
          "ns/KB");
    R.set("stubs.buf_grows_per_op", Tel.M.buf_grows / Ops, "count");
    reportTraceIntegrity(R, Base.Log.meanUs(), P.Log.meanUs(), T);
    std::vector<const Tracer *> All = {&T};
    for (const Tracer *S : serverTracers())
      All.push_back(S);
    saveTrace(R, O, "rpc_bulk", All);
  }
  for (const std::string &E : B.Errors)
    R.Notes.push_back("check failed: " + E);
  return R;
}

RunResult runRpcOpen(const RunOptions &O) {
  RunResult R;
  auto B = std::make_unique<OpenBench>();
  ServerBad = 0;
  std::unique_ptr<Rig> Rg;
  // Set-up: values, transport + two workers, and a warm-up of synchronous
  // calls (a fixed amount of work, so its time varies with the system).
  uint64_t WarmFailed = 0;
  auto Setup = [&] {
    Rg.reset();
    B->generate(O.Seed);
    Rg = std::make_unique<Rig>("sharded", 2);
    if (Rg->Ok)
      WarmFailed = B->warmUp(*Rg, 500);
  };
  double SetupS = medianSetupSeconds(O.Traced ? 1 : SetupReps, Setup);
  if (!Rg->Ok) {
    R.Attempted = R.Failed = 1;
    R.Notes.push_back("could not start the sharded transport");
    return R;
  }
  uint64_t Seed = subSeed(O.Seed, 7);
  if (!O.Traced) {
    // Capacity searches take about half the run; latency at the fixed rate
    // gets the rest (at least a third of it).
    uint64_t T0 = nowNs(), Sent = 0, Failed = 0;
    double Cap = capacity(*B, *Rg, O.Seconds / 2, Seed, R.Notes, Sent, Failed);
    double Left = O.Seconds - static_cast<double>(nowNs() - T0) * 1e-9;
    StepResult L = B->runAt(*Rg, LatencyRate,
                            std::max(Left, O.Seconds / 3), Seed, nullptr);
    Sent += L.Sent;
    Failed += L.Failed;
    Rg.reset();
    R.Attempted = Sent;
    R.Failed = Failed + WarmFailed + takeServerFailures(B->Errors);
    R.set("setup_s", SetupS, "s");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    R.set("throughput_mb_per_s", Cap * B->MeanPayload / 1e6, "MB/s");
    reportLatency(R, L.Latency);
    R.Notes.push_back(fmt("latency measured at %.0f requests/s from the "
                          "scheduled arrival; generator lag p%g %.2f us",
                          LatencyRate, L.Lag.TailLevel * 100, L.Lag.Tail));
    R.Notes.push_back(fmt("throughput_mb_per_s = capacity_rps x mean request "
                          "%.1f B",
                          B->MeanPayload));
  } else {
    StepResult Base =
        B->runAt(*Rg, LatencyRate, O.Seconds / 2, Seed, nullptr);
    Rg.reset();
    Telemetry Tel;
    flick_metrics_enable(&Tel.M);
    flick_gauges_enable();
    ServerTracing = true;
    Tracer T(0);
    Rg = std::make_unique<Rig>("sharded", 2);
    StepResult P = B->runAt(*Rg, LatencyRate, O.Seconds / 2, Seed + 1, &T);
    Rg.reset();
    ServerTracing = false;
    Tel.readGauges();
    flick_gauges_disable();
    flick_metrics_disable();
    R.Attempted = Base.Sent + P.Sent;
    R.Failed = Base.Failed + P.Failed + WarmFailed +
               takeServerFailures(B->Errors);

    double Done = static_cast<double>(P.Sent);
    LatencySummary Sub = summarize(P.SubmitUs);
    R.set("async.submit_us_p50", Sub.P50, "us");
    R.set("async.submit_us_p99", Sub.Tail, "us");
    R.set("async.stall_frac", Tel.Stalls / Done, "ratio");
    R.set("async.corr_drops", static_cast<double>(Tel.M.corr_drops), "count");
    R.set("transport.queue_wait_us", Tel.QueueWaitNs * 1e-3 / Done, "us");
    R.set("transport.steals_per_rpc", Tel.Steals / Done, "count");
    R.set("server.worker_busy_frac", Tel.BusyNs / (2 * P.WallNs), "ratio");
    R.set("gen.lag_us_p99", P.Lag.Tail, "us");
    ServerTotals Srv = collectServer();
    LayerTotals Disp = Srv.T.find("server.dispatch");
    R.set("server.dispatch_us",
          Disp.Count ? Disp.TotalNs * 1e-3 / Disp.Count : 0, "us");
    // Medians: an open-loop mean is dominated by the few requests a host
    // preemption delays, and would compare two samples of the host.
    reportTraceIntegrity(R, Base.Latency.Lat.P50, P.Latency.Lat.P50, T);
    std::vector<const Tracer *> All = {&T};
    for (const Tracer *S : serverTracers())
      All.push_back(S);
    saveTrace(R, O, "rpc_open", All);
  }
  for (const std::string &E : B->Errors)
    R.Notes.push_back("check failed: " + E);
  return R;
}

} // namespace pb

//===----------------------------------------------------------------------===//
// Server work functions the generated dispatchers call
//===----------------------------------------------------------------------===//

using pb::CdrFamily;
using pb::XdrFamily;

int F_send_ints_1_svc(const F_intseq *A) {
  pb::serve<XdrFamily>(A, 4);
  return 0;
}
int F_send_rects_1_svc(const F_rectseq *A) {
  pb::serve<XdrFamily>(A, 16);
  return 0;
}
int F_send_dirents_1_svc(const F_direntseq *A) {
  pb::serve<XdrFamily>(A, pb::DirentBytes);
  return 0;
}
void C_Transfer_send_ints_server(const C_IntSeq *D, CORBA_Environment *) {
  pb::serve<CdrFamily>(D, 4);
}
void C_Transfer_send_rects_server(const C_RectSeq *D, CORBA_Environment *) {
  pb::serve<CdrFamily>(D, 16);
}
void C_Transfer_send_dirents_server(const C_DirentSeq *D,
                                    CORBA_Environment *) {
  pb::serve<CdrFamily>(D, pb::DirentBytes);
}
