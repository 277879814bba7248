//===- runtime/transport/ShardedLink.cpp - Lock-free rings ----------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/transport/ShardedLink.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include <algorithm>
#include <chrono>
#include <sched.h>
#include <thread>

using namespace flick;

// Shards beyond the worker count just add steal sweeps, so the default
// stays small; fig8 tops out at 4 workers.
static const size_t DefaultShards = 4;

// How long a waiter polls before it parks.  Polling pays only if the next
// message usually lands inside the budget, so the budget must outlast,
// several times over, both the mean gap between requests at the rate the
// transport serves (10 us at 100k requests/s) and one condvar
// park-and-wake (2.5-8 us on a 4-vCPU Xeon VM: half the round-trip p50
// bench/host_probe reports).  Past it the waiter parks, so a silent link
// costs one budget per wait, not a core.
static const auto PollBudget = std::chrono::microseconds(50);

// Polls between sched_yield calls.  With more polling threads than CPUs
// (fig9's closed loop: a client and four workers on four vCPUs) a poller
// that never yields can hold the one thread with work off its CPU for a
// whole time slice; yielding hands it the CPU within a few microseconds.
static const unsigned PollsPerYield = 64;

static inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Polls \p Ready, pausing the CPU between polls and yielding it every
/// PollsPerYield polls, until it returns true or PollBudget has passed.
/// Returns Ready's last answer.  The first poll comes before the clock is
/// read, so a wait whose peer is already there costs no steady_clock::now.
template <typename Pred> static bool pollFor(Pred Ready) {
  if (Ready())
    return true;
  auto Deadline = std::chrono::steady_clock::now() + PollBudget;
  for (unsigned N = 1;; ++N) {
    cpuRelax();
    if (Ready())
      return true;
    if (N % PollsPerYield == 0) {
      sched_yield();
      if (std::chrono::steady_clock::now() >= Deadline)
        return Ready();
    }
  }
}

//===----------------------------------------------------------------------===//
// Ring
//===----------------------------------------------------------------------===//

void ShardedLink::Ring::init(size_t Cap) {
  // Minimum 2: with one cell, "pushed, awaiting pop" (Seq = T+1) and
  // "popped, free for the next lap" (Seq = T+Cap = T+1) are the same
  // state, so a 1-cell ring could never report full.
  size_t C = 2;
  while (C < Cap)
    C <<= 1;
  Cells.reset(new Cell[C]);
  for (size_t I = 0; I != C; ++I)
    Cells[I].Seq.store(I, std::memory_order_relaxed);
  Mask = C - 1;
}

bool ShardedLink::Ring::push(Conn *From, const WireMsg &M) {
  uint64_t Ticket = Head.load(std::memory_order_relaxed);
  for (;;) {
    Cell &C = Cells[Ticket & Mask];
    uint64_t Seq = C.Seq.load(std::memory_order_acquire);
    if (Seq == Ticket) {
      // Cell is free for this ticket; claim it.  seq_cst on success: the
      // claim is the push's half of the wake handshake (wakeWorker).
      if (Head.compare_exchange_weak(Ticket, Ticket + 1,
                                     std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
        break;
      // Lost the claim race; Ticket was reloaded by the CAS.
    } else if (Seq < Ticket) {
      // The consumer of (Ticket - Cap) has not freed this cell: full.
      return false;
    } else {
      // Another producer advanced Head past us; chase it.
      Ticket = Head.load(std::memory_order_relaxed);
    }
  }
  Cell &C = Cells[Ticket & Mask];
  C.From = From;
  C.M = M;
  // Publish: pop's acquire load of Seq sees the payload stores above.
  C.Seq.store(Ticket + 1, std::memory_order_release);
  return true;
}

bool ShardedLink::Ring::pop(Conn **From, WireMsg *M) {
  uint64_t Ticket = Tail.load(std::memory_order_relaxed);
  for (;;) {
    Cell &C = Cells[Ticket & Mask];
    uint64_t Seq = C.Seq.load(std::memory_order_acquire);
    if (Seq == Ticket + 1) {
      if (Tail.compare_exchange_weak(Ticket, Ticket + 1,
                                     std::memory_order_relaxed))
        break;
    } else if (Seq < Ticket + 1) {
      // The producer for this ticket has not published yet: empty.
      return false;
    } else {
      Ticket = Tail.load(std::memory_order_relaxed);
    }
  }
  Cell &C = Cells[Ticket & Mask];
  *From = C.From;
  *M = C.M;
  // Free the cell for the producer one lap ahead.
  C.Seq.store(Ticket + Mask + 1, std::memory_order_release);
  return true;
}

size_t ShardedLink::Ring::size() const {
  // seq_cst: anyReady's half of the wake handshake (wakeWorker).  On
  // x86-64 it is the same plain load as relaxed.
  uint64_t H = Head.load(std::memory_order_seq_cst);
  uint64_t T = Tail.load(std::memory_order_relaxed);
  return H > T ? H - T : 0;
}

//===----------------------------------------------------------------------===//
// Link lifecycle
//===----------------------------------------------------------------------===//

ShardedLink::ShardedLink(size_t ShardCap, size_t Shards)
    : NShards(Shards ? Shards : DefaultShards) {
  Rings.reset(new Ring[NShards]);
  for (size_t I = 0; I != NShards; ++I)
    Rings[I].init(ShardCap ? ShardCap : 1);
}

ShardedLink::~ShardedLink() {
  shutdown();
  // Requests never handed to a worker: reclaim their wire bytes.
  Conn *From;
  WireMsg M;
  for (size_t I = 0; I != NShards; ++I)
    while (Rings[I].pop(&From, &M))
      std::free(M.Data);
}

void ShardedLink::setModel(NetworkModel Model) {
  this->Model = std::move(Model);
  Modeled = true;
}

Channel &ShardedLink::connect() {
  std::lock_guard<std::mutex> L(EndsMu);
  size_t Shard =
      NextConnShard.fetch_add(1, std::memory_order_relaxed) % NShards;
  Conns.push_back(std::unique_ptr<Conn>(new Conn(*this, Shard)));
  return *Conns.back();
}

Channel &ShardedLink::workerEnd() {
  std::lock_guard<std::mutex> L(EndsMu);
  size_t Shard =
      NextWorkerShard.fetch_add(1, std::memory_order_relaxed) % NShards;
  Workers.push_back(std::unique_ptr<WorkerChan>(new WorkerChan(*this, Shard)));
  return *Workers.back();
}

void ShardedLink::shutdown() {
  if (Down.exchange(true, std::memory_order_seq_cst))
    return;
  // Lock-then-notify on both park mutexes closes the checked-predicate-
  // but-not-yet-parked window (the bounded waits below it are only the
  // backstop); same idiom as ThreadedLink::shutdown.
  {
    std::lock_guard<std::mutex> L(ParkMu);
  }
  WorkCv.notify_all();
  {
    std::lock_guard<std::mutex> L(FullMu);
  }
  SpaceCv.notify_all();
  std::lock_guard<std::mutex> E(EndsMu);
  for (auto &C : Conns) {
    { std::lock_guard<std::mutex> L(C->RMu); }
    C->RCv.notify_all();
  }
}

size_t ShardedLink::pendingRequests() const {
  size_t N = 0;
  for (size_t I = 0; I != NShards; ++I)
    N += Rings[I].size();
  return N;
}

size_t ShardedLink::shardDepth(size_t I) const {
  return I < NShards ? Rings[I].size() : 0;
}

void ShardedLink::wireDelay(size_t Len) {
  if (!Modeled)
    return;
  double Us = Model.wireTimeUs(Len);
  if (flick_metrics_active)
    flick_metrics_active->wire_time_us += Us;
  if (flick_trace_active)
    flick_trace_record_complete(FLICK_SPAN_WIRE, "wire", Us);
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(Us));
}

bool ShardedLink::anyReady() const {
  for (size_t I = 0; I != NShards; ++I)
    if (Rings[I].size())
      return true;
  return false;
}

void ShardedLink::wakeWorker() {
  // A push wakes a parked worker only when no worker is polling: a poller
  // takes the request within its budget, and a woken worker would find
  // the ring drained and park again.  Sleepers is read first, so the
  // Polling line is read only while some worker is parked.
  //
  // The handshake.  The pusher claims its Head ticket, then loads Sleepers
  // and Polling.  A worker increments Sleepers before it parks, or takes
  // Polling from 1 to 0 as the last poller out, and then loads Head
  // (anyReady).  All of these are seq_cst, so in their single total order
  // at least one side sees the other: either the pusher sees no sleeper
  // (and the parking worker's Head load sees the push), or it sees one
  // and no poller (and notifies), or it sees a poller, whose decrement
  // then follows the pusher's load.  That poller, if it leaves empty,
  // parks and its Head load sees the push; if it leaves with a request,
  // it hands the watch on (popRequest).  The bounded park stays the
  // backstop it always was.
  if (Sleepers.load(std::memory_order_seq_cst) > 0 &&
      Polling.load(std::memory_order_seq_cst) == 0)
    unparkOne();
}

void ShardedLink::unparkOne() {
  std::lock_guard<std::mutex> L(ParkMu);
  WorkCv.notify_one();
}

void ShardedLink::notifySpace() {
  if (FullWaiters.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> L(FullMu);
    SpaceCv.notify_all();
  }
}

//===----------------------------------------------------------------------===//
// Request path
//===----------------------------------------------------------------------===//

int ShardedLink::pushRequest(Conn *From, WireMsg M) {
  if (Down.load(std::memory_order_acquire)) {
    From->Pool.release(M.Data, M.Cap);
    return FLICK_ERR_TRANSPORT;
  }
  Ring &R = Rings[From->Shard];
  // Account the enqueue *before* the push: a worker can pop the message
  // the instant push publishes it, and its depth decrement must find our
  // increment already there (the saturating sub would otherwise floor at
  // zero and leave the gauge drifted +1).  The abort path below undoes
  // these.
  if (flick_gauges_on()) {
    M.EnqNs = flick_gauge_now_ns();
    flick_gauges_global.queue_enqueues.fetch_add(1, std::memory_order_relaxed);
    flick_gauges_global.queue_depth.fetch_add(1, std::memory_order_relaxed);
    flick_gauge_shard_add(From->Shard, 1);
    // Tell the sampler how many shard slots actually exist, so JSONL
    // depth statistics average over live shards, not all 8 slots.
    flick_gauges_global.shard_slots_live.store(
        std::min<size_t>(NShards, FLICK_GAUGE_SHARD_SLOTS),
        std::memory_order_relaxed);
  } else if (M.TraceId) {
    // A traced request still wants its queue wait attributed (the QUEUE
    // span) even with the flight recorder off.
    M.EnqNs = flick_gauge_now_ns();
  }
  if (!R.push(From, M)) {
    // Backpressure: count the event once, then wait for a worker to free
    // a cell.  ring_wait_ns is the sharded analogue of lock_wait_ns --
    // the only blocking this transport's senders ever do.
    flick_metric_add(&flick_metrics::queue_full, 1);
    flick_gauge_add(&flick_gauges::queue_full_waits, 1);
    uint64_t T0 = flick_gauges_on() ? flick_gauge_now_ns() : 0;
    FullWaiters.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> L(FullMu);
      for (;;) {
        if (Down.load(std::memory_order_relaxed)) {
          FullWaiters.fetch_sub(1, std::memory_order_relaxed);
          if (T0)
            flick_gauge_add(&flick_gauges::ring_wait_ns,
                            flick_gauge_now_ns() - T0);
          // Undo the optimistic enqueue accounting: nothing was queued.
          flick_gauge_sub(&flick_gauges::queue_depth, 1);
          flick_gauge_shard_sub(From->Shard, 1);
          flick_gauge_sub(&flick_gauges::queue_enqueues, 1);
          L.unlock();
          From->Pool.release(M.Data, M.Cap);
          return FLICK_ERR_TRANSPORT;
        }
        if (flick_gauges_on() || M.TraceId)
          M.EnqNs = flick_gauge_now_ns();
        if (R.push(From, M))
          break;
        // Bounded: a consumer's notify can race our park; 1ms caps the
        // damage of the lost wakeup.
        SpaceCv.wait_for(L, std::chrono::milliseconds(1));
      }
    }
    FullWaiters.fetch_sub(1, std::memory_order_relaxed);
    if (T0)
      flick_gauge_add(&flick_gauges::ring_wait_ns, flick_gauge_now_ns() - T0);
  }
  wakeWorker();
  return FLICK_OK;
}

bool ShardedLink::tryPopAny(size_t Pref, Conn **From, WireMsg *M) {
  for (size_t I = 0; I != NShards; ++I) {
    size_t S = (Pref + I) % NShards;
    if (!Rings[S].pop(From, M))
      continue;
    if (flick_gauges_on()) {
      flick_gauge_sub(&flick_gauges::queue_depth, 1);
      flick_gauge_shard_sub(S, 1);
      flick_gauges_global.queue_dequeues.fetch_add(1,
                                                   std::memory_order_relaxed);
      if (I)
        flick_gauges_global.steals.fetch_add(1, std::memory_order_relaxed);
      if (M->EnqNs) {
        uint64_t Now = flick_gauge_now_ns();
        flick_gauges_global.queue_wait_ns.fetch_add(
            Now > M->EnqNs ? Now - M->EnqNs : 0, std::memory_order_relaxed);
      }
    }
    if (M->EnqNs && flick_trace_active) {
      uint64_t Now = flick_gauge_now_ns();
      flick_trace_deposit_wait(Now > M->EnqNs ? Now - M->EnqNs : 0);
    }
    notifySpace();
    return true;
  }
  return false;
}

int ShardedLink::popRequest(WorkerChan *W, Conn **From, WireMsg *M) {
  bool Got = false;
  auto Sweep = [&] {
    // Own shard first, then steal: NShards acquire loads when all empty.
    return (Got = tryPopAny(W->Shard, From, M)) ||
           Down.load(std::memory_order_acquire);
  };
  for (;;) {
    // One sweep first.  Poll only when it comes up empty and the last wait
    // ended in work; a worker whose timed park expired sweeps once and
    // parks again, so an idle worker costs one sweep per park timeout.
    // Only the poll counts in Polling: while it is nonzero pushes leave
    // the parked workers asleep (wakeWorker).  A worker whose first sweep
    // finds work never touches the shared count, so a busy pool does not
    // bounce its line on every request.
    bool Done = Sweep();
    if (!Done && W->Polls) {
      Polling.fetch_add(1, std::memory_order_seq_cst);
      Done = pollFor(Sweep);
      // The handoff.  A push that landed after our successful sweep but
      // before this decrement saw us polling and skipped its wake, and we
      // are off to dispatch.  So the last poller out with a request wakes
      // a parked worker if requests remain; Sleepers first, so the sweep
      // of the rings is paid only when someone is parked.
      if (Polling.fetch_sub(1, std::memory_order_seq_cst) == 1 && Got &&
          Sleepers.load(std::memory_order_seq_cst) > 0 && anyReady())
        unparkOne();
    }
    if (Done) {
      if (Got) {
        W->Polls = true;
        return FLICK_OK;
      }
      // Drain-then-stop: one final sweep so every request published
      // before shutdown is still handed out.
      if (tryPopAny(W->Shard, From, M))
        return FLICK_OK;
      return FLICK_ERR_TRANSPORT;
    }
    // Park.  The seq_cst increment-then-recheck pairs with wakeWorker's
    // push-then-load; the bounded wait backstops the residual race.
    Sleepers.fetch_add(1, std::memory_order_seq_cst);
    bool Woken = true;
    if (!anyReady() && !Down.load(std::memory_order_relaxed)) {
      std::unique_lock<std::mutex> L(ParkMu);
      Woken = WorkCv.wait_for(L, std::chrono::milliseconds(10), [&] {
        return anyReady() || Down.load(std::memory_order_relaxed);
      });
    }
    Sleepers.fetch_sub(1, std::memory_order_relaxed);
    W->Polls = Woken;
  }
}

//===----------------------------------------------------------------------===//
// Channel endpoints
//===----------------------------------------------------------------------===//

ShardedLink::Conn::~Conn() {
  for (size_t I = TakenAt; I != Taken.size(); ++I)
    std::free(Taken[I].Data);
  for (WireMsg &M : RepQ)
    std::free(M.Data);
}

int ShardedLink::Conn::awaitReply(WireMsg *M) {
  // Replies taken earlier were queued before anything still in RepQ, so
  // serving them first keeps per-connection FIFO across takes.
  if (TakenAt == Taken.size()) {
    // A caller waits only with a request out, so the reply is usually a
    // dispatch away: poll the queued count before taking the lock.  If
    // the budget runs out, park on RCv; a worker's notify_one costs no
    // syscall while nobody is parked there.
    pollFor([&] {
      return Queued.load(std::memory_order_acquire) != 0 ||
             Link.Down.load(std::memory_order_relaxed);
    });
    std::unique_lock<std::mutex> L(RMu);
    RCv.wait(L, [&] {
      return !RepQ.empty() || Link.Down.load(std::memory_order_relaxed);
    });
    if (RepQ.empty())
      return FLICK_ERR_TRANSPORT;
    // Take every queued reply in this one acquisition.  The two vectors
    // trade places and keep their capacity, so steady state allocates
    // nothing.
    Taken.clear();
    Taken.swap(RepQ);
    TakenAt = 0;
    Queued.store(0, std::memory_order_relaxed);
  }
  *M = Taken[TakenAt++];
  return FLICK_OK;
}

int ShardedLink::Conn::sendv(const flick_iov *Segs, size_t Count) {
  WireMsg M;
  if (int Err = Pool.fill(&M, Segs, Count, CorrOut))
    return Err;
  Link.wireDelay(M.Len);
  return Link.pushRequest(this, M);
}

int ShardedLink::Conn::recvInto(flick_buf *Into) {
  WireMsg M;
  if (int Err = awaitReply(&M))
    return Err;
  CorrIn = M.Corr;
  if (flick_trace_active)
    flick_trace_deposit(M.TraceId, M.ParentSpan, M.Endpoint);
  Pool.adopt(Into, M.Data, M.Cap, M.Len);
  return FLICK_OK;
}

int ShardedLink::WorkerChan::sendv(const flick_iov *Segs, size_t Count) {
  WireMsg M;
  if (int Err = Pool.fill(&M, Segs, Count, CorrOut))
    return Err;
  Conn *To = CurConn;
  if (!To) {
    Pool.release(M.Data, M.Cap);
    return FLICK_ERR_TRANSPORT;
  }
  Link.wireDelay(M.Len);
  {
    std::lock_guard<std::mutex> L(To->RMu);
    To->RepQ.push_back(M);
    To->Queued.store(To->RepQ.size(), std::memory_order_release);
  }
  To->RCv.notify_one();
  return FLICK_OK;
}

int ShardedLink::WorkerChan::recvInto(flick_buf *Into) {
  Conn *From = nullptr;
  WireMsg M;
  if (int Err = Link.popRequest(this, &From, &M))
    return Err;
  CurConn = From;
  // Auto-echo: the reply this worker sends next carries the request's
  // correlation id, so servers stay untouched by pipelining.
  CorrIn = M.Corr;
  CorrOut = M.Corr;
  if (flick_trace_active)
    flick_trace_deposit(M.TraceId, M.ParentSpan, M.Endpoint);
  Pool.adopt(Into, M.Data, M.Cap, M.Len);
  return FLICK_OK;
}
