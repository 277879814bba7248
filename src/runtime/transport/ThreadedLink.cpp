//===- runtime/transport/ThreadedLink.cpp - Mutex MPSC transport ----------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/transport/ThreadedLink.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include <chrono>
#include <thread>

using namespace flick;

ThreadedLink::ThreadedLink(size_t QueueCap)
    : QueueCap(QueueCap ? QueueCap : 1) {}

ThreadedLink::~ThreadedLink() {
  shutdown();
  // Requests still queued were never handed to any endpoint; per-connection
  // reply queues are freed by the Conn destructors (owned by Conns below).
  for (Req &R : ReqQ)
    std::free(R.M.Data);
}

void ThreadedLink::setModel(NetworkModel Model) {
  this->Model = std::move(Model);
  Modeled = true;
}

Channel &ThreadedLink::connect() {
  std::lock_guard<std::mutex> L(EndsMu);
  Conns.push_back(std::unique_ptr<Conn>(new Conn(*this)));
  return *Conns.back();
}

Channel &ThreadedLink::workerEnd() {
  std::lock_guard<std::mutex> L(EndsMu);
  Workers.push_back(std::unique_ptr<WorkerChan>(new WorkerChan(*this)));
  return *Workers.back();
}

void ThreadedLink::shutdown() {
  {
    std::lock_guard<std::mutex> L(QMu);
    if (Down.exchange(true, std::memory_order_relaxed))
      return;
  }
  QNotEmpty.notify_all();
  QNotFull.notify_all();
  // Wake every connection blocked on a reply.  Taking (and dropping) each
  // RMu before notifying closes the window where a waiter has checked the
  // predicate but not yet parked: it either sees Down under its lock or is
  // already waiting when the notify lands.
  std::lock_guard<std::mutex> E(EndsMu);
  for (auto &C : Conns) {
    { std::lock_guard<std::mutex> L(C->RMu); }
    C->RCv.notify_all();
  }
}

size_t ThreadedLink::pendingRequests() const {
  std::lock_guard<std::mutex> L(QMu);
  return ReqQ.size();
}

void ThreadedLink::wireDelay(size_t Len) {
  if (!Modeled)
    return;
  double Us = Model.wireTimeUs(Len);
  if (flick_metrics_active)
    flick_metrics_active->wire_time_us += Us;
  if (flick_trace_active)
    flick_trace_record_complete(FLICK_SPAN_WIRE, "wire", Us);
  // Realized as real blocking time on the sending thread (no lock held),
  // so worker-pool concurrency genuinely overlaps it -- see Transport.h.
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(Us));
}

int ThreadedLink::pushRequest(Conn *From, WireMsg M) {
  // The QMu acquisition is the known ~400K RPC/s ceiling: time it under
  // the flight recorder so the saturation is a measured curve, not an
  // inference from throughput flattening.
  uint64_t LockT0 = flick_gauge_lock_begin();
  std::unique_lock<std::mutex> L(QMu);
  flick_gauge_lock_end(LockT0);
  if (ReqQ.size() >= QueueCap) {
    // Count the backpressure event once (the send did meet a full queue,
    // whatever happens next), then wait for a worker to drain or for
    // shutdown.
    flick_metric_add(&flick_metrics::queue_full, 1);
    flick_gauge_add(&flick_gauges::queue_full_waits, 1);
    QNotFull.wait(L, [&] {
      return ReqQ.size() < QueueCap || Down.load(std::memory_order_relaxed);
    });
  }
  if (Down.load(std::memory_order_relaxed)) {
    L.unlock();
    From->Pool.release(M.Data, M.Cap);
    return FLICK_ERR_TRANSPORT;
  }
  if (flick_gauges_on()) {
    M.EnqNs = flick_gauge_now_ns();
    flick_gauges_global.queue_enqueues.fetch_add(1, std::memory_order_relaxed);
    flick_gauges_global.queue_depth.fetch_add(1, std::memory_order_relaxed);
  } else if (M.TraceId) {
    // A traced request still wants its queue wait attributed (the QUEUE
    // span) even with the flight recorder off.
    M.EnqNs = flick_gauge_now_ns();
  }
  ReqQ.push_back(Req{From, M});
  L.unlock();
  QNotEmpty.notify_one();
  return FLICK_OK;
}

int ThreadedLink::popRequest(Conn **From, WireMsg *M) {
  uint64_t LockT0 = flick_gauge_lock_begin();
  std::unique_lock<std::mutex> L(QMu);
  flick_gauge_lock_end(LockT0);
  QNotEmpty.wait(
      L, [&] { return !ReqQ.empty() || Down.load(std::memory_order_relaxed); });
  // Drain-then-stop: requests accepted before shutdown are still handed
  // out; the queue only fails once it is empty after shutdown.
  if (ReqQ.empty())
    return FLICK_ERR_TRANSPORT;
  Req R = ReqQ.front();
  ReqQ.pop_front();
  L.unlock();
  QNotFull.notify_one();
  if (flick_gauges_on()) {
    flick_gauge_sub(&flick_gauges::queue_depth, 1);
    flick_gauges_global.queue_dequeues.fetch_add(1, std::memory_order_relaxed);
    if (R.M.EnqNs) {
      uint64_t Now = flick_gauge_now_ns();
      flick_gauges_global.queue_wait_ns.fetch_add(
          Now > R.M.EnqNs ? Now - R.M.EnqNs : 0, std::memory_order_relaxed);
    }
  }
  if (R.M.EnqNs && flick_trace_active) {
    uint64_t Now = flick_gauge_now_ns();
    flick_trace_deposit_wait(Now > R.M.EnqNs ? Now - R.M.EnqNs : 0);
  }
  *From = R.From;
  *M = R.M;
  return FLICK_OK;
}

ThreadedLink::Conn::~Conn() {
  for (WireMsg &M : RepQ)
    std::free(M.Data);
}

int ThreadedLink::Conn::awaitReply(WireMsg *M) {
  std::unique_lock<std::mutex> L(RMu);
  RCv.wait(L, [&] {
    return !RepQ.empty() || Link.Down.load(std::memory_order_relaxed);
  });
  if (RepQ.empty())
    return FLICK_ERR_TRANSPORT;
  *M = RepQ.front();
  RepQ.pop_front();
  return FLICK_OK;
}

int ThreadedLink::Conn::sendv(const flick_iov *Segs, size_t Count) {
  WireMsg M;
  if (int Err = Pool.fill(&M, Segs, Count, CorrOut))
    return Err;
  Link.wireDelay(M.Len);
  return Link.pushRequest(this, M);
}

int ThreadedLink::Conn::recvInto(flick_buf *Into) {
  WireMsg M;
  if (int Err = awaitReply(&M))
    return Err;
  CorrIn = M.Corr;
  if (flick_trace_active)
    flick_trace_deposit(M.TraceId, M.ParentSpan, M.Endpoint);
  // Adopt the wire allocation whole, as in LocalLink; the buffer migrates
  // from the worker's pool to this connection's (both plain malloc).
  Pool.adopt(Into, M.Data, M.Cap, M.Len);
  return FLICK_OK;
}

int ThreadedLink::WorkerChan::sendv(const flick_iov *Segs, size_t Count) {
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
  }
  To->RCv.notify_one();
  return FLICK_OK;
}

int ThreadedLink::WorkerChan::recvInto(flick_buf *Into) {
  Conn *From = nullptr;
  WireMsg M;
  if (int Err = Link.popRequest(&From, &M))
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
