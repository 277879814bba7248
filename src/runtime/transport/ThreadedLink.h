//===- runtime/transport/ThreadedLink.h - Mutex MPSC transport --*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ThreadedLink: the original mutex/condvar transport for the parallel
/// runtime.  Any number of client connections feed one bounded MPSC
/// request queue drained by N worker channels; replies route back over
/// per-connection queues.  Its single queue mutex is the measured ~400K
/// RPC/s ceiling (EXPERIMENTS.md); it is kept behind the Transport seam
/// as the contention-study baseline (`--transport=threaded`), with
/// ShardedLink as the lock-free replacement.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_TRANSPORT_THREADEDLINK_H
#define FLICK_RUNTIME_TRANSPORT_THREADEDLINK_H

#include "runtime/transport/Transport.h"
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace flick {

/// The mutex-queue transport: many client connections, one bounded MPSC
/// request queue, N worker channels, per-connection reply queues.
///
/// Thread contract: each channel returned by connect() belongs to one
/// client thread and each channel returned by workerEnd() to one worker
/// thread; only the request queue and the per-connection reply queues are
/// shared (mutex/condvar), so every wire-buffer pool stays lock-free.
/// Telemetry written on a channel's hot path lands in its thread's own
/// thread-local flick_metrics / flick_tracer blocks.
///
/// Backpressure: the request queue is bounded (QueueCap).  A send that
/// finds it full counts one `queue_full` metric event and blocks until a
/// worker drains an entry or the link shuts down.
///
/// Shutdown: shutdown() wakes every waiter.  Workers drain the requests
/// already queued, then their recv fails with FLICK_ERR_TRANSPORT; sends
/// and replies-in-wait fail immediately, so in-flight calls abort -- stop
/// client traffic first for a loss-free drain (flick_server_pool_stop
/// does the link shutdown for you).
///
/// Wire model: setModel() attaches a NetworkModel whose per-message time
/// is slept by the *sender* (outside any lock) instead of advancing a
/// SimClock, so concurrency genuinely overlaps it.  Modeled time is still
/// accounted to the sending thread's wire_time_us and trace ring.
class ThreadedLink final : public Transport {
public:
  explicit ThreadedLink(size_t QueueCap = 256);
  ~ThreadedLink() override;

  /// Attaches a wire-time model; every send sleeps the modeled transit.
  void setModel(NetworkModel Model) override;

  /// Creates a new client connection.  The returned channel (and the
  /// flick_client on top of it) must be used by one thread at a time.
  Channel &connect() override;

  /// Creates a new worker-side channel: recv pops the next request from
  /// any connection, send routes the reply back to that request's
  /// connection.  One per worker thread.
  Channel &workerEnd() override;

  /// Wakes every blocked sender/receiver; see the class comment.
  /// Idempotent.  Call before destroying the link while threads may still
  /// be using it, and join them before the destructor runs.
  void shutdown() override;

  /// Requests queued and not yet picked up by a worker (for tests).
  size_t pendingRequests() const override;

private:
  class Conn final : public Channel {
  public:
    explicit Conn(ThreadedLink &Link) : Link(Link) {}
    ~Conn() override;
    int sendv(const flick_iov *Segs, size_t Count) override;
    int recvInto(flick_buf *Into) override;
    void release(flick_buf *Buf) override { Pool.reclaim(Buf); }

  private:
    friend class ThreadedLink;
    /// Blocks for the next reply (or shutdown).
    int awaitReply(WireMsg *M);

    ThreadedLink &Link;
    std::mutex RMu;
    std::condition_variable RCv;
    std::deque<WireMsg> RepQ;
    WireBufPool Pool;
  };

  class WorkerChan final : public Channel {
  public:
    explicit WorkerChan(ThreadedLink &Link) : Link(Link) {}
    /// Routes the reply to the connection of the last received request.
    int sendv(const flick_iov *Segs, size_t Count) override;
    int recvInto(flick_buf *Into) override;
    void release(flick_buf *Buf) override { Pool.reclaim(Buf); }

  private:
    friend class ThreadedLink;
    ThreadedLink &Link;
    Conn *CurConn = nullptr; ///< connection of the last received request
    WireBufPool Pool;
  };

  /// Sleeps the modeled transit time for a \p Len-byte message and
  /// accounts it to the calling thread's telemetry.
  void wireDelay(size_t Len);
  /// Blocking bounded push of a request; FLICK_ERR_TRANSPORT after
  /// shutdown (ownership of M.Data returns to \p From's pool).
  int pushRequest(Conn *From, WireMsg M);
  /// Blocking pop of the next request; drains the queue even after
  /// shutdown, then fails.
  int popRequest(Conn **From, WireMsg *M);

  mutable std::mutex QMu;
  std::condition_variable QNotEmpty;
  std::condition_variable QNotFull;
  struct Req {
    Conn *From;
    WireMsg M;
  };
  std::deque<Req> ReqQ;
  const size_t QueueCap;
  std::atomic<bool> Down{false};

  bool Modeled = false;
  NetworkModel Model = NetworkModel::ideal();

  /// Endpoint storage; guarded by EndsMu during creation only (channels
  /// themselves are owned by their threads afterwards).
  mutable std::mutex EndsMu;
  std::vector<std::unique_ptr<Conn>> Conns;
  std::vector<std::unique_ptr<WorkerChan>> Workers;
};

} // namespace flick

#endif // FLICK_RUNTIME_TRANSPORT_THREADEDLINK_H
