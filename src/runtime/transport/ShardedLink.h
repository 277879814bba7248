//===- runtime/transport/ShardedLink.h - Lock-free rings --------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ShardedLink: the lock-free replacement for ThreadedLink's single
/// mutex-guarded request queue.  Requests flow through NShards bounded
/// MPMC rings (one atomic sequence number per cell, Vyukov-style, with
/// atomic head/tail tickets); each connection is pinned to one shard at
/// connect() and each worker owns a preferred shard, stealing from the
/// others when its own runs dry.  The hot path -- push on send, pop on
/// worker recv -- takes no mutex.
///
/// Both waits poll before they park: a worker waiting for a request and a
/// client waiting for its reply test readiness with a CPU pause between
/// tests and a sched_yield every 64, for at most a fixed 50 us budget, so
/// a call that finds its peer within the budget pays no futex wake-up on
/// either side.  A worker polls only when its last wait ended in work, so
/// an idle pool sleeps.  Past the budget a worker parks on WorkCv, and a
/// sender that meets a full ring parks on SpaceCv; both parks pair an
/// atomic waiter count with a bounded wait so a lost wakeup degrades to a
/// few milliseconds of latency, never a hang.  Replies travel through a
/// per-connection mutex, deque and condvar (RMu, RepQ, RCv), with the
/// queued count mirrored in an atomic the client polls.  They stay
/// unbounded on purpose: a bounded reply ring would add a second
/// backpressure path, and with it a deadlock between a worker blocked on
/// a client's full reply ring and that client blocked on a full request
/// ring.
///
/// Flight-recorder hooks: the shared queue_depth / queue_enqueues /
/// queue_dequeues / queue_wait_ns gauges keep their meaning; ring_wait_ns
/// accounts the time senders spend blocked on a full ring (the sharded
/// analogue of ThreadedLink's lock_wait_ns), steals counts cross-shard
/// pops, and shard_depth[] tracks per-shard occupancy.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_TRANSPORT_SHARDEDLINK_H
#define FLICK_RUNTIME_TRANSPORT_SHARDEDLINK_H

#include "runtime/transport/Transport.h"
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace flick {

/// The lock-free sharded transport.  Same thread contract, backpressure
/// accounting, drain-then-stop shutdown, and sender-sleeps wire model as
/// ThreadedLink (see Transport.h); only the queue structure differs.
///
/// Ordering: one connection's requests stay FIFO (its shard's ring is
/// FIFO and pops are totally ordered by the tail ticket); requests from
/// different connections are unordered relative to each other, as with
/// any MPSC queue drained by N workers.
class ShardedLink final : public Transport {
public:
  /// \p ShardCap bounds each shard's ring (rounded up to a power of two,
  /// minimum 2); \p Shards of 0 picks the default shard count.
  explicit ShardedLink(size_t ShardCap = 256, size_t Shards = 0);
  ~ShardedLink() override;

  void setModel(NetworkModel Model) override;
  Channel &connect() override;
  Channel &workerEnd() override;
  void shutdown() override;
  size_t pendingRequests() const override;

  size_t shards() const { return NShards; }
  /// Requests sitting in shard \p I's ring (approximate while racing).
  size_t shardDepth(size_t I) const;

private:
  class Conn final : public Channel {
  public:
    Conn(ShardedLink &Link, size_t Shard) : Link(Link), Shard(Shard) {}
    ~Conn() override;
    int sendv(const flick_iov *Segs, size_t Count) override;
    int recvInto(flick_buf *Into) override;
    void release(flick_buf *Buf) override { Pool.reclaim(Buf); }

  private:
    friend class ShardedLink;
    int awaitReply(WireMsg *M);

    ShardedLink &Link;
    const size_t Shard; ///< the ring this connection's requests enter
    std::mutex RMu;
    std::condition_variable RCv;
    std::deque<WireMsg> RepQ;
    /// RepQ.size(), stored under RMu, so awaitReply can poll without it.
    std::atomic<size_t> Queued{0};
    WireBufPool Pool;
  };

  class WorkerChan final : public Channel {
  public:
    WorkerChan(ShardedLink &Link, size_t Shard) : Link(Link), Shard(Shard) {}
    /// Routes the reply to the connection of the last received request.
    int sendv(const flick_iov *Segs, size_t Count) override;
    int recvInto(flick_buf *Into) override;
    void release(flick_buf *Buf) override { Pool.reclaim(Buf); }

  private:
    friend class ShardedLink;
    ShardedLink &Link;
    const size_t Shard; ///< preferred shard; steals from the rest
    bool Polls = false; ///< the last wait ended in work: poll the next one
    Conn *CurConn = nullptr;
    WireBufPool Pool;
  };

  /// One bounded MPMC ring: every cell carries a sequence number that
  /// encodes whether it awaits a producer (Seq == ticket) or a consumer
  /// (Seq == ticket + 1), so push and pop race on nothing but their own
  /// ticket counters.
  struct Ring {
    struct Cell {
      std::atomic<uint64_t> Seq;
      Conn *From;
      WireMsg M;
    };
    std::unique_ptr<Cell[]> Cells;
    uint64_t Mask = 0;
    alignas(64) std::atomic<uint64_t> Head{0}; ///< next enqueue ticket
    alignas(64) std::atomic<uint64_t> Tail{0}; ///< next dequeue ticket

    void init(size_t Cap);
    bool push(Conn *From, const WireMsg &M); ///< false when full
    bool pop(Conn **From, WireMsg *M);       ///< false when empty
    size_t size() const;
  };

  void wireDelay(size_t Len);
  int pushRequest(Conn *From, WireMsg M);
  int popRequest(WorkerChan *W, Conn **From, WireMsg *M);
  /// Pops from \p Pref first, then the other shards; accounts gauges and
  /// wakes one blocked sender on success.
  bool tryPopAny(size_t Pref, Conn **From, WireMsg *M);
  bool anyReady() const;
  void wakeWorker();
  void notifySpace();

  size_t NShards;
  std::unique_ptr<Ring[]> Rings;
  std::atomic<bool> Down{false};

  /// Parked workers: count + condvar.  Producers only touch ParkMu when
  /// Sleepers is nonzero, so the un-contended hot path stays lock-free.
  std::atomic<int> Sleepers{0};
  std::mutex ParkMu;
  std::condition_variable WorkCv;

  /// Senders blocked on a full ring, same pattern.
  std::atomic<int> FullWaiters{0};
  std::mutex FullMu;
  std::condition_variable SpaceCv;

  std::atomic<uint64_t> NextConnShard{0};
  std::atomic<uint64_t> NextWorkerShard{0};

  bool Modeled = false;
  NetworkModel Model = NetworkModel::ideal();

  mutable std::mutex EndsMu;
  std::vector<std::unique_ptr<Conn>> Conns;
  std::vector<std::unique_ptr<WorkerChan>> Workers;
};

} // namespace flick

#endif // FLICK_RUNTIME_TRANSPORT_SHARDEDLINK_H
