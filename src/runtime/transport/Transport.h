//===- runtime/transport/Transport.h - Transport seam -----------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable transport seam for the concurrent runtime: a Transport
/// manufactures Channel endpoints (client connections and worker-side
/// channels) over some message-moving substrate and owns their shared
/// lifecycle.  Three implementations live beside this header:
///
///  - ThreadedLink:  the original mutex/condvar bounded MPSC queue
///                   (kept as the contention-study baseline).
///  - ShardedLink:   per-worker bounded lock-free rings with work
///                   stealing; no queue mutex on the hot path.
///  - SocketLink:    Unix-domain socketpairs behind a shared epoll loop;
///                   sendv lowers to sendmsg scatter-gather and recvInto
///                   reads into pooled wire buffers.
///
/// Every endpoint implements Channel's one send path (sendv) and one
/// receive path (recvInto, then release).  The two queue transports move
/// WireMsg buffers with WireBufPool's fill/adopt/reclaim (Channel.h), as
/// LocalLink does; SocketLink gathers straight into sendmsg and adopts
/// the pooled buffer it reads each frame into.
///
/// Shared semantics every implementation must honor (and that the
/// TransportConformance suite checks):
///
///  - connect() returns a channel used by one client thread at a time;
///    workerEnd() returns a channel used by one worker thread at a time.
///    Endpoints live until the transport is destroyed.
///  - A worker recv takes the next request from any connection and binds
///    that worker's subsequent send to the requesting connection (reply
///    routing).
///  - Backpressure: a send that meets a full queue/socket counts one
///    `queue_full` metric event, then blocks until space frees or
///    shutdown.
///  - Shutdown is drain-then-stop: shutdown() wakes every waiter; workers
///    still drain requests accepted before shutdown, then their recv
///    fails with FLICK_ERR_TRANSPORT.  Blocked senders and reply-waiters
///    fail immediately.  shutdown() is idempotent and must be called
///    before the destructor while other threads may still touch the
///    transport; join them before destroying.
///  - setModel() attaches a wire-time model realized as *real* blocking
///    time on the sender, so worker pools genuinely overlap it.
///
/// LocalLink (the deterministic single-threaded pump link) is NOT a
/// Transport: it has no worker side and its recv runs the registered
/// server inline.  It lives in transport/LocalLink.h.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_TRANSPORT_TRANSPORT_H
#define FLICK_RUNTIME_TRANSPORT_TRANSPORT_H

#include "runtime/Channel.h"
#include "runtime/NetworkModel.h"
#include <cstddef>
#include <memory>

namespace flick {

/// Abstract factory + lifecycle for concurrent channel pairs.  See the
/// file comment for the semantics implementations must honor.
class Transport {
public:
  virtual ~Transport();

  /// Creates a new client connection; one thread at a time may use it.
  virtual Channel &connect() = 0;

  /// Creates a new worker-side channel; one per worker thread.
  virtual Channel &workerEnd() = 0;

  /// Wakes every blocked sender/receiver and begins drain-then-stop.
  /// Idempotent.
  virtual void shutdown() = 0;

  /// Requests accepted and not yet picked up by a worker.  Queue
  /// transports count messages; SocketLink reports buffered wire bytes
  /// (tests only rely on zero / nonzero there).
  virtual size_t pendingRequests() const = 0;

  /// Attaches a wire-time model; senders sleep the modeled transit.
  virtual void setModel(NetworkModel Model) = 0;
};

/// Creates a transport by name: "threaded" (mutex MPSC queue), "sharded"
/// (lock-free rings + work stealing), or "socket" (Unix sockets + epoll).
/// \p QueueCap bounds the request backlog: queued messages for the queue
/// transports (per shard for "sharded"), and roughly QueueCap KiB of
/// socket send buffer for "socket".  A null name means "sharded" (the
/// default transport); an unknown name returns null.
std::unique_ptr<Transport> makeTransport(const char *Name,
                                         size_t QueueCap = 256);

} // namespace flick

#endif // FLICK_RUNTIME_TRANSPORT_TRANSPORT_H
