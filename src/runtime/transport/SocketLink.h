//===- runtime/transport/SocketLink.h - Unix sockets + epoll ----*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SocketLink: the first transport whose messages cross a real kernel
/// boundary.  Every connect() makes an AF_UNIX SOCK_STREAM socketpair;
/// requests and replies travel as length-prefixed frames whose 48-byte
/// header carries the trace context and the async client's correlation id
/// out of band (the CDR payload bytes are identical to every other
/// transport).  Worker-side fds sit behind
/// one shared epoll instance: each is armed EPOLLIN|EPOLLONESHOT so
/// exactly one worker claims a readable connection, reads exactly one
/// frame, and re-arms it before dispatching -- the kernel does the
/// request-queue arbitration the other transports do in user space.
///
/// The zero-copy story: sendv lowers straight to sendmsg scatter-gather
/// (header + caller segments in one iovec array, no staging buffer), so
/// the send side adds zero user-space copies; recvInto reads the payload
/// into a pooled wire buffer and hands it to the caller by adoption.
/// Above the gather threshold a whole RPC's user-space copy bill is the
/// marshal fill alone (copies_per_rpc ~ 1.0 in fig8's payload-normalized
/// column).
///
/// Flight-recorder hooks: sock_syscalls counts sendmsg/read/poll/
/// epoll_wait issued, sock_eagain counts send-side would-block retries;
/// a send meeting a full socket buffer counts one queue_full metric
/// event (same backpressure contract as the queue transports).
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_TRANSPORT_SOCKETLINK_H
#define FLICK_RUNTIME_TRANSPORT_SOCKETLINK_H

#include "runtime/transport/Transport.h"
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

/// POSIX scatter-gather element (sys/uio.h), forward-declared at global
/// scope so this header stays free of system includes and the elaborated
/// `struct iovec` below cannot inject a new type into namespace flick.
struct iovec;

namespace flick {

/// The Unix-domain socket transport.  Same thread contract, reply
/// routing, backpressure accounting, drain-then-stop shutdown, and
/// sender-sleeps wire model as the queue transports (see Transport.h).
///
/// Shutdown detail: shutdown() writes the wake eventfd (level-triggered,
/// never read, so every epoll_wait from then on returns immediately) and
/// half-closes every client fd with ::shutdown(SHUT_RDWR).  Request
/// frames already buffered in a socket stay readable server-side, so
/// workers drain them before their recv fails; client reply-waiters see
/// EOF (or the Down flag) and fail immediately.
///
/// Fault containment: a peer that disappears mid-frame costs one
/// transport_errors metric event and its connection's deregistration;
/// the worker carries on serving the other connections.
class SocketLink final : public Transport {
public:
  /// \p SndBufKiB sizes each socket's kernel send buffer (the transport's
  /// backpressure bound, analogous to QueueCap); 0 keeps the kernel
  /// default.
  explicit SocketLink(size_t SndBufKiB = 256);
  ~SocketLink() override;

  void setModel(NetworkModel Model) override;
  Channel &connect() override;
  Channel &workerEnd() override;
  void shutdown() override;
  /// Request bytes buffered in server-side sockets and not yet read
  /// (wire bytes, not messages -- tests rely only on zero/nonzero).
  size_t pendingRequests() const override;

  /// Test hooks: the raw client-side fd of \p C (-1 when unknown), and a
  /// hard close of that fd so tests can make a peer vanish mid-frame.
  int debugClientFd(const Channel &C) const;
  void debugCloseClient(Channel &C);

private:
  /// The 48-byte wire frame header.  Len counts payload bytes only;
  /// TraceId/ParentSpan/Endpoint carry the sender's trace context beside
  /// the payload, never inside it.  SendNs (gauge clock, stamped *after*
  /// the sender's modeled wire sleep so the two never double-count) lets
  /// the receive side attribute time spent queued in the kernel socket
  /// buffer, this transport's request queue.  Zero when the sender had no
  /// tracer.  Corr is the async client's request correlation id (0 for
  /// synchronous callers), in the header for the same reason the trace
  /// context is: payload bytes never change.
  struct FrameHdr {
    uint64_t Len;
    uint64_t TraceId;
    uint64_t ParentSpan;
    uint64_t SendNs;
    uint32_t Endpoint;
    uint32_t Pad;
    uint64_t Corr;
  };

  /// Server-side half of one connection: the epoll-registered fd plus a
  /// write lock serializing reply frames (two workers may finish requests
  /// from the same connection back to back).
  struct SConn {
    int Fd = -1;
    std::mutex WrMu;
    std::atomic<bool> Dead{false};
  };

  class Conn final : public Channel {
  public:
    Conn(SocketLink &Link, int Fd, SConn *Server)
        : Link(Link), Fd(Fd), Server(Server) {}
    ~Conn() override;
    /// Writes one frame (header + the gather segments) to the
    /// non-blocking client fd, polling through EAGAIN.
    int sendv(const flick_iov *Segs, size_t Count) override;
    int recvInto(flick_buf *Into) override;
    void release(flick_buf *Buf) override { Pool.reclaim(Buf); }
    /// Corked oneway batch: all frames (header + payload segments each)
    /// leave in ONE sendmsg, so N small requests pay one syscall.  The
    /// receiver parses them sequentially off the stream as usual.
    int sendBatch(const flick_iov *const *Segs, const size_t *Counts,
                  size_t NMsgs) override;

  private:
    friend class SocketLink;
    /// Writes an arbitrary iovec array (already framed) to the fd,
    /// polling through EAGAIN; shared by sendv and sendBatch.
    int writeIovs(struct iovec *Iov, size_t NIov);
    /// Blocks (poll + Down checks) for the next reply frame header.
    int recvHdr(FrameHdr *H);

    SocketLink &Link;
    int Fd; ///< client-side fd, O_NONBLOCK
    SConn *Server;
    WireBufPool Pool;
  };

  class WorkerChan final : public Channel {
  public:
    explicit WorkerChan(SocketLink &Link) : Link(Link) {}
    /// Writes the reply frame to the connection of the last received
    /// request, under that connection's write lock.
    int sendv(const flick_iov *Segs, size_t Count) override;
    int recvInto(flick_buf *Into) override;
    void release(flick_buf *Buf) override { Pool.reclaim(Buf); }

  private:
    friend class SocketLink;
    /// Claims the next readable connection from the epoll loop and reads
    /// one whole frame; on success Cur points at the request's
    /// connection.  The payload lands in a pool buffer (*Data/*Cap).
    int recvFrame(FrameHdr *H, uint8_t **Data, size_t *Cap);

    SocketLink &Link;
    SConn *Cur = nullptr;
    WireBufPool Pool;
  };

  /// One outgoing frame: stamped header plus gather array (SocketLink.cpp).
  struct Frame;

  void wireDelay(size_t Len);
  /// Removes \p S from the epoll set (idempotent); \p Error charges one
  /// transport_errors metric event for a mid-frame disappearance.
  void deregister(SConn *S, bool Error);

  int EpollFd = -1;
  int WakeFd = -1; ///< eventfd; written once at shutdown, never read
  std::atomic<bool> Down{false};
  std::atomic<int> LiveConns{0};
  size_t SndBufBytes;

  bool Modeled = false;
  NetworkModel Model = NetworkModel::ideal();

  mutable std::mutex EndsMu;
  std::vector<std::unique_ptr<Conn>> Conns;
  std::vector<std::unique_ptr<SConn>> SConns;
  std::vector<std::unique_ptr<WorkerChan>> Workers;
};

} // namespace flick

#endif // FLICK_RUNTIME_TRANSPORT_SOCKETLINK_H
