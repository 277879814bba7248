//===- runtime/transport/SocketLink.cpp - Unix sockets + epoll ------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/transport/SocketLink.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace flick;

// A frame length beyond this is a corrupt header, not a message.
static const uint64_t MaxFrameLen = uint64_t(1) << 30;

static inline void countSyscall() {
  flick_gauge_add(&flick_gauges::sock_syscalls, 1);
}

/// Consumes \p N written bytes from the front of \p MH's iovec array,
/// together with any empty entries they reach: an empty segment left
/// behind would keep the caller's send loop issuing zero-byte sendmsg
/// calls forever.
static void advanceIov(msghdr &MH, size_t N) {
  while (MH.msg_iovlen) {
    iovec &V = MH.msg_iov[0];
    if (N < V.iov_len) {
      V.iov_base = static_cast<char *>(V.iov_base) + N;
      V.iov_len -= N;
      return;
    }
    N -= V.iov_len;
    ++MH.msg_iov;
    --MH.msg_iovlen;
  }
}

/// One outgoing frame, built alike by both endpoints' sendv: the header
/// (payload length, the sender's trace context and correlation id) and
/// one gather array -- the header first, then the caller's segments
/// verbatim.  No staging buffer: this is the transport's zero-copy send
/// path.
struct SocketLink::Frame {
  FrameHdr H;
  iovec Stack[9];
  std::vector<iovec> Heap;
  iovec *Io = Stack;
  size_t N;

  Frame(const flick_iov *Segs, size_t Count, uint64_t Corr) : N(Count + 1) {
    size_t Total = 0;
    for (size_t I = 0; I != Count; ++I)
      Total += Segs[I].len;
    H = FrameHdr{Total, 0, 0, 0, 0, 0, Corr};
    if (flick_trace_active)
      flick_trace_stamp(&H.TraceId, &H.ParentSpan, &H.Endpoint);
    if (N > sizeof Stack / sizeof Stack[0]) {
      Heap.resize(N);
      Io = Heap.data();
    }
    Io[0].iov_base = &H;
    Io[0].iov_len = sizeof H;
    for (size_t I = 0; I != Count; ++I) {
      Io[I + 1].iov_base = const_cast<uint8_t *>(Segs[I].base);
      Io[I + 1].iov_len = Segs[I].len;
    }
  }
};

//===----------------------------------------------------------------------===//
// Link lifecycle
//===----------------------------------------------------------------------===//

SocketLink::SocketLink(size_t SndBufKiB) : SndBufBytes(SndBufKiB * 1024) {
  EpollFd = ::epoll_create1(0);
  WakeFd = ::eventfd(0, EFD_NONBLOCK);
  if (EpollFd >= 0 && WakeFd >= 0) {
    // data.ptr == null marks the shutdown eventfd in the worker loop.
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.ptr = nullptr;
    ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev);
  }
}

SocketLink::~SocketLink() {
  shutdown();
  std::lock_guard<std::mutex> L(EndsMu);
  for (auto &S : SConns)
    if (S->Fd >= 0)
      ::close(S->Fd);
  if (WakeFd >= 0)
    ::close(WakeFd);
  if (EpollFd >= 0)
    ::close(EpollFd);
  // Client fds close in the Conn destructors.
}

void SocketLink::setModel(NetworkModel Model) {
  this->Model = std::move(Model);
  Modeled = true;
}

Channel &SocketLink::connect() {
  std::lock_guard<std::mutex> L(EndsMu);
  int Fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
    flick_metric_add(&flick_metrics::alloc_errors, 1);
    // A dead connection: every operation fails with FLICK_ERR_TRANSPORT.
    Conns.push_back(
        std::unique_ptr<Conn>(new Conn(*this, -1, nullptr)));
    return *Conns.back();
  }
  if (SndBufBytes) {
    int Buf = static_cast<int>(SndBufBytes);
    ::setsockopt(Fds[0], SOL_SOCKET, SO_SNDBUF, &Buf, sizeof Buf);
    ::setsockopt(Fds[1], SOL_SOCKET, SO_SNDBUF, &Buf, sizeof Buf);
  }
  ::fcntl(Fds[0], F_SETFL, ::fcntl(Fds[0], F_GETFL, 0) | O_NONBLOCK);

  SConns.push_back(std::unique_ptr<SConn>(new SConn()));
  SConn *S = SConns.back().get();
  S->Fd = Fds[1];
  epoll_event Ev{};
  Ev.events = EPOLLIN | EPOLLONESHOT;
  Ev.data.ptr = S;
  ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, S->Fd, &Ev);
  LiveConns.fetch_add(1, std::memory_order_relaxed);

  Conns.push_back(std::unique_ptr<Conn>(new Conn(*this, Fds[0], S)));
  return *Conns.back();
}

Channel &SocketLink::workerEnd() {
  std::lock_guard<std::mutex> L(EndsMu);
  Workers.push_back(std::unique_ptr<WorkerChan>(new WorkerChan(*this)));
  return *Workers.back();
}

void SocketLink::shutdown() {
  if (Down.exchange(true, std::memory_order_seq_cst))
    return;
  // Wake every worker: the eventfd is level-triggered and never read, so
  // from here on epoll_wait always returns immediately.
  uint64_t One = 1;
  ssize_t W = ::write(WakeFd, &One, sizeof One);
  (void)W;
  // Half-close every client socket.  The FIN makes blocked client reads
  // fail now, while request frames already buffered stay readable on the
  // server side -- the drain-then-stop contract.
  std::lock_guard<std::mutex> L(EndsMu);
  for (auto &C : Conns)
    if (C->Fd >= 0)
      ::shutdown(C->Fd, SHUT_RDWR);
}

size_t SocketLink::pendingRequests() const {
  std::lock_guard<std::mutex> L(EndsMu);
  size_t N = 0;
  for (auto &S : SConns) {
    if (S->Fd < 0 || S->Dead.load(std::memory_order_relaxed))
      continue;
    int Avail = 0;
    if (::ioctl(S->Fd, FIONREAD, &Avail) == 0 && Avail > 0)
      N += static_cast<size_t>(Avail);
  }
  return N;
}

int SocketLink::debugClientFd(const Channel &C) const {
  std::lock_guard<std::mutex> L(EndsMu);
  for (auto &Conn : Conns)
    if (Conn.get() == &C)
      return Conn->Fd;
  return -1;
}

void SocketLink::debugCloseClient(Channel &C) {
  std::lock_guard<std::mutex> L(EndsMu);
  for (auto &Conn : Conns)
    if (Conn.get() == &C && Conn->Fd >= 0) {
      ::close(Conn->Fd);
      Conn->Fd = -1;
    }
}

void SocketLink::wireDelay(size_t Len) {
  if (!Modeled)
    return;
  double Us = Model.wireTimeUs(Len);
  if (flick_metrics_active)
    flick_metrics_active->wire_time_us += Us;
  if (flick_trace_active)
    flick_trace_record_complete(FLICK_SPAN_WIRE, "wire", Us);
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(Us));
}

void SocketLink::deregister(SConn *S, bool Error) {
  if (S->Dead.exchange(true, std::memory_order_relaxed))
    return;
  ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, S->Fd, nullptr);
  LiveConns.fetch_sub(1, std::memory_order_relaxed);
  if (Error)
    flick_metric_add(&flick_metrics::transport_errors, 1);
}

//===----------------------------------------------------------------------===//
// Client endpoint
//===----------------------------------------------------------------------===//

SocketLink::Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

int SocketLink::Conn::writeIovs(iovec *Io, size_t NIov) {
  msghdr MH{};
  MH.msg_iov = Io;
  MH.msg_iovlen = NIov;

  bool MetFull = false;
  while (MH.msg_iovlen) {
    ssize_t N = ::sendmsg(Fd, &MH, MSG_NOSIGNAL);
    countSyscall();
    if (N >= 0) {
      advanceIov(MH, static_cast<size_t>(N));
      continue;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Backpressure: the kernel send buffer is this transport's bounded
      // queue.  Count the event once per send, then poll for space.
      if (!MetFull) {
        MetFull = true;
        flick_metric_add(&flick_metrics::queue_full, 1);
        flick_gauge_add(&flick_gauges::queue_full_waits, 1);
      }
      flick_gauge_add(&flick_gauges::sock_eagain, 1);
      if (Link.Down.load(std::memory_order_relaxed))
        return FLICK_ERR_TRANSPORT;
      pollfd P = {Fd, POLLOUT, 0};
      ::poll(&P, 1, 10);
      countSyscall();
      continue;
    }
    flick_metric_add(&flick_metrics::transport_errors, 1);
    return FLICK_ERR_TRANSPORT;
  }
  return FLICK_OK;
}

int SocketLink::Conn::sendv(const flick_iov *Segs, size_t Count) {
  if (Fd < 0 || Link.Down.load(std::memory_order_acquire))
    return FLICK_ERR_TRANSPORT;
  Frame F(Segs, Count, CorrOut);
  Link.wireDelay(F.H.Len);
  // Stamp after the modeled wire sleep: the receiver's queue-wait
  // attribution then covers only real kernel-buffer time, never the
  // already-accounted WIRE span.
  if (F.H.TraceId)
    F.H.SendNs = flick_gauge_now_ns();
  return writeIovs(F.Io, F.N);
}

int SocketLink::Conn::sendBatch(const flick_iov *const *Segs,
                                const size_t *Counts, size_t NMsgs) {
  if (Fd < 0 || Link.Down.load(std::memory_order_acquire))
    return FLICK_ERR_TRANSPORT;
  // One header per frame, one iovec gather over ALL frames, ONE sendmsg
  // in the common case: the receiver parses the concatenated frames
  // sequentially off the stream, so corked oneways amortize the per-send
  // syscall (and wakeup) cost across the whole batch.
  std::vector<FrameHdr> Hdrs(NMsgs);
  size_t NIov = NMsgs, GrandTotal = 0;
  for (size_t I = 0; I != NMsgs; ++I)
    NIov += Counts[I];
  std::vector<iovec> Io(NIov);
  size_t At = 0;
  for (size_t I = 0; I != NMsgs; ++I) {
    size_t Total = 0;
    for (size_t S = 0; S != Counts[I]; ++S)
      Total += Segs[I][S].len;
    GrandTotal += Total;
    FrameHdr &H = Hdrs[I];
    H = FrameHdr{Total, 0, 0, 0, 0, 0, CorrOut};
    if (flick_trace_active)
      flick_trace_stamp(&H.TraceId, &H.ParentSpan, &H.Endpoint);
    Io[At].iov_base = &H;
    Io[At].iov_len = sizeof H;
    ++At;
    for (size_t S = 0; S != Counts[I]; ++S) {
      Io[At].iov_base = const_cast<uint8_t *>(Segs[I][S].base);
      Io[At].iov_len = Segs[I][S].len;
      ++At;
    }
  }
  // One modeled transit for the whole batch: corked frames share the wire.
  Link.wireDelay(GrandTotal);
  uint64_t Now = flick_trace_active ? flick_gauge_now_ns() : 0;
  for (size_t I = 0; I != NMsgs; ++I)
    if (Hdrs[I].TraceId)
      Hdrs[I].SendNs = Now;
  return writeIovs(Io.data(), NIov);
}

/// Reads exactly \p N bytes from the non-blocking client fd, polling
/// through EAGAIN and failing fast on shutdown or EOF.
static int readFullPolled(std::atomic<bool> &Down, int Fd, void *Buf,
                          size_t N) {
  uint8_t *P = static_cast<uint8_t *>(Buf);
  size_t Got = 0;
  while (Got != N) {
    ssize_t R = ::read(Fd, P + Got, N - Got);
    countSyscall();
    if (R > 0) {
      Got += static_cast<size_t>(R);
      continue;
    }
    if (R == 0)
      return FLICK_ERR_TRANSPORT;
    if (errno == EINTR)
      continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return FLICK_ERR_TRANSPORT;
    if (Down.load(std::memory_order_relaxed))
      return FLICK_ERR_TRANSPORT;
    pollfd PF = {Fd, POLLIN, 0};
    ::poll(&PF, 1, 10);
    countSyscall();
  }
  return FLICK_OK;
}

int SocketLink::Conn::recvHdr(FrameHdr *H) {
  if (Fd < 0)
    return FLICK_ERR_TRANSPORT;
  if (int Err = readFullPolled(Link.Down, Fd, H, sizeof *H))
    return Err;
  if (H->Len > MaxFrameLen)
    return FLICK_ERR_TRANSPORT;
  return FLICK_OK;
}

int SocketLink::Conn::recvInto(flick_buf *Into) {
  FrameHdr H;
  if (int Err = recvHdr(&H))
    return Err;
  CorrIn = H.Corr;
  size_t Cap = 0;
  uint8_t *Data = Pool.acquire(H.Len, &Cap);
  if (!Data) {
    flick_metric_add(&flick_metrics::alloc_errors, 1);
    return FLICK_ERR_TRANSPORT;
  }
  if (H.Len)
    if (int Err = readFullPolled(Link.Down, Fd, Data, H.Len)) {
      Pool.release(Data, Cap);
      return Err;
    }
  if (flick_trace_active)
    flick_trace_deposit(H.TraceId, H.ParentSpan, H.Endpoint);
  // Receive by adoption, as everywhere: the pooled buffer the kernel
  // filled becomes the caller's flick_buf storage, no user-space copy.
  Pool.adopt(Into, Data, Cap, H.Len);
  return FLICK_OK;
}

//===----------------------------------------------------------------------===//
// Worker endpoint
//===----------------------------------------------------------------------===//

/// Reads exactly \p N bytes from a blocking server-side fd.
/// Returns 1 on success, 0 on EOF before the first byte (a clean
/// frame-boundary close), -1 on error or EOF mid-read (a truncated
/// frame).
static int readBlocking(int Fd, void *Buf, size_t N) {
  uint8_t *P = static_cast<uint8_t *>(Buf);
  size_t Got = 0;
  while (Got != N) {
    ssize_t R = ::read(Fd, P + Got, N - Got);
    countSyscall();
    if (R > 0) {
      Got += static_cast<size_t>(R);
      continue;
    }
    if (R == 0)
      return Got == 0 ? 0 : -1;
    if (errno == EINTR)
      continue;
    return -1;
  }
  return 1;
}

int SocketLink::WorkerChan::recvFrame(FrameHdr *H, uint8_t **Data,
                                      size_t *Cap) {
  for (;;) {
    if (Link.Down.load(std::memory_order_acquire) &&
        Link.LiveConns.load(std::memory_order_relaxed) == 0)
      return FLICK_ERR_TRANSPORT;
    epoll_event Ev;
    int N = ::epoll_wait(Link.EpollFd, &Ev, 1, 50);
    countSyscall();
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return FLICK_ERR_TRANSPORT;
    }
    if (N == 0)
      continue;
    if (!Ev.data.ptr) {
      // The shutdown eventfd.  Still-live connections hold buffered
      // frames to drain; back off briefly so the level-triggered wakeup
      // does not spin a core while other workers finish them.
      if (Link.Down.load(std::memory_order_acquire)) {
        if (Link.LiveConns.load(std::memory_order_relaxed) == 0)
          return FLICK_ERR_TRANSPORT;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      continue;
    }
    // EPOLLONESHOT: this worker owns the connection until it re-arms it.
    SConn *S = static_cast<SConn *>(Ev.data.ptr);
    int R = readBlocking(S->Fd, H, sizeof *H);
    if (R <= 0) {
      // Clean EOF under shutdown is the normal drain end; a truncated
      // header or an EOF without shutdown is a peer fault: count it,
      // drop the connection, keep serving the rest.
      Link.deregister(S, R < 0 ||
                             !Link.Down.load(std::memory_order_relaxed));
      continue;
    }
    // Queue wait ends the moment this worker claims the frame, before
    // the payload drain: a payload larger than the socket buffer is
    // streamed while the sender still blocks inside its SEND span, and
    // clocking that overlap here too would double-count it.
    uint64_t WaitNs = 0;
    if (H->SendNs) {
      uint64_t Now = flick_gauge_now_ns();
      WaitNs = Now > H->SendNs ? Now - H->SendNs : 0;
    }
    if (H->Len > MaxFrameLen) {
      Link.deregister(S, true);
      continue;
    }
    *Data = Pool.acquire(H->Len, Cap);
    if (!*Data) {
      flick_metric_add(&flick_metrics::alloc_errors, 1);
      Link.deregister(S, true);
      continue;
    }
    if (H->Len && readBlocking(S->Fd, *Data, H->Len) <= 0) {
      // The fault-containment case: the peer vanished mid-message.
      Pool.release(*Data, *Cap);
      Link.deregister(S, true);
      continue;
    }
    // Re-arm before dispatching so this connection's further buffered
    // frames are visible to the other workers while we run the handler.
    epoll_event Re{};
    Re.events = EPOLLIN | EPOLLONESHOT;
    Re.data.ptr = S;
    ::epoll_ctl(Link.EpollFd, EPOLL_CTL_MOD, S->Fd, &Re);
    countSyscall();
    if (H->SendNs) {
      // Kernel-buffer dwell time: this transport's queue wait.
      if (flick_gauges_on())
        flick_gauges_global.queue_wait_ns.fetch_add(
            WaitNs, std::memory_order_relaxed);
      if (flick_trace_active)
        flick_trace_deposit_wait(WaitNs);
    }
    Cur = S;
    return FLICK_OK;
  }
}

int SocketLink::WorkerChan::sendv(const flick_iov *Segs, size_t Count) {
  SConn *S = Cur;
  if (!S || S->Dead.load(std::memory_order_relaxed))
    return FLICK_ERR_TRANSPORT;
  Frame F(Segs, Count, CorrOut);
  Link.wireDelay(F.H.Len);
  msghdr MH{};
  MH.msg_iov = F.Io;
  MH.msg_iovlen = F.N;

  // Two workers can answer back-to-back requests from one connection;
  // the per-connection write lock keeps reply frames whole.
  std::lock_guard<std::mutex> L(S->WrMu);
  while (MH.msg_iovlen) {
    ssize_t N = ::sendmsg(S->Fd, &MH, MSG_NOSIGNAL);
    countSyscall();
    if (N >= 0) {
      advanceIov(MH, static_cast<size_t>(N));
      continue;
    }
    if (errno == EINTR)
      continue;
    flick_metric_add(&flick_metrics::transport_errors, 1);
    return FLICK_ERR_TRANSPORT;
  }
  return FLICK_OK;
}

int SocketLink::WorkerChan::recvInto(flick_buf *Into) {
  FrameHdr H;
  uint8_t *Data = nullptr;
  size_t Cap = 0;
  if (int Err = recvFrame(&H, &Data, &Cap))
    return Err;
  // Auto-echo: the reply this worker sends next carries the request's
  // correlation id, so servers stay untouched by pipelining.
  CorrIn = H.Corr;
  CorrOut = H.Corr;
  if (flick_trace_active)
    flick_trace_deposit(H.TraceId, H.ParentSpan, H.Endpoint);
  Pool.adopt(Into, Data, Cap, H.Len);
  return FLICK_OK;
}
