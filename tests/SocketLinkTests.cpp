//===- tests/SocketLinkTests.cpp - Unix-socket transport ------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SocketLink specifics beyond the TransportConformance contract: the
/// zero-copy message path (neither the sendmsg gather nor receive by
/// adoption adds a user-space copy), kernel backpressure via
/// EAGAIN with the sock_eagain/sock_syscalls gauges, pooled-buffer
/// recycling through receive-by-adoption, and fault containment -- a
/// peer that vanishes mid-frame costs exactly one transport_errors
/// event, the pool keeps serving other connections, nothing hangs, and
/// the stall watchdog stays quiet.  Runs under TSan in CI.
///
//===----------------------------------------------------------------------===//

#include "ChannelTestUtil.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include "runtime/transport/SocketLink.h"
#include <cstring>
#include <gtest/gtest.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace flick;

namespace {

int echoDispatch(flick_server *, flick_buf *Req, flick_buf *Rep) {
  size_t N = Req->len - Req->pos;
  if (flick_buf_ensure(Rep, N) != FLICK_OK)
    return FLICK_ERR_ALLOC;
  std::memcpy(flick_buf_grab(Rep, N), Req->data + Req->pos, N);
  return FLICK_OK;
}

struct ScopedMetrics {
  flick_metrics M;
  ScopedMetrics() { flick_metrics_enable(&M); }
  ~ScopedMetrics() { flick_metrics_disable(); }
};

struct ScopedGauges {
  ScopedGauges() { flick_gauges_enable(); }
  ~ScopedGauges() { flick_gauges_disable(); }
};

unsigned driveEchoes(SocketLink &Link, unsigned Seed, unsigned Calls,
                     size_t Bytes) {
  flick_client Cli;
  flick_client_init(&Cli, &Link.connect());
  unsigned Ok = 0;
  for (unsigned C = 0; C != Calls; ++C) {
    std::vector<uint8_t> Want(Bytes);
    for (size_t I = 0; I != Bytes; ++I)
      Want[I] = static_cast<uint8_t>(Seed * 131 + C * 31 + I);
    flick_buf *Req = flick_client_begin(&Cli);
    if (flick_buf_ensure(Req, Bytes) != FLICK_OK)
      break;
    std::memcpy(flick_buf_grab(Req, Bytes), Want.data(), Bytes);
    if (flick_client_invoke(&Cli) != FLICK_OK)
      break;
    if (Cli.rep.len == Bytes &&
        std::memcmp(Cli.rep.data, Want.data(), Bytes) == 0)
      ++Ok;
  }
  flick_client_destroy(&Cli);
  return Ok;
}

TEST(SocketLink, LargeFramesSurvivePartialReadsAndWrites) {
  SocketLink Link;
  flick_server_pool Pool;
  ASSERT_EQ(flick_server_pool_start(&Pool, &Link, echoDispatch, 2),
            FLICK_OK);
  // 96 KiB payloads overflow both socket buffers, forcing the framing
  // code through partial sendmsg and short-read paths.
  EXPECT_EQ(driveEchoes(Link, 3, 8, 96 * 1024), 8u);
  flick_server_pool_stop(&Pool);
}

TEST(SocketLink, SendSideAddsNoUserSpaceCopies) {
  ScopedMetrics Scope;
  SocketLink Link;
  Channel &C = Link.connect();
  Channel &W = Link.workerEnd();
  std::vector<uint8_t> A(4096, 0x11), B(512, 0x22);
  flick_iov Segs[2] = {{A.data(), A.size()}, {B.data(), B.size()}};
  const size_t Total = A.size() + B.size();

  // sendv lowers to one sendmsg gather: no staging buffer, no copy.
  ASSERT_EQ(C.sendv(Segs, 2), FLICK_OK);
  EXPECT_EQ(Scope.M.bytes_copied, 0u);
  EXPECT_EQ(Scope.M.copy_ops, 0u);

  // The worker reads the frame into a pooled buffer and adopts it: the
  // kernel's copy out of the socket is the only one.
  flick_buf Req;
  flick_buf_init(&Req);
  ASSERT_EQ(W.recvInto(&Req), FLICK_OK);
  ASSERT_EQ(Req.len, Total);
  EXPECT_EQ(std::memcmp(Req.data, A.data(), A.size()), 0);
  EXPECT_EQ(std::memcmp(Req.data + A.size(), B.data(), B.size()), 0);
  EXPECT_EQ(Scope.M.bytes_copied, 0u);
  EXPECT_EQ(Scope.M.copy_ops, 0u);

  // Reply straight out of the adopted request, receive by adoption: the
  // whole round trip moved the payload without a user-space copy.
  ASSERT_EQ(sendBytes(W, Req.data, Req.len), FLICK_OK);
  W.release(&Req);
  flick_buf Got;
  flick_buf_init(&Got);
  ASSERT_EQ(C.recvInto(&Got), FLICK_OK);
  ASSERT_EQ(Got.len, Total);
  EXPECT_EQ(std::memcmp(Got.data + A.size(), B.data(), B.size()), 0);
  C.release(&Got);
  EXPECT_EQ(Scope.M.bytes_copied, 0u);
  EXPECT_EQ(Scope.M.copy_ops, 0u);
  flick_buf_destroy(&Req);
  flick_buf_destroy(&Got);
  Link.shutdown();
}

TEST(SocketLink, KernelBackpressureShowsAsEagainGauges) {
  ScopedGauges Gauges;
  SocketLink Link(/*SndBufKiB=*/1); // tiny buffers: EAGAIN is guaranteed
  Channel &C = Link.connect();
  Channel &W = Link.workerEnd();
  std::vector<uint8_t> Big(1u << 20, 0x7E);

  flick_metrics SenderM;
  int SendErr = -1;
  std::thread Sender([&] {
    flick_metrics_enable(&SenderM);
    SendErr = sendBytes(C, Big.data(), Big.size());
    flick_metrics_disable();
  });
  while (flick_gauges_global.sock_eagain.load(std::memory_order_relaxed) ==
         0)
    std::this_thread::yield();
  // A worker consuming the frame frees buffer space; the sender's polled
  // retries then complete the megabyte.
  std::vector<uint8_t> Out;
  ASSERT_EQ(recvBytes(W, Out), FLICK_OK);
  Sender.join();
  EXPECT_EQ(SendErr, FLICK_OK);
  EXPECT_EQ(Out.size(), Big.size());
  // Backpressure is billed once per send regardless of how many EAGAIN
  // retries it took, mirroring the queue transports' queue_full contract.
  EXPECT_EQ(SenderM.queue_full, 1u);
  EXPECT_GE(flick_gauges_global.sock_eagain.load(), 1u);
  EXPECT_GE(flick_gauges_global.sock_syscalls.load(), 3u);
  Link.shutdown();
}

TEST(SocketLink, AdoptionRecyclesPooledWireBuffers) {
  ScopedGauges Gauges;
  SocketLink Link;
  Channel &C = Link.connect();
  Channel &W = Link.workerEnd();
  uint8_t B[1024] = {};
  flick_buf Req;
  flick_buf_init(&Req);
  // First receive adopts a freshly malloc'd pool buffer; releasing it
  // parks it, and the second receive must reuse it (a pool hit).
  ASSERT_EQ(sendBytes(C, B, sizeof B), FLICK_OK);
  ASSERT_EQ(W.recvInto(&Req), FLICK_OK);
  W.release(&Req);
  uint64_t HitsBefore = flick_gauges_global.pool_gauge_hits.load();
  ASSERT_EQ(sendBytes(C, B, sizeof B), FLICK_OK);
  ASSERT_EQ(W.recvInto(&Req), FLICK_OK);
  EXPECT_GT(flick_gauges_global.pool_gauge_hits.load(), HitsBefore);
  W.release(&Req);
  Link.shutdown();
}

TEST(SocketLink, PeerVanishingMidFrameIsContained) {
  // Watchdog armed: if the fault wedged the epoll loop, the deadline
  // sweep would flag the stuck RPCs below.
  flick_sampler_opts Opts;
  Opts.interval_us = 1000;
  Opts.stall_deadline_us = 5e6;
  ASSERT_EQ(flick_sampler_start(&Opts), FLICK_OK);
  {
    ScopedMetrics Scope;
    SocketLink Link;
    Channel &Victim = Link.connect();
    flick_server_pool Pool;
    ASSERT_EQ(flick_server_pool_start(&Pool, &Link, echoDispatch, 2),
              FLICK_OK);

    // Hand-craft a truncated frame on the victim's raw fd: a header
    // promising 100 payload bytes, 10 actual bytes, then a vanishing
    // peer.  Some worker claims it, reads the header, and meets EOF
    // mid-payload.
    int Fd = Link.debugClientFd(Victim);
    ASSERT_GE(Fd, 0);
    uint64_t Hdr[3] = {100, 0, 0};
    ASSERT_EQ(::write(Fd, Hdr, sizeof Hdr),
              static_cast<ssize_t>(sizeof Hdr));
    uint8_t Partial[10] = {};
    ASSERT_EQ(::write(Fd, Partial, sizeof Partial),
              static_cast<ssize_t>(sizeof Partial));
    Link.debugCloseClient(Victim);

    // The pool must keep serving other connections as if nothing
    // happened.
    EXPECT_EQ(driveEchoes(Link, 9, 10, 256), 10u);
    flick_server_pool_stop(&Pool);
    // Exactly one fault: the truncated frame.  Clean shutdown of the
    // healthy connection and the workers' own drain-end receives must
    // not inflate it.
    EXPECT_EQ(Scope.M.transport_errors, 1u);
    EXPECT_EQ(Scope.M.rpcs_handled, 10u);
  }
  EXPECT_EQ(flick_sampler_stalls(), 0u);
  flick_sampler_stop();
}

} // namespace
