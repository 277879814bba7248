//===- tests/TransportConformanceTests.cpp - transport contract -----------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared Transport contract (Transport.h file comment), checked against
/// every implementation the factory can make: request/reply integrity through a
/// worker pool, the zero-copy sendv/recvInto/release surface (empty messages,
/// dirty receive buffers, released storage refilling without new allocations),
/// backpressure accounting (one queue_full per send that meets a full queue or
/// socket buffer), shutdown-while-blocked on every wait site, and
/// drain-then-stop.  Each test is value-parameterized over "threaded",
/// "sharded", and "socket", so a new transport joins the suite by adding one
/// literal.  Runs under TSan in CI.
///
//===----------------------------------------------------------------------===//

#include "ChannelTestUtil.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include "runtime/transport/ShardedLink.h"
#include "runtime/transport/SocketLink.h"
#include "runtime/transport/ThreadedLink.h"
#include "runtime/transport/Transport.h"
#include <chrono>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <thread>
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

/// Echo after 200 us: longer than any transport polls before it parks, so
/// every call parks and wakes both the worker and the client.
int slowEchoDispatch(flick_server *S, flick_buf *Req, flick_buf *Rep) {
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  return echoDispatch(S, Req, Rep);
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

std::vector<uint8_t> pattern(unsigned Seed, unsigned Call, size_t N) {
  std::vector<uint8_t> V(N);
  for (size_t I = 0; I != N; ++I)
    V[I] = static_cast<uint8_t>(Seed * 131 + Call * 31 + I);
  return V;
}

unsigned driveEchoes(Transport &T, unsigned Seed, unsigned Calls,
                     size_t Bytes) {
  flick_client Cli;
  flick_client_init(&Cli, &T.connect());
  unsigned Ok = 0;
  for (unsigned C = 0; C != Calls; ++C) {
    std::vector<uint8_t> Want = pattern(Seed, C, Bytes);
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

TEST(TransportFactory, ResolvesNamesAndDefaultsToSharded) {
  auto Default = makeTransport(nullptr);
  ASSERT_NE(Default, nullptr);
  EXPECT_NE(dynamic_cast<ShardedLink *>(Default.get()), nullptr);
  auto Threaded = makeTransport("threaded");
  ASSERT_NE(Threaded, nullptr);
  EXPECT_NE(dynamic_cast<ThreadedLink *>(Threaded.get()), nullptr);
  auto Sharded = makeTransport("sharded");
  ASSERT_NE(Sharded, nullptr);
  EXPECT_NE(dynamic_cast<ShardedLink *>(Sharded.get()), nullptr);
  auto Socket = makeTransport("socket");
  ASSERT_NE(Socket, nullptr);
  EXPECT_NE(dynamic_cast<SocketLink *>(Socket.get()), nullptr);
  EXPECT_EQ(makeTransport("carrier-pigeon"), nullptr);
}

class TransportConformance : public ::testing::TestWithParam<const char *> {
protected:
  bool isSocket() const { return std::string(GetParam()) == "socket"; }
  std::unique_ptr<Transport> make(size_t QueueCap = 256) {
    auto T = makeTransport(GetParam(), QueueCap);
    EXPECT_NE(T, nullptr);
    return T;
  }
};

TEST_P(TransportConformance, EchoAcrossPoolPreservesPayloads) {
  for (flick_dispatch_fn Dispatch : {echoDispatch, slowEchoDispatch}) {
    SCOPED_TRACE(Dispatch == echoDispatch ? "echo" : "slow echo");
    auto T = make();
    flick_server_pool Pool;
    ASSERT_EQ(flick_server_pool_start(&Pool, T.get(), Dispatch, 4), FLICK_OK);
    const unsigned Clients = 3, Calls = 25;
    std::vector<unsigned> Verified(Clients, 0);
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I != Clients; ++I)
      Ts.emplace_back([&, I] {
        Verified[I] = driveEchoes(*T, I, Calls, 64 + I * 32);
      });
    for (auto &Th : Ts)
      Th.join();
    flick_server_pool_stop(&Pool);
    for (unsigned I = 0; I != Clients; ++I)
      EXPECT_EQ(Verified[I], Calls) << "client " << I;
  }
}

TEST_P(TransportConformance, SendvRecvIntoReleaseRoundTrip) {
  auto T = make();
  Channel &C = T->connect();
  Channel &W = T->workerEnd();
  // Request: three gather segments; the worker must see one contiguous
  // payload regardless of how the transport moved them.
  std::vector<uint8_t> A = pattern(1, 0, 1000), B = pattern(2, 0, 3000),
                       D = pattern(3, 0, 50);
  flick_iov Segs[3] = {{A.data(), A.size()},
                       {B.data(), B.size()},
                       {D.data(), D.size()}};
  ASSERT_EQ(C.sendv(Segs, 3), FLICK_OK);

  flick_buf Req;
  flick_buf_init(&Req);
  ASSERT_EQ(W.recvInto(&Req), FLICK_OK);
  ASSERT_EQ(Req.len, A.size() + B.size() + D.size());
  EXPECT_EQ(std::memcmp(Req.data, A.data(), A.size()), 0);
  EXPECT_EQ(std::memcmp(Req.data + A.size(), B.data(), B.size()), 0);
  EXPECT_EQ(std::memcmp(Req.data + A.size() + B.size(), D.data(), D.size()),
            0);
  W.release(&Req);
  EXPECT_EQ(Req.data, nullptr);

  // Reply: two segments back through the same worker channel.
  flick_iov Rep[2] = {{B.data(), B.size()}, {A.data(), A.size()}};
  ASSERT_EQ(W.sendv(Rep, 2), FLICK_OK);
  flick_buf Got;
  flick_buf_init(&Got);
  ASSERT_EQ(C.recvInto(&Got), FLICK_OK);
  ASSERT_EQ(Got.len, A.size() + B.size());
  EXPECT_EQ(std::memcmp(Got.data, B.data(), B.size()), 0);
  EXPECT_EQ(std::memcmp(Got.data + B.size(), A.data(), A.size()), 0);
  C.release(&Got);
  T->shutdown();
}

TEST_P(TransportConformance, EmptyMessagesRoundTrip) {
  auto T = make();
  expectEmptyMessagesRoundTrip(T->connect(), T->workerEnd());
  T->shutdown();
}

TEST_P(TransportConformance, RecvIntoResetsDirtyBuffer) {
  auto T = make();
  Channel &C = T->connect();
  Channel &W = T->workerEnd();
  expectRecvIntoResetsDirtyBuffer(C, W); // request direction
  expectRecvIntoResetsDirtyBuffer(W, C); // reply direction
  T->shutdown();
}

TEST_P(TransportConformance, ReleasedStorageServesTheNextRoundTrip) {
  ScopedMetrics Scope;
  auto T = make();
  Channel &C = T->connect();
  Channel &W = T->workerEnd();
  std::vector<uint8_t> Msg = pattern(4, 0, 512);
  flick_buf Req, Rep;
  flick_buf_init(&Req);
  flick_buf_init(&Rep);
  auto RoundTrip = [&] {
    ASSERT_EQ(sendBytes(C, Msg.data(), Msg.size()), FLICK_OK);
    ASSERT_EQ(W.recvInto(&Req), FLICK_OK);
    ASSERT_EQ(sendBytes(W, Req.data, Req.len), FLICK_OK);
    W.release(&Req);
    ASSERT_EQ(C.recvInto(&Rep), FLICK_OK);
    ASSERT_EQ(Rep.len, Msg.size());
    EXPECT_EQ(std::memcmp(Rep.data, Msg.data(), Msg.size()), 0);
    C.release(&Rep);
  };
  RoundTrip();
  ASSERT_GT(Scope.M.pool_misses, 0u);
  // Every buffer the first trip allocated was adopted and then released
  // back to a pool, so the identical second trip allocates nothing.
  uint64_t Misses = Scope.M.pool_misses;
  RoundTrip();
  EXPECT_EQ(Scope.M.pool_misses, Misses);
  EXPECT_EQ(Scope.M.pool_hits, Misses);
  flick_buf_destroy(&Req);
  flick_buf_destroy(&Rep);
  T->shutdown();
}

TEST_P(TransportConformance, BackpressureCountsQueueFullOncePerSend) {
  ScopedGauges Gauges;
  // Capacity 1: a couple of queued messages for the queue transports
  // (rings round up), ~1 KiB of socket send buffer.  With no worker ever
  // draining, the sender below must meet "full" within a few sends.
  auto T = make(/*QueueCap=*/1);
  Channel &C = T->connect();
  std::vector<uint8_t> Payload(isSocket() ? (1u << 20) : 4, 0xAB);

  flick_metrics SenderM;
  int SendErr = -1;
  std::thread Sender([&] {
    flick_metrics_enable(&SenderM);
    // Sends succeed while there is space; the one that meets the full
    // condition counts queue_full once and blocks until shutdown fails
    // it out.
    while ((SendErr = sendBytes(C, Payload.data(), Payload.size())) ==
           FLICK_OK)
      ;
    flick_metrics_disable();
  });
  // The queue_full_waits gauge flips exactly when the sender has met the
  // full condition and is about to block; only then is shutdown's "fail
  // the blocked sender" path actually exercised.
  while (flick_gauges_global.queue_full_waits.load(
             std::memory_order_relaxed) == 0)
    std::this_thread::yield();
  T->shutdown();
  Sender.join();
  EXPECT_EQ(SendErr, FLICK_ERR_TRANSPORT);
  EXPECT_EQ(SenderM.queue_full, 1u);
}

TEST_P(TransportConformance, ShutdownUnblocksBlockedReceivers) {
  // At once, shutdown can beat both receivers to their wait; 20 ms in,
  // both have given up polling and parked.
  for (int DelayMs : {0, 20}) {
    SCOPED_TRACE("shutdown after " + std::to_string(DelayMs) + " ms");
    auto T = make();
    Channel &Conn = T->connect();
    Channel &Worker = T->workerEnd();
    int ConnErr = -1, WorkerErr = -1;
    std::thread ClientT([&] {
      std::vector<uint8_t> Out;
      ConnErr = recvBytes(Conn, Out); // no reply will ever come
    });
    std::thread WorkerT([&] {
      std::vector<uint8_t> Out;
      WorkerErr = recvBytes(Worker, Out); // no request will ever come
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    T->shutdown();
    ClientT.join();
    WorkerT.join();
    EXPECT_EQ(ConnErr, FLICK_ERR_TRANSPORT);
    EXPECT_EQ(WorkerErr, FLICK_ERR_TRANSPORT);
  }
}

TEST_P(TransportConformance, SendAndRecvFailAfterShutdown) {
  auto T = make();
  Channel &Conn = T->connect();
  Channel &Worker = T->workerEnd();
  T->shutdown();
  uint8_t B[4] = {9, 9, 9, 9};
  EXPECT_EQ(sendBytes(Conn, B, sizeof B), FLICK_ERR_TRANSPORT);
  std::vector<uint8_t> Out;
  EXPECT_EQ(recvBytes(Conn, Out), FLICK_ERR_TRANSPORT);
  EXPECT_EQ(recvBytes(Worker, Out), FLICK_ERR_TRANSPORT);
  T->shutdown(); // idempotent
}

TEST_P(TransportConformance, WorkerDrainsAcceptedRequestsAfterShutdown) {
  auto T = make();
  Channel &Conn = T->connect();
  const int K = 5;
  for (int I = 0; I != K; ++I) {
    uint8_t B[4] = {static_cast<uint8_t>(0x10 + I)};
    ASSERT_EQ(sendBytes(Conn, B, sizeof B), FLICK_OK);
  }
  EXPECT_NE(T->pendingRequests(), 0u);
  T->shutdown();
  // One connection's requests stay FIFO on every transport, and requests
  // accepted before shutdown still come out before the drained end fails.
  Channel &Worker = T->workerEnd();
  for (int I = 0; I != K; ++I) {
    std::vector<uint8_t> Out;
    ASSERT_EQ(recvBytes(Worker, Out), FLICK_OK) << "request " << I;
    ASSERT_EQ(Out.size(), 4u);
    EXPECT_EQ(Out[0], 0x10 + I);
  }
  std::vector<uint8_t> Out;
  EXPECT_EQ(recvBytes(Worker, Out), FLICK_ERR_TRANSPORT);
  EXPECT_EQ(T->pendingRequests(), 0u);
}

TEST_P(TransportConformance, MergedPoolMetricsAreExact) {
  ScopedMetrics Scope;
  flick_metrics &Main = Scope.M;
  auto T = make();
  flick_server_pool Pool;
  ASSERT_EQ(flick_server_pool_start(&Pool, T.get(), echoDispatch, 2),
            FLICK_OK);

  const unsigned Clients = 2, Calls = 10;
  const size_t Bytes = 64;
  std::vector<flick_metrics> CliM(Clients);
  std::vector<unsigned> Verified(Clients, 0);
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != Clients; ++I)
    Ts.emplace_back([&, I] {
      flick_metrics_enable(&CliM[I]);
      Verified[I] = driveEchoes(*T, I, Calls, Bytes);
      flick_metrics_disable();
    });
  for (auto &Th : Ts)
    Th.join();
  flick_server_pool_stop(&Pool);
  for (flick_metrics &M : CliM)
    flick_metrics_merge(&Main, &M);

  for (unsigned I = 0; I != Clients; ++I)
    ASSERT_EQ(Verified[I], Calls);
  const uint64_t N = Clients * Calls;
  EXPECT_EQ(Main.rpcs_sent, N);
  EXPECT_EQ(Main.replies_received, N);
  EXPECT_EQ(Main.rpcs_handled, N);
  EXPECT_EQ(Main.replies_sent, N);
  EXPECT_EQ(Main.request_bytes, N * Bytes);
  EXPECT_EQ(Main.reply_bytes, N * Bytes);
  EXPECT_EQ(Main.server_request_bytes, N * Bytes);
  EXPECT_EQ(Main.server_reply_bytes, N * Bytes);
  // Clean shutdown must not show up as transport faults on any transport.
  EXPECT_EQ(Main.transport_errors, 0u);
  EXPECT_EQ(Main.decode_errors, 0u);
  EXPECT_EQ(Main.rpc_latency.count, N);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportConformance,
                         ::testing::Values("threaded", "sharded", "socket"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace
