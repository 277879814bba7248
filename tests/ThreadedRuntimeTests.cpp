//===- tests/ThreadedRuntimeTests.cpp - parallel runtime tests ------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency tests for ThreadedLink and flick_server_pool: request/reply
/// integrity across many client threads and pool workers, bounded-queue
/// backpressure (queue_full accounting), drain-then-stop shutdown, exact
/// merged metrics, and trace context crossing threads.  Every test is
/// deterministic in its assertions -- interleavings vary, the checked
/// outcomes do not -- and the suite runs under TSan in CI.
///
//===----------------------------------------------------------------------===//

#include "ChannelTestUtil.h"
#include "runtime/flick_runtime.h"
#include "runtime/transport/ThreadedLink.h"
#include <atomic>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <thread>
#include <vector>

using namespace flick;

namespace {

/// Dispatch that echoes the request payload back as the reply.
int echoDispatch(flick_server *, flick_buf *Req, flick_buf *Rep) {
  size_t N = Req->len - Req->pos;
  if (flick_buf_ensure(Rep, N) != FLICK_OK)
    return FLICK_ERR_ALLOC;
  std::memcpy(flick_buf_grab(Rep, N), Req->data + Req->pos, N);
  return FLICK_OK;
}

/// Dispatch that counts invocations through the servant hook and sends no
/// reply (oneway shape).
int countDispatch(flick_server *Srv, flick_buf *, flick_buf *) {
  static_cast<std::atomic<int> *>(Srv->impl)->fetch_add(1);
  return FLICK_OK;
}

/// Installs a zeroed metrics block for the enclosing scope and uninstalls
/// it on exit, so early ASSERT returns never leak collection state.
struct ScopedMetrics {
  flick_metrics M;
  ScopedMetrics() { flick_metrics_enable(&M); }
  ~ScopedMetrics() { flick_metrics_disable(); }
};

/// Same, for a tracer over caller-sized ring storage.
struct ScopedTracer {
  flick_tracer T;
  std::vector<flick_span> Storage;
  explicit ScopedTracer(uint32_t Cap = 256) : Storage(Cap) {
    flick_trace_enable(&T, Storage.data(), Cap);
  }
  ~ScopedTracer() { flick_trace_disable(); }
};

/// Fills \p N bytes with a pattern unique to (\p Seed, \p Call).
std::vector<uint8_t> pattern(unsigned Seed, unsigned Call, size_t N) {
  std::vector<uint8_t> V(N);
  for (size_t I = 0; I != N; ++I)
    V[I] = static_cast<uint8_t>(Seed * 131 + Call * 31 + I);
  return V;
}

/// Issues \p Calls echo RPCs of \p Bytes each over its own connection and
/// verifies every reply byte.  Returns the number of verified replies.
unsigned driveEchoes(ThreadedLink &Link, unsigned Seed, unsigned Calls,
                     size_t Bytes) {
  flick_client Cli;
  flick_client_init(&Cli, &Link.connect());
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

TEST(ServerPool, EchoAcrossPoolPreservesPayloads) {
  ThreadedLink Link;
  flick_server_pool Pool;
  ASSERT_EQ(flick_server_pool_start(&Pool, &Link, echoDispatch, 4),
            FLICK_OK);

  const unsigned Clients = 4, Calls = 50;
  std::vector<unsigned> Verified(Clients, 0);
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != Clients; ++I)
    Ts.emplace_back([&, I] {
      Verified[I] = driveEchoes(Link, I, Calls, 64 + I * 32);
    });
  for (auto &T : Ts)
    T.join();
  flick_server_pool_stop(&Pool);

  for (unsigned I = 0; I != Clients; ++I)
    EXPECT_EQ(Verified[I], Calls) << "client " << I;
}

TEST(ServerPool, StartStopAndWorkerCount) {
  ThreadedLink Link;
  flick_server_pool Pool;
  EXPECT_EQ(flick_server_pool_workers(&Pool), 0u);
  ASSERT_EQ(flick_server_pool_start(&Pool, &Link, echoDispatch, 3),
            FLICK_OK);
  EXPECT_EQ(flick_server_pool_workers(&Pool), 3u);
  // A running pool refuses a second start.
  EXPECT_EQ(flick_server_pool_start(&Pool, &Link, echoDispatch, 2),
            FLICK_ERR_ALLOC);
  // Zero workers is rejected up front.
  flick_server_pool Other;
  EXPECT_EQ(flick_server_pool_start(&Other, &Link, echoDispatch, 0),
            FLICK_ERR_ALLOC);
  flick_server_pool_stop(&Pool);
  EXPECT_EQ(flick_server_pool_workers(&Pool), 0u);
  flick_server_pool_stop(&Pool); // double stop is a no-op
}

TEST(ServerPool, DrainsQueuedRequestsBeforeStopping) {
  ThreadedLink Link;
  std::atomic<int> Handled{0};
  // Queue oneway-shaped requests BEFORE any worker exists: stop() must
  // still dispatch every one (drain-then-stop), not discard them.
  Channel &C = Link.connect();
  const int K = 7;
  for (int I = 0; I != K; ++I) {
    uint8_t B[8] = {static_cast<uint8_t>(I)};
    ASSERT_EQ(sendBytes(C, B, sizeof B), FLICK_OK);
  }
  EXPECT_EQ(Link.pendingRequests(), size_t(K));
  flick_server_pool Pool;
  ASSERT_EQ(
      flick_server_pool_start(&Pool, &Link, countDispatch, 2, &Handled),
      FLICK_OK);
  flick_server_pool_stop(&Pool);
  EXPECT_EQ(Handled.load(), K);
  EXPECT_EQ(Link.pendingRequests(), 0u);
}

TEST(ServerPool, MergesWorkerAndClientMetricsExactly) {
  ScopedMetrics Scope;
  flick_metrics &Main = Scope.M;
  ThreadedLink Link;
  flick_server_pool Pool;
  ASSERT_EQ(flick_server_pool_start(&Pool, &Link, echoDispatch, 3),
            FLICK_OK);

  const unsigned Clients = 2, Calls = 10;
  const size_t Bytes = 16;
  std::vector<flick_metrics> CliM(Clients);
  std::vector<unsigned> Verified(Clients, 0);
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != Clients; ++I)
    Ts.emplace_back([&, I] {
      flick_metrics_enable(&CliM[I]);
      Verified[I] = driveEchoes(Link, I, Calls, Bytes);
      flick_metrics_disable();
    });
  for (auto &T : Ts)
    T.join();
  // Worker-side counters merge into Main here (the start-caller's block).
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
  // Clean shutdown must not show up as transport faults.
  EXPECT_EQ(Main.transport_errors, 0u);
  EXPECT_EQ(Main.decode_errors, 0u);
  EXPECT_EQ(Main.rpc_latency.count, N);
}

TEST(ThreadedLink, BackpressureCountsQueueFullOnce) {
  ThreadedLink Link(/*QueueCap=*/1);
  // Fill the queue from this thread so the sender below is guaranteed to
  // meet it full regardless of scheduling.
  Channel &Filler = Link.connect();
  uint8_t B[4] = {1, 2, 3, 4};
  ASSERT_EQ(sendBytes(Filler, B, sizeof B), FLICK_OK);
  ASSERT_EQ(Link.pendingRequests(), 1u);

  flick_metrics SenderM;
  int SendErr = -1;
  std::thread Sender([&] {
    flick_metrics_enable(&SenderM);
    Channel &C = Link.connect();
    SendErr = sendBytes(C, B, sizeof B); // full at entry: counts, then blocks
    flick_metrics_disable();
  });
  // No worker ever drains, so only shutdown can release the sender.
  Link.shutdown();
  Sender.join();
  EXPECT_EQ(SendErr, FLICK_ERR_TRANSPORT);
  EXPECT_EQ(SenderM.queue_full, 1u);
}

TEST(ThreadedLink, ShutdownUnblocksReceivers) {
  ThreadedLink Link;
  Channel &Conn = Link.connect();
  Channel &Worker = Link.workerEnd();
  int ConnErr = -1, WorkerErr = -1;
  std::thread ClientT([&] {
    std::vector<uint8_t> Out;
    ConnErr = recvBytes(Conn, Out); // no reply will ever come
  });
  std::thread WorkerT([&] {
    std::vector<uint8_t> Out;
    WorkerErr = recvBytes(Worker, Out); // no request will ever come
  });
  Link.shutdown();
  ClientT.join();
  WorkerT.join();
  EXPECT_EQ(ConnErr, FLICK_ERR_TRANSPORT);
  EXPECT_EQ(WorkerErr, FLICK_ERR_TRANSPORT);
}

TEST(ThreadedLink, SendAndRecvFailAfterShutdown) {
  ThreadedLink Link;
  Channel &Conn = Link.connect();
  Channel &Worker = Link.workerEnd();
  Link.shutdown();
  uint8_t B[4] = {9, 9, 9, 9};
  EXPECT_EQ(sendBytes(Conn, B, sizeof B), FLICK_ERR_TRANSPORT);
  std::vector<uint8_t> Out;
  EXPECT_EQ(recvBytes(Conn, Out), FLICK_ERR_TRANSPORT);
  EXPECT_EQ(recvBytes(Worker, Out), FLICK_ERR_TRANSPORT);
  Link.shutdown(); // idempotent
}

TEST(ThreadedLink, WorkerDrainsQueueAfterShutdown) {
  ThreadedLink Link;
  Channel &Conn = Link.connect();
  const int K = 5;
  for (int I = 0; I != K; ++I) {
    uint8_t B[4] = {static_cast<uint8_t>(0x10 + I)};
    ASSERT_EQ(sendBytes(Conn, B, sizeof B), FLICK_OK);
  }
  Link.shutdown();
  // Already-accepted requests still come out, in order, then the drained
  // queue fails.
  Channel &Worker = Link.workerEnd();
  for (int I = 0; I != K; ++I) {
    std::vector<uint8_t> Out;
    ASSERT_EQ(recvBytes(Worker, Out), FLICK_OK) << "request " << I;
    ASSERT_EQ(Out.size(), 4u);
    EXPECT_EQ(Out[0], 0x10 + I);
  }
  std::vector<uint8_t> Out;
  EXPECT_EQ(recvBytes(Worker, Out), FLICK_ERR_TRANSPORT);
}

TEST(ThreadedLink, ModeledWireTimeIsAccountedPerThread) {
  ThreadedLink Link;
  Link.setModel(NetworkModel::ethernet100());
  ScopedMetrics S;
  Channel &Conn = Link.connect();
  uint8_t B[64] = {};
  ASSERT_EQ(sendBytes(Conn, B, sizeof B), FLICK_OK);
  EXPECT_GT(S.M.wire_time_us, 0.0);
  EXPECT_DOUBLE_EQ(S.M.wire_time_us,
                   NetworkModel::ethernet100().wireTimeUs(sizeof B));
}

TEST(ThreadedTrace, ContextCrossesThreadsAndRingsAbsorb) {
  ScopedTracer Scope;
  flick_tracer &Main = Scope.T;

  ThreadedLink Link;
  flick_server_pool Pool;
  ASSERT_EQ(flick_server_pool_start(&Pool, &Link, echoDispatch, 2),
            FLICK_OK);
  // The client runs on this thread, so its spans land in Main directly;
  // the workers record into salted per-thread rings absorbed at stop.
  EXPECT_EQ(driveEchoes(Link, 7, 3, 32), 3u);
  flick_server_pool_stop(&Pool);

  std::map<uint64_t, std::vector<const flick_span *>> ByTrace;
  std::set<uint64_t> SpanIds;
  for (size_t I = 0; I != flick_trace_span_count(&Main); ++I) {
    const flick_span *Sp = flick_trace_span(&Main, I);
    EXPECT_TRUE(SpanIds.insert(Sp->span_id).second)
        << "span ids must stay unique across absorbed rings";
    ByTrace[Sp->trace_id].push_back(Sp);
  }
  ASSERT_EQ(ByTrace.size(), 3u) << "one trace per RPC";
  for (const auto &[Trace, Spans] : ByTrace) {
    // Client side: rpc root + send.  Server side (crossed threads): demux
    // root adopted via the out-of-band context + reply.
    std::map<int, const flick_span *> ByKind;
    for (const flick_span *Sp : Spans)
      ByKind[Sp->kind] = Sp;
    ASSERT_TRUE(ByKind.count(FLICK_SPAN_RPC));
    ASSERT_TRUE(ByKind.count(FLICK_SPAN_SEND));
    ASSERT_TRUE(ByKind.count(FLICK_SPAN_DEMUX))
        << "server spans must join the client's trace";
    ASSERT_TRUE(ByKind.count(FLICK_SPAN_REPLY));
    EXPECT_EQ(ByKind[FLICK_SPAN_DEMUX]->parent_id,
              ByKind[FLICK_SPAN_SEND]->span_id)
        << "demux must parent onto the send that carried the request";
  }
}

} // namespace
