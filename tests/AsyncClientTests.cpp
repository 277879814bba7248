//===- tests/AsyncClientTests.cpp - pipelined client + reply demux --------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The async pipelined client under adversarial interleavings: replies
/// arriving out of order, duplicate and unknown correlation ids (dropped
/// and counted, never fatal), window-full backpressure in both blocking
/// and fail-fast modes, shutdown with requests in flight, and oneway
/// corking.  A scripted mock channel makes the reorderings deterministic;
/// the value-parameterized half runs the same client against every real
/// transport (threaded/sharded/socket) and so runs under TSan in CI.
/// Also pins the out-of-band contract: the payload bytes a server receives
/// from an async submit are identical to a synchronous client's, and
/// synchronous traffic always carries correlation id 0.
///
//===----------------------------------------------------------------------===//

#include "ChannelTestUtil.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include "runtime/transport/LocalLink.h"
#include "runtime/transport/Transport.h"
#include <cstring>
#include <deque>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

using namespace flick;

namespace {

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

/// A scripted channel: records every frame the client sends (with the
/// correlation id it carried) and replays replies in exactly the order
/// (and with exactly the ids) the test enqueued -- the deterministic
/// stand-in for a transport that reorders replies.
class MockChan final : public Channel {
public:
  struct Frame {
    std::vector<uint8_t> Bytes;
    uint64_t Corr;
  };
  std::deque<Frame> Sent;
  std::deque<Frame> Replies;

  int sendv(const flick_iov *Segs, size_t Count) override {
    Frame F{{}, CorrOut};
    for (size_t I = 0; I != Count; ++I)
      F.Bytes.insert(F.Bytes.end(), Segs[I].base, Segs[I].base + Segs[I].len);
    Sent.push_back(std::move(F));
    return FLICK_OK;
  }
  int recvInto(flick_buf *Into) override {
    if (Replies.empty())
      return FLICK_ERR_TRANSPORT;
    Frame F = std::move(Replies.front());
    Replies.pop_front();
    CorrIn = F.Corr;
    flick_buf_reset(Into);
    if (int Err = flick_buf_ensure(Into, F.Bytes.size()))
      return Err;
    if (!F.Bytes.empty())
      std::memcpy(Into->data, F.Bytes.data(), F.Bytes.size());
    Into->len = F.Bytes.size();
    return FLICK_OK;
  }
  /// Replies are copied into the caller's storage, so nothing to reclaim.
  void release(flick_buf *) override {}
};

void marshalPattern(flick_buf *Req, unsigned Seed, unsigned Call, size_t N) {
  std::vector<uint8_t> P = pattern(Seed, Call, N);
  ASSERT_EQ(flick_buf_ensure(Req, N), FLICK_OK);
  std::memcpy(flick_buf_grab(Req, N), P.data(), N);
}

TEST(AsyncClient, CompletesOutOfOrderRepliesToTheRightCalls) {
  ScopedMetrics Scope;
  MockChan Chan;
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &Chan), FLICK_OK);

  flick_call *Calls[3] = {};
  for (unsigned I = 0; I != 3; ++I) {
    marshalPattern(flick_async_begin(&Cli), 1, I, 32);
    ASSERT_EQ(flick_async_submit(&Cli, &Calls[I]), FLICK_OK);
    ASSERT_NE(Calls[I], nullptr);
    EXPECT_EQ(Chan.Sent.back().Corr, Calls[I]->id);
  }
  EXPECT_EQ(Cli.inflight, 3u);

  // Replies land 2, 0, 1 -- each tagged with its request's id and carrying
  // a payload that names the call it belongs to.
  for (unsigned I : {2u, 0u, 1u})
    Chan.Replies.push_back({pattern(9, I, 48), Calls[I]->id});

  // Waiting on call 1 (completed last) demultiplexes 2 and 0 on the way.
  EXPECT_EQ(flick_async_wait(&Cli, Calls[1]), FLICK_OK);
  for (unsigned I = 0; I != 3; ++I) {
    ASSERT_TRUE(Calls[I]->done) << "call " << I;
    std::vector<uint8_t> Want = pattern(9, I, 48);
    ASSERT_EQ(Calls[I]->rep.len, Want.size());
    EXPECT_EQ(std::memcmp(Calls[I]->rep.data, Want.data(), Want.size()), 0)
        << "call " << I << " got another call's reply";
  }
  EXPECT_EQ(Cli.inflight, 0u);
  EXPECT_EQ(Scope.M.replies_received, 3u);
  EXPECT_EQ(Scope.M.rpc_latency.count, 3u); // per-call stamps, all recorded
  EXPECT_EQ(Scope.M.corr_drops, 0u);
  flick_async_client_destroy(&Cli);
}

TEST(AsyncClient, DropsUnknownAndDuplicateIdsWithoutCrashing) {
  ScopedMetrics Scope;
  MockChan Chan;
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &Chan), FLICK_OK);

  flick_call *A = nullptr, *B = nullptr;
  marshalPattern(flick_async_begin(&Cli), 2, 0, 16);
  ASSERT_EQ(flick_async_submit(&Cli, &A), FLICK_OK);
  marshalPattern(flick_async_begin(&Cli), 2, 1, 16);
  ASSERT_EQ(flick_async_submit(&Cli, &B), FLICK_OK);

  // Unknown id, then B's reply, then a duplicate of B's id, then A's.
  Chan.Replies.push_back({pattern(7, 99, 8), 0xDEADBEEFull});
  Chan.Replies.push_back({pattern(7, 1, 24), B->id});
  Chan.Replies.push_back({pattern(7, 42, 24), B->id});
  Chan.Replies.push_back({pattern(7, 0, 24), A->id});

  EXPECT_EQ(flick_async_wait(&Cli, A), FLICK_OK);
  EXPECT_TRUE(B->done);
  std::vector<uint8_t> WantB = pattern(7, 1, 24);
  ASSERT_EQ(B->rep.len, WantB.size());
  EXPECT_EQ(std::memcmp(B->rep.data, WantB.data(), WantB.size()), 0)
      << "duplicate reply must not overwrite the first completion";
  EXPECT_EQ(Scope.M.corr_drops, 2u); // one unknown + one duplicate
  EXPECT_EQ(Scope.M.replies_received, 2u);
  flick_async_client_destroy(&Cli);
}

TEST(AsyncClient, FailFastSubmitReturnsWouldBlockAtTheWindow) {
  ScopedGauges Gauges;
  MockChan Chan;
  flick_async_opts Opts;
  Opts.window = 2;
  Opts.fail_fast = 1;
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &Chan, &Opts), FLICK_OK);

  for (unsigned I = 0; I != 2; ++I) {
    marshalPattern(flick_async_begin(&Cli), 3, I, 8);
    ASSERT_EQ(flick_async_submit(&Cli, nullptr), FLICK_OK);
  }
  marshalPattern(flick_async_begin(&Cli), 3, 2, 8);
  EXPECT_EQ(flick_async_submit(&Cli, nullptr), FLICK_ERR_WOULD_BLOCK);
  EXPECT_EQ(Cli.inflight, 2u);
  EXPECT_EQ(Chan.Sent.size(), 2u) << "rejected submit must not send";
  EXPECT_EQ(flick_gauges_global.window_stalls.load(std::memory_order_relaxed),
            1u);
  flick_async_client_destroy(&Cli);
}

TEST(AsyncClient, BlockingSubmitPumpsACompletionWhenTheWindowIsFull) {
  ScopedGauges Gauges;
  MockChan Chan;
  flick_async_opts Opts;
  Opts.window = 1;
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &Chan, &Opts), FLICK_OK);

  flick_call *A = nullptr, *B = nullptr;
  marshalPattern(flick_async_begin(&Cli), 4, 0, 8);
  ASSERT_EQ(flick_async_submit(&Cli, &A), FLICK_OK);
  // A's reply is already waiting, so the over-window submit below stalls
  // once, completes A, and then goes out.
  Chan.Replies.push_back({pattern(8, 0, 8), A->id});
  marshalPattern(flick_async_begin(&Cli), 4, 1, 8);
  ASSERT_EQ(flick_async_submit(&Cli, &B), FLICK_OK);
  EXPECT_TRUE(A->done);
  EXPECT_EQ(A->status, FLICK_OK);
  EXPECT_EQ(Cli.inflight, 1u);
  EXPECT_EQ(Chan.Sent.size(), 2u);
  EXPECT_EQ(flick_gauges_global.window_stalls.load(std::memory_order_relaxed),
            1u);
  flick_async_client_destroy(&Cli);
}

TEST(AsyncClient, CompletionCallbackRunsAndMayReleaseTheCall) {
  MockChan Chan;
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &Chan), FLICK_OK);

  struct Ctx {
    unsigned Fired = 0;
    flick_async_client *Cli = nullptr;
  } C;
  C.Cli = &Cli;
  auto OnDone = [](flick_call *Call, void *P) {
    auto *C = static_cast<Ctx *>(P);
    ++C->Fired;
    EXPECT_EQ(Call->status, FLICK_OK);
    flick_async_release(C->Cli, Call); // legal from inside the callback
  };

  flick_call *A = nullptr;
  marshalPattern(flick_async_begin(&Cli), 5, 0, 8);
  ASSERT_EQ(flick_async_submit(&Cli, &A, OnDone, &C), FLICK_OK);
  Chan.Replies.push_back({pattern(6, 0, 8), A->id});
  EXPECT_EQ(flick_async_drain(&Cli), FLICK_OK);
  EXPECT_EQ(C.Fired, 1u);
  EXPECT_EQ(Cli.inflight, 0u);
  flick_async_client_destroy(&Cli);
}

//===----------------------------------------------------------------------===//
// The out-of-band contract, pinned on the deterministic link
//===----------------------------------------------------------------------===//

TEST(AsyncClient, PayloadBytesIdenticalToSyncClientAndSyncCarriesIdZero) {
  // The same logical request leaves a synchronous client and an async
  // client; the server-visible payload bytes must be identical -- the
  // correlation id rides out of band -- and only the async frame may carry
  // a nonzero id.
  LocalLink SyncL, AsyncL;
  flick_client Sync;
  flick_client_init(&Sync, &SyncL.clientEnd());
  marshalPattern(flick_client_begin(&Sync), 11, 0, 200);
  ASSERT_EQ(flick_client_send_oneway(&Sync), FLICK_OK);
  std::vector<uint8_t> SyncBytes;
  ASSERT_EQ(recvBytes(SyncL.serverEnd(), SyncBytes), FLICK_OK);
  EXPECT_EQ(SyncL.serverEnd().lastCorrelation(), 0u)
      << "synchronous traffic must stay id 0";

  flick_async_client Async;
  ASSERT_EQ(flick_async_client_init(&Async, &AsyncL.clientEnd()), FLICK_OK);
  flick_call *Call = nullptr;
  marshalPattern(flick_async_begin(&Async), 11, 0, 200);
  ASSERT_EQ(flick_async_submit(&Async, &Call), FLICK_OK);
  std::vector<uint8_t> AsyncBytes;
  ASSERT_EQ(recvBytes(AsyncL.serverEnd(), AsyncBytes), FLICK_OK);
  EXPECT_EQ(AsyncL.serverEnd().lastCorrelation(), Call->id);
  EXPECT_NE(Call->id, 0u);

  EXPECT_EQ(SyncBytes, AsyncBytes);
  flick_async_client_destroy(&Async); // in-flight call dies with the client
  flick_client_destroy(&Sync);
}

TEST(AsyncClient, OnewayCorkHoldsFramesUntilFlush) {
  ScopedMetrics Scope;
  LocalLink L;
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &L.clientEnd()), FLICK_OK);

  const unsigned N = 5;
  for (unsigned I = 0; I != N; ++I) {
    marshalPattern(flick_async_begin(&Cli), 12, I, 40 + I);
    ASSERT_EQ(flick_async_oneway(&Cli), FLICK_OK);
    EXPECT_EQ(L.pendingToServer(), 0u) << "corked oneway must not hit the wire";
  }
  ASSERT_EQ(flick_async_flush(&Cli), FLICK_OK);
  EXPECT_EQ(L.pendingToServer(), N);
  EXPECT_EQ(flick_async_flush(&Cli), FLICK_OK); // empty flush is a no-op
  EXPECT_EQ(L.pendingToServer(), N);

  for (unsigned I = 0; I != N; ++I) {
    std::vector<uint8_t> Got;
    ASSERT_EQ(recvBytes(L.serverEnd(), Got), FLICK_OK);
    std::vector<uint8_t> Want = pattern(12, I, 40 + I);
    EXPECT_EQ(Got, Want) << "corked frame " << I;
    EXPECT_EQ(L.serverEnd().lastCorrelation(), 0u) << "oneways carry id 0";
  }
  EXPECT_EQ(Scope.M.oneways_sent, N);
  flick_async_client_destroy(&Cli);
}

TEST(AsyncClient, CorkAutoFlushesAtCorkMax) {
  LocalLink L;
  flick_async_opts Opts;
  Opts.cork_max = 3;
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &L.clientEnd(), &Opts), FLICK_OK);
  for (unsigned I = 0; I != 3; ++I) {
    marshalPattern(flick_async_begin(&Cli), 13, I, 16);
    ASSERT_EQ(flick_async_oneway(&Cli), FLICK_OK);
  }
  EXPECT_EQ(L.pendingToServer(), 3u) << "cork_max-th oneway must auto-flush";
  flick_async_client_destroy(&Cli);
}

//===----------------------------------------------------------------------===//
// Real transports (runs under TSan in CI)
//===----------------------------------------------------------------------===//

int echoDispatch(flick_server *, flick_buf *Req, flick_buf *Rep) {
  size_t N = Req->len - Req->pos;
  if (flick_buf_ensure(Rep, N) != FLICK_OK)
    return FLICK_ERR_ALLOC;
  std::memcpy(flick_buf_grab(Rep, N), Req->data + Req->pos, N);
  return FLICK_OK;
}

class AsyncClientTransport : public ::testing::TestWithParam<const char *> {
protected:
  std::unique_ptr<Transport> make(size_t QueueCap = 256) {
    auto T = makeTransport(GetParam(), QueueCap);
    EXPECT_NE(T, nullptr);
    return T;
  }
};

TEST_P(AsyncClientTransport, PipelinedEchoesMatchTheirOwnRequests) {
  ScopedMetrics Scope;
  auto T = make();
  flick_server_pool Pool;
  ASSERT_EQ(flick_server_pool_start(&Pool, T.get(), echoDispatch, 4),
            FLICK_OK);

  flick_async_opts Opts;
  Opts.window = 8;
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &T->connect(), &Opts), FLICK_OK);

  // More submits than the window: blocking submits pump completions; four
  // workers race, so replies interleave however they like -- every handle
  // must still end up with its own echo.
  const unsigned Calls = 64;
  std::vector<flick_call *> Handles;
  for (unsigned I = 0; I != Calls; ++I) {
    marshalPattern(flick_async_begin(&Cli), 21, I, 64 + (I % 7));
    flick_call *Call = nullptr;
    ASSERT_EQ(flick_async_submit(&Cli, &Call), FLICK_OK);
    Handles.push_back(Call);
  }
  ASSERT_EQ(flick_async_drain(&Cli), FLICK_OK);
  for (unsigned I = 0; I != Calls; ++I) {
    ASSERT_TRUE(Handles[I]->done) << "call " << I;
    ASSERT_EQ(Handles[I]->status, FLICK_OK) << "call " << I;
    std::vector<uint8_t> Want = pattern(21, I, 64 + (I % 7));
    ASSERT_EQ(Handles[I]->rep.len, Want.size());
    EXPECT_EQ(std::memcmp(Handles[I]->rep.data, Want.data(), Want.size()), 0)
        << "call " << I << " got another call's reply";
    flick_async_release(&Cli, Handles[I]);
  }
  EXPECT_EQ(Cli.inflight, 0u);
  EXPECT_EQ(Scope.M.corr_drops, 0u);
  EXPECT_EQ(Scope.M.rpc_latency.count, Calls);
  flick_async_client_destroy(&Cli);
  flick_server_pool_stop(&Pool);
}

TEST_P(AsyncClientTransport, UnknownAndDuplicateIdsFromAWorkerAreDropped) {
  ScopedMetrics Scope;
  auto T = make();
  Channel &Conn = T->connect();
  Channel &Worker = T->workerEnd();
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &Conn), FLICK_OK);

  flick_call *Call = nullptr;
  marshalPattern(flick_async_begin(&Cli), 22, 0, 32);
  ASSERT_EQ(flick_async_submit(&Cli, &Call), FLICK_OK);

  std::vector<uint8_t> Req;
  ASSERT_EQ(recvBytes(Worker, Req), FLICK_OK);
  EXPECT_EQ(Worker.lastCorrelation(), Call->id);
  uint8_t Junk[4] = {1, 2, 3, 4};
  // A misbehaving peer: a reply with a bogus id, a correct reply, and a
  // duplicate of the correct reply.
  Worker.setCorrelation(0xBADBADull);
  ASSERT_EQ(sendBytes(Worker, Junk, sizeof Junk), FLICK_OK);
  Worker.setCorrelation(Call->id);
  ASSERT_EQ(sendBytes(Worker, Req.data(), Req.size()), FLICK_OK);
  ASSERT_EQ(sendBytes(Worker, Req.data(), Req.size()), FLICK_OK);

  EXPECT_EQ(flick_async_wait(&Cli, Call), FLICK_OK);
  ASSERT_EQ(Call->rep.len, Req.size());
  EXPECT_EQ(std::memcmp(Call->rep.data, Req.data(), Req.size()), 0);
  EXPECT_EQ(Scope.M.corr_drops, 1u); // the bogus id; the dup is still queued

  // The duplicate is still in the reply queue: submit another call and let
  // its pump swallow the stale frame.
  flick_async_release(&Cli, Call);
  flick_call *Second = nullptr;
  marshalPattern(flick_async_begin(&Cli), 22, 1, 32);
  ASSERT_EQ(flick_async_submit(&Cli, &Second), FLICK_OK);
  std::vector<uint8_t> Req2;
  ASSERT_EQ(recvBytes(Worker, Req2), FLICK_OK);
  ASSERT_EQ(sendBytes(Worker, Req2.data(), Req2.size()), FLICK_OK);
  EXPECT_EQ(flick_async_wait(&Cli, Second), FLICK_OK);
  EXPECT_EQ(Scope.M.corr_drops, 2u) << "stale duplicate dropped, not matched";
  ASSERT_EQ(Second->rep.len, Req2.size());
  EXPECT_EQ(std::memcmp(Second->rep.data, Req2.data(), Req2.size()), 0);

  flick_async_client_destroy(&Cli);
  T->shutdown();
}

TEST_P(AsyncClientTransport, ShutdownWithRequestsInFlightFailsEveryCall) {
  ScopedMetrics Scope;
  auto T = make();
  Channel &Conn = T->connect();
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &Conn), FLICK_OK);

  const unsigned K = 4;
  std::vector<flick_call *> Handles;
  for (unsigned I = 0; I != K; ++I) {
    marshalPattern(flick_async_begin(&Cli), 23, I, 64);
    flick_call *Call = nullptr;
    ASSERT_EQ(flick_async_submit(&Cli, &Call), FLICK_OK);
    Handles.push_back(Call);
  }
  T->shutdown(); // no worker ever served them
  EXPECT_EQ(flick_async_drain(&Cli), FLICK_ERR_TRANSPORT);
  for (unsigned I = 0; I != K; ++I) {
    EXPECT_TRUE(Handles[I]->done) << "call " << I;
    EXPECT_EQ(Handles[I]->status, FLICK_ERR_TRANSPORT) << "call " << I;
  }
  EXPECT_EQ(Cli.inflight, 0u);
  flick_async_client_destroy(&Cli);
}

TEST_P(AsyncClientTransport, CorkedBatchArrivesIntactFrameByFrame) {
  auto T = make();
  Channel &Conn = T->connect();
  Channel &Worker = T->workerEnd();
  flick_async_client Cli;
  ASSERT_EQ(flick_async_client_init(&Cli, &Conn), FLICK_OK);

  const unsigned N = 6;
  for (unsigned I = 0; I != N; ++I) {
    marshalPattern(flick_async_begin(&Cli), 24, I, 100 + 13 * I);
    ASSERT_EQ(flick_async_oneway(&Cli), FLICK_OK);
  }
  ASSERT_EQ(flick_async_flush(&Cli), FLICK_OK);
  // One connection's frames stay FIFO on every transport; SocketLink sent
  // all of them in a single sendmsg and the receiver re-frames the stream.
  for (unsigned I = 0; I != N; ++I) {
    std::vector<uint8_t> Got;
    ASSERT_EQ(recvBytes(Worker, Got), FLICK_OK) << "frame " << I;
    std::vector<uint8_t> Want = pattern(24, I, 100 + 13 * I);
    EXPECT_EQ(Got, Want) << "frame " << I;
    EXPECT_EQ(Worker.lastCorrelation(), 0u);
  }
  flick_async_client_destroy(&Cli);
  T->shutdown();
}

INSTANTIATE_TEST_SUITE_P(AllTransports, AsyncClientTransport,
                         ::testing::Values("threaded", "sharded", "socket"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace
