//===- tests/BufferPoolTests.cpp - wire-buffer pool & gather-ref tests ----===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the zero-copy message-path plumbing: flick_buf borrowed
/// segments (flick_buf_ref / flick_buf_iovec), the LocalLink wire-buffer
/// free list (reuse, growth under outstanding messages, exhaustion
/// fallback, alignment of adopted buffers).
///
//===----------------------------------------------------------------------===//

#include "ChannelTestUtil.h"
#include "runtime/flick_runtime.h"
#include "runtime/transport/LocalLink.h"
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

using namespace flick;

namespace {

struct ScopedMetrics {
  flick_metrics M;
  ScopedMetrics() { flick_metrics_enable(&M); }
  ~ScopedMetrics() { flick_metrics_disable(); }
};

//===----------------------------------------------------------------------===//
// flick_buf borrowed segments
//===----------------------------------------------------------------------===//

TEST(BufRef, RecordsBorrowedSpanWithoutCopying) {
  ScopedMetrics S;
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_buf_ensure(&B, 8), FLICK_OK);
  std::memset(flick_buf_grab(&B, 8), 0xAB, 8);

  std::vector<uint8_t> Payload(4096, 0xCD);
  uint64_t CopiedBefore = S.M.bytes_copied;
  ASSERT_EQ(flick_buf_ref(&B, Payload.data(), Payload.size()), FLICK_OK);

  EXPECT_EQ(B.nrefs, 1u);
  EXPECT_EQ(B.ref_bytes, 4096u);
  EXPECT_EQ(B.len, 8u); // owned bytes untouched
  EXPECT_EQ(flick_buf_total(&B), 8u + 4096u);
  EXPECT_EQ(B.refs[0].base, Payload.data());
  EXPECT_EQ(B.refs[0].own_off, 8u);
  EXPECT_EQ(S.M.bytes_copied, CopiedBefore); // no bytes moved
  EXPECT_EQ(S.M.gather_refs, 1u);
  EXPECT_EQ(S.M.gather_bytes, 4096u);
  flick_buf_destroy(&B);
}

TEST(BufRef, IovecInterleavesOwnedRunsAndBorrowedSpans) {
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_buf_ensure(&B, 64), FLICK_OK);
  std::memset(flick_buf_grab(&B, 8), 0x11, 8);
  uint8_t R1[16], R2[32];
  ASSERT_EQ(flick_buf_ref(&B, R1, sizeof(R1)), FLICK_OK);
  std::memset(flick_buf_grab(&B, 4), 0x22, 4);
  ASSERT_EQ(flick_buf_ref(&B, R2, sizeof(R2)), FLICK_OK);

  flick_iov Iov[2 * FLICK_BUF_MAX_REFS + 1];
  size_t N = flick_buf_iovec(&B, Iov);
  ASSERT_EQ(N, 4u);
  EXPECT_EQ(Iov[0].base, B.data); // owned run before first ref
  EXPECT_EQ(Iov[0].len, 8u);
  EXPECT_EQ(Iov[1].base, R1);
  EXPECT_EQ(Iov[1].len, sizeof(R1));
  EXPECT_EQ(Iov[2].base, B.data + 8);
  EXPECT_EQ(Iov[2].len, 4u);
  EXPECT_EQ(Iov[3].base, R2);
  EXPECT_EQ(Iov[3].len, sizeof(R2));

  size_t Sum = 0;
  for (size_t I = 0; I != N; ++I)
    Sum += Iov[I].len;
  EXPECT_EQ(Sum, flick_buf_total(&B));
  flick_buf_destroy(&B);
}

TEST(BufRef, FallsBackToPlainCopyWhenSegmentListIsFull) {
  ScopedMetrics S;
  flick_buf B;
  flick_buf_init(&B);
  std::vector<uint8_t> Payload(128, 0x5C);
  for (int I = 0; I != FLICK_BUF_MAX_REFS; ++I)
    ASSERT_EQ(flick_buf_ref(&B, Payload.data(), Payload.size()), FLICK_OK);
  ASSERT_EQ(B.nrefs, size_t(FLICK_BUF_MAX_REFS));

  // The ninth segment degrades to an owned copy of the bytes.
  size_t OwnedBefore = B.len;
  ASSERT_EQ(flick_buf_ref(&B, Payload.data(), Payload.size()), FLICK_OK);
  EXPECT_EQ(B.nrefs, size_t(FLICK_BUF_MAX_REFS));
  EXPECT_EQ(B.len, OwnedBefore + Payload.size());
  EXPECT_EQ(S.M.gather_refs, uint64_t(FLICK_BUF_MAX_REFS));
  EXPECT_GE(S.M.bytes_copied, Payload.size());
  EXPECT_EQ(std::memcmp(B.data + OwnedBefore, Payload.data(), Payload.size()),
            0);
  flick_buf_destroy(&B);
}

TEST(BufRef, ResetDropsBorrowedSegments) {
  flick_buf B;
  flick_buf_init(&B);
  uint8_t Span[256];
  ASSERT_EQ(flick_buf_ref(&B, Span, sizeof(Span)), FLICK_OK);
  flick_buf_reset(&B);
  EXPECT_EQ(B.nrefs, 0u);
  EXPECT_EQ(B.ref_bytes, 0u);
  EXPECT_EQ(flick_buf_total(&B), 0u);
  flick_buf_destroy(&B);
}

TEST(BufRef, AlignWritePadsTheLogicalPosition) {
  // A borrowed span counts toward alignment, so a gathered message keeps
  // the same padding as its copied twin.
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_buf_ensure(&B, 16), FLICK_OK);
  std::memset(flick_buf_grab(&B, 4), 0, 4);
  uint8_t Span[6];
  ASSERT_EQ(flick_buf_ref(&B, Span, sizeof(Span)), FLICK_OK);
  ASSERT_EQ(flick_buf_align_write(&B, 8), FLICK_OK); // logical pos 10 -> 16
  EXPECT_EQ(flick_buf_total(&B), 16u);
  EXPECT_EQ(B.len, 10u); // 4 owned + 6 pad
  flick_buf_destroy(&B);
}

//===----------------------------------------------------------------------===//
// LocalLink wire-buffer pool
//===----------------------------------------------------------------------===//

TEST(BufferPool, ReleasedBufferIsReusedByTheNextSend) {
  ScopedMetrics S;
  LocalLink L;
  std::vector<uint8_t> Msg(100, 0x42), Out;
  ASSERT_EQ(sendBytes(L.clientEnd(), Msg.data(), Msg.size()), FLICK_OK);
  EXPECT_EQ(S.M.pool_misses, 1u);
  ASSERT_EQ(recvBytes(L.serverEnd(), Out), FLICK_OK); // releases to the pool
  EXPECT_EQ(Out, Msg);
  ASSERT_EQ(sendBytes(L.clientEnd(), Msg.data(), Msg.size()), FLICK_OK);
  EXPECT_EQ(S.M.pool_hits, 1u);
  EXPECT_EQ(S.M.pool_misses, 1u);
  ASSERT_EQ(recvBytes(L.serverEnd(), Out), FLICK_OK);
}

TEST(BufferPool, GrowsUnderConcurrentOutstandingMessages) {
  // Buffers come back only on receive, so N outstanding messages force N
  // distinct allocations -- the pool must grow, not recycle live storage.
  ScopedMetrics S;
  LocalLink L;
  std::vector<uint8_t> Msg(64, 0x07), Out;
  const size_t Outstanding = 5;
  for (size_t I = 0; I != Outstanding; ++I)
    ASSERT_EQ(sendBytes(L.clientEnd(), Msg.data(), Msg.size()), FLICK_OK);
  EXPECT_EQ(S.M.pool_misses, Outstanding);
  EXPECT_EQ(L.pendingToServer(), Outstanding);
  for (size_t I = 0; I != Outstanding; ++I)
    ASSERT_EQ(recvBytes(L.serverEnd(), Out), FLICK_OK);
  // All five allocations are parked now; five more sends are all hits.
  for (size_t I = 0; I != Outstanding; ++I)
    ASSERT_EQ(sendBytes(L.clientEnd(), Msg.data(), Msg.size()), FLICK_OK);
  EXPECT_EQ(S.M.pool_hits, Outstanding);
  EXPECT_EQ(S.M.pool_misses, Outstanding);
  for (size_t I = 0; I != Outstanding; ++I)
    ASSERT_EQ(recvBytes(L.serverEnd(), Out), FLICK_OK);
}

TEST(BufferPool, ExhaustionFallsBackToFreshAllocation) {
  // The free list is bounded: releasing more buffers than it holds frees
  // the excess, and later sends past the parked set must allocate again.
  ScopedMetrics S;
  LocalLink L;
  std::vector<uint8_t> Msg(32, 0x3F), Out;
  const size_t Burst = size_t(8) + 4; // PoolMaxBufs + 4
  for (size_t I = 0; I != Burst; ++I)
    ASSERT_EQ(sendBytes(L.clientEnd(), Msg.data(), Msg.size()), FLICK_OK);
  EXPECT_EQ(S.M.pool_misses, Burst);
  for (size_t I = 0; I != Burst; ++I)
    ASSERT_EQ(recvBytes(L.serverEnd(), Out), FLICK_OK); // only 8 can park
  for (size_t I = 0; I != Burst; ++I)
    ASSERT_EQ(sendBytes(L.clientEnd(), Msg.data(), Msg.size()), FLICK_OK);
  EXPECT_EQ(S.M.pool_hits, 8u);
  EXPECT_EQ(S.M.pool_misses, Burst + (Burst - 8));
  for (size_t I = 0; I != Burst; ++I)
    ASSERT_EQ(recvBytes(L.serverEnd(), Out), FLICK_OK);
}

TEST(BufferPool, AdoptedReceiveBuffersAreMaxAligned) {
  // recvInto hands the pooled allocation to the flick_buf by move; decode
  // may alias scalars of any type inside it, so it must be as aligned as
  // malloc guarantees.
  LocalLink L;
  std::vector<uint8_t> Msg(48, 0x66);
  ASSERT_EQ(sendBytes(L.clientEnd(), Msg.data(), Msg.size()), FLICK_OK);
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(L.serverEnd().recvInto(&B), FLICK_OK);
  EXPECT_EQ(B.len, Msg.size());
  EXPECT_EQ(std::memcmp(B.data, Msg.data(), Msg.size()), 0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(B.data) % alignof(std::max_align_t),
            0u);
  flick_buf_destroy(&B);
}

TEST(BufferPool, GatheredSendLandsInOnePooledBuffer) {
  ScopedMetrics S;
  LocalLink L;
  uint8_t Head[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint8_t> Body(1024, 0x9A);
  flick_iov Iov[2] = {{Head, sizeof(Head)}, {Body.data(), Body.size()}};
  ASSERT_EQ(L.clientEnd().sendv(Iov, 2), FLICK_OK);
  EXPECT_EQ(S.M.pool_misses, 1u); // one buffer for the whole message
  uint64_t Copied = S.M.bytes_copied;
  EXPECT_EQ(Copied, sizeof(Head) + Body.size()); // written exactly once

  std::vector<uint8_t> Out;
  ASSERT_EQ(recvBytes(L.serverEnd(), Out), FLICK_OK);
  ASSERT_EQ(Out.size(), sizeof(Head) + Body.size());
  EXPECT_EQ(std::memcmp(Out.data(), Head, sizeof(Head)), 0);
  EXPECT_EQ(std::memcmp(Out.data() + sizeof(Head), Body.data(), Body.size()),
            0);
}

} // namespace
