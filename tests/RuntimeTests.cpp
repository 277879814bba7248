//===- tests/RuntimeTests.cpp - stub runtime unit tests -------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ChannelTestUtil.h"
#include "runtime/NetworkModel.h"
#include "runtime/transport/LocalLink.h"
#include "runtime/flick_runtime.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <vector>

using namespace flick;

namespace {

TEST(Buf, GrowAndReuse) {
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_buf_ensure(&B, 10000), FLICK_OK);
  EXPECT_GE(B.cap, 10000u);
  uint8_t *P = flick_buf_grab(&B, 8);
  std::memset(P, 0xAB, 8);
  EXPECT_EQ(B.len, 8u);
  size_t Cap = B.cap;
  flick_buf_reset(&B);
  EXPECT_EQ(B.len, 0u);
  EXPECT_EQ(B.pos, 0u);
  EXPECT_EQ(B.cap, Cap) << "reset must keep the allocation (buffer reuse)";
  flick_buf_destroy(&B);
}

TEST(Buf, CheckAndTake) {
  flick_buf B;
  flick_buf_init(&B);
  flick_buf_ensure(&B, 16);
  flick_buf_grab(&B, 12);
  EXPECT_TRUE(flick_buf_check(&B, 12));
  EXPECT_FALSE(flick_buf_check(&B, 13));
  flick_buf_take(&B, 8);
  EXPECT_TRUE(flick_buf_check(&B, 4));
  EXPECT_FALSE(flick_buf_check(&B, 5));
  flick_buf_destroy(&B);
}

TEST(Buf, AlignWriteZeroPads) {
  flick_buf B;
  flick_buf_init(&B);
  flick_buf_ensure(&B, 16);
  uint8_t *P = flick_buf_grab(&B, 3);
  std::memset(P, 0xFF, 3);
  ASSERT_EQ(flick_buf_align_write(&B, 8), FLICK_OK);
  EXPECT_EQ(B.len, 8u);
  for (size_t I = 3; I != 8; ++I)
    EXPECT_EQ(B.data[I], 0u);
  flick_buf_destroy(&B);
}

TEST(Buf, AlignReadChecksAvailability) {
  flick_buf B;
  flick_buf_init(&B);
  flick_buf_ensure(&B, 8);
  flick_buf_grab(&B, 3);
  flick_buf_take(&B, 1); // pos=1: aligning to 4 needs 3 bytes, only 2 left
  EXPECT_EQ(flick_buf_align_read(&B, 4), FLICK_ERR_DECODE);
  flick_buf_grab(&B, 1); // len=4: now the padding exists
  EXPECT_EQ(flick_buf_align_read(&B, 4), FLICK_OK);
  EXPECT_EQ(B.pos, 4u);
  flick_buf_destroy(&B);
}

TEST(Prims, RoundTripAllWidthsBothEndians) {
  uint8_t Buf[8];
  flick_enc_u16be(Buf, 0x1234);
  EXPECT_EQ(Buf[0], 0x12);
  EXPECT_EQ(flick_dec_u16be(Buf), 0x1234);
  flick_enc_u16le(Buf, 0x1234);
  EXPECT_EQ(Buf[0], 0x34);
  EXPECT_EQ(flick_dec_u16le(Buf), 0x1234);
  flick_enc_u32be(Buf, 0xDEADBEEF);
  EXPECT_EQ(Buf[0], 0xDE);
  EXPECT_EQ(flick_dec_u32be(Buf), 0xDEADBEEFu);
  flick_enc_u64le(Buf, 0x0102030405060708ull);
  EXPECT_EQ(Buf[0], 0x08);
  EXPECT_EQ(flick_dec_u64le(Buf), 0x0102030405060708ull);
}

TEST(Prims, FloatBitsRoundTrip) {
  EXPECT_EQ(flick_bits_f32(flick_f32_bits(3.25f)), 3.25f);
  EXPECT_EQ(flick_bits_f64(flick_f64_bits(-1e100)), -1e100);
}

TEST(Prims, SwapCopyMatchesScalarSwaps) {
  uint32_t Src[4] = {1, 0x01020304, 0xFFFFFFFF, 42};
  uint8_t Dst[16];
  flick_swap_copy_u32(Dst, reinterpret_cast<uint8_t *>(Src), 4);
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(flick_dec_u32be(Dst + 4 * I), Src[I]);
  uint8_t Back[16];
  flick_swap_copy_u32(Back, Dst, 4);
  EXPECT_EQ(std::memcmp(Back, Src, 16), 0);
}

/// Checks one swap-copy width against a byte-reversal reference for every
/// count through two 32-byte vectors plus a tail, at every pairing of
/// source and destination misalignment, and that no byte outside the
/// destination range is written.
void checkSwapCopy(unsigned W,
                   void (*Kernel)(uint8_t *, const uint8_t *, size_t)) {
  constexpr size_t MaxCount = 67, Slack = 16;
  std::vector<uint8_t> Src(MaxCount * 8 + Slack), Dst(Src.size());
  for (size_t I = 0; I != Src.size(); ++I)
    Src[I] = static_cast<uint8_t>(I * 37 + 11);
  for (size_t Count = 0; Count <= MaxCount; ++Count)
    for (size_t SOff = 0; SOff != 8; ++SOff)
      for (size_t DOff = 0; DOff != 8; ++DOff) {
        std::fill(Dst.begin(), Dst.end(), 0xA5);
        Kernel(Dst.data() + DOff, Src.data() + SOff, Count);
        for (size_t I = 0; I != Dst.size(); ++I) {
          uint8_t Want = 0xA5;
          if (I >= DOff && I < DOff + Count * W) {
            size_t B = I - DOff;
            Want = Src[SOff + B / W * W + (W - 1 - B % W)];
          }
          ASSERT_EQ(Dst[I], Want) << "W=" << W << " count=" << Count
                                  << " src+" << SOff << " dst+" << DOff
                                  << " byte " << I;
        }
      }
}

TEST(Prims, SwapCopyU16MatchesReferenceAtEveryCountAndOffset) {
  checkSwapCopy(2, flick_swap_copy_u16);
}

TEST(Prims, SwapCopyU32MatchesReferenceAtEveryCountAndOffset) {
  checkSwapCopy(4, flick_swap_copy_u32);
}

TEST(Prims, SwapCopyU64MatchesReferenceAtEveryCountAndOffset) {
  checkSwapCopy(8, flick_swap_copy_u64);
}

TEST(Prims, SwapCopyOfZeroWordsAcceptsNullPointers) {
  flick_swap_copy_u16(nullptr, nullptr, 0);
  flick_swap_copy_u32(nullptr, nullptr, 0);
  flick_swap_copy_u64(nullptr, nullptr, 0);
}

TEST(Arena, BumpAllocAndReset) {
  flick_arena A;
  void *P1 = flick_arena_alloc(&A, 100);
  void *P2 = flick_arena_alloc(&A, 100);
  ASSERT_TRUE(P1 && P2);
  EXPECT_NE(P1, P2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P1) % 16, 0u);
  size_t Used = A.used;
  flick_arena_reset(&A);
  EXPECT_EQ(A.used, 0u);
  void *P3 = flick_arena_alloc(&A, 100);
  EXPECT_EQ(P3, P1) << "reset must reuse the same storage";
  (void)Used;
  flick_arena_destroy(&A);
}

TEST(Arena, NullArenaFallsBackToMalloc) {
  void *P = flick_arena_alloc(nullptr, 32);
  ASSERT_TRUE(P);
  std::free(P);
}

TEST(Channel, LocalLinkDeliversInOrder) {
  LocalLink Link;
  uint8_t A[] = {1, 2, 3};
  uint8_t B[] = {9};
  EXPECT_EQ(sendBytes(Link.clientEnd(), A, 3), FLICK_OK);
  EXPECT_EQ(sendBytes(Link.clientEnd(), B, 1), FLICK_OK);
  std::vector<uint8_t> Msg;
  EXPECT_EQ(recvBytes(Link.serverEnd(), Msg), FLICK_OK);
  EXPECT_EQ(Msg, std::vector<uint8_t>({1, 2, 3}));
  EXPECT_EQ(recvBytes(Link.serverEnd(), Msg), FLICK_OK);
  EXPECT_EQ(Msg, std::vector<uint8_t>({9}));
  EXPECT_EQ(recvBytes(Link.serverEnd(), Msg), FLICK_ERR_TRANSPORT);
}

TEST(Channel, ClientRecvPumpsServer) {
  LocalLink Link;
  int Pumps = 0;
  Link.setPump([&] {
    ++Pumps;
    uint8_t R[] = {7};
    return sendBytes(Link.serverEnd(), R, 1) == FLICK_OK;
  });
  std::vector<uint8_t> Msg;
  EXPECT_EQ(recvBytes(Link.clientEnd(), Msg), FLICK_OK);
  EXPECT_EQ(Pumps, 1);
  EXPECT_EQ(Msg, std::vector<uint8_t>({7}));
}

TEST(Channel, SimClockAccumulatesWireTime) {
  LocalLink Link;
  SimClock Clock;
  NetworkModel M;
  M.EffectiveBitsPerSec = 8e6; // 1 byte/us
  M.PerMsgOverheadUs = 100;
  M.MtuBytes = 0;
  Link.setModel(M, &Clock);
  std::vector<uint8_t> Payload(1000);
  sendBytes(Link.clientEnd(), Payload.data(), Payload.size());
  EXPECT_NEAR(Clock.totalUs(), 1100.0, 0.001);
}

TEST(NetworkModelTest, WireTimeComponents) {
  NetworkModel M{"t", 8e6, 50.0, 100, 10.0};
  // 250 bytes = 250us transmission + 50us per message + 3 packets * 10us.
  EXPECT_NEAR(M.wireTimeUs(250), 250 + 50 + 30, 1e-9);
  // Zero-byte message still pays overhead and one packet.
  EXPECT_NEAR(M.wireTimeUs(0), 50 + 10, 1e-9);
}

TEST(NetworkModelTest, PresetOrdering) {
  // Effective bandwidth must follow the paper: 10mbit < 100mbit(70 eff)
  // < myrinet(84.5 eff); the wire time for a big message the reverse.
  double T10 = NetworkModel::ethernet10().wireTimeUs(1 << 20);
  double T100 = NetworkModel::ethernet100().wireTimeUs(1 << 20);
  double TMyr = NetworkModel::myrinet640().wireTimeUs(1 << 20);
  EXPECT_GT(T10, T100);
  EXPECT_GT(T100, TMyr);
}

TEST(NaivePrims, PutGetRoundTrip) {
  flick_buf B;
  flick_buf_init(&B);
  EXPECT_EQ(flick_naive_put_u32(&B, 0xCAFEBABE, 1), FLICK_OK);
  EXPECT_EQ(flick_naive_put_u16(&B, 0x1234, 0), FLICK_OK);
  EXPECT_EQ(flick_naive_put_u8(&B, 0x7F), FLICK_OK);
  EXPECT_EQ(flick_naive_put_pad(&B, 4), FLICK_OK);
  uint32_t V32;
  uint16_t V16;
  uint8_t V8;
  EXPECT_EQ(flick_naive_get_u32(&B, &V32, 1), FLICK_OK);
  EXPECT_EQ(V32, 0xCAFEBABEu);
  EXPECT_EQ(flick_naive_get_u16(&B, &V16, 0), FLICK_OK);
  EXPECT_EQ(V16, 0x1234u);
  EXPECT_EQ(flick_naive_get_u8(&B, &V8), FLICK_OK);
  EXPECT_EQ(V8, 0x7Fu);
  EXPECT_EQ(flick_naive_get_pad(&B, 4), FLICK_OK);
  EXPECT_EQ(flick_naive_get_u8(&B, &V8), FLICK_ERR_DECODE);
  flick_buf_destroy(&B);
}

TEST(Channel, ClientRecvFailsOnEmptyLinkWithNoPump) {
  LocalLink Link;
  std::vector<uint8_t> Out;
  EXPECT_EQ(recvBytes(Link.clientEnd(), Out), FLICK_ERR_TRANSPORT);
  // Server side fails the same way: it never pumps.
  EXPECT_EQ(recvBytes(Link.serverEnd(), Out), FLICK_ERR_TRANSPORT);
}

TEST(Channel, PumpReturningFalseIsTransportError) {
  LocalLink Link;
  int Pumps = 0;
  Link.setPump([&] {
    ++Pumps;
    return false;
  });
  std::vector<uint8_t> Out{1, 2, 3};
  EXPECT_EQ(recvBytes(Link.clientEnd(), Out), FLICK_ERR_TRANSPORT);
  EXPECT_EQ(Pumps, 1) << "a failing pump must not be retried";
}

TEST(Channel, PendingToServerAccounting) {
  LocalLink Link;
  EXPECT_EQ(Link.pendingToServer(), 0u);
  uint8_t Msg[4] = {1, 2, 3, 4};
  ASSERT_EQ(sendBytes(Link.clientEnd(), Msg, 4), FLICK_OK);
  ASSERT_EQ(sendBytes(Link.clientEnd(), Msg, 2), FLICK_OK);
  EXPECT_EQ(Link.pendingToServer(), 2u);
  // Server->client traffic must not count toward the server queue.
  ASSERT_EQ(sendBytes(Link.serverEnd(), Msg, 4), FLICK_OK);
  EXPECT_EQ(Link.pendingToServer(), 2u);
  std::vector<uint8_t> Out;
  ASSERT_EQ(recvBytes(Link.serverEnd(), Out), FLICK_OK);
  EXPECT_EQ(Out.size(), 4u);
  EXPECT_EQ(Link.pendingToServer(), 1u);
  ASSERT_EQ(recvBytes(Link.serverEnd(), Out), FLICK_OK);
  EXPECT_EQ(Out.size(), 2u);
  EXPECT_EQ(Link.pendingToServer(), 0u);
}

TEST(Channel, LocalLinkEmptyMessagesRoundTrip) {
  LocalLink Link;
  expectEmptyMessagesRoundTrip(Link.clientEnd(), Link.serverEnd());
}

TEST(Channel, LocalLinkRecvIntoResetsDirtyBuffer) {
  LocalLink Link;
  expectRecvIntoResetsDirtyBuffer(Link.clientEnd(), Link.serverEnd());
  expectRecvIntoResetsDirtyBuffer(Link.serverEnd(), Link.clientEnd());
}

TEST(ClientServer, BuffersAreReusedAcrossCalls) {
  LocalLink Link;
  flick_client C;
  flick_client_init(&C, &Link.clientEnd());
  flick_buf *B1 = flick_client_begin(&C);
  flick_buf_ensure(B1, 4096);
  uint8_t *D1 = B1->data;
  flick_buf *B2 = flick_client_begin(&C);
  EXPECT_EQ(B1, B2);
  EXPECT_EQ(B2->data, D1) << "request buffer must be reused, not realloced";
  EXPECT_EQ(B2->len, 0u);
  flick_client_destroy(&C);
}

} // namespace
