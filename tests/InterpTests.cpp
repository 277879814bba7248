//===- tests/InterpTests.cpp - interpretive marshaler tests ---------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the ILU/ORBeline-style type-program interpreter: round trips for
/// every node kind, both wire conventions, and truncation robustness.
/// (Wire equivalence with compiled stubs is asserted separately in the
/// integration binary, which owns generated headers.)
///
//===----------------------------------------------------------------------===//

#include "runtime/Interp.h"
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

using namespace flick;

namespace {

constexpr InterpWire Xdr{true, true};
constexpr InterpWire CdrLE{false, false};

struct Scalars {
  int32_t I;
  double D;
  uint8_t B;
  int64_t LL;
};

const InterpType ScalarsTy = InterpType::structOf({
    InterpType::scalar(offsetof(Scalars, I), 4),
    InterpType::scalar(offsetof(Scalars, D), 8, true),
    InterpType::scalar(offsetof(Scalars, B), 1),
    InterpType::scalar(offsetof(Scalars, LL), 8),
});

class InterpWireTest : public ::testing::TestWithParam<bool> {
protected:
  InterpWire wire() const { return GetParam() ? Xdr : CdrLE; }
};

TEST_P(InterpWireTest, ScalarStructRoundTrip) {
  Scalars In{-77, 2.5, 200, -5000000000LL};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_interp_encode(&B, ScalarsTy, &In, wire()), FLICK_OK);
  Scalars Out{};
  ASSERT_EQ(flick_interp_decode(&B, ScalarsTy, &Out, wire(), nullptr),
            FLICK_OK);
  EXPECT_EQ(Out.I, In.I);
  EXPECT_EQ(Out.D, In.D);
  EXPECT_EQ(Out.B, In.B);
  EXPECT_EQ(Out.LL, In.LL);
  flick_buf_destroy(&B);
}

TEST_P(InterpWireTest, CountedArrayRoundTrip) {
  struct Seq {
    uint32_t Len;
    int32_t *Buf;
  };
  const InterpType Elem = InterpType::scalar(0, 4);
  const InterpType SeqTy = InterpType::counted(
      offsetof(Seq, Len), offsetof(Seq, Buf), &Elem, sizeof(int32_t));
  std::vector<int32_t> Data = {1, -2, 3, INT32_MIN};
  Seq In{4, Data.data()};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_interp_encode(&B, SeqTy, &In, wire()), FLICK_OK);
  Seq Out{};
  flick_arena Ar{};
  ASSERT_EQ(flick_interp_decode(&B, SeqTy, &Out, wire(), &Ar), FLICK_OK);
  ASSERT_EQ(Out.Len, 4u);
  EXPECT_EQ(std::memcmp(Out.Buf, Data.data(), 16), 0);
  flick_arena_destroy(&Ar);
  flick_buf_destroy(&B);
}

TEST_P(InterpWireTest, CStringRoundTrip) {
  struct Holder {
    char *S;
  };
  const InterpType Ty = InterpType::structOf({InterpType::cstring(0)});
  char Text[] = "interpreted";
  Holder In{Text};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_interp_encode(&B, Ty, &In, wire()), FLICK_OK);
  Holder Out{};
  flick_arena Ar{};
  ASSERT_EQ(flick_interp_decode(&B, Ty, &Out, wire(), &Ar), FLICK_OK);
  EXPECT_STREQ(Out.S, "interpreted");
  flick_arena_destroy(&Ar);
  flick_buf_destroy(&B);
}

TEST_P(InterpWireTest, FixedArrayAndBytes) {
  struct Fixed {
    int32_t Grid[6];
    uint8_t Blob[8];
  };
  const InterpType Elem = InterpType::scalar(0, 4);
  const InterpType Ty = InterpType::structOf({
      InterpType::fixedArray(offsetof(Fixed, Grid), &Elem, 6, 4),
      InterpType::bytes(offsetof(Fixed, Blob), 8),
  });
  Fixed In{};
  for (int I = 0; I != 6; ++I)
    In.Grid[I] = I * 3 - 7;
  std::memcpy(In.Blob, "ABCDEFGH", 8);
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_interp_encode(&B, Ty, &In, wire()), FLICK_OK);
  Fixed Out{};
  ASSERT_EQ(flick_interp_decode(&B, Ty, &Out, wire(), nullptr), FLICK_OK);
  EXPECT_EQ(std::memcmp(&In, &Out, sizeof(Fixed)), 0);
  flick_buf_destroy(&B);
}

TEST_P(InterpWireTest, TruncationFailsCleanly) {
  Scalars In{1, 2.0, 3, 4};
  flick_buf Full;
  flick_buf_init(&Full);
  ASSERT_EQ(flick_interp_encode(&Full, ScalarsTy, &In, wire()), FLICK_OK);
  for (size_t Cut = 0; Cut < Full.len; Cut += 2) {
    flick_buf B;
    flick_buf_init(&B);
    flick_buf_ensure(&B, Cut + 1);
    std::memcpy(flick_buf_grab(&B, Cut), Full.data, Cut);
    Scalars Out{};
    EXPECT_NE(flick_interp_decode(&B, ScalarsTy, &Out, wire(), nullptr),
              FLICK_OK)
        << "cut at " << Cut;
    flick_buf_destroy(&B);
  }
  flick_buf_destroy(&Full);
}

TEST_P(InterpWireTest, HugeCountRejected) {
  struct Seq {
    uint32_t Len;
    int32_t *Buf;
  };
  const InterpType Elem = InterpType::scalar(0, 4);
  const InterpType SeqTy = InterpType::counted(
      offsetof(Seq, Len), offsetof(Seq, Buf), &Elem, sizeof(int32_t));
  flick_buf B;
  flick_buf_init(&B);
  flick_buf_ensure(&B, 4);
  if (wire().BigEndian)
    flick_enc_u32be(flick_buf_grab(&B, 4), 0xFFFFFFFFu);
  else
    flick_enc_u32le(flick_buf_grab(&B, 4), 0xFFFFFFFFu);
  Seq Out{};
  flick_arena Ar{};
  EXPECT_NE(flick_interp_decode(&B, SeqTy, &Out, wire(), &Ar), FLICK_OK);
  flick_arena_destroy(&Ar);
  flick_buf_destroy(&B);
}

INSTANTIATE_TEST_SUITE_P(Wires, InterpWireTest, ::testing::Bool(),
                         [](const auto &Info) {
                           return Info.param ? "xdr" : "cdr_le";
                         });

/// A linked list: each node's counted sequence holds at most one node.
struct List {
  uint32_t Len;
  List *Next;
};

const InterpType ListTy = InterpType::counted(
    offsetof(List, Len), offsetof(List, Next), &ListTy, sizeof(List));

/// An XDR list \p Nodes deep: Nodes - 1 lengths of one, then a zero.
flick_buf listWire(size_t Nodes) {
  flick_buf B;
  flick_buf_init(&B);
  flick_buf_ensure(&B, 4 * Nodes);
  for (size_t I = 0; I != Nodes; ++I)
    flick_enc_u32be(flick_buf_grab(&B, 4), I + 1 != Nodes);
  return B;
}

TEST(Interp, NestingAtTheLimitDecodesOneDeeperFails) {
  const size_t Limit = FLICK_INTERP_MAX_NEST;
  for (size_t Nodes : {Limit, Limit + 1}) {
    SCOPED_TRACE(Nodes);
    flick_buf B = listWire(Nodes);
    List Out{};
    flick_arena Ar{};
    int Err = flick_interp_decode(&B, ListTy, &Out, Xdr, &Ar);
    if (Nodes == Limit) {
      ASSERT_EQ(Err, FLICK_OK);
      size_t Depth = 1;
      for (const List *L = &Out; L->Len; L = L->Next)
        ++Depth;
      EXPECT_EQ(Depth, Nodes);
    } else {
      EXPECT_EQ(Err, FLICK_ERR_DECODE);
    }
    flick_arena_destroy(&Ar);
    flick_buf_destroy(&B);
  }
}

TEST(Interp, HostileNestingFailsInsteadOfOverflowingTheStack) {
  // 4 MB of lengths of one: a million-node list with no end.
  flick_buf B;
  flick_buf_init(&B);
  flick_buf_ensure(&B, 4u << 20);
  for (size_t I = 0; I != (1u << 20); ++I)
    flick_enc_u32be(flick_buf_grab(&B, 4), 1);
  List Out{};
  flick_arena Ar{};
  EXPECT_EQ(flick_interp_decode(&B, ListTy, &Out, Xdr, &Ar), FLICK_ERR_DECODE);
  flick_arena_destroy(&Ar);
  flick_buf_destroy(&B);
}

TEST(Interp, XdrWidensSmallScalars) {
  struct One {
    uint8_t V;
  };
  const InterpType Ty = InterpType::structOf({InterpType::scalar(0, 1)});
  One In{0xAB};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_interp_encode(&B, Ty, &In, Xdr), FLICK_OK);
  EXPECT_EQ(B.len, 4u) << "XDR widens sub-word scalars to 4 bytes";
  flick_buf_destroy(&B);
  flick_buf_init(&B);
  ASSERT_EQ(flick_interp_encode(&B, Ty, &In, CdrLE), FLICK_OK);
  EXPECT_EQ(B.len, 1u);
  flick_buf_destroy(&B);
}

} // namespace
