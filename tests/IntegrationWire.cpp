//===- tests/IntegrationWire.cpp - wire-format equivalence & robustness ---===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimized and naive back ends implement the *same* network contract
/// (paper §2: presentation changes never alter the messages).  These tests
/// prove it byte-for-byte on the evaluation workloads, check XDR framing
/// invariants, fuzz the decoder with corrupt inputs, and property-test
/// round trips across random directory listings.
///
//===----------------------------------------------------------------------===//

#include "ItHarness.h"
#include "it_bn.h"
#include "it_bx.h"
#include "runtime/Interp.h"
#include "runtime/Specialize.h"
#include <cstring>
#include <gtest/gtest.h>
#include <random>
#include <vector>

using namespace flick;

//===----------------------------------------------------------------------===//
// Servants (both prefixes); they record what they saw for comparison.
//===----------------------------------------------------------------------===//

namespace {
std::vector<int32_t> GotInts;
std::vector<F_rect> GotRects;
std::vector<std::pair<std::string, F_stat_info>> GotDirents;
} // namespace

int F_send_ints_1_svc(const F_intseq *a) {
  GotInts.assign(a->intseq_val, a->intseq_val + a->intseq_len);
  return 0;
}
int F_send_rects_1_svc(const F_rectseq *a) {
  GotRects.assign(a->rectseq_val, a->rectseq_val + a->rectseq_len);
  return 0;
}
int F_send_dirents_1_svc(const F_direntseq *a) {
  GotDirents.clear();
  for (uint32_t I = 0; I != a->direntseq_len; ++I)
    GotDirents.emplace_back(a->direntseq_val[I].name,
                            a->direntseq_val[I].info);
  return 0;
}
int N_send_ints_1_svc(const N_intseq *a) {
  GotInts.assign(a->intseq_val, a->intseq_val + a->intseq_len);
  return 0;
}
int N_send_rects_1_svc(const N_rectseq *a) { return 0; }
int N_send_dirents_1_svc(const N_direntseq *a) { return 0; }

namespace {

std::vector<uint8_t> bufBytes(const flick_buf *B) {
  return std::vector<uint8_t>(B->data, B->data + B->len);
}

TEST(WireEquivalence, IntArraysEncodeIdentically) {
  // Optimized (bulk swap-copy) and naive (per-datum calls) stubs must put
  // the very same XDR bytes on the wire.
  std::vector<int32_t> Ints = {0, -1, INT32_MAX, INT32_MIN, 123456789};
  F_intseq FS{uint32_t(Ints.size()), Ints.data()};
  N_intseq NS{uint32_t(Ints.size()), Ints.data()};
  flick_buf FB, NB;
  flick_buf_init(&FB);
  flick_buf_init(&NB);
  ASSERT_EQ(F_send_ints_1_encode_request(&FB, 7, &FS), FLICK_OK);
  ASSERT_EQ(N_send_ints_1_encode_request(&NB, 7, &NS), FLICK_OK);
  EXPECT_EQ(bufBytes(&FB), bufBytes(&NB));
  flick_buf_destroy(&FB);
  flick_buf_destroy(&NB);
}

TEST(WireEquivalence, DirentsEncodeIdentically) {
  char Name0[] = "some-file", Name1[] = "x";
  F_dirent FD[2]{};
  N_dirent ND[2]{};
  FD[0].name = Name0;
  FD[1].name = Name1;
  ND[0].name = Name0;
  ND[1].name = Name1;
  for (int I = 0; I != 30; ++I) {
    FD[0].info.words[I] = ND[0].info.words[I] = 1000 + I;
    FD[1].info.words[I] = ND[1].info.words[I] = 77;
  }
  std::memcpy(FD[0].info.tag, "0123456789abcdef", 16);
  std::memcpy(ND[0].info.tag, "0123456789abcdef", 16);
  std::memset(FD[1].info.tag, 0, 16);
  std::memset(ND[1].info.tag, 0, 16);
  F_direntseq FS{2, FD};
  N_direntseq NS{2, ND};
  flick_buf FB, NB;
  flick_buf_init(&FB);
  flick_buf_init(&NB);
  ASSERT_EQ(F_send_dirents_1_encode_request(&FB, 3, &FS), FLICK_OK);
  ASSERT_EQ(N_send_dirents_1_encode_request(&NB, 3, &NS), FLICK_OK);
  EXPECT_EQ(bufBytes(&FB), bufBytes(&NB));
  flick_buf_destroy(&FB);
  flick_buf_destroy(&NB);
}

TEST(WireEquivalence, OptimizedRequestDecodesThroughNaiveServer) {
  // Cross-decode: optimized encoder, naive decoder.
  std::vector<int32_t> Ints = {5, 6, 7};
  F_intseq FS{3, Ints.data()};
  flick_buf FB;
  flick_buf_init(&FB);
  ASSERT_EQ(F_send_ints_1_encode_request(&FB, 1, &FS), FLICK_OK);
  flick_buf Rep;
  flick_buf_init(&Rep);
  flick_server Srv{};
  flick_arena_reset(&Srv.arena);
  GotInts.clear();
  EXPECT_EQ(N_BENCHPROG_dispatch(&Srv, &FB, &Rep), FLICK_OK);
  EXPECT_EQ(GotInts, Ints);
  flick_buf_destroy(&FB);
  flick_buf_destroy(&Rep);
  flick_arena_destroy(&Srv.arena);
}

TEST(WireEquivalence, EmptyArrayWithNullBufferRoundTrips) {
  // An empty array may present a null buffer; the encoder must skip its
  // block copy rather than pass null to it, and the server must decode
  // the zero count.
  F_intseq S{0, nullptr};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(F_send_ints_1_encode_request(&B, 5, &S), FLICK_OK);
  EXPECT_EQ(B.len, 44u); // call header + a zero length word
  flick_buf Rep;
  flick_buf_init(&Rep);
  flick_server Srv{};
  GotInts = {1};
  EXPECT_EQ(F_BENCHPROG_dispatch(&Srv, &B, &Rep), FLICK_OK);
  EXPECT_TRUE(GotInts.empty());
  flick_buf_destroy(&B);
  flick_buf_destroy(&Rep);
  flick_arena_destroy(&Srv.arena);
}

TEST(WireFormat, XdrMessagesAreWordAligned) {
  char Name[] = "ab"; // 2 chars forces XDR string padding
  F_dirent D{};
  D.name = Name;
  F_direntseq S{1, &D};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(F_send_dirents_1_encode_request(&B, 1, &S), FLICK_OK);
  EXPECT_EQ(B.len % 4, 0u) << "XDR data is always a multiple of 4 bytes";
  flick_buf_destroy(&B);
}

TEST(WireFormat, OncHeaderFields) {
  std::vector<int32_t> Ints = {1};
  F_intseq S{1, Ints.data()};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(F_send_ints_1_encode_request(&B, 0xABCD, &S), FLICK_OK);
  ASSERT_GE(B.len, 48u);
  EXPECT_EQ(flick_dec_u32be(B.data + 0), 0xABCDu); // xid
  EXPECT_EQ(flick_dec_u32be(B.data + 4), 0u);      // CALL
  EXPECT_EQ(flick_dec_u32be(B.data + 8), 2u);      // RPC version
  EXPECT_EQ(flick_dec_u32be(B.data + 12), 0x20000101u); // program
  EXPECT_EQ(flick_dec_u32be(B.data + 16), 1u);     // version
  EXPECT_EQ(flick_dec_u32be(B.data + 20), 1u);     // proc SEND_INTS
  EXPECT_EQ(flick_dec_u32be(B.data + 40), 1u);     // array length
  EXPECT_EQ(flick_dec_u32be(B.data + 44), 1u);     // element big-endian
  flick_buf_destroy(&B);
}

TEST(WireRobustness, OversizedLengthRejected) {
  std::vector<int32_t> Ints = {1, 2};
  F_intseq S{2, Ints.data()};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(F_send_ints_1_encode_request(&B, 1, &S), FLICK_OK);
  // Claim four billion elements.
  flick_enc_u32be(B.data + 40, 0xF0000000u);
  flick_buf Rep;
  flick_buf_init(&Rep);
  flick_server Srv{};
  EXPECT_EQ(F_BENCHPROG_dispatch(&Srv, &B, &Rep), FLICK_ERR_DECODE);
  flick_buf_destroy(&B);
  flick_buf_destroy(&Rep);
  flick_arena_destroy(&Srv.arena);
}

TEST(WireRobustness, WrongProgramRejected) {
  std::vector<int32_t> Ints = {1};
  F_intseq S{1, Ints.data()};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(F_send_ints_1_encode_request(&B, 1, &S), FLICK_OK);
  flick_enc_u32be(B.data + 12, 999); // program number
  flick_buf Rep;
  flick_buf_init(&Rep);
  flick_server Srv{};
  EXPECT_EQ(F_BENCHPROG_dispatch(&Srv, &B, &Rep), FLICK_ERR_NO_SUCH_OP);
  flick_buf_destroy(&B);
  flick_buf_destroy(&Rep);
  flick_arena_destroy(&Srv.arena);
}

TEST(WireRobustness, UnknownProcedureRejected) {
  std::vector<int32_t> Ints = {1};
  F_intseq S{1, Ints.data()};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(F_send_ints_1_encode_request(&B, 1, &S), FLICK_OK);
  flick_enc_u32be(B.data + 20, 99); // proc
  flick_buf Rep;
  flick_buf_init(&Rep);
  flick_server Srv{};
  EXPECT_EQ(F_BENCHPROG_dispatch(&Srv, &B, &Rep), FLICK_ERR_NO_SUCH_OP);
  flick_buf_destroy(&B);
  flick_buf_destroy(&Rep);
  flick_arena_destroy(&Srv.arena);
}

TEST(WireRobustness, TruncationAtEveryBoundary) {
  std::vector<int32_t> Ints = {10, 20, 30, 40};
  F_intseq S{4, Ints.data()};
  flick_buf Full;
  flick_buf_init(&Full);
  ASSERT_EQ(F_send_ints_1_encode_request(&Full, 1, &S), FLICK_OK);
  // Truncating anywhere must produce a clean decode error, never a crash.
  for (size_t Cut = 0; Cut < Full.len; Cut += 3) {
    flick_buf Req, Rep;
    flick_buf_init(&Req);
    flick_buf_init(&Rep);
    flick_buf_ensure(&Req, Cut ? Cut : 1);
    std::memcpy(flick_buf_grab(&Req, Cut), Full.data, Cut);
    flick_server Srv{};
    int Err = F_BENCHPROG_dispatch(&Srv, &Req, &Rep);
    EXPECT_NE(Err, FLICK_OK) << "cut at " << Cut;
    flick_buf_destroy(&Req);
    flick_buf_destroy(&Rep);
    flick_arena_destroy(&Srv.arena);
  }
  flick_buf_destroy(&Full);
}

TEST(WireEquivalence, InterpreterMatchesCompiledStubsOnTheWire) {
  // The ILU-style interpreter and the compiled stubs implement the same
  // XDR contract: the interpreted encoding must equal the compiled
  // request body byte for byte.
  using flick::InterpType;
  static const InterpType IntElem = InterpType::scalar(0, 4);
  static const InterpType SeqTy = InterpType::counted(
      offsetof(F_intseq, intseq_len), offsetof(F_intseq, intseq_val),
      &IntElem, sizeof(int32_t));
  std::vector<int32_t> Ints = {0, -1, INT32_MAX, 42};
  F_intseq S{4, Ints.data()};
  flick_buf Stub, Interp;
  flick_buf_init(&Stub);
  flick_buf_init(&Interp);
  ASSERT_EQ(F_send_ints_1_encode_request(&Stub, 1, &S), FLICK_OK);
  ASSERT_EQ(flick_interp_encode(&Interp, SeqTy, &S,
                                flick::InterpWire{true, true}),
            FLICK_OK);
  // The interpreter encodes the body only; skip the 40-byte ONC header.
  ASSERT_EQ(Stub.len, 40 + Interp.len);
  EXPECT_EQ(std::memcmp(Stub.data + 40, Interp.data, Interp.len), 0);
  flick_buf_destroy(&Stub);
  flick_buf_destroy(&Interp);
}

/// The dirent workload's type program over the F_ presentation, the one
/// with every node kind in play (cstring, fixed array, raw bytes, counted
/// sequence of structs).
const InterpType FIntElem = InterpType::scalar(0, 4);
const InterpType FDirentTy = InterpType::structOf({
    InterpType::cstring(offsetof(F_dirent, name)),
    InterpType::fixedArray(offsetof(F_dirent, info.words), &FIntElem, 30, 4),
    InterpType::bytes(offsetof(F_dirent, info.tag), 16),
});
const InterpType FDirentSeqTy = InterpType::counted(
    offsetof(F_direntseq, direntseq_len),
    offsetof(F_direntseq, direntseq_val), &FDirentTy, sizeof(F_dirent));

TEST(WireEquivalence, SpecializedMatchesInterpAndCompiledStubs) {
  // The three-way contract: interpreter, runtime-specialized program, and
  // compiled stub put the very same XDR bytes on the wire -- here for the
  // dirent workload.
  const InterpType &SeqTy = FDirentSeqTy;
  const flick::InterpWire Xdr{true, true};

  char Name0[] = "three-way", Name1[] = "f";
  F_dirent D[2]{};
  D[0].name = Name0;
  D[1].name = Name1;
  for (int I = 0; I != 30; ++I)
    D[0].info.words[I] = 3000 + I;
  std::memcpy(D[1].info.tag, "fedcba9876543210", 16);
  F_direntseq S{2, D};

  flick_buf Stub, Interp, Spec;
  flick_buf_init(&Stub);
  flick_buf_init(&Interp);
  flick_buf_init(&Spec);
  ASSERT_EQ(F_send_dirents_1_encode_request(&Stub, 1, &S), FLICK_OK);
  ASSERT_EQ(flick_interp_encode(&Interp, SeqTy, &S, Xdr), FLICK_OK);
  const flick::flick_spec_program *P = flick::flick_specialize(SeqTy, Xdr);
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(flick_spec_encode(&Spec, P, &S), FLICK_OK);

  ASSERT_EQ(Interp.len, Spec.len);
  EXPECT_EQ(std::memcmp(Interp.data, Spec.data, Spec.len), 0);
  ASSERT_EQ(Stub.len, 40 + Spec.len); // body behind the ONC header
  EXPECT_EQ(std::memcmp(Stub.data + 40, Spec.data, Spec.len), 0);

  // And the specialized decoder accepts the compiled stub's body.
  flick_buf Body;
  flick_buf_init(&Body);
  ASSERT_EQ(flick_buf_ensure(&Body, Spec.len), FLICK_OK);
  std::memcpy(flick_buf_grab(&Body, Spec.len), Stub.data + 40, Spec.len);
  F_direntseq Out{};
  flick_arena Ar{};
  ASSERT_EQ(flick_spec_decode(&Body, P, &Out, &Ar), FLICK_OK);
  ASSERT_EQ(Out.direntseq_len, 2u);
  EXPECT_STREQ(Out.direntseq_val[0].name, Name0);
  EXPECT_STREQ(Out.direntseq_val[1].name, Name1);
  EXPECT_EQ(std::memcmp(Out.direntseq_val[0].info.words, D[0].info.words,
                        120),
            0);
  EXPECT_EQ(std::memcmp(Out.direntseq_val[1].info.tag, D[1].info.tag, 16),
            0);
  flick_arena_destroy(&Ar);
  flick_buf_destroy(&Body);
  flick_buf_destroy(&Stub);
  flick_buf_destroy(&Interp);
  flick_buf_destroy(&Spec);
}

TEST(WireRobustness, CountPastTheBodyFailsBeforeAllocating) {
  // A 12-byte body claiming 2^24 dirents: the stub, the interpreter and
  // the specializer each refuse it by the bytes left, before sizing an
  // array from the count.
  const flick::InterpWire Xdr{true, true};
  const flick::flick_spec_program *P = flick_specialize(FDirentSeqTy, Xdr);
  ASSERT_NE(P, nullptr);
  const char *const Execs[] = {"stub", "interpreter", "specializer"};
  for (int E = 0; E != 3; ++E) {
    SCOPED_TRACE(Execs[E]);
    flick_buf B;
    flick_buf_init(&B);
    ASSERT_EQ(flick_buf_ensure(&B, 12), FLICK_OK);
    uint8_t *Body = flick_buf_grab(&B, 12);
    std::memset(Body, 0, 12);
    flick_enc_u32be(Body, 1u << 24);
    flick_metrics M;
    flick_metrics_enable(&M);
    flick_arena Ar{};
    F_direntseq Out{};
    int Err;
    if (E == 0)
      Err = F_send_dirents_1_decode_request(&B, &Ar, &Out);
    else if (E == 1)
      Err = flick_interp_decode(&B, FDirentSeqTy, &Out, Xdr, &Ar);
    else
      Err = flick_spec_decode(&B, P, &Out, &Ar);
    EXPECT_EQ(Err, FLICK_ERR_DECODE);
    flick_arena_destroy(&Ar); // records the arena's high water
    flick_metrics_disable();
    EXPECT_LT(M.arena_high_water, 4096u);
    flick_buf_destroy(&B);
  }
}

//===----------------------------------------------------------------------===//
// Property sweep: random directory listings round-trip end to end.
//===----------------------------------------------------------------------===//

class DirentSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DirentSweep, RandomListingsRoundTrip) {
  std::mt19937 Rng(GetParam());
  ItRig Rig(F_BENCHPROG_dispatch);

  uint32_t N = Rng() % 40;
  std::vector<std::string> Names;
  std::vector<F_dirent> Entries(N);
  for (uint32_t I = 0; I != N; ++I) {
    std::string Name(Rng() % 60, 'a');
    for (char &C : Name)
      C = static_cast<char>('a' + Rng() % 26);
    Names.push_back(Name);
    for (int W = 0; W != 30; ++W)
      Entries[I].info.words[W] = Rng();
    for (int T = 0; T != 16; ++T)
      Entries[I].info.tag[T] = static_cast<uint8_t>(Rng());
  }
  for (uint32_t I = 0; I != N; ++I)
    Entries[I].name = const_cast<char *>(Names[I].c_str());

  F_direntseq S{N, Entries.data()};
  GotDirents.clear();
  ASSERT_EQ(F_send_dirents_1(&S, Rig.client()), FLICK_OK);
  ASSERT_EQ(GotDirents.size(), N);
  for (uint32_t I = 0; I != N; ++I) {
    EXPECT_EQ(GotDirents[I].first, Names[I]);
    EXPECT_EQ(std::memcmp(GotDirents[I].second.words,
                          Entries[I].info.words, 120),
              0);
    EXPECT_EQ(std::memcmp(GotDirents[I].second.tag, Entries[I].info.tag,
                          16),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirentSweep, ::testing::Range(1u, 13u));

// Size sweep: integer arrays of awkward lengths round-trip through the
// full client/dispatch path (0, 1, odd, just-around buffer growth, large).
class IntSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IntSizeSweep, RoundTripsExactly) {
  uint32_t N = GetParam();
  ItRig Rig(F_BENCHPROG_dispatch);
  std::vector<int32_t> Data(N);
  for (uint32_t I = 0; I != N; ++I)
    Data[I] = static_cast<int32_t>(I * 2654435761u);
  F_intseq S{N, Data.data()};
  GotInts.assign(1, -999); // sentinel
  ASSERT_EQ(F_send_ints_1(&S, Rig.client()), FLICK_OK);
  EXPECT_EQ(GotInts, Data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IntSizeSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 16u, 127u,
                                           128u, 129u, 1000u, 4096u,
                                           65536u));

} // namespace
