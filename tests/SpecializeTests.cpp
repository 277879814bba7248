//===- tests/SpecializeTests.cpp - runtime specializer tests --------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sidekick contract for the runtime specializer: specialized
/// programs must produce byte-identical wire output to the interpreter
/// across the fig3 presentation types (ints, rects, counted sequences,
/// cstrings, nested structs) on both wire conventions, decode exactly
/// what the interpreter decodes, fail cleanly on truncation, and share
/// one compiled program per structural hash.  (Equivalence against the
/// compiled stubs is asserted in the integration binary, which owns
/// generated headers.)
///
//===----------------------------------------------------------------------===//

#include "runtime/Specialize.h"
#include <cstring>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <vector>

using namespace flick;

namespace {

constexpr InterpWire Xdr{true, true};
constexpr InterpWire CdrLE{false, false};

std::vector<uint8_t> bufBytes(const flick_buf *B) {
  return std::vector<uint8_t>(B->data, B->data + B->len);
}

/// Encodes \p Val through the interpreter and through a specialized
/// program and asserts the wire bytes match; returns the wire image.
std::vector<uint8_t> encodeBothWays(const InterpType &T, const void *Val,
                                    const InterpWire &W) {
  flick_buf IB, SB;
  flick_buf_init(&IB);
  flick_buf_init(&SB);
  EXPECT_EQ(flick_interp_encode(&IB, T, Val, W), FLICK_OK);
  const flick_spec_program *P = flick_specialize(T, W);
  EXPECT_NE(P, nullptr);
  if (P) {
    EXPECT_EQ(flick_spec_encode(&SB, P, Val), FLICK_OK);
  }
  std::vector<uint8_t> Interp = bufBytes(&IB), Spec = bufBytes(&SB);
  EXPECT_EQ(Interp, Spec);
  flick_buf_destroy(&IB);
  flick_buf_destroy(&SB);
  return Interp;
}

/// Decodes \p Wire through a specialized program into \p Out, then
/// re-encodes Out through the interpreter and asserts the bytes survive
/// the round trip -- a full-fidelity check that works for pointer-bearing
/// presentations too.
void decodeAndReencode(const InterpType &T, const InterpWire &W,
                       const std::vector<uint8_t> &Wire, void *Out,
                       flick_arena *Ar) {
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_buf_ensure(&B, Wire.size()), FLICK_OK);
  std::memcpy(flick_buf_grab(&B, Wire.size()), Wire.data(), Wire.size());
  const flick_spec_program *P = flick_specialize(T, W);
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(flick_spec_decode(&B, P, Out, Ar), FLICK_OK);
  EXPECT_EQ(B.pos, B.len) << "specialized decode must consume everything";
  flick_buf Re;
  flick_buf_init(&Re);
  ASSERT_EQ(flick_interp_encode(&Re, T, Out, W), FLICK_OK);
  EXPECT_EQ(bufBytes(&Re), Wire);
  flick_buf_destroy(&Re);
  flick_buf_destroy(&B);
}

/// Truncating a valid message anywhere must produce a clean decode error.
void expectTruncationSafe(const InterpType &T, const InterpWire &W,
                          const std::vector<uint8_t> &Wire, void *Out,
                          size_t OutSize) {
  const flick_spec_program *P = flick_specialize(T, W);
  ASSERT_NE(P, nullptr);
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    flick_buf B;
    flick_buf_init(&B);
    ASSERT_EQ(flick_buf_ensure(&B, Cut ? Cut : 1), FLICK_OK);
    std::memcpy(flick_buf_grab(&B, Cut), Wire.data(), Cut);
    flick_arena Ar{};
    std::memset(Out, 0, OutSize);
    EXPECT_NE(flick_spec_decode(&B, P, Out, &Ar), FLICK_OK)
        << "cut at " << Cut;
    flick_arena_destroy(&Ar);
    flick_buf_destroy(&B);
  }
}

//===----------------------------------------------------------------------===//
// Presentation types (mirroring bench.idl's fig3 workloads)
//===----------------------------------------------------------------------===//

struct TScalars {
  int32_t I;
  double D;
  uint8_t B;
  int64_t LL;
  uint16_t H;
};

const InterpType ScalarsTy = InterpType::structOf({
    InterpType::scalar(offsetof(TScalars, I), 4),
    InterpType::scalar(offsetof(TScalars, D), 8, true),
    InterpType::scalar(offsetof(TScalars, B), 1),
    InterpType::scalar(offsetof(TScalars, LL), 8),
    InterpType::scalar(offsetof(TScalars, H), 2),
});

struct TRect {
  int32_t X, Y, W, H;
};

const InterpType RectTy = InterpType::structOf({
    InterpType::scalar(offsetof(TRect, X), 4),
    InterpType::scalar(offsetof(TRect, Y), 4),
    InterpType::scalar(offsetof(TRect, W), 4),
    InterpType::scalar(offsetof(TRect, H), 4),
});

struct TRectSeq {
  uint32_t Len;
  TRect *Val;
};

const InterpType RectSeqTy =
    InterpType::counted(offsetof(TRectSeq, Len), offsetof(TRectSeq, Val),
                        &RectTy, sizeof(TRect));

struct TIntSeq {
  uint32_t Len;
  int32_t *Val;
};

const InterpType IntElem = InterpType::scalar(0, 4);
const InterpType IntSeqTy =
    InterpType::counted(offsetof(TIntSeq, Len), offsetof(TIntSeq, Val),
                        &IntElem, sizeof(int32_t));

struct TInfo {
  uint32_t Words[8];
  uint8_t Tag[16];
};

struct TDirent {
  char *Name;
  TInfo Info;
};

struct TDirentSeq {
  uint32_t Len;
  TDirent *Val;
};

const InterpType DirentTy = InterpType::structOf({
    InterpType::cstring(offsetof(TDirent, Name)),
    InterpType::fixedArray(offsetof(TDirent, Info.Words), &IntElem, 8, 4),
    InterpType::bytes(offsetof(TDirent, Info.Tag), 16),
});

const InterpType DirentSeqTy =
    InterpType::counted(offsetof(TDirentSeq, Len),
                        offsetof(TDirentSeq, Val), &DirentTy,
                        sizeof(TDirent));

//===----------------------------------------------------------------------===//
// Golden-bytes equivalence matrix
//===----------------------------------------------------------------------===//

class SpecWireTest : public ::testing::TestWithParam<bool> {
protected:
  InterpWire wire() const { return GetParam() ? Xdr : CdrLE; }
};

TEST_P(SpecWireTest, ScalarStructMatchesAndRoundTrips) {
  TScalars In{-77, 2.5, 200, -5000000000LL, 40000};
  std::vector<uint8_t> Wire = encodeBothWays(ScalarsTy, &In, wire());
  TScalars Out{};
  decodeAndReencode(ScalarsTy, wire(), Wire, &Out, nullptr);
  EXPECT_EQ(Out.I, In.I);
  EXPECT_EQ(Out.D, In.D);
  EXPECT_EQ(Out.B, In.B);
  EXPECT_EQ(Out.LL, In.LL);
  EXPECT_EQ(Out.H, In.H);
}

TEST_P(SpecWireTest, RectMatches) {
  TRect R{-1, 2, 300000, INT32_MIN};
  std::vector<uint8_t> Wire = encodeBothWays(RectTy, &R, wire());
  TRect Out{};
  decodeAndReencode(RectTy, wire(), Wire, &Out, nullptr);
  EXPECT_EQ(std::memcmp(&Out, &R, sizeof(R)), 0);
}

TEST_P(SpecWireTest, IntSequenceMatchesAcrossSizes) {
  for (uint32_t N : {0u, 1u, 3u, 64u, 1000u}) {
    std::vector<int32_t> Ints(N);
    for (uint32_t I = 0; I != N; ++I)
      Ints[I] = static_cast<int32_t>(I * 2654435761u);
    TIntSeq S{N, Ints.data()};
    std::vector<uint8_t> Wire = encodeBothWays(IntSeqTy, &S, wire());
    TIntSeq Out{};
    flick_arena Ar{};
    decodeAndReencode(IntSeqTy, wire(), Wire, &Out, &Ar);
    ASSERT_EQ(Out.Len, N);
    if (N) {
      EXPECT_EQ(std::memcmp(Out.Val, Ints.data(), N * 4), 0);
    }
    flick_arena_destroy(&Ar);
  }
}

TEST_P(SpecWireTest, RectSequenceMatches) {
  std::vector<TRect> Rects(37);
  for (size_t I = 0; I != Rects.size(); ++I)
    Rects[I] = {int32_t(I), int32_t(-2 * I), int32_t(I * I), 7};
  TRectSeq S{uint32_t(Rects.size()), Rects.data()};
  std::vector<uint8_t> Wire = encodeBothWays(RectSeqTy, &S, wire());
  TRectSeq Out{};
  flick_arena Ar{};
  decodeAndReencode(RectSeqTy, wire(), Wire, &Out, &Ar);
  ASSERT_EQ(Out.Len, Rects.size());
  EXPECT_EQ(std::memcmp(Out.Val, Rects.data(),
                        Rects.size() * sizeof(TRect)),
            0);
  flick_arena_destroy(&Ar);
}

TEST_P(SpecWireTest, DirentsWithStringsMatch) {
  char N0[] = "some-file", N1[] = "", N2[] = "abc"; // forces XDR padding
  TDirent D[3]{};
  D[0].Name = N0;
  D[1].Name = N1;
  D[2].Name = N2;
  for (int I = 0; I != 8; ++I) {
    D[0].Info.Words[I] = 1000 + I;
    D[2].Info.Words[I] = 0xDEADBEEF;
  }
  std::memcpy(D[0].Info.Tag, "0123456789abcdef", 16);
  TDirentSeq S{3, D};
  std::vector<uint8_t> Wire = encodeBothWays(DirentSeqTy, &S, wire());
  TDirentSeq Out{};
  flick_arena Ar{};
  decodeAndReencode(DirentSeqTy, wire(), Wire, &Out, &Ar);
  ASSERT_EQ(Out.Len, 3u);
  EXPECT_STREQ(Out.Val[0].Name, N0);
  EXPECT_STREQ(Out.Val[1].Name, N1);
  EXPECT_STREQ(Out.Val[2].Name, N2);
  EXPECT_EQ(std::memcmp(&Out.Val[0].Info, &D[0].Info, sizeof(TInfo)), 0);
  flick_arena_destroy(&Ar);
}

TEST_P(SpecWireTest, TruncationIsRejectedEverywhere) {
  char N0[] = "victim";
  TDirent D[2]{};
  D[0].Name = N0;
  D[1].Name = N0;
  TDirentSeq S{2, D};
  std::vector<uint8_t> Wire = encodeBothWays(DirentSeqTy, &S, wire());
  TDirentSeq Out{};
  expectTruncationSafe(DirentSeqTy, wire(), Wire, &Out, sizeof(Out));
}

INSTANTIATE_TEST_SUITE_P(Wires, SpecWireTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Xdr" : "CdrLE";
                         });

//===----------------------------------------------------------------------===//
// Specialize-flagged entry points
//===----------------------------------------------------------------------===//

TEST(SpecEntryPoints, SpecializeFlagProducesIdenticalBytes) {
  std::vector<int32_t> Ints(128, 42);
  TIntSeq S{128, Ints.data()};
  flick_buf Plain, Spec;
  flick_buf_init(&Plain);
  flick_buf_init(&Spec);
  ASSERT_EQ(flick_interp_encode(&Plain, IntSeqTy, &S, Xdr, false),
            FLICK_OK);
  ASSERT_EQ(flick_interp_encode(&Spec, IntSeqTy, &S, Xdr, true), FLICK_OK);
  EXPECT_EQ(bufBytes(&Plain), bufBytes(&Spec));
  TIntSeq Out{};
  flick_arena Ar{};
  ASSERT_EQ(flick_interp_decode(&Spec, IntSeqTy, &Out, Xdr, &Ar, true),
            FLICK_OK);
  ASSERT_EQ(Out.Len, 128u);
  EXPECT_EQ(std::memcmp(Out.Val, Ints.data(), 128 * 4), 0);
  flick_arena_destroy(&Ar);
  flick_buf_destroy(&Plain);
  flick_buf_destroy(&Spec);
}

TEST(SpecEntryPoints, UnspecializableTypeFallsBackTransparently) {
  // Width 3 has no stencil: flick_specialize must refuse (and cache the
  // refusal), while the specialize=true entry still encodes correctly.
  const InterpType OddTy = InterpType::scalar(0, 3);
  EXPECT_EQ(flick_specialize(OddTy, Xdr), nullptr);
  EXPECT_EQ(flick_specialize(OddTy, Xdr), nullptr); // cached refusal
  uint8_t V[4] = {1, 2, 3, 0};
  flick_buf Plain, Spec;
  flick_buf_init(&Plain);
  flick_buf_init(&Spec);
  ASSERT_EQ(flick_interp_encode(&Plain, OddTy, V, Xdr, false), FLICK_OK);
  ASSERT_EQ(flick_interp_encode(&Spec, OddTy, V, Xdr, true), FLICK_OK);
  EXPECT_EQ(bufBytes(&Plain), bufBytes(&Spec));
  flick_buf_destroy(&Plain);
  flick_buf_destroy(&Spec);
}

//===----------------------------------------------------------------------===//
// Program cache and structural hashing
//===----------------------------------------------------------------------===//

TEST(SpecCache, StructurallyIdenticalTreesShareOneProgram) {
  flick_spec_cache_clear();
  flick_metrics M;
  flick_metrics_enable(&M);
  // Two independently built but structurally identical trees.
  const InterpType ElemA = InterpType::scalar(0, 4);
  const InterpType TreeA = InterpType::counted(0, 8, &ElemA, 4);
  const InterpType ElemB = InterpType::scalar(0, 4);
  const InterpType TreeB = InterpType::counted(0, 8, &ElemB, 4);
  EXPECT_EQ(flick_spec_structural_key(TreeA, Xdr),
            flick_spec_structural_key(TreeB, Xdr));
  EXPECT_EQ(flick_spec_structural_hash(TreeA, Xdr),
            flick_spec_structural_hash(TreeB, Xdr));
  const flick_spec_program *PA = flick_specialize(TreeA, Xdr);
  const flick_spec_program *PB = flick_specialize(TreeB, Xdr);
  ASSERT_NE(PA, nullptr);
  EXPECT_EQ(PA, PB) << "same structural hash must mean one compile";
  EXPECT_EQ(M.spec_programs, 1u);
  EXPECT_EQ(M.spec_cache_hits, 1u);
  EXPECT_GT(M.spec_compile_ns, 0u);
  flick_metrics_disable();
}

TEST(SpecCache, DistinctTreesAndWiresCompileSeparately) {
  flick_spec_cache_clear();
  flick_metrics M;
  flick_metrics_enable(&M);
  const InterpType Elem = InterpType::scalar(0, 4);
  const InterpType TreeA = InterpType::counted(0, 8, &Elem, 4);
  const InterpType TreeB = InterpType::counted(0, 8, &Elem, 8); // stride!
  EXPECT_NE(flick_spec_structural_hash(TreeA, Xdr),
            flick_spec_structural_hash(TreeB, Xdr));
  const flick_spec_program *PA = flick_specialize(TreeA, Xdr);
  const flick_spec_program *PB = flick_specialize(TreeB, Xdr);
  const flick_spec_program *PC = flick_specialize(TreeA, CdrLE);
  ASSERT_NE(PA, nullptr);
  ASSERT_NE(PB, nullptr);
  ASSERT_NE(PC, nullptr);
  EXPECT_NE(PA, PB);
  EXPECT_NE(PA, PC) << "wire convention is part of the cache key";
  EXPECT_EQ(M.spec_programs, 3u);
  EXPECT_EQ(M.spec_cache_hits, 0u);
  EXPECT_EQ(flick_spec_cache_size(), 3u);
  flick_metrics_disable();
}

/// Every tree in the table differs from the first of its kind in one
/// thing.  Each construction builds every tree anew, elements included,
/// so two tables hold structurally identical but independent trees.
struct MutantTable {
  InterpType I32 = InterpType::scalar(0, 4);
  InterpType F32 = InterpType::scalar(0, 4, true);
  std::vector<std::pair<const char *, InterpType>> Trees;

  MutantTable(const MutantTable &) = delete; // Trees point at I32 and F32
  MutantTable() {
    using T = InterpType;
    const T A = T::scalar(0, 4), B = T::scalar(4, 4), C = T::scalar(8, 4);
    Trees = {
        {"scalar", T::scalar(8, 4)},
        {"scalar Offset", T::scalar(12, 4)},
        {"scalar Width", T::scalar(8, 8)},
        {"scalar IsFloat", T::scalar(8, 4, true)},
        {"bytes", T::bytes(8, 16)},
        {"bytes Offset", T::bytes(12, 16)},
        {"bytes Count", T::bytes(8, 20)},
        {"cstring", T::cstring(8)},
        {"cstring Offset", T::cstring(16)},
        {"fixed", T::fixedArray(8, &I32, 4, 4)},
        {"fixed Offset", T::fixedArray(16, &I32, 4, 4)},
        {"fixed Count", T::fixedArray(8, &I32, 5, 4)},
        {"fixed HostStride", T::fixedArray(8, &I32, 4, 8)},
        {"fixed Elem", T::fixedArray(8, &F32, 4, 4)},
        {"fixed null Elem", T::fixedArray(8, nullptr, 4, 4)},
        {"counted", T::counted(0, 8, &I32, 4)},
        {"counted LenOffset", T::counted(4, 8, &I32, 4)},
        {"counted BufOffset", T::counted(0, 16, &I32, 4)},
        {"counted HostStride", T::counted(0, 8, &I32, 8)},
        {"counted Elem", T::counted(0, 8, &F32, 4)},
        {"counted null Elem", T::counted(0, 8, nullptr, 4)},
        {"struct", T::structOf({A, B})},
        {"struct field count", T::structOf({A, B, C})},
        // Same length serialized: only the order of the offsets differs.
        {"struct field order", T::structOf({B, A})},
        {"struct in struct", T::structOf({T::structOf({A, B})})},
        {"struct in struct, split", T::structOf({T::structOf({A}), B})},
    };
  }
};

TEST(SpecCache, EveryOneFieldMutantKeysHashesAndCompilesApart) {
  flick_spec_cache_clear();
  flick_metrics M;
  flick_metrics_enable(&M);
  const MutantTable Table;
  std::set<std::string> Keys;
  std::set<uint64_t> Hashes;
  std::vector<const flick_spec_program *> Progs;
  std::set<const flick_spec_program *> Distinct;
  for (const auto &[Name, Tree] : Table.Trees) {
    SCOPED_TRACE(Name);
    EXPECT_TRUE(Keys.insert(flick_spec_structural_key(Tree, Xdr)).second);
    uint64_t Hash = flick_spec_structural_hash(Tree, Xdr);
    EXPECT_TRUE(Hashes.insert(Hash).second);
    const flick_spec_program *P = flick_specialize(Tree, Xdr);
    Progs.push_back(P);
    if (P) {
      EXPECT_TRUE(Distinct.insert(P).second);
      EXPECT_EQ(P->Hash, Hash);
    }
  }
  // Only the two null-Elem arrays are refused; the rest compiled apart.
  EXPECT_EQ(Distinct.size(), Table.Trees.size() - 2);
  EXPECT_EQ(M.spec_programs, Distinct.size());
  EXPECT_EQ(M.spec_cache_hits, 0u);
  EXPECT_EQ(flick_spec_cache_size(), Table.Trees.size());

  // An independently rebuilt copy of each tree finds its original's entry.
  const MutantTable Copy;
  for (size_t I = 0; I != Copy.Trees.size(); ++I) {
    SCOPED_TRACE(Copy.Trees[I].first);
    EXPECT_EQ(flick_specialize(Copy.Trees[I].second, Xdr), Progs[I]);
  }
  EXPECT_EQ(M.spec_programs, Distinct.size());
  EXPECT_EQ(M.spec_cache_hits, Table.Trees.size());

  // The four wire conventions key and compile one tree apart.
  std::set<std::string> WireKeys;
  std::set<const flick_spec_program *> WireProgs;
  for (bool BigEndian : {false, true})
    for (bool XdrWidening : {false, true}) {
      const InterpWire W{BigEndian, XdrWidening};
      WireKeys.insert(flick_spec_structural_key(Copy.Trees[0].second, W));
      WireProgs.insert(flick_specialize(Copy.Trees[0].second, W));
    }
  EXPECT_EQ(WireKeys.size(), 4u);
  EXPECT_EQ(WireProgs.size(), 4u);
  EXPECT_EQ(M.spec_programs, Distinct.size() + 3) << "Xdr's was compiled";
  flick_metrics_disable();
}

//===----------------------------------------------------------------------===//
// Recursive type programs
//===----------------------------------------------------------------------===//

/// A linked list: each node's counted sequence holds at most one node.
struct TList {
  uint32_t Len;
  TList *Next;
};

const InterpType ListTy = InterpType::counted(
    offsetof(TList, Len), offsetof(TList, Next), &ListTy, sizeof(TList));

TEST(SpecRecursion, CyclicTreeIsRefusedOnceAndCached) {
  flick_spec_cache_clear();
  flick_metrics M;
  flick_metrics_enable(&M);
  EXPECT_EQ(flick_specialize(ListTy, Xdr), nullptr);
  EXPECT_EQ(flick_specialize(ListTy, Xdr), nullptr);
  EXPECT_EQ(M.spec_programs, 0u);
  EXPECT_EQ(M.spec_cache_hits, 1u) << "one compile, then the cached refusal";
  EXPECT_EQ(flick_spec_cache_size(), 1u);
  flick_metrics_disable();
}

TEST(SpecRecursion, ListRoundTripsThroughTheInterpreterFallback) {
  TList N3{0, nullptr}, N2{1, &N3}, N1{1, &N2};
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_interp_encode(&B, ListTy, &N1, Xdr, true), FLICK_OK);
  EXPECT_EQ(bufBytes(&B),
            (std::vector<uint8_t>{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0}));
  TList Out{};
  flick_arena Ar{};
  ASSERT_EQ(flick_interp_decode(&B, ListTy, &Out, Xdr, &Ar, true), FLICK_OK);
  EXPECT_EQ(B.pos, B.len);
  ASSERT_EQ(Out.Len, 1u);
  ASSERT_EQ(Out.Next->Len, 1u);
  EXPECT_EQ(Out.Next->Next->Len, 0u);
  flick_arena_destroy(&Ar);
  flick_buf_destroy(&B);
}

TEST(SpecRecursion, TreesCutAtTheSamePlaceAreBothRefused) {
  // A chain of empty fixed arrays nested past the bound, then a scalar
  // that differs.  Both trees key by the same truncated key, so neither
  // may compile, although lowering never visits the chain's deep end.
  std::vector<InterpType> Chain(80, InterpType::scalar(0, 4));
  for (size_t I = 0; I + 1 != Chain.size(); ++I)
    Chain[I] = InterpType::fixedArray(0, &Chain[I + 1], 0, 4);
  const InterpType X =
      InterpType::structOf({Chain[0], InterpType::scalar(0, 4)});
  const InterpType Y =
      InterpType::structOf({Chain[0], InterpType::scalar(0, 8)});
  EXPECT_EQ(flick_spec_structural_key(X, Xdr),
            flick_spec_structural_key(Y, Xdr));
  EXPECT_EQ(flick_specialize(X, Xdr), nullptr);
  EXPECT_EQ(flick_specialize(Y, Xdr), nullptr);
  const uint64_t V = 0x0102030405060708ull;
  for (const InterpType *T : {&X, &Y}) {
    flick_buf B;
    flick_buf_init(&B);
    ASSERT_EQ(flick_interp_encode(&B, *T, &V, Xdr, true), FLICK_OK);
    EXPECT_EQ(B.len, T == &X ? 4u : 8u);
    flick_buf_destroy(&B);
  }
}

//===----------------------------------------------------------------------===//
// Counters: dispatch avoidance and per-call copy accounting
//===----------------------------------------------------------------------===//

TEST(SpecCounters, DispatchAvoidanceIsMeasured) {
  std::vector<int32_t> Ints(1000, 7);
  TIntSeq S{1000, Ints.data()};
  flick_metrics M;
  flick_metrics_enable(&M);
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_interp_encode(&B, IntSeqTy, &S, Xdr, false), FLICK_OK);
  uint64_t InterpDispatches = M.interp_dispatches;
  EXPECT_EQ(InterpDispatches, 1001u); // the counted node + 1000 elements
  flick_buf_reset(&B);
  ASSERT_EQ(flick_interp_encode(&B, IntSeqTy, &S, Xdr, true), FLICK_OK);
  EXPECT_EQ(M.interp_dispatches, InterpDispatches)
      << "the specialized path must not run interpreter dispatches";
  // The whole sequence runs in O(1) kernels, so nearly every one of the
  // 1001 interpreter dispatches is avoided.
  EXPECT_GE(M.spec_dispatches_avoided, 990u);
  flick_buf_destroy(&B);
  flick_metrics_disable();
}

TEST(SpecCounters, CopyAccountingIsPerCallInBothModes) {
  std::vector<int32_t> Ints(256, 3);
  TIntSeq S{256, Ints.data()};
  for (bool Specialize : {false, true}) {
    flick_metrics M;
    flick_metrics_enable(&M);
    flick_buf B;
    flick_buf_init(&B);
    ASSERT_EQ(flick_interp_encode(&B, IntSeqTy, &S, Xdr, Specialize),
              FLICK_OK);
    EXPECT_EQ(M.copy_ops, 1u) << "one bulk copy per encode call";
    EXPECT_EQ(M.bytes_copied, B.len);
    flick_buf_destroy(&B);
    flick_metrics_disable();
  }
}

TEST(SpecCounters, StepsFusedAreReported) {
  flick_spec_cache_clear();
  flick_metrics M;
  flick_metrics_enable(&M);
  // Four adjacent u32 fields fuse into one run (3 merges), and the
  // sequence collapses to a single counted-dense kernel.
  const flick_spec_program *P = flick_specialize(RectSeqTy, CdrLE);
  ASSERT_NE(P, nullptr);
  EXPECT_GE(P->StepsFused, 3u);
  EXPECT_EQ(M.spec_steps_fused, P->StepsFused);
  EXPECT_NE(P->Hash, 0u);
  flick_metrics_disable();
}

} // namespace
