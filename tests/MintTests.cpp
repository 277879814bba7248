//===- tests/MintTests.cpp - MINT and wire-layout unit tests --------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mint/Mint.h"
#include "mint/Wire.h"
#include <gtest/gtest.h>

using namespace flick;

namespace {

TEST(Mint, LeafCachingIsShared) {
  MintModule M;
  EXPECT_EQ(M.integer(32, true), M.integer(32, true));
  EXPECT_NE(M.integer(32, true), M.integer(32, false));
  EXPECT_NE(M.integer(32, true), M.integer(16, true));
  EXPECT_EQ(M.voidType(), M.voidType());
  EXPECT_EQ(M.floatType(64), M.floatType(64));
}

TEST(Mint, DumpHandlesCycles) {
  MintModule M;
  auto *Node = M.make<MintStruct>(std::vector<MintStructElem>{});
  auto *Opt = M.make<MintArray>(Node, 0, 1);
  Node->elems().push_back(MintStructElem{M.integer(32, true), "item"});
  Node->elems().push_back(MintStructElem{Opt, "next"});
  std::string Dump = MintModule::dump(Node);
  EXPECT_NE(Dump.find("ref #"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("array[0..1]"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Wire layout, parameterized over the encodings
//===----------------------------------------------------------------------===//

class WireLayoutTest : public ::testing::TestWithParam<WireKind> {};

TEST_P(WireLayoutTest, AtomSizesArePositiveAndAligned) {
  WireLayout L(GetParam());
  MintModule M;
  const MintType *Atoms[] = {M.integer(8, false),  M.integer(16, true),
                             M.integer(32, true),  M.integer(64, false),
                             M.floatType(32),      M.floatType(64),
                             M.charType(),         M.boolType()};
  for (const MintType *T : Atoms) {
    unsigned S = L.atomSize(T);
    unsigned A = L.atomAlign(T);
    EXPECT_GT(S, 0u);
    EXPECT_GT(A, 0u);
    EXPECT_EQ(S % A, 0u) << "size must be a multiple of alignment";
  }
}

TEST_P(WireLayoutTest, PaddedIsMonotoneAndAligned) {
  WireLayout L(GetParam());
  for (uint64_t N : {0u, 1u, 3u, 4u, 5u, 8u, 1000u}) {
    EXPECT_GE(L.padded(N), N);
    EXPECT_EQ(L.padded(N) % L.padUnit(), 0u);
  }
}

TEST_P(WireLayoutTest, HostIdenticalImpliesNoSwap) {
  WireLayout L(GetParam());
  MintModule M;
  const MintType *Atoms[] = {M.integer(16, true), M.integer(32, false),
                             M.integer(64, true), M.floatType(64)};
  for (const MintType *T : Atoms)
    if (L.hostIdentical(T)) {
      EXPECT_FALSE(L.needsSwap(T));
    }
}

INSTANTIATE_TEST_SUITE_P(AllWires, WireLayoutTest,
                         ::testing::Values(WireKind::Xdr, WireKind::CdrLE,
                                           WireKind::CdrBE,
                                           WireKind::MachTyped,
                                           WireKind::FlukeReg),
                         [](const auto &Info) {
                           std::string N = wireKindName(Info.param);
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

TEST(WireLayout, XdrWidensSmallAtoms) {
  WireLayout L(WireKind::Xdr);
  MintModule M;
  EXPECT_EQ(L.atomSize(M.integer(8, false)), 4u);
  EXPECT_EQ(L.atomSize(M.integer(16, true)), 4u);
  EXPECT_EQ(L.atomSize(M.boolType()), 4u);
  EXPECT_EQ(L.atomSize(M.charType()), 4u);
  EXPECT_EQ(L.atomSize(M.integer(64, true)), 8u);
}

TEST(WireLayout, CdrUsesNaturalSizes) {
  WireLayout L(WireKind::CdrLE);
  MintModule M;
  EXPECT_EQ(L.atomSize(M.integer(8, false)), 1u);
  EXPECT_EQ(L.atomSize(M.integer(16, true)), 2u);
  EXPECT_EQ(L.atomSize(M.boolType()), 1u);
  EXPECT_EQ(L.atomAlign(M.integer(64, true)), 8u);
}

TEST(WireLayout, LittleEndianHostMemcpyEligibility) {
  // These assertions encode the x86-64 (little-endian) host expectations
  // that drive the Figure 3 memcpy-vs-swap split.
  MintModule M;
  WireLayout Xdr(WireKind::Xdr), Cdr(WireKind::CdrLE);
  EXPECT_FALSE(Xdr.hostIdentical(M.integer(32, true)));
  EXPECT_TRUE(Xdr.needsSwap(M.integer(32, true)));
  EXPECT_TRUE(Cdr.hostIdentical(M.integer(32, true)));
  EXPECT_TRUE(Cdr.hostIdentical(M.floatType(64)));
  // Byte data copies everywhere.
  EXPECT_TRUE(Cdr.hostIdentical(M.charType()));
  EXPECT_FALSE(Xdr.hostIdentical(M.charType())); // XDR chars widen to 4
  EXPECT_TRUE(Xdr.hostIdentical(M.integer(8, false)) ||
              Xdr.atomSize(M.integer(8, false)) == 4);
}

TEST(WireLayout, StringNulConventions) {
  EXPECT_TRUE(WireLayout(WireKind::CdrLE).stringCountsNul());
  EXPECT_FALSE(WireLayout(WireKind::Xdr).stringCountsNul());
}

//===----------------------------------------------------------------------===//
// Storage analysis (paper §3.1)
//===----------------------------------------------------------------------===//

TEST(StorageAnalysis, FixedStruct) {
  MintModule M;
  // The paper's rect: two points of two int32s.
  std::vector<MintStructElem> Pt = {{M.integer(32, true), "x"},
                                    {M.integer(32, true), "y"}};
  auto *Point = M.make<MintStruct>(Pt);
  auto *Rect = M.make<MintStruct>(std::vector<MintStructElem>{
      {Point, "min"}, {Point, "max"}});
  StorageInfo SI = analyzeStorage(Rect, WireLayout(WireKind::Xdr));
  EXPECT_EQ(SI.Class, StorageClass::Fixed);
  EXPECT_EQ(SI.MinBytes, 16u);
  EXPECT_EQ(SI.MaxBytes, 16u);
}

TEST(StorageAnalysis, BoundedString) {
  MintModule M;
  auto *Str = M.make<MintArray>(M.charType(), 0, 255);
  StorageInfo SI = analyzeStorage(Str, WireLayout(WireKind::Xdr));
  EXPECT_EQ(SI.Class, StorageClass::Bounded);
  EXPECT_GE(SI.MaxBytes, 255u + 4u);
}

TEST(StorageAnalysis, UnboundedArray) {
  MintModule M;
  auto *Arr = M.make<MintArray>(M.integer(32, true), 0, MintUnboundedLen);
  StorageInfo SI = analyzeStorage(Arr, WireLayout(WireKind::Xdr));
  EXPECT_EQ(SI.Class, StorageClass::Unbounded);
}

TEST(StorageAnalysis, FixedArrayOfFixedStructsIsFixed) {
  MintModule M;
  auto *S = M.make<MintStruct>(std::vector<MintStructElem>{
      {M.integer(32, true), "a"}, {M.integer(32, true), "b"}});
  auto *Arr = M.make<MintArray>(S, 8, 8);
  StorageInfo SI = analyzeStorage(Arr, WireLayout(WireKind::CdrLE));
  EXPECT_EQ(SI.Class, StorageClass::Fixed);
  EXPECT_EQ(SI.MaxBytes, 64u);
}

TEST(StorageAnalysis, UnionOfDifferentFixedArmsIsBounded) {
  MintModule M;
  std::vector<MintUnionCase> Cases = {
      {1, M.integer(32, true), "i"},
      {2, M.floatType(64), "d"},
  };
  auto *U = M.make<MintUnion>(M.integer(32, true), Cases, nullptr);
  StorageInfo SI = analyzeStorage(U, WireLayout(WireKind::Xdr));
  EXPECT_EQ(SI.Class, StorageClass::Bounded);
  EXPECT_EQ(SI.MaxBytes, 4u + 8u);
  EXPECT_EQ(SI.MinBytes, 4u + 4u);
}

TEST(StorageAnalysis, RecursiveTypeIsUnbounded) {
  MintModule M;
  auto *Node = M.make<MintStruct>(std::vector<MintStructElem>{});
  auto *Opt = M.make<MintArray>(Node, 0, 1);
  Node->elems().push_back(MintStructElem{M.integer(32, true), "v"});
  Node->elems().push_back(MintStructElem{Opt, "next"});
  StorageInfo SI = analyzeStorage(Node, WireLayout(WireKind::Xdr));
  EXPECT_EQ(SI.Class, StorageClass::Unbounded);
}

TEST(StorageAnalysis, PaperDirentShapeIsBounded) {
  // dirent = string<255> + 30 u32 + 16 bytes: variable but bounded.
  MintModule M;
  auto *Name = M.make<MintArray>(M.charType(), 0, 255);
  auto *Words = M.make<MintArray>(M.integer(32, false), 30, 30);
  auto *Tag = M.make<MintArray>(M.integer(8, false), 16, 16);
  auto *Stat = M.make<MintStruct>(std::vector<MintStructElem>{
      {Words, "words"}, {Tag, "tag"}});
  auto *Dirent = M.make<MintStruct>(std::vector<MintStructElem>{
      {Name, "name"}, {Stat, "info"}});
  StorageInfo SI = analyzeStorage(Dirent, WireLayout(WireKind::Xdr));
  EXPECT_EQ(SI.Class, StorageClass::Bounded);
  // At least the fixed 136 bytes plus the length word.
  EXPECT_GE(SI.MinBytes, 136u + 4u);
}

} // namespace
