//===- tests/MarshalPlanTests.cpp - plan IR and pass pipeline tests -------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the MarshalPlan layer in isolation: the --passes grammar,
// chunk coalescing over synthetic plans, memcpy run merging on hand-built
// presentations, structural helper keys, and the plan builder/dump.
//
//===----------------------------------------------------------------------===//

#include "backends/Passes.h"
#include "cast/Builder.h"
#include "pres/Pres.h"
#include <gtest/gtest.h>

using namespace flick;

namespace {

//===----------------------------------------------------------------------===//
// --passes grammar
//===----------------------------------------------------------------------===//

TEST(PassList, TokensApplyLeftToRight) {
  BackendOptions O;
  std::string Err;
  ASSERT_TRUE(parsePassList("none", O, Err)) << Err;
  EXPECT_FALSE(O.Inline);
  EXPECT_FALSE(O.Chunk);
  EXPECT_FALSE(O.Memcpy);
  EXPECT_FALSE(O.ScratchAlloc);
  EXPECT_FALSE(O.BufferAlias);
  EXPECT_EQ(O.BoundedThreshold, 0u);

  ASSERT_TRUE(parsePassList("+chunk,inline", O, Err)) << Err;
  EXPECT_TRUE(O.Chunk);
  EXPECT_TRUE(O.Inline);
  EXPECT_FALSE(O.Memcpy);

  ASSERT_TRUE(parsePassList("all,-memcpy", O, Err)) << Err;
  EXPECT_TRUE(O.Inline);
  EXPECT_TRUE(O.Chunk);
  EXPECT_FALSE(O.Memcpy);
  EXPECT_TRUE(O.ScratchAlloc);
  EXPECT_TRUE(O.BufferAlias);
  EXPECT_EQ(O.BoundedThreshold, DefaultBoundedThreshold);
}

TEST(PassList, BoundedRestoresThreshold) {
  BackendOptions O;
  O.BoundedThreshold = 1234;
  std::string Err;
  ASSERT_TRUE(parsePassList("-bounded", O, Err));
  EXPECT_EQ(O.BoundedThreshold, 0u);
  // Re-enabling after disable falls back to the paper's default.
  ASSERT_TRUE(parsePassList("+bounded", O, Err));
  EXPECT_EQ(O.BoundedThreshold, DefaultBoundedThreshold);
  // Enabling while already enabled keeps the custom threshold.
  O.BoundedThreshold = 1234;
  ASSERT_TRUE(parsePassList("bounded", O, Err));
  EXPECT_EQ(O.BoundedThreshold, 1234u);
}

TEST(PassList, UnknownTokenFailsWithDiagnostic) {
  BackendOptions O;
  std::string Err;
  EXPECT_FALSE(parsePassList("all,-turbo", O, Err));
  EXPECT_NE(Err.find("unknown pass 'turbo'"), std::string::npos) << Err;
  EXPECT_NE(Err.find("valid:"), std::string::npos) << Err;
}

TEST(PassList, EmptyTokensAreTolerated) {
  BackendOptions O;
  std::string Err;
  ASSERT_TRUE(parsePassList(",,none,,+alias,", O, Err)) << Err;
  EXPECT_TRUE(O.BufferAlias);
  EXPECT_FALSE(O.Chunk);
}

TEST(PassRegistry, EnabledNamesFollowOptions) {
  BackendOptions O; // defaults: everything on
  std::vector<std::string> All = {"inline",  "chunk",   "memcpy",
                                  "bounded", "scratch", "alias"};
  EXPECT_EQ(enabledPassNames(O), All);
  std::string Err;
  ASSERT_TRUE(parsePassList("none,chunk,bounded", O, Err));
  std::vector<std::string> Two = {"chunk", "bounded"};
  EXPECT_EQ(enabledPassNames(O), Two);
}

TEST(PassList, GatherTokenControlsThreshold) {
  BackendOptions O;
  std::string Err;
  ASSERT_TRUE(parsePassList("none", O, Err));
  EXPECT_EQ(O.GatherMinBytes, 0u); // off by default
  ASSERT_TRUE(parsePassList("+gather", O, Err));
  EXPECT_EQ(O.GatherMinBytes, DefaultGatherMinBytes);
  ASSERT_TRUE(parsePassList("-gather", O, Err));
  EXPECT_EQ(O.GatherMinBytes, 0u);
  // Enabling while already enabled keeps a custom threshold.
  O.GatherMinBytes = 777;
  ASSERT_TRUE(parsePassList("gather", O, Err));
  EXPECT_EQ(O.GatherMinBytes, 777u);
}

TEST(PassRegistry, GatherListsInPipelineOrder) {
  BackendOptions O;
  std::string Err;
  ASSERT_TRUE(parsePassList("none,memcpy,gather,bounded", O, Err));
  std::vector<std::string> Want = {"memcpy", "gather", "bounded"};
  EXPECT_EQ(enabledPassNames(O), Want);
}

//===----------------------------------------------------------------------===//
// Chunk coalescing over synthetic plans
//===----------------------------------------------------------------------===//

/// A synthetic fixed item (no PRES node): the chunk pass lays it out from
/// FixedSize/FixedAlign directly.
PlanItem fixedItem(const std::string &Name, uint64_t Size, unsigned Align) {
  PlanItem It;
  It.Name = Name;
  It.Fixed = true;
  It.FixedSize = Size;
  It.FixedAlign = Align;
  It.CoalesceOK = true;
  It.Storage = StorageClass::Fixed;
  It.MaxBytes = Size;
  return It;
}

PlanItem variableItem(const std::string &Name) {
  PlanItem It;
  It.Name = Name;
  return It;
}

MarshalStep segStep(unsigned Item) {
  MarshalStep St;
  St.Kind = StepKind::VariableSegment;
  St.Item = Item;
  return St;
}

TEST(ChunkPass, CoalescesAdjacentFixedItemsWithAlignment) {
  WireLayout L(WireKind::CdrLE);
  BackendOptions O;
  SeqPlan Plan;
  Plan.Encode = true;
  Plan.Items = {fixedItem("a", 4, 4), fixedItem("b", 8, 8),
                fixedItem("c", 4, 4)};
  Plan.Steps = {segStep(0), segStep(1), segStep(2)};

  PassPipeline(O, L).run(Plan);

  ASSERT_EQ(Plan.Steps.size(), 1u);
  const MarshalStep &St = Plan.Steps[0];
  EXPECT_EQ(St.Kind, StepKind::FixedChunk);
  ASSERT_EQ(St.Members.size(), 3u);
  EXPECT_EQ(St.Members[0].WireOff, 0u);
  EXPECT_EQ(St.Members[0].WireSize, 4u);
  // b aligns 4 -> 8, so its window includes the alignment gap.
  EXPECT_EQ(St.Members[1].WireOff, 4u);
  EXPECT_EQ(St.Members[1].WireSize, 12u);
  EXPECT_EQ(St.Members[2].WireOff, 16u);
  EXPECT_EQ(St.Members[2].WireSize, 4u);
  EXPECT_EQ(St.Size, 20u);
  EXPECT_EQ(St.Align, 8u);
}

TEST(ChunkPass, FramingHooksBreakRuns) {
  WireLayout L(WireKind::CdrLE);
  BackendOptions O;
  SeqPlan Plan;
  Plan.Encode = true;
  Plan.Items = {fixedItem("a", 4, 4), fixedItem("b", 4, 4)};
  MarshalStep Hook;
  Hook.Kind = StepKind::FramingHook;
  Hook.Hook = HookKind::RequestFinish;
  Plan.Steps = {segStep(0), Hook, segStep(1)};

  PassPipeline(O, L).run(Plan);

  ASSERT_EQ(Plan.Steps.size(), 3u);
  EXPECT_EQ(Plan.Steps[0].Kind, StepKind::FixedChunk);
  EXPECT_EQ(Plan.Steps[1].Kind, StepKind::FramingHook);
  EXPECT_EQ(Plan.Steps[2].Kind, StepKind::FixedChunk);
  EXPECT_EQ(Plan.Steps[0].Size, 4u);
  EXPECT_EQ(Plan.Steps[2].Size, 4u);
}

TEST(ChunkPass, VariableItemsBreakRuns) {
  WireLayout L(WireKind::CdrLE);
  BackendOptions O;
  SeqPlan Plan;
  Plan.Encode = false;
  Plan.Items = {fixedItem("a", 4, 4), variableItem("v"),
                fixedItem("b", 8, 8)};
  Plan.Steps = {segStep(0), segStep(1), segStep(2)};

  PassPipeline(O, L).run(Plan);

  ASSERT_EQ(Plan.Steps.size(), 3u);
  EXPECT_EQ(Plan.Steps[0].Kind, StepKind::FixedChunk);
  EXPECT_EQ(Plan.Steps[1].Kind, StepKind::VariableSegment);
  EXPECT_EQ(Plan.Steps[1].Item, 1u);
  EXPECT_EQ(Plan.Steps[2].Kind, StepKind::FixedChunk);
}

TEST(ChunkPass, DisabledLeavesSegmentsAlone) {
  WireLayout L(WireKind::CdrLE);
  BackendOptions O;
  std::string Err;
  ASSERT_TRUE(parsePassList("all,-chunk", O, Err));
  SeqPlan Plan;
  Plan.Encode = true;
  Plan.Items = {fixedItem("a", 4, 4), fixedItem("b", 4, 4)};
  Plan.Steps = {segStep(0), segStep(1)};

  PassPipeline(O, L).run(Plan);

  ASSERT_EQ(Plan.Steps.size(), 2u);
  EXPECT_EQ(Plan.Steps[0].Kind, StepKind::VariableSegment);
  EXPECT_EQ(Plan.Steps[1].Kind, StepKind::VariableSegment);
}

//===----------------------------------------------------------------------===//
// Memcpy run merging
//===----------------------------------------------------------------------===//

struct PresFixture {
  PresC P;
  CastBuilder B{P.Cast};

  PresPrim *i32() {
    return P.make<PresPrim>(P.Mint.integer(32, true), B.prim("int32_t"));
  }
  PresPrim *i64() {
    return P.make<PresPrim>(P.Mint.integer(64, true), B.prim("int64_t"));
  }
  PresStruct *structOf(const std::string &CName,
                       std::vector<PresField> Fields) {
    std::vector<MintStructElem> Elems;
    for (const PresField &F : Fields)
      Elems.push_back(MintStructElem{F.Pres->mint(), F.CName});
    auto *M = P.Mint.make<MintStruct>(std::move(Elems));
    return P.make<PresStruct>(M, B.prim(CName), std::move(Fields));
  }
  PresFixedArray *arrOf(PresNode *Elem, uint64_t N) {
    auto *M = P.Mint.make<MintArray>(Elem->mint(), N, N);
    return P.make<PresFixedArray>(M, B.arr(Elem->ctype(), N), Elem, N);
  }
};

TEST(MemcpyRuns, DenseStructMergesToOneRun) {
  PresFixture F;
  // struct { int32 a; int32 b; int32 c[2]; }: 16 contiguous identical
  // bytes under CDR-LE.
  PresStruct *S = F.structOf(
      "S1", {{"a", F.i32()}, {"b", F.i32()}, {"c", F.arrOf(F.i32(), 2)}});
  WireLayout L(WireKind::CdrLE);
  MemcpyRuns R = memcpyRunsOf(S, L);
  EXPECT_TRUE(R.Identical);
  ASSERT_EQ(R.Runs.size(), 1u);
  EXPECT_EQ(R.Runs[0].Off, 0u);
  EXPECT_EQ(R.Runs[0].Bytes, 16u);
  EXPECT_EQ(R.WireSize, 16u);
  EXPECT_EQ(R.HostSize, 16u);
  EXPECT_EQ(R.Leaves, 4u);
  EXPECT_TRUE(denseBitIdentical(R));
}

TEST(MemcpyRuns, InteriorPaddingSplitsRuns) {
  PresFixture F;
  // struct { int32 a; int64 b; }: both wire and host pad [4,8), so the
  // leaves form two runs and the subtree cannot block-copy whole.
  PresStruct *S = F.structOf("S2", {{"a", F.i32()}, {"b", F.i64()}});
  WireLayout L(WireKind::CdrLE);
  MemcpyRuns R = memcpyRunsOf(S, L);
  EXPECT_TRUE(R.Identical);
  ASSERT_EQ(R.Runs.size(), 2u);
  EXPECT_EQ(R.Runs[0].Off, 0u);
  EXPECT_EQ(R.Runs[0].Bytes, 4u);
  EXPECT_EQ(R.Runs[1].Off, 8u);
  EXPECT_EQ(R.Runs[1].Bytes, 8u);
  EXPECT_FALSE(denseBitIdentical(R));
}

TEST(MemcpyRuns, HostTailPaddingBlocksDensity) {
  PresFixture F;
  // struct { int64 a; int32 b; }: one dense wire run of 12 bytes, but the
  // host struct pads to 16 -- copying sizeof(struct) would write/read 4
  // bytes past the wire image.
  PresStruct *S = F.structOf("S3", {{"a", F.i64()}, {"b", F.i32()}});
  WireLayout L(WireKind::CdrLE);
  MemcpyRuns R = memcpyRunsOf(S, L);
  EXPECT_TRUE(R.Identical);
  ASSERT_EQ(R.Runs.size(), 1u);
  EXPECT_EQ(R.Runs[0].Bytes, 12u);
  EXPECT_EQ(R.WireSize, 12u);
  EXPECT_EQ(R.HostSize, 16u);
  EXPECT_FALSE(denseBitIdentical(R));
}

TEST(MemcpyRuns, ByteSwappedWireIsNotIdentical) {
  PresFixture F;
  PresStruct *S = F.structOf("S4", {{"a", F.i32()}, {"b", F.i32()}});
  // XDR is big-endian; on the little-endian hosts the suite targets, no
  // leaf is host-identical.
  WireLayout L(WireKind::Xdr);
  MemcpyRuns R = memcpyRunsOf(S, L);
  EXPECT_FALSE(R.Identical);
  EXPECT_FALSE(denseBitIdentical(R));
}

TEST(MemcpyRuns, TinySubtreesAreNotWorthABlockCopy) {
  PresFixture F;
  // A single int32 merges to one identical run, but one 4-byte leaf is
  // below the two-leaf/8-byte floor for promotion.
  PresStruct *S = F.structOf("S5", {{"a", F.i32()}});
  WireLayout L(WireKind::CdrLE);
  MemcpyRuns R = memcpyRunsOf(S, L);
  EXPECT_TRUE(R.Identical);
  EXPECT_FALSE(denseBitIdentical(R));
}

//===----------------------------------------------------------------------===//
// Element host images
//===----------------------------------------------------------------------===//
//
// These cases read the suite's little-endian hosts: XDR reverses every
// 4- and 8-byte scalar there, CDR-LE keeps them bit-identical.

TEST(ElemImage, SameWidthScalarsAreReversedUnderXdr) {
  PresFixture F;
  PresStruct *Rect = F.structOf(
      "R", {{"a", F.i32()}, {"b", F.i32()}, {"c", F.arrOf(F.i32(), 2)}});
  ElemImage Img = elemImageOf(Rect, WireLayout(WireKind::Xdr));
  EXPECT_EQ(Img.Match, HostImage::Reversed);
  EXPECT_EQ(Img.SwapWidth, 4u);
  EXPECT_EQ(Img.Stride, 16u);

  Img = elemImageOf(F.i64(), WireLayout(WireKind::Xdr));
  EXPECT_EQ(Img.Match, HostImage::Reversed);
  EXPECT_EQ(Img.SwapWidth, 8u);
  EXPECT_EQ(Img.Stride, 8u);
}

TEST(ElemImage, BitIdenticalUnderCdrWhateverTheWidths) {
  PresFixture F;
  PresStruct *S =
      F.structOf("S", {{"a", F.i64()}, {"b", F.i32()}, {"c", F.i32()}});
  ElemImage Img = elemImageOf(S, WireLayout(WireKind::CdrLE));
  EXPECT_EQ(Img.Match, HostImage::Identical);
  EXPECT_EQ(Img.SwapWidth, 0u);
  EXPECT_EQ(Img.Stride, 16u);
}

TEST(ElemImage, MixedWidthsOrPaddingDiffer) {
  PresFixture F;
  // Equal offsets and no padding, but one swap cannot serve two widths.
  PresStruct *Mixed =
      F.structOf("M", {{"a", F.i64()}, {"b", F.i32()}, {"c", F.i32()}});
  EXPECT_EQ(elemImageOf(Mixed, WireLayout(WireKind::Xdr)).Match,
            HostImage::Differs);
  // { int32; int64; }: XDR puts b at 4, the host at 8.
  PresStruct *Padded = F.structOf("P", {{"a", F.i32()}, {"b", F.i64()}});
  EXPECT_EQ(elemImageOf(Padded, WireLayout(WireKind::Xdr)).Match,
            HostImage::Differs);
  // XDR widens a 16-bit integer to a 4-byte unit.
  PresPrim *Short =
      F.P.make<PresPrim>(F.P.Mint.integer(16, true), F.B.prim("int16_t"));
  EXPECT_EQ(elemImageOf(Short, WireLayout(WireKind::Xdr)).Match,
            HostImage::Differs);
  // CDR big-endian keeps it 2 bytes: a 2-byte swap.
  ElemImage Img = elemImageOf(Short, WireLayout(WireKind::CdrBE));
  EXPECT_EQ(Img.Match, HostImage::Reversed);
  EXPECT_EQ(Img.SwapWidth, 2u);
}

//===----------------------------------------------------------------------===//
// Gather pass: large dense segments go by reference
//===----------------------------------------------------------------------===//

/// Extends PresFixture with the sequence/byte shapes the gather pass
/// inspects.
struct GatherFixture : PresFixture {
  PresPrim *u8() {
    return P.make<PresPrim>(P.Mint.integer(8, false), B.prim("uint8_t"));
  }
  PresCounted *seqOf(PresNode *Elem) {
    auto *M = P.Mint.make<MintArray>(Elem->mint(), 0, 1 << 20);
    AllocSemantics AS;
    return P.make<PresCounted>(M, B.prim("seq"), Elem, "_length", "_buffer",
                               "_maximum", AS);
  }
  SeqPlan seqPlan(PresNode *Item, std::string Label) {
    SeqPlan Plan;
    Plan.Label = std::move(Label);
    Plan.Encode = true;
    PlanItem It;
    It.Name = "data";
    It.Pres = Item;
    Plan.Items = {It};
    Plan.Steps = {segStep(0)};
    return Plan;
  }
};

TEST(GatherPass, RewritesDenseSegmentsInEncodeRequestPlans) {
  GatherFixture F;
  WireLayout L(WireKind::CdrLE);
  BackendOptions O;
  std::string Err;
  ASSERT_TRUE(parsePassList("none,memcpy,gather", O, Err));
  SeqPlan Plan = F.seqPlan(F.seqOf(F.i32()), "op_encode_request");
  PassPipeline(O, L).run(Plan);
  ASSERT_EQ(Plan.Steps.size(), 1u);
  EXPECT_EQ(Plan.Steps[0].Kind, StepKind::GatherRef);
  EXPECT_EQ(Plan.Steps[0].GatherMinBytes, DefaultGatherMinBytes);
}

TEST(GatherPass, LeavesRepliesAndDecodesAlone) {
  // Borrowed spans must outlive the send; reply encoding runs inside the
  // dispatch frame where that cannot be guaranteed, so only client
  // request plans gather (DESIGN.md §11).
  GatherFixture F;
  WireLayout L(WireKind::CdrLE);
  BackendOptions O;
  std::string Err;
  ASSERT_TRUE(parsePassList("none,memcpy,gather", O, Err));
  SeqPlan Reply = F.seqPlan(F.seqOf(F.i32()), "op_encode_reply");
  PassPipeline(O, L).run(Reply);
  EXPECT_EQ(Reply.Steps[0].Kind, StepKind::VariableSegment);

  SeqPlan Decode = F.seqPlan(F.seqOf(F.i32()), "op_decode_request");
  Decode.Encode = false;
  PassPipeline(O, L).run(Decode);
  EXPECT_EQ(Decode.Steps[0].Kind, StepKind::VariableSegment);
}

TEST(GatherPass, SwappedWireKeepsTheCopy) {
  // XDR is big-endian: the marshal copy also swaps, so there is no dense
  // byte-identical span to borrow.
  GatherFixture F;
  WireLayout L(WireKind::Xdr);
  BackendOptions O;
  std::string Err;
  ASSERT_TRUE(parsePassList("none,memcpy,gather", O, Err));
  SeqPlan Plan = F.seqPlan(F.seqOf(F.i32()), "op_encode_request");
  PassPipeline(O, L).run(Plan);
  EXPECT_EQ(Plan.Steps[0].Kind, StepKind::VariableSegment);
}

TEST(GatherPass, WithoutMemcpyOnlyByteArraysGather) {
  // The wide cases replace the memcpy pass's bulk copies; without that
  // pass the emitter marshals per element and only byte arrays (always a
  // dense copy) remain gatherable.
  GatherFixture F;
  WireLayout L(WireKind::CdrLE);
  BackendOptions O;
  std::string Err;
  ASSERT_TRUE(parsePassList("none,gather", O, Err));
  SeqPlan Ints = F.seqPlan(F.seqOf(F.i32()), "op_encode_request");
  PassPipeline(O, L).run(Ints);
  EXPECT_EQ(Ints.Steps[0].Kind, StepKind::VariableSegment);

  SeqPlan Bytes = F.seqPlan(F.seqOf(F.u8()), "op_encode_request");
  PassPipeline(O, L).run(Bytes);
  EXPECT_EQ(Bytes.Steps[0].Kind, StepKind::GatherRef);
}

//===----------------------------------------------------------------------===//
// Structural keys
//===----------------------------------------------------------------------===//

TEST(StructureKey, IdenticalStructuresShareKeys) {
  PresFixture F;
  PresStruct *A = F.structOf("Pt", {{"x", F.i32()}, {"y", F.i32()}});
  PresStruct *B = F.structOf("Pt", {{"x", F.i32()}, {"y", F.i32()}});
  EXPECT_NE(A, B);
  EXPECT_EQ(presStructureKey(A), presStructureKey(B));
}

TEST(StructureKey, FieldNamesAndTypesDistinguish) {
  PresFixture F;
  PresStruct *A = F.structOf("Pt", {{"x", F.i32()}, {"y", F.i32()}});
  PresStruct *B = F.structOf("Pt", {{"x", F.i32()}, {"z", F.i32()}});
  PresStruct *C = F.structOf("Pt", {{"x", F.i32()}, {"y", F.i64()}});
  EXPECT_NE(presStructureKey(A), presStructureKey(B));
  EXPECT_NE(presStructureKey(A), presStructureKey(C));
}

TEST(StructureKey, RecursiveTypesTerminate) {
  PresFixture F;
  auto MakeList = [&]() -> PresStruct * {
    auto *NodeM = F.P.Mint.make<MintStruct>(std::vector<MintStructElem>{});
    auto *OptM = F.P.Mint.make<MintArray>(NodeM, 0, 1);
    auto *S = F.P.make<PresStruct>(NodeM, F.B.prim("node"),
                                   std::vector<PresField>{});
    AllocSemantics AS;
    auto *Next = F.P.make<PresOptPtr>(OptM, F.B.ptr(F.B.prim("node")), S, AS);
    NodeM->elems().push_back(
        MintStructElem{F.P.Mint.integer(32, true), "item"});
    NodeM->elems().push_back(MintStructElem{OptM, "next"});
    auto *Item = F.i32();
    S->fieldsMut().push_back(PresField{"item", Item});
    S->fieldsMut().push_back(PresField{"next", Next});
    return S;
  };
  PresStruct *A = MakeList();
  PresStruct *B = MakeList();
  std::string KeyA = presStructureKey(A);
  EXPECT_EQ(KeyA, presStructureKey(B));
  EXPECT_NE(KeyA.find("@"), std::string::npos)
      << "cycle must close via a back-reference: " << KeyA;
}

//===----------------------------------------------------------------------===//
// Builder + dump
//===----------------------------------------------------------------------===//

TEST(PlanBuilder, AnalyzesItemsAndEmitsOneSegmentEach) {
  PresFixture F;
  PresPrim *A = F.i32();
  auto *VoidP = F.P.make<PresVoid>(F.P.Mint.voidType());
  PresStruct *S = F.structOf("Pt", {{"x", F.i32()}, {"y", F.i32()}});
  WireLayout L(WireKind::CdrLE);
  std::set<const PresNode *> Active;
  SeqPlan Plan = buildSeqPlan({A, VoidP, S}, {"a", "v", "s"}, L,
                              /*Encode=*/true, /*ServerSide=*/false, Active);

  ASSERT_EQ(Plan.Items.size(), 3u);
  EXPECT_TRUE(Plan.Items[0].Scalar);
  EXPECT_TRUE(Plan.Items[0].Fixed);
  EXPECT_TRUE(Plan.Items[0].CoalesceOK);
  EXPECT_FALSE(Plan.Items[1].Fixed); // void: no layout, no step
  EXPECT_TRUE(Plan.Items[2].Fixed);
  EXPECT_FALSE(Plan.Items[2].Scalar);
  EXPECT_TRUE(Plan.Items[2].OutOfLine) << "builder is pre-inline-pass";
  // One VariableSegment per non-void item.
  ASSERT_EQ(Plan.Steps.size(), 2u);
  EXPECT_EQ(Plan.Steps[0].Item, 0u);
  EXPECT_EQ(Plan.Steps[1].Item, 2u);
}

TEST(PlanDump, RendersStableText) {
  WireLayout L(WireKind::CdrLE);
  BackendOptions O;
  SeqPlan Plan;
  Plan.Label = "op_encode_request";
  Plan.Encode = true;
  Plan.Items = {fixedItem("a", 4, 4), fixedItem("b", 4, 4)};
  MarshalStep Hook;
  Hook.Kind = StepKind::FramingHook;
  Hook.Hook = HookKind::RequestHeader;
  Plan.Steps = {Hook, segStep(0), segStep(1)};
  SeqPlan Before = Plan;
  PassPipeline(O, L).run(Plan);

  std::string Text = dumpSeqPlan(Before, Plan);
  EXPECT_NE(Text.find("== op_encode_request (encode)"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("framing request_header"), std::string::npos) << Text;
  EXPECT_NE(Text.find("segment [0] a"), std::string::npos) << Text;
  EXPECT_NE(Text.find("chunk size=8 align=4"), std::string::npos) << Text;
  EXPECT_NE(Text.find("[1] b off=4 size=4"), std::string::npos) << Text;
}

} // namespace
