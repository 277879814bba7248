//===- backends/PlanEmit.cpp - Plan-to-CAST emitter -----------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The emission half of the back end: lowering marshal plans (and the
/// recursive per-value paths below them) to CAST.  This file owns every
/// chunkAddr/putWire/getWire detail; strategy arrives precomputed in the
/// plan steps from Passes.cpp, and the shared predicates in MarshalPlan.h
/// keep the inline decisions here (bounded pre-ensure, buffer aliasing)
/// in lockstep with the plan annotations.
///
//===----------------------------------------------------------------------===//

#include "backends/Backend.h"
#include "presgen/PresGen.h"
#include "support/Stats.h"
#include "support/StringExtras.h"
#include <cassert>

using namespace flick;

std::string StubGen::freshVar(const std::string &Hint) {
  return Hint + std::to_string(++VarCounter);
}

void StubGen::checkCall(CastExpr *Call, const char *ErrId) {
  stmt(B.ifStmt(Call, B.ret(B.id(ErrId))));
}

void StubGen::checkAvail(CastExpr *N) {
  stmt(B.ifStmt(B.nt(B.call("flick_buf_check", {bufExpr(), N})),
                B.ret(B.id("FLICK_ERR_DECODE"))));
}

unsigned StubGen::chunkAlign() const { return chunkAlignFor(Layout); }

void StubGen::alignTo(unsigned Align) {
  if (Align <= 1)
    return;
  assert(!ChunkActive && "alignTo with open chunk");
  if (CurEncode)
    checkCall(B.call("flick_buf_align_write", {bufExpr(), B.unum(Align)}),
              "FLICK_ERR_ALLOC");
  else
    checkCall(B.call("flick_buf_align_read", {bufExpr(), B.unum(Align)}),
              "FLICK_ERR_DECODE");
}

std::string StubGen::markPosition() {
  LastMark = freshVar("_mark");
  stmt(B.varDecl(B.prim("size_t"), LastMark,
                 B.arrow(bufExpr(), "len")));
  return LastMark;
}

void StubGen::openChunk(uint64_t Bytes) {
  assert(!ChunkActive && "chunk already open");
  ChunkActive = true;
  ChunkEncode = CurEncode;
  ChunkOff = 0;
  ChunkCap = Bytes;
  ChunkVar = "_chk" + std::to_string(++ChunkCounter);
  if (ChunkEncode) {
    if (NoEnsure == 0)
      checkCall(B.call("flick_buf_ensure", {bufExpr(), B.unum(Bytes)}),
                "FLICK_ERR_ALLOC");
    stmt(B.varDecl(B.ptr(B.prim("uint8_t")), ChunkVar,
                   B.call("flick_buf_grab", {bufExpr(), B.unum(Bytes)})));
  } else {
    checkAvail(B.unum(Bytes));
    stmt(B.varDecl(B.constPtr(B.prim("uint8_t")), ChunkVar,
                   B.call("flick_buf_take", {bufExpr(), B.unum(Bytes)})));
  }
}

/// Chunk-relative address expression `_chk + Off` (or just `_chk`).
static CastExpr *chunkAddr(CastBuilder &B, const std::string &Var,
                           uint64_t Off) {
  if (Off == 0)
    return B.id(Var);
  return B.add(B.id(Var), B.unum(Off));
}

void StubGen::closeChunk() {
  assert(ChunkActive && "no chunk open");
  assert(ChunkOff <= ChunkCap && "chunk overflow");
  // Zero trailing chunk padding on the encode side so the wire is
  // deterministic (presentations of one interface must produce identical
  // messages -- paper §2).
  if (ChunkEncode && ChunkOff < ChunkCap)
    stmt(B.exprStmt(B.call("memset",
                           {chunkAddr(B, ChunkVar, ChunkOff), B.num(0),
                            B.unum(ChunkCap - ChunkOff)})));
  ChunkActive = false;
}

void StubGen::putWire(unsigned Size, CastExpr *WireVal) {
  assert(ChunkActive && ChunkEncode && "putWire outside encode chunk");
  unsigned Align = Layout.kind() == WireKind::Xdr ? 4 : Size;
  uint64_t Aligned = alignUpTo(ChunkOff, Align);
  if (Aligned != ChunkOff) // zero alignment gaps for determinism
    stmt(B.exprStmt(B.call("memset",
                           {chunkAddr(B, ChunkVar, ChunkOff), B.num(0),
                            B.unum(Aligned - ChunkOff)})));
  ChunkOff = Aligned;
  stmt(B.exprStmt(B.call(encFnFor(Layout, Size),
                         {chunkAddr(B, ChunkVar, ChunkOff), WireVal})));
  ChunkOff += Size;
}

CastExpr *StubGen::getWire(unsigned Size) {
  assert(ChunkActive && !ChunkEncode && "getWire outside decode chunk");
  unsigned Align = Layout.kind() == WireKind::Xdr ? 4 : Size;
  ChunkOff = alignUpTo(ChunkOff, Align);
  CastExpr *Load =
      B.call(decFnFor(Layout, Size), {chunkAddr(B, ChunkVar, ChunkOff)});
  ChunkOff += Size;
  return Load;
}

void StubGen::putU8(CastExpr *V) { putWire(1, V); }
void StubGen::putU16(CastExpr *V) { putWire(2, V); }
void StubGen::putU32(CastExpr *V) { putWire(4, V); }
void StubGen::putU64(CastExpr *V) { putWire(8, V); }
CastExpr *StubGen::getU8() { return getWire(1); }
CastExpr *StubGen::getU16() { return getWire(2); }
CastExpr *StubGen::getU32() { return getWire(4); }
CastExpr *StubGen::getU64() { return getWire(8); }

void StubGen::putBytes(const std::string &Bytes) {
  assert(ChunkActive && ChunkEncode && "putBytes outside encode chunk");
  stmt(B.exprStmt(B.call(
      "memcpy", {chunkAddr(B, ChunkVar, ChunkOff), B.str(Bytes),
                 B.unum(Bytes.size())})));
  ChunkOff += Bytes.size();
}

//===----------------------------------------------------------------------===//
// Atomic conversion helpers
//===----------------------------------------------------------------------===//

/// Converts the presented C value \p Val to its wire integer and stores it
/// at the current chunk offset.
void StubGen::putAtomicConv(const PresNode *P, CastExpr *Val) {
  const MintType *T = P->mint();
  unsigned Size = Layout.atomSize(T);
  CastExpr *Wire = Val;
  switch (T->kind()) {
  case MintType::Kind::Integer: {
    const char *U = Size == 8 ? "uint64_t"
                    : Size == 4 ? "uint32_t"
                    : Size == 2 ? "uint16_t"
                                : "uint8_t";
    Wire = B.castTo(B.prim(U), Val);
    break;
  }
  case MintType::Kind::Float:
    Wire = B.call(cast<MintFloat>(T)->bits() == 64 ? "flick_f64_bits"
                                                   : "flick_f32_bits",
                  {Val});
    break;
  case MintType::Kind::Char:
    Wire = Size == 4
               ? B.castTo(B.prim("uint32_t"),
                          B.castTo(B.prim("unsigned char"), Val))
               : B.castTo(B.prim("uint8_t"), Val);
    break;
  case MintType::Kind::Boolean:
    Wire = B.castTo(B.prim(Size == 4 ? "uint32_t" : "uint8_t"), Val);
    break;
  default:
    assert(false && "putAtomicConv on non-atomic");
  }
  putWire(Size, Wire);
}

/// Loads an atomic from the chunk and assigns the converted value to
/// \p Val.
void StubGen::getAtomicConv(const PresNode *P, CastExpr *Val) {
  const MintType *T = P->mint();
  unsigned Size = Layout.atomSize(T);
  CastExpr *Load = getWire(Size);
  CastExpr *Conv = Load;
  if (isa<PresEnum>(P)) {
    Conv = B.castTo(P->ctype(), Load);
  } else {
    switch (T->kind()) {
    case MintType::Kind::Integer: {
      const auto *I = cast<MintInteger>(T);
      unsigned HostBytes = I->bits() / 8;
      if (HostBytes != Size) // XDR widened small integers
        Conv = B.castTo(B.prim("uint" + std::to_string(I->bits()) + "_t"),
                        Load);
      if (I->isSigned())
        Conv = B.castTo(
            B.prim("int" + std::to_string(I->bits()) + "_t"), Conv);
      break;
    }
    case MintType::Kind::Float:
      Conv = B.call(cast<MintFloat>(T)->bits() == 64 ? "flick_bits_f64"
                                                     : "flick_bits_f32",
                    {Load});
      break;
    case MintType::Kind::Char:
      Conv = B.castTo(B.prim("char"), Load);
      break;
    case MintType::Kind::Boolean:
      Conv = B.castTo(B.prim("uint8_t"), B.bin("!=", Load, B.num(0)));
      break;
    default:
      assert(false && "getAtomicConv on non-atomic");
    }
  }
  stmt(B.exprStmt(B.assign(Val, Conv)));
}

void StubGen::emitAtomicValue(const PresNode *P, CastExpr *Val,
                              bool Encode) {
  if (options().PerDatumCalls) {
    emitNaiveAtomic(P, Val, Encode);
    return;
  }
  bool Single = !ChunkActive;
  if (Single) {
    unsigned Size = Layout.atomSize(P->mint());
    openChunk(Layout.padded(Size));
  }
  if (Encode)
    putAtomicConv(P, Val);
  else
    getAtomicConv(P, Val);
  if (Single)
    closeChunk();
}

/// Traditional per-datum marshaling: one out-of-line runtime call per
/// atomic value, with its own buffer check and cursor bump.
void StubGen::emitNaiveAtomic(const PresNode *P, CastExpr *Val,
                              bool Encode) {
  const MintType *T = P->mint();
  unsigned Size = Layout.atomSize(T);
  int BigEndian = endianSuffix(Layout.kind())[0] == 'b' ? 1 : 0;
  std::string Fn = std::string(Encode ? "flick_naive_put_u"
                                      : "flick_naive_get_u") +
                   std::to_string(Size * 8);
  if (Encode) {
    // Reuse the conversion logic: wire value expression.
    CastExpr *Wire = Val;
    switch (T->kind()) {
    case MintType::Kind::Float:
      Wire = B.call(cast<MintFloat>(T)->bits() == 64 ? "flick_f64_bits"
                                                     : "flick_f32_bits",
                    {Val});
      break;
    case MintType::Kind::Char:
      Wire = Size == 4 ? B.castTo(B.prim("uint32_t"),
                                  B.castTo(B.prim("unsigned char"), Val))
                       : B.castTo(B.prim("uint8_t"), Val);
      break;
    default: {
      const char *U = Size == 8 ? "uint64_t"
                      : Size == 4 ? "uint32_t"
                      : Size == 2 ? "uint16_t"
                                  : "uint8_t";
      Wire = B.castTo(B.prim(U), Val);
    }
    }
    std::vector<CastExpr *> Args = {bufExpr(), Wire};
    if (Size > 1)
      Args.push_back(B.num(BigEndian));
    checkCall(B.call(Fn, Args), "FLICK_ERR_ALLOC");
    return;
  }
  std::string Tmp = freshVar("_t");
  const char *U = Size == 8 ? "uint64_t"
                  : Size == 4 ? "uint32_t"
                  : Size == 2 ? "uint16_t"
                              : "uint8_t";
  stmt(B.varDecl(B.prim(U), Tmp));
  std::vector<CastExpr *> Args = {bufExpr(), B.addr(B.id(Tmp))};
  if (Size > 1)
    Args.push_back(B.num(BigEndian));
  checkCall(B.call(Fn, Args), "FLICK_ERR_DECODE");
  CastExpr *Conv = B.id(Tmp);
  if (isa<PresEnum>(P)) {
    Conv = B.castTo(P->ctype(), Conv);
  } else {
    switch (T->kind()) {
    case MintType::Kind::Integer: {
      const auto *I = cast<MintInteger>(T);
      if (I->bits() / 8 != Size)
        Conv = B.castTo(B.prim("uint" + std::to_string(I->bits()) + "_t"),
                        Conv);
      if (I->isSigned())
        Conv = B.castTo(B.prim("int" + std::to_string(I->bits()) + "_t"),
                        Conv);
      break;
    }
    case MintType::Kind::Float:
      Conv = B.call(cast<MintFloat>(T)->bits() == 64 ? "flick_bits_f64"
                                                     : "flick_bits_f32",
                    {Conv});
      break;
    case MintType::Kind::Char:
      Conv = B.castTo(B.prim("char"), Conv);
      break;
    case MintType::Kind::Boolean:
      Conv = B.castTo(B.prim("uint8_t"), B.bin("!=", Conv, B.num(0)));
      break;
    default:
      break;
    }
  }
  stmt(B.exprStmt(B.assign(Val, Conv)));
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

CastExpr *StubGen::allocExpr(const AllocSemantics &A, CastExpr *Bytes) {
  // Scratch storage is the default when the presentation allows it and the
  // option is on; the helper falls back to malloc when no arena is in
  // scope (client side passes a null arena).  Paper §3.1, "Parameter
  // Management".
  if (options().ScratchAlloc && A.AllowStackAlloc && ServerSide)
    return B.call("flick_arena_alloc", {B.id("_ar"), Bytes});
  return B.call("malloc", {Bytes});
}

//===----------------------------------------------------------------------===//
// emitValue: policy wrapper
//===----------------------------------------------------------------------===//

void StubGen::emitValue(const PresNode *P, CastExpr *Val, bool Encode) {
  CurEncode = Encode;
  PKind K = classifyPres(P);
  if (K == PKind::Void)
    return;

  // Recursive types and non-inlining mode go through out-of-line helpers
  // (paper §3.3: Flick inlines everything except recursive types).  The
  // helper-root check comes first: when generating a helper body, the node
  // is already on the emission stack and must inline exactly once.
  bool NonScalar = K != PKind::Scalar;
  const PresNode *SavedRoot = HelperRoot;
  if (P == HelperRoot) {
    HelperRoot = nullptr;
  } else if (Emitting.count(P) ||
             (!options().Inline && NonScalar)) {
    callHelper(P, Val, Encode);
    return;
  }
  bool Inserted = Emitting.insert(P).second;

  bool Handled = false;
  if (options().Chunk && !ChunkActive && !presContainsUnion(P)) {
    LayoutMeasurer M(Layout);
    FixedLayout FL = M.measure(P);
    if (FL.IsFixed) {
      // One buffer check for the whole fixed segment, then static-offset
      // chunk addressing (paper §3.1/§3.2).
      if (FL.Size > 0) {
        openChunk(alignUpTo(FL.Size, chunkAlign()));
        emitFixedInChunk(P, Val, Encode);
        closeChunk();
      }
      Handled = true;
    } else if (Encode && NoEnsure == 0) {
      // Variable but bounded below the threshold: ensure the maximum
      // once, then marshal with no further space checks.  Same predicate
      // the bounded pass uses to annotate the plan.
      uint64_t Pre = boundedPreEnsureBytes(P, Layout,
                                           options().BoundedThreshold);
      if (Pre) {
        checkCall(B.call("flick_buf_ensure", {bufExpr(), B.unum(Pre)}),
                  "FLICK_ERR_ALLOC");
        ++NoEnsure;
        emitValueInner(P, Val, Encode);
        --NoEnsure;
        Handled = true;
      }
    }
  }
  if (!Handled)
    emitValueInner(P, Val, Encode);

  if (Inserted)
    Emitting.erase(P);
  HelperRoot = SavedRoot;
}

void StubGen::emitValueInner(const PresNode *P, CastExpr *Val, bool Encode) {
  switch (P->kind()) {
  case PresNode::Kind::Void:
    return;
  case PresNode::Kind::Prim:
  case PresNode::Kind::Enum:
    emitAtomicValue(P, Val, Encode);
    return;
  case PresNode::Kind::Struct:
    emitStruct(cast<PresStruct>(P), Val, Encode);
    return;
  case PresNode::Kind::FixedArray: {
    const auto *A = cast<PresFixedArray>(P);
    emitArrayElems(A->elem(), Val, B.unum(A->count()), Encode);
    return;
  }
  case PresNode::Kind::Counted:
    emitCounted(cast<PresCounted>(P), Val, Encode);
    return;
  case PresNode::Kind::String:
    emitString(cast<PresString>(P), Val, Encode);
    return;
  case PresNode::Kind::OptPtr:
    emitOptPtr(cast<PresOptPtr>(P), Val, Encode);
    return;
  case PresNode::Kind::Union:
    emitUnion(cast<PresUnion>(P), Val, Encode);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Fixed-chunk emission (mirrors LayoutMeasurer)
//===----------------------------------------------------------------------===//

uint64_t StubGen::elemStrideOf(const PresNode *Elem) const {
  LayoutMeasurer M(Layout);
  FixedLayout EL = M.measure(Elem);
  assert(EL.IsFixed && "stride of variable element");
  return Layout.padded(
      alignUpTo(EL.Size, std::max<uint64_t>(EL.MaxAlign, 1)));
}

void StubGen::emitFixedInChunk(const PresNode *P, CastExpr *Val,
                               bool Encode) {
  switch (P->kind()) {
  case PresNode::Kind::Void:
    return;
  case PresNode::Kind::Prim:
  case PresNode::Kind::Enum:
    if (Encode)
      putAtomicConv(P, Val);
    else
      getAtomicConv(P, Val);
    return;
  case PresNode::Kind::Struct:
    for (const PresField &F : cast<PresStruct>(P)->fields())
      emitFixedInChunk(F.Pres, B.mem(Val, F.CName), Encode);
    return;
  case PresNode::Kind::FixedArray: {
    const auto *A = cast<PresFixedArray>(P);
    const PresNode *Elem = A->elem();
    const MintType *EM = Elem->mint();
    uint64_t N = A->count();
    if (isByteElem(Layout, EM)) {
      // Packed byte array (XDR opaque semantics): one memcpy.
      ChunkOff = alignUpTo(ChunkOff, Layout.padUnit());
      CastExpr *Addr = chunkAddr(B, ChunkVar, ChunkOff);
      if (Encode) {
        stmt(B.exprStmt(B.call("memcpy", {Addr, Val, B.unum(N)})));
        uint64_t Pad = Layout.padded(N) - N;
        if (Pad)
          stmt(B.exprStmt(B.call(
              "memset",
              {chunkAddr(B, ChunkVar, ChunkOff + N), B.num(0),
               B.unum(Pad)})));
      } else {
        stmt(B.exprStmt(B.call(
            "memcpy", {Val, B.castTo(B.constPtr(B.voidTy()), Addr),
                       B.unum(N)})));
      }
      ChunkOff += Layout.padded(N);
      return;
    }
    if (isAtomicMint(EM)) {
      unsigned S = Layout.atomSize(EM);
      ChunkOff = alignUpTo(ChunkOff, Layout.atomAlign(EM));
      ElemImage Img =
          options().Memcpy ? elemImageOf(Elem, Layout) : ElemImage();
      if (Img.Match != HostImage::Differs) {
        // Same-size atoms, so the host and wire arrays are N * S bytes.
        CastExpr *Addr = chunkAddr(B, ChunkVar, ChunkOff);
        if (Img.Match == HostImage::Reversed)
          stmt(B.exprStmt(
              swapCopyCall(Img.SwapWidth, Addr, Val, B.unum(N), Encode)));
        else if (Encode)
          stmt(B.exprStmt(B.call("memcpy", {Addr, Val, B.unum(N * S)})));
        else
          stmt(B.exprStmt(B.call(
              "memcpy", {Val, B.castTo(B.constPtr(B.voidTy()), Addr),
                         B.unum(N * S)})));
        ChunkOff += N * S;
        return;
      }
      // Widened atoms (XDR shorts and bools), or the memcpy pass turned
      // off: an element loop with chunk-relative addressing under the
      // chunk's one space check.
      uint64_t Stride = S;
      std::string IV = freshVar("_i");
      uint64_t BaseOff = ChunkOff;
      std::vector<CastStmt *> Body;
      auto *SaveCur = Cur;
      uint64_t SaveOff = ChunkOff;
      std::string SaveVar = ChunkVar;
      uint64_t SaveCap = ChunkCap;
      std::string EP = freshVar("_ep");
      Cur = &Body;
      stmt(B.varDecl(Encode ? B.ptr(B.prim("uint8_t"))
                            : B.constPtr(B.prim("uint8_t")),
                     EP,
                     B.add(chunkAddr(B, SaveVar, BaseOff),
                           B.mul(B.id(IV), B.unum(Stride)))));
      ChunkVar = EP;
      ChunkOff = 0;
      ChunkCap = Stride;
      emitFixedInChunk(A->elem(), B.idx(Val, B.id(IV)), Encode);
      Cur = SaveCur;
      ChunkVar = SaveVar;
      ChunkCap = SaveCap;
      ChunkOff = SaveOff + N * Stride;
      stmt(B.forStmt(
          B.varDecl(B.prim("size_t"), IV, B.num(0)),
          B.lt(B.id(IV), B.unum(N)),
          B.bin("=", B.id(IV), B.add(B.id(IV), B.num(1))), B.block(Body)));
      return;
    }
    // Fixed array of fixed aggregates: loop with per-element chunk base.
    uint64_t Stride = elemStrideOf(Elem);
    LayoutMeasurer M(Layout);
    FixedLayout EL = M.measure(Elem);
    ChunkOff = alignUpTo(ChunkOff, std::max<unsigned>(EL.MaxAlign, 1));
    uint64_t BaseOff = ChunkOff;
    std::string IV = freshVar("_i");
    std::vector<CastStmt *> Body;
    auto *SaveCur = Cur;
    uint64_t SaveOff = ChunkOff;
    std::string SaveVar = ChunkVar;
    uint64_t SaveCap = ChunkCap;
    std::string EP = freshVar("_ep");
    Cur = &Body;
    stmt(B.varDecl(Encode ? B.ptr(B.prim("uint8_t"))
                          : B.constPtr(B.prim("uint8_t")),
                   EP,
                   B.add(chunkAddr(B, SaveVar, BaseOff),
                         B.mul(B.id(IV), B.unum(Stride)))));
    ChunkVar = EP;
    ChunkOff = 0;
    ChunkCap = Stride;
    emitFixedInChunk(Elem, B.idx(Val, B.id(IV)), Encode);
    Cur = SaveCur;
    ChunkVar = SaveVar;
    ChunkCap = SaveCap;
    ChunkOff = SaveOff + A->count() * Stride;
    stmt(B.forStmt(B.varDecl(B.prim("size_t"), IV, B.num(0)),
                   B.lt(B.id(IV), B.unum(A->count())),
                   B.bin("=", B.id(IV), B.add(B.id(IV), B.num(1))),
                   B.block(Body)));
    return;
  }
  default:
    assert(false && "variable-size node inside fixed chunk");
  }
}

//===----------------------------------------------------------------------===//
// Sequences (struct fields / parameter lists): plan, optimize, lower
//===----------------------------------------------------------------------===//

void StubGen::emitSequence(
    const std::vector<std::pair<const PresNode *, CastExpr *>> &Items,
    bool Encode) {
  // Consume the top-level plan context (all empty for struct interiors).
  std::string Label = std::move(NextPlanLabel);
  std::vector<std::string> Names = std::move(NextPlanNames);
  std::vector<HookKind> PreHooks = std::move(NextPreHooks);
  std::vector<HookKind> PostHooks = std::move(NextPostHooks);
  std::function<void(HookKind)> HookFn = std::move(PlanHookFn);
  NextPlanLabel.clear();
  NextPlanNames.clear();
  NextPreHooks.clear();
  NextPostHooks.clear();
  PlanHookFn = nullptr;

  std::vector<const PresNode *> Ps;
  std::vector<CastExpr *> Vals;
  for (const auto &[Pn, V] : Items) {
    Ps.push_back(Pn);
    Vals.push_back(V);
  }

  SeqPlan Plan =
      buildSeqPlan(Ps, Names, Layout, Encode, ServerSide, Emitting);
  Plan.Label = Label;

  // Framing hooks are plan steps: coalescing never crosses them, and the
  // dump shows the whole message in order.
  for (auto It = PreHooks.rbegin(); It != PreHooks.rend(); ++It) {
    MarshalStep St;
    St.Kind = StepKind::FramingHook;
    St.Hook = *It;
    Plan.Steps.insert(Plan.Steps.begin(), St);
  }
  for (HookKind H : PostHooks) {
    MarshalStep St;
    St.Kind = StepKind::FramingHook;
    St.Hook = H;
    Plan.Steps.push_back(St);
  }

  // --trace-hooks brackets the whole helper body (framing included) with
  // span steps.  Top-level plans only: struct interiors have no label and
  // would nest a span per aggregate.
  if (options().TraceHooks && !Plan.Label.empty()) {
    MarshalStep Begin;
    Begin.Kind = StepKind::TraceHook;
    Begin.TraceBegin = true;
    Begin.TraceKind = Encode ? "FLICK_SPAN_MARSHAL" : "FLICK_SPAN_UNMARSHAL";
    Begin.TraceLabel = Plan.Label;
    Plan.Steps.insert(Plan.Steps.begin(), Begin);
    MarshalStep End;
    End.Kind = StepKind::TraceHook;
    Plan.Steps.push_back(End);
  }

  bool Dump = options().DumpPlans && !Plan.Label.empty();
  SeqPlan Before;
  if (Dump)
    Before = Plan;
  Pipeline.run(Plan);
  if (Dump)
    PlanDump += dumpSeqPlan(Before, Plan);

  emitPlanSteps(Plan, Vals, HookFn);
}

void StubGen::emitPlanSteps(const SeqPlan &Plan,
                            const std::vector<CastExpr *> &Vals,
                            const std::function<void(HookKind)> &HookFn) {
  CurEncode = Plan.Encode;
  for (const MarshalStep &St : Plan.Steps) {
    switch (St.Kind) {
    case StepKind::FramingHook:
      assert(HookFn && "framing hook step without a hook callback");
      HookFn(St.Hook);
      break;
    case StepKind::TraceHook:
      stmt(B.rawStmt(St.TraceBegin ? "flick_span_begin(" + St.TraceKind +
                                         ", \"" + St.TraceLabel + "\");"
                                   : "flick_span_end();"));
      break;
    case StepKind::FixedChunk: {
      if (St.Size == 0)
        break;
      openChunk(alignUpTo(St.Size, chunkAlign()));
      for (const PlanMember &M : St.Members) {
        assert(ChunkOff == M.WireOff && "plan/emitter offset drift");
        const PlanItem &It = Plan.Items[M.Item];
        if (M.Memcpy)
          emitMemberMemcpy(It.Pres, Vals[M.Item], M, Plan.Encode);
        else
          emitFixedInChunk(It.Pres, Vals[M.Item], Plan.Encode);
      }
      closeChunk();
      break;
    }
    case StepKind::VariableSegment:
      // Bounded/alias/scratch annotations need no explicit lowering here:
      // emitValue consults the same shared predicates the passes used, so
      // the emitted strategy matches the annotated plan by construction.
      emitValue(Plan.Items[St.Item].Pres, Vals[St.Item], Plan.Encode);
      break;
    case StepKind::GatherRef: {
      // Same lowering as a VariableSegment, with the gather threshold
      // armed: the bulk-copy site inside (emitBulkEncode) branches to
      // flick_buf_ref for payloads at or above it.
      uint64_t Save = GatherMin;
      GatherMin = St.GatherMinBytes;
      emitValue(Plan.Items[St.Item].Pres, Vals[St.Item], Plan.Encode);
      GatherMin = Save;
      break;
    }
    }
  }
}

void StubGen::emitMemberMemcpy(const PresNode *P, CastExpr *Val,
                               const PlanMember &M, bool Encode) {
  // The memcpy pass only marks members whose host image equals the wire
  // image byte for byte; pin that ABI assumption in the generated code.
  stmt(B.rawStmt("static_assert(sizeof(" + printCastType(P->ctype(), "") +
                 ") == " + std::to_string(M.MemcpyBytes) +
                 ", \"wire/host layout assumption\");"));
  // Structs need their address taken; fixed arrays decay to a pointer.
  CastExpr *Host = isa<PresStruct>(P) ? B.addr(Val) : Val;
  CastExpr *Wire = chunkAddr(B, ChunkVar, ChunkOff);
  if (Encode)
    stmt(B.exprStmt(
        B.call("memcpy", {Wire, Host, B.unum(M.MemcpyBytes)})));
  else
    stmt(B.exprStmt(
        B.call("memcpy", {Host, Wire, B.unum(M.MemcpyBytes)})));
  ChunkOff += M.WireSize;
}

void StubGen::emitStruct(const PresStruct *P, CastExpr *Val, bool Encode) {
  std::vector<std::pair<const PresNode *, CastExpr *>> Items;
  for (const PresField &F : P->fields())
    Items.push_back({F.Pres, B.mem(Val, F.CName)});
  emitSequence(Items, Encode);
}

//===----------------------------------------------------------------------===//
// Arrays
//===----------------------------------------------------------------------===//

/// The encode-side bulk copy of NB bytes from BaseE: a memcpy, or a swap
/// copy of NB / SwapWidth words.  Outside a GatherRef step this is the
/// ensure+grab+copy, with the copy skipped for an empty array (whose
/// presented buffer may be null).  Inside one, a memcpy becomes the
/// else-branch of a runtime size test: at or above the gather threshold
/// the bytes are *borrowed* via flick_buf_ref and the transport gathers
/// them at send time, so the payload is never copied into the marshal
/// buffer at all.
void StubGen::emitBulkEncode(const std::string &NB, CastExpr *BaseE,
                             unsigned SwapWidth) {
  auto PlainCopy = [&] {
    if (NoEnsure == 0)
      checkCall(B.call("flick_buf_ensure", {bufExpr(), B.id(NB)}),
                "FLICK_ERR_ALLOC");
    CastExpr *Wire = B.call("flick_buf_grab", {bufExpr(), B.id(NB)});
    CastExpr *Copy =
        SwapWidth
            ? swapCopyCall(SwapWidth, Wire, BaseE,
                           B.bin("/", B.id(NB), B.unum(SwapWidth)), true)
            : B.call("memcpy", {Wire, BaseE, B.id(NB)});
    stmt(B.ifStmt(B.ne(B.id(NB), B.num(0)), B.exprStmt(Copy)));
  };
  if (GatherMin == 0 || SwapWidth) {
    PlainCopy();
    return;
  }
  std::vector<CastStmt *> Then, Else;
  auto *SaveCur = Cur;
  Cur = &Then;
  checkCall(B.call("flick_buf_ref", {bufExpr(), BaseE, B.id(NB)}),
            "FLICK_ERR_ALLOC");
  Cur = &Else;
  PlainCopy();
  Cur = SaveCur;
  stmt(B.ifStmt(B.bin(">=", B.id(NB), B.unum(GatherMin)), B.block(Then),
                B.block(Else)));
}

CastExpr *StubGen::swapCopyCall(unsigned SwapWidth, CastExpr *Wire,
                                CastExpr *Host, CastExpr *Words,
                                bool Encode) {
  std::string Fn = "flick_swap_copy_u" + std::to_string(8 * SwapWidth);
  if (Encode)
    return B.call(Fn, {Wire, B.castTo(B.constPtr(B.prim("uint8_t")), Host),
                       Words});
  return B.call(Fn, {B.castTo(B.ptr(B.prim("uint8_t")), Host), Wire, Words});
}

/// Shared element path once a destination/source base pointer and runtime
/// count are known.  Handles memcpy/swap bulk copies and per-element loops.
void StubGen::emitArrayElems(const PresNode *Elem, CastExpr *BaseE,
                             CastExpr *CountE, bool Encode) {
  const MintType *EM = Elem->mint();
  unsigned CA = chunkAlign();

  // Bulk byte copy (strings use emitString, so this is opaque/char data).
  if (isByteElem(Layout, EM)) {
    std::string NB = freshVar("_nb");
    stmt(B.varDecl(B.prim("size_t"), NB,
                   B.castTo(B.prim("size_t"), CountE)));
    if (Encode) {
      emitBulkEncode(NB, BaseE);
    } else {
      checkAvail(B.id(NB));
      stmt(B.exprStmt(B.call(
          "memcpy",
          {BaseE,
           B.castTo(B.constPtr(B.voidTy()),
                    B.call("flick_buf_take", {bufExpr(), B.id(NB)})),
           B.id(NB)})));
    }
    alignTo(Layout.padUnit() > 1 ? Layout.padUnit() : CA);
    return;
  }

  // Block copy (paper §3.2, and USC-style for aggregates, the paper's
  // future work): elements whose host image is the wire image move as one
  // memcpy, and elements whose image differs only in byte order as one
  // swap copy.  A static_assert in the generated code pins the aggregate
  // ABI assumption.
  ElemImage Img = options().Memcpy ? elemImageOf(Elem, Layout) : ElemImage();
  if (Img.Match != HostImage::Differs) {
    if (classifyPres(Elem) != PKind::Scalar)
      stmt(B.rawStmt("static_assert(sizeof(" +
                     printCastType(Elem->ctype(), "") + ") == " +
                     std::to_string(Img.Stride) +
                     ", \"wire/host layout assumption\");"));
    std::string NB = freshVar("_nb");
    stmt(B.varDecl(
        B.prim("size_t"), NB,
        B.mul(B.castTo(B.prim("size_t"), CountE), B.unum(Img.Stride))));
    if (Encode) {
      emitBulkEncode(NB, BaseE, Img.SwapWidth);
    } else {
      checkAvail(B.id(NB));
      CastExpr *Wire = B.call("flick_buf_take", {bufExpr(), B.id(NB)});
      if (Img.SwapWidth)
        stmt(B.exprStmt(swapCopyCall(
            Img.SwapWidth, Wire, BaseE,
            B.bin("/", B.id(NB), B.unum(Img.SwapWidth)), false)));
      else
        stmt(B.exprStmt(B.call(
            "memcpy",
            {BaseE, B.castTo(B.constPtr(B.voidTy()), Wire), B.id(NB)})));
    }
    alignTo(CA);
    return;
  }
  // Atom arrays that loop still reserve the block copy's `_nb` name: the
  // stub goldens pin the numbering of the locals after it.
  if (isAtomicMint(EM))
    freshVar("_nb");

  // Fixed-size elements: one space check for the whole array, then a loop
  // with chunk-relative addressing (how the paper's rectangle arrays
  // marshal when they cannot block-copy).
  LayoutMeasurer M(Layout);
  FixedLayout EL = M.measure(Elem);
  if (options().Chunk && EL.IsFixed && !presContainsUnion(Elem) &&
      (options().Inline || classifyPres(Elem) == PKind::Scalar)) {
    uint64_t Stride = elemStrideOf(Elem);
    std::string NB = freshVar("_nb");
    stmt(B.varDecl(
        B.prim("size_t"), NB,
        B.mul(B.castTo(B.prim("size_t"), CountE), B.unum(Stride))));
    std::string Base = freshVar("_ab");
    if (Encode) {
      if (NoEnsure == 0)
        checkCall(B.call("flick_buf_ensure", {bufExpr(), B.id(NB)}),
                  "FLICK_ERR_ALLOC");
      stmt(B.varDecl(B.ptr(B.prim("uint8_t")), Base,
                     B.call("flick_buf_grab", {bufExpr(), B.id(NB)})));
    } else {
      checkAvail(B.id(NB));
      stmt(B.varDecl(B.constPtr(B.prim("uint8_t")), Base,
                     B.call("flick_buf_take", {bufExpr(), B.id(NB)})));
    }
    std::string IV = freshVar("_i");
    std::vector<CastStmt *> Body;
    auto *SaveCur = Cur;
    Cur = &Body;
    std::string EP = freshVar("_ep");
    stmt(B.varDecl(Encode ? B.ptr(B.prim("uint8_t"))
                          : B.constPtr(B.prim("uint8_t")),
                   EP,
                   B.add(B.id(Base), B.mul(B.id(IV), B.unum(Stride)))));
    bool SaveActive = ChunkActive;
    ChunkActive = true;
    ChunkEncode = Encode;
    std::string SaveVar = ChunkVar;
    uint64_t SaveOff = ChunkOff, SaveCap = ChunkCap;
    ChunkVar = EP;
    ChunkOff = 0;
    ChunkCap = Stride;
    emitFixedInChunk(Elem, B.idx(BaseE, B.id(IV)), Encode);
    ChunkActive = SaveActive;
    ChunkVar = SaveVar;
    ChunkOff = SaveOff;
    ChunkCap = SaveCap;
    Cur = SaveCur;
    stmt(B.forStmt(B.varDecl(B.prim("size_t"), IV, B.num(0)),
                   B.lt(B.id(IV), B.castTo(B.prim("size_t"), CountE)),
                   B.bin("=", B.id(IV), B.add(B.id(IV), B.num(1))),
                   B.block(Body)));
    alignTo(CA);
    return;
  }

  // General per-element path (variable-size or non-chunked elements).
  std::string IV = freshVar("_i");
  std::vector<CastStmt *> Body;
  auto *SaveCur = Cur;
  Cur = &Body;
  emitValue(Elem, B.idx(BaseE, B.id(IV)), Encode);
  Cur = SaveCur;
  stmt(B.forStmt(B.varDecl(B.prim("size_t"), IV, B.num(0)),
                 B.lt(B.id(IV), B.castTo(B.prim("size_t"), CountE)),
                 B.bin("=", B.id(IV), B.add(B.id(IV), B.num(1))),
                 B.block(Body)));
  alignTo(CA);
}

//===----------------------------------------------------------------------===//
// Counted arrays, strings, optional pointers, unions
//===----------------------------------------------------------------------===//

void StubGen::emitCounted(const PresCounted *P, CastExpr *Val, bool Encode) {
  const PresNode *Elem = P->elem();
  const auto *MA = cast<MintArray>(P->mint());
  const MintType *EM = Elem->mint();
  unsigned CA = chunkAlign();

  if (Encode) {
    std::string Len = freshVar("_len");
    stmt(B.varDecl(B.prim("uint32_t"), Len,
                   B.castTo(B.prim("uint32_t"), B.mem(Val, P->lenField()))));
    if (MA->isBounded())
      stmt(B.ifStmt(B.bin(">", B.id(Len), B.unum(MA->maxLen())),
                    B.ret(B.id("FLICK_ERR_DECODE"))));
    openChunk(alignUpTo(Layout.padded(4), CA));
    putU32(B.id(Len));
    closeChunk();
    emitArrayElems(Elem, B.mem(Val, P->bufField()), B.id(Len), true);
    return;
  }

  // Decode: length word, bound check, destination storage, elements.
  openChunk(alignUpTo(Layout.padded(4), CA));
  std::string Len = freshVar("_len");
  stmt(B.varDecl(B.prim("uint32_t"), Len, getU32()));
  closeChunk();
  if (MA->isBounded())
    stmt(B.ifStmt(B.bin(">", B.id(Len), B.unum(MA->maxLen())),
                  B.ret(B.id("FLICK_ERR_DECODE"))));
  stmt(B.exprStmt(B.assign(B.mem(Val, P->lenField()), B.id(Len))));
  if (!P->maxField().empty())
    stmt(B.exprStmt(B.assign(B.mem(Val, P->maxField()), B.id(Len))));

  CastType *ElemCT = Elem->ctype();
  bool AliasOk = options().BufferAlias && options().ScratchAlloc &&
                 ServerSide && P->alloc().AllowBufferAlias &&
                 aliasableCountedElem(P, Layout);
  if (AliasOk) {
    // Decode in place: the presented array aliases the request buffer
    // (paper §3.1); legal because the presentation forbids the servant
    // from keeping references.
    unsigned S = Layout.atomSize(EM);
    std::string NB = freshVar("_nb");
    stmt(B.varDecl(B.prim("size_t"), NB,
                   B.mul(B.castTo(B.prim("size_t"), B.id(Len)),
                         B.unum(S))));
    checkAvail(B.id(NB));
    stmt(B.exprStmt(B.assign(
        B.mem(Val, P->bufField()),
        B.castTo(B.ptr(ElemCT),
                 B.call("flick_buf_take_mut", {bufExpr(), B.id(NB)})))));
    alignTo(Layout.padUnit() > 1 ? Layout.padUnit() : CA);
    return;
  }

  // Every element is at least one wire byte, so a length beyond the
  // remaining buffer is malformed; reject before allocating (avoids
  // attacker-controlled allocation bombs).
  checkAvail(B.castTo(B.prim("size_t"), B.id(Len)));
  std::string Dst = freshVar("_dst");
  CastExpr *Bytes =
      B.mul(B.add(B.castTo(B.prim("size_t"), B.id(Len)), B.num(1)),
            B.sizeofTy(ElemCT));
  stmt(B.varDecl(B.ptr(ElemCT), Dst,
                 B.castTo(B.ptr(ElemCT), allocExpr(P->alloc(), Bytes))));
  stmt(B.ifStmt(B.nt(B.id(Dst)), B.ret(B.id("FLICK_ERR_ALLOC"))));
  emitArrayElems(Elem, B.id(Dst), B.id(Len), false);
  stmt(B.exprStmt(B.assign(B.mem(Val, P->bufField()), B.id(Dst))));
}

void StubGen::emitString(const PresString *P, CastExpr *Val, bool Encode) {
  const auto *MA = cast<MintArray>(P->mint());
  bool CountsNul = Layout.stringCountsNul();
  unsigned CA = chunkAlign();

  if (Encode) {
    std::string Sp = freshVar("_sp");
    stmt(B.varDecl(B.constPtr(B.prim("char")), Sp,
                   B.ternary(Val, Val, B.str(""))));
    std::string Sl = freshVar("_sl");
    auto KnownIt = KnownStrLenIn.find(P);
    if (KnownIt != KnownStrLenIn.end()) {
      // Explicit-length presentation (paper §2): the caller already knows
      // the length, so the stub never calls strlen.
      stmt(B.varDecl(B.prim("size_t"), Sl,
                     B.castTo(B.prim("size_t"), KnownIt->second)));
      KnownStrLenIn.erase(KnownIt);
    } else {
      stmt(B.varDecl(B.prim("size_t"), Sl, B.call("strlen", {B.id(Sp)})));
    }
    if (MA->isBounded())
      stmt(B.ifStmt(B.bin(">", B.id(Sl), B.unum(MA->maxLen())),
                    B.ret(B.id("FLICK_ERR_DECODE"))));
    std::string Wl = freshVar("_wl");
    stmt(B.varDecl(B.prim("size_t"), Wl,
                   CountsNul ? B.add(B.id(Sl), B.num(1))
                             : static_cast<CastExpr *>(B.id(Sl))));
    openChunk(alignUpTo(Layout.padded(4), CA));
    putU32(B.castTo(B.prim("uint32_t"), B.id(Wl)));
    closeChunk();
    if (options().Memcpy || options().PerDatumCalls) {
      // Strings copy in bulk (paper §3.2: 60-70% faster than
      // character-by-character processing).  rpcgen also bulk-copied
      // opaque data, so the naive baseline keeps this path.  Copy only
      // the Sl characters and store the wire NUL explicitly: with the
      // explicit-length presentation the source need not be terminated.
      if (NoEnsure == 0)
        checkCall(B.call("flick_buf_ensure", {bufExpr(), B.id(Wl)}),
                  "FLICK_ERR_ALLOC");
      std::string Sd = freshVar("_sd");
      stmt(B.varDecl(B.ptr(B.prim("uint8_t")), Sd,
                     B.call("flick_buf_grab", {bufExpr(), B.id(Wl)})));
      stmt(B.exprStmt(B.call("memcpy", {B.id(Sd), B.id(Sp), B.id(Sl)})));
      if (CountsNul)
        stmt(B.exprStmt(
            B.assign(B.idx(B.id(Sd), B.id(Sl)), B.num(0))));
    } else {
      // Ablation: component-by-component character processing.
      std::string IV = freshVar("_i");
      std::vector<CastStmt *> Body;
      auto *SaveCur = Cur;
      Cur = &Body;
      checkCall(B.call("flick_naive_put_u8",
                       {bufExpr(), B.castTo(B.prim("uint8_t"),
                                            B.idx(B.id(Sp), B.id(IV)))}),
                "FLICK_ERR_ALLOC");
      Cur = SaveCur;
      stmt(B.forStmt(B.varDecl(B.prim("size_t"), IV, B.num(0)),
                     B.lt(B.id(IV), B.id(Wl)),
                     B.bin("=", B.id(IV), B.add(B.id(IV), B.num(1))),
                     B.block(Body)));
    }
    alignTo(Layout.padUnit() > 1 ? Layout.padUnit() : CA);
    return;
  }

  openChunk(alignUpTo(Layout.padded(4), CA));
  std::string Wl = freshVar("_wl");
  stmt(B.varDecl(B.prim("uint32_t"), Wl, getU32()));
  closeChunk();
  if (CountsNul)
    stmt(B.ifStmt(B.bin("<", B.id(Wl), B.num(1)),
                  B.ret(B.id("FLICK_ERR_DECODE"))));
  if (MA->isBounded())
    stmt(B.ifStmt(B.bin(">", B.id(Wl),
                        B.unum(MA->maxLen() + (CountsNul ? 1 : 0))),
                  B.ret(B.id("FLICK_ERR_DECODE"))));
  checkAvail(B.id(Wl));

  bool AliasOk = options().BufferAlias && options().ScratchAlloc &&
                 ServerSide && P->alloc().AllowBufferAlias &&
                 aliasableString(P, Layout);
  if (AliasOk) {
    // CDR strings carry their NUL on the wire, so the presented char*
    // can point straight into the request buffer.
    std::string Sv = freshVar("_s");
    stmt(B.varDecl(B.ptr(B.prim("char")), Sv,
                   B.castTo(B.ptr(B.prim("char")),
                            B.call("flick_buf_take_mut",
                                   {bufExpr(), B.id(Wl)}))));
    stmt(B.ifStmt(B.ne(B.idx(B.id(Sv), B.sub(B.id(Wl), B.num(1))),
                       B.num(0)),
                  B.ret(B.id("FLICK_ERR_DECODE"))));
    stmt(B.exprStmt(B.assign(Val, B.id(Sv))));
    {
      auto It = KnownStrLenOut.find(P);
      if (It != KnownStrLenOut.end()) {
        stmt(B.exprStmt(B.assign(It->second,
                                 B.sub(B.id(Wl), B.num(1)))));
        KnownStrLenOut.erase(It);
      }
    }
    alignTo(Layout.padUnit() > 1 ? Layout.padUnit() : CA);
    return;
  }

  auto EmitLenOut = [&](CastExpr *WireLenE) {
    auto It = KnownStrLenOut.find(P);
    if (It == KnownStrLenOut.end())
      return;
    CastExpr *Logical = CountsNul ? B.sub(WireLenE, B.num(1)) : WireLenE;
    stmt(B.exprStmt(B.assign(It->second, Logical)));
    KnownStrLenOut.erase(It);
  };
  std::string Sv = freshVar("_s");
  CastExpr *Bytes = B.add(B.castTo(B.prim("size_t"), B.id(Wl)), B.num(1));
  stmt(B.varDecl(
      B.ptr(B.prim("char")), Sv,
      B.castTo(B.ptr(B.prim("char")), allocExpr(P->alloc(), Bytes))));
  stmt(B.ifStmt(B.nt(B.id(Sv)), B.ret(B.id("FLICK_ERR_ALLOC"))));
  stmt(B.exprStmt(B.call(
      "memcpy", {B.id(Sv),
                 B.castTo(B.constPtr(B.voidTy()),
                          B.call("flick_buf_take", {bufExpr(), B.id(Wl)})),
                 B.id(Wl)})));
  stmt(B.exprStmt(
      B.assign(B.idx(B.id(Sv), B.id(Wl)), B.num(0))));
  stmt(B.exprStmt(B.assign(Val, B.id(Sv))));
  EmitLenOut(B.id(Wl));
  alignTo(Layout.padUnit() > 1 ? Layout.padUnit() : CA);
}

void StubGen::emitOptPtr(const PresOptPtr *P, CastExpr *Val, bool Encode) {
  const PresNode *Elem = P->elem();
  CastType *ElemCT = Elem->ctype();
  unsigned CA = chunkAlign();

  if (Encode) {
    openChunk(alignUpTo(Layout.padded(4), CA));
    putU32(B.ternary(Val, B.num(1), B.num(0)));
    closeChunk();
    std::vector<CastStmt *> Then;
    auto *SaveCur = Cur;
    Cur = &Then;
    emitValue(Elem, B.deref(Val), true);
    Cur = SaveCur;
    stmt(B.ifStmt(Val, B.block(Then)));
    return;
  }

  openChunk(alignUpTo(Layout.padded(4), CA));
  std::string Tag = freshVar("_tag");
  stmt(B.varDecl(B.prim("uint32_t"), Tag, getU32()));
  closeChunk();
  stmt(B.ifStmt(B.bin(">", B.id(Tag), B.num(1)),
                B.ret(B.id("FLICK_ERR_DECODE"))));
  std::vector<CastStmt *> Then, Else;
  auto *SaveCur = Cur;
  Cur = &Then;
  std::string Pv = freshVar("_p");
  stmt(B.varDecl(
      B.ptr(ElemCT), Pv,
      B.castTo(B.ptr(ElemCT),
               allocExpr(P->alloc(), B.sizeofTy(ElemCT)))));
  stmt(B.ifStmt(B.nt(B.id(Pv)), B.ret(B.id("FLICK_ERR_ALLOC"))));
  emitValue(Elem, B.deref(B.id(Pv)), false);
  stmt(B.exprStmt(B.assign(Val, B.id(Pv))));
  Cur = &Else;
  stmt(B.exprStmt(B.assign(Val, B.num(0))));
  Cur = SaveCur;
  stmt(B.ifStmt(B.id(Tag), B.block(Then), B.block(Else)));
}

void StubGen::emitUnion(const PresUnion *P, CastExpr *Val, bool Encode) {
  CastExpr *DiscL = B.mem(Val, P->discField());
  emitAtomicValue(P->discPres(), DiscL, Encode);

  std::vector<CastSwitchCase> Cases;
  bool HasDefault = false;
  for (const PresUnionArm &Arm : P->arms()) {
    CastSwitchCase C;
    if (Arm.IsDefault) {
      HasDefault = true;
    } else {
      for (int64_t V : Arm.CaseValues)
        C.Values.push_back(B.num(V));
    }
    auto *SaveCur = Cur;
    Cur = &C.Stmts;
    if (Arm.Pres)
      emitValue(Arm.Pres,
                B.mem(B.mem(Val, P->unionField()), Arm.ArmField), Encode);
    else
      stmt(B.comment("void case"));
    Cur = SaveCur;
    Cases.push_back(std::move(C));
  }
  if (!HasDefault) {
    CastSwitchCase D;
    D.Stmts.push_back(B.ret(B.id("FLICK_ERR_DECODE")));
    D.FallsThrough = true;
    Cases.push_back(std::move(D));
  }
  CastExpr *Cond = B.castTo(B.prim("int64_t"), DiscL);
  stmt(B.switchStmt(Cond, std::move(Cases)));
  alignTo(chunkAlign());
}

//===----------------------------------------------------------------------===//
// Out-of-line helpers (recursive types; non-inlining mode)
//===----------------------------------------------------------------------===//

void StubGen::placeHelperFunc(CDFunc *Proto, CSBlock *Body, bool IntoClient,
                              bool IntoServer) {
  bool Inline = options().Inline;
  auto *Def = B.func(Proto, Body, /*Static=*/Inline, /*Inline=*/Inline);
  auto *Decl = B.func(Proto, nullptr, /*Static=*/Inline, /*Inline=*/Inline);
  HelperProtos.push_back(Decl);
  if (Inline) {
    HelperDefs.push_back(Def);
    return;
  }
  (void)IntoClient;
  (void)IntoServer;
  CommonDefs.push_back(Def);
}

void StubGen::callHelper(const PresNode *Pn, CastExpr *Val, bool Encode) {
  assert(!ChunkActive && "helper call with open chunk");
  PKind K = classifyPres(Pn);
  // Structural keying: two presentations that marshal identically share
  // one emitted helper (shrinking Table 2 object sizes).
  HelperKey Key{presStructureKey(Pn), Encode};
  auto It = Helpers.find(Key);
  std::string Name;
  if (It != Helpers.end()) {
    Name = It->second;
    FLICK_STAT_COUNT("plan.helper_reuse", 1);
  } else {
    Name = sanitizeIdentifier(BaseName) +
           (Encode ? "_enc_h" : "_dec_h") +
           std::to_string(++HelperCounter);
    Helpers.emplace(Key, Name);

    // Build the helper signature.
    CastType *VT = nullptr;
    switch (K) {
    case PKind::Agg:
      VT = Encode ? B.constPtr(Pn->ctype()) : B.ptr(Pn->ctype());
      break;
    case PKind::Str:
      VT = Encode ? B.constPtr(B.prim("char"))
                  : B.ptr(B.ptr(B.prim("char")));
      break;
    case PKind::FixArr: {
      CastType *E = cast<PresFixedArray>(Pn)->elem()->ctype();
      VT = Encode ? B.constPtr(E) : B.ptr(E);
      break;
    }
    case PKind::Opt: {
      CastType *E = B.ptr(cast<PresOptPtr>(Pn)->elem()->ctype());
      VT = Encode ? E : B.ptr(E);
      break;
    }
    default:
      assert(false && "helper for scalar");
    }
    std::vector<CastParam> Params;
    Params.push_back(CastParam{B.ptr(B.structTy("flick_buf")), "_buf"});
    if (!Encode)
      Params.push_back(
          CastParam{B.ptr(B.structTy("flick_arena")), "_ar"});
    Params.push_back(CastParam{VT, "_v"});

    // Generate the body with fresh chunk/recursion state.
    auto *SaveCur = Cur;
    bool SaveActive = ChunkActive;
    bool SaveServer = ServerSide;
    unsigned SaveNoEnsure = NoEnsure;
    uint64_t SaveGather = GatherMin;
    const PresNode *SaveRoot = HelperRoot;
    ChunkActive = false;
    ServerSide = false; // shared helpers must not buffer-alias
    NoEnsure = 0;
    GatherMin = 0; // shared helpers serve replies too: never borrow
    HelperRoot = Pn;
    std::vector<CastStmt *> Body;
    Cur = &Body;
    CastExpr *Inner = nullptr;
    switch (K) {
    case PKind::Agg:
      Inner = B.deref(B.id("_v"));
      break;
    case PKind::Str:
      Inner = Encode ? B.id("_v")
                     : static_cast<CastExpr *>(B.deref(B.id("_v")));
      break;
    case PKind::FixArr:
      Inner = B.id("_v");
      break;
    case PKind::Opt:
      Inner = Encode ? B.id("_v")
                     : static_cast<CastExpr *>(B.deref(B.id("_v")));
      break;
    default:
      break;
    }
    emitValue(Pn, Inner, Encode);
    stmt(B.ret(B.id("FLICK_OK")));
    Cur = SaveCur;
    ChunkActive = SaveActive;
    ServerSide = SaveServer;
    NoEnsure = SaveNoEnsure;
    GatherMin = SaveGather;
    HelperRoot = SaveRoot;

    auto *Proto = B.func(B.prim("int"), Name, Params, nullptr);
    placeHelperFunc(Proto, B.block(Body), true, true);
  }

  // Emit the call.
  CastExpr *Arg = nullptr;
  switch (K) {
  case PKind::Agg:
    Arg = B.addr(Val);
    break;
  case PKind::Str:
    Arg = Encode ? Val : static_cast<CastExpr *>(B.addr(Val));
    break;
  case PKind::FixArr:
    Arg = Val;
    break;
  case PKind::Opt:
    Arg = Encode ? Val : static_cast<CastExpr *>(B.addr(Val));
    break;
  default:
    break;
  }
  std::vector<CastExpr *> Args = {bufExpr()};
  if (!Encode)
    Args.push_back(B.id("_ar"));
  Args.push_back(Arg);
  std::string Rv = freshVar("_hr");
  stmt(B.varDecl(B.prim("int"), Rv, B.call(Name, Args)));
  stmt(B.ifStmt(B.id(Rv), B.ret(B.id(Rv))));
}

//===----------------------------------------------------------------------===//
// Deep-free helpers
//===----------------------------------------------------------------------===//

void StubGen::emitFree(const PresNode *Pn, CastExpr *Val) {
  if (!presIsVariable(Pn))
    return;
  switch (Pn->kind()) {
  case PresNode::Kind::String:
    stmt(B.exprStmt(B.call("free", {Val})));
    return;
  case PresNode::Kind::OptPtr: {
    const auto *O = cast<PresOptPtr>(Pn);
    std::vector<CastStmt *> Then;
    auto *SaveCur = Cur;
    Cur = &Then;
    emitFree(O->elem(), B.deref(Val));
    stmt(B.exprStmt(B.call("free", {Val})));
    Cur = SaveCur;
    stmt(B.ifStmt(Val, B.block(Then)));
    return;
  }
  case PresNode::Kind::FixedArray: {
    const auto *A = cast<PresFixedArray>(Pn);
    std::string IV = freshVar("_i");
    std::vector<CastStmt *> Body;
    auto *SaveCur = Cur;
    Cur = &Body;
    emitFree(A->elem(), B.idx(Val, B.id(IV)));
    Cur = SaveCur;
    stmt(B.forStmt(B.varDecl(B.prim("size_t"), IV, B.num(0)),
                   B.lt(B.id(IV), B.unum(A->count())),
                   B.bin("=", B.id(IV), B.add(B.id(IV), B.num(1))),
                   B.block(Body)));
    return;
  }
  case PresNode::Kind::Struct:
  case PresNode::Kind::Counted:
  case PresNode::Kind::Union: {
    std::string Fn = freeHelper(Pn);
    stmt(B.exprStmt(B.call(Fn, {B.addr(Val)})));
    return;
  }
  default:
    return;
  }
}

std::string StubGen::freeHelper(const PresNode *Pn) {
  // Keyed structurally like marshal helpers; this also fixes the latent
  // duplicate-definition hazard two same-named typedef'd CastPrims had
  // under pointer keying.
  std::string Key = presStructureKey(Pn);
  auto It = FreeHelpers.find(Key);
  if (It != FreeHelpers.end())
    return It->second;
  std::string Name;
  if (const auto *Prim = dyn_cast_or_null<CastPrim>(Pn->ctype()))
    Name = std::string(Prim->name()) + "_flick_free";
  else
    Name = sanitizeIdentifier(BaseName) + "_free_h" +
           std::to_string(++HelperCounter);
  FreeHelpers.emplace(Key, Name);

  std::vector<CastParam> Params = {CastParam{B.ptr(Pn->ctype()), "_v"}};
  auto *SaveCur = Cur;
  std::vector<CastStmt *> Body;
  Cur = &Body;
  switch (Pn->kind()) {
  case PresNode::Kind::Struct:
    for (const PresField &F : cast<PresStruct>(Pn)->fields())
      emitFree(F.Pres, B.arrow(B.id("_v"), F.CName));
    break;
  case PresNode::Kind::Counted: {
    const auto *C = cast<PresCounted>(Pn);
    if (presIsVariable(C->elem())) {
      std::string IV = freshVar("_i");
      std::vector<CastStmt *> Loop;
      Cur = &Loop;
      emitFree(C->elem(),
               B.idx(B.arrow(B.id("_v"), C->bufField()), B.id(IV)));
      Cur = &Body;
      stmt(B.forStmt(
          B.varDecl(B.prim("size_t"), IV, B.num(0)),
          B.lt(B.id(IV), B.arrow(B.id("_v"), C->lenField())),
          B.bin("=", B.id(IV), B.add(B.id(IV), B.num(1))),
          B.block(Loop)));
    }
    stmt(B.exprStmt(
        B.call("free", {B.arrow(B.id("_v"), C->bufField())})));
    break;
  }
  case PresNode::Kind::Union: {
    const auto *U = cast<PresUnion>(Pn);
    std::vector<CastSwitchCase> Cases;
    for (const PresUnionArm &Arm : U->arms()) {
      if (!Arm.Pres || !presIsVariable(Arm.Pres))
        continue;
      CastSwitchCase C;
      if (!Arm.IsDefault)
        for (int64_t V : Arm.CaseValues)
          C.Values.push_back(B.num(V));
      Cur = &C.Stmts;
      emitFree(Arm.Pres, B.mem(B.arrow(B.id("_v"), U->unionField()),
                               Arm.ArmField));
      Cur = &Body;
      Cases.push_back(std::move(C));
    }
    if (!Cases.empty())
      stmt(B.switchStmt(B.castTo(B.prim("int64_t"),
                                 B.arrow(B.id("_v"), U->discField())),
                        std::move(Cases)));
    break;
  }
  default:
    break;
  }
  Cur = SaveCur;
  auto *Proto = B.func(B.voidTy(), Name, Params, nullptr);
  placeHelperFunc(Proto, B.block(Body), true, true);
  return Name;
}
