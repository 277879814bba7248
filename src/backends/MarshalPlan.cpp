//===- backends/MarshalPlan.cpp - Marshal-plan IR and analysis ------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis half of the back end: shape classification, fixed-layout
/// measurement, host/wire element images, memcpy run merging, structural
/// type keys, and the strategy-neutral plan builder.  Nothing in this file
/// touches CAST output; the pass pipeline (Passes.cpp) rewrites the plans
/// built here and the plan emitter (PlanEmit.cpp) lowers them.
///
//===----------------------------------------------------------------------===//

#include "backends/MarshalPlan.h"
#include <algorithm>
#include <cassert>
#include <map>

using namespace flick;

//===----------------------------------------------------------------------===//
// Shared shape classification
//===----------------------------------------------------------------------===//

PKind flick::classifyPres(const PresNode *P) {
  if (!P)
    return PKind::Void;
  switch (P->kind()) {
  case PresNode::Kind::Void:
    return PKind::Void;
  case PresNode::Kind::Prim:
  case PresNode::Kind::Enum:
    return PKind::Scalar;
  case PresNode::Kind::String:
    return PKind::Str;
  case PresNode::Kind::FixedArray:
    return PKind::FixArr;
  case PresNode::Kind::OptPtr:
    return PKind::Opt;
  case PresNode::Kind::Struct:
  case PresNode::Kind::Counted:
  case PresNode::Kind::Union:
    return PKind::Agg;
  }
  return PKind::Void;
}

namespace {

bool containsUnionImpl(const PresNode *P, std::set<const PresNode *> &Seen) {
  if (!P || !Seen.insert(P).second)
    return false;
  switch (P->kind()) {
  case PresNode::Kind::Union:
    return true;
  case PresNode::Kind::Struct:
    for (const PresField &F : cast<PresStruct>(P)->fields())
      if (containsUnionImpl(F.Pres, Seen))
        return true;
    return false;
  case PresNode::Kind::FixedArray:
    return containsUnionImpl(cast<PresFixedArray>(P)->elem(), Seen);
  case PresNode::Kind::Counted:
    return containsUnionImpl(cast<PresCounted>(P)->elem(), Seen);
  case PresNode::Kind::OptPtr:
    return containsUnionImpl(cast<PresOptPtr>(P)->elem(), Seen);
  default:
    return false;
  }
}

} // namespace

bool flick::presContainsUnion(const PresNode *P) {
  std::set<const PresNode *> Seen;
  return containsUnionImpl(P, Seen);
}

bool flick::isAtomicMint(const MintType *T) {
  switch (T->kind()) {
  case MintType::Kind::Integer:
  case MintType::Kind::Float:
  case MintType::Kind::Char:
  case MintType::Kind::Boolean:
    return true;
  default:
    return false;
  }
}

bool flick::isByteElem(const WireLayout &L, const MintType *T) {
  (void)L;
  if (T->kind() == MintType::Kind::Char)
    return true;
  const auto *I = dyn_cast<MintInteger>(T);
  return I && I->bits() == 8;
}

const char *flick::endianSuffix(WireKind K) {
  switch (K) {
  case WireKind::Xdr:
  case WireKind::CdrBE:
    return "be";
  case WireKind::CdrLE:
    return "le";
  case WireKind::MachTyped:
  case WireKind::FlukeReg:
    return "ne";
  }
  return "ne";
}

std::string flick::encFnFor(const WireLayout &L, unsigned Size) {
  if (Size == 1)
    return "flick_enc_u8";
  return "flick_enc_u" + std::to_string(Size * 8) + endianSuffix(L.kind());
}

std::string flick::decFnFor(const WireLayout &L, unsigned Size) {
  if (Size == 1)
    return "flick_dec_u8";
  return "flick_dec_u" + std::to_string(Size * 8) + endianSuffix(L.kind());
}

unsigned flick::chunkAlignFor(const WireLayout &L) {
  return L.kind() == WireKind::Xdr ? 4 : 8;
}

//===----------------------------------------------------------------------===//
// Fixed-layout measurement
//===----------------------------------------------------------------------===//

FixedLayout LayoutMeasurer::measure(const PresNode *P) {
  FixedLayout FL;
  uint64_t Off = 0;
  FL.IsFixed = walk(P, Off, FL.MaxAlign);
  FL.Size = Off;
  return FL;
}

FixedLayout
LayoutMeasurer::measureSeq(const std::vector<const PresNode *> &Items) {
  FixedLayout FL;
  uint64_t Off = 0;
  for (const PresNode *P : Items)
    if (!walk(P, Off, FL.MaxAlign)) {
      FL.IsFixed = false;
      break;
    }
  FL.Size = Off;
  return FL;
}

bool LayoutMeasurer::walk(const PresNode *P, uint64_t &Off,
                          unsigned &MaxAlign) {
  if (!P)
    return true;
  if (!Seen.insert(P).second)
    return false; // recursive types are never fixed-size
  bool Ok = walkNew(P, Off, MaxAlign);
  Seen.erase(P);
  return Ok;
}

bool LayoutMeasurer::walkNew(const PresNode *P, uint64_t &Off,
                             unsigned &MaxAlign) {
  switch (P->kind()) {
  case PresNode::Kind::Void:
    return true;
  case PresNode::Kind::Prim:
  case PresNode::Kind::Enum: {
    unsigned A = L.atomAlign(P->mint());
    unsigned S = L.atomSize(P->mint());
    Off = alignUpTo(Off, A);
    Off += S;
    MaxAlign = std::max(MaxAlign, A);
    return true;
  }
  case PresNode::Kind::Struct: {
    for (const PresField &F : cast<PresStruct>(P)->fields())
      if (!walk(F.Pres, Off, MaxAlign))
        return false;
    return true;
  }
  case PresNode::Kind::FixedArray: {
    const auto *A = cast<PresFixedArray>(P);
    const MintType *EM = A->elem()->mint();
    if (isByteElem(L, EM)) {
      unsigned PU = L.padUnit();
      Off = alignUpTo(Off, PU);
      Off += L.padded(A->count());
      MaxAlign = std::max<unsigned>(MaxAlign, PU);
      return true;
    }
    FixedLayout EL;
    {
      uint64_t EOff = 0;
      if (!walk(A->elem(), EOff, EL.MaxAlign))
        return false;
      EL.Size = EOff;
    }
    uint64_t Stride =
        L.padded(alignUpTo(EL.Size, std::max<uint64_t>(EL.MaxAlign, 1)));
    Off = alignUpTo(Off, std::max<unsigned>(EL.MaxAlign, 1));
    Off += A->count() * Stride;
    MaxAlign = std::max(MaxAlign, EL.MaxAlign);
    return true;
  }
  case PresNode::Kind::Counted:
  case PresNode::Kind::String:
  case PresNode::Kind::OptPtr:
  case PresNode::Kind::Union:
    return false;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Element host images
//===----------------------------------------------------------------------===//

CScalar flick::hostScalarOf(const PresNode *P) {
  if (isa<PresEnum>(P))
    return {4, 4};
  const MintType *T = P->mint();
  switch (T->kind()) {
  case MintType::Kind::Integer: {
    unsigned S = cast<MintInteger>(T)->bits() / 8;
    return {S, S};
  }
  case MintType::Kind::Float: {
    unsigned S = cast<MintFloat>(T)->bits() / 8;
    return {S, S};
  }
  case MintType::Kind::Char:
  case MintType::Kind::Boolean:
    return {1, 1};
  default:
    return {0, 0};
  }
}

namespace {

/// The byte order the scalar leaves of a lockstep walk agree on: the
/// first leaf sets it, and every later one must match.
struct LeafOrder {
  bool Seen = false;
  unsigned SwapWidth = 0; ///< 0 while the leaves are bit-identical

  bool admit(unsigned Width) {
    if (Seen && Width != SwapWidth)
      return false;
    Seen = true;
    SwapWidth = Width;
    return true;
  }
};

/// Walks wire and host layouts in lockstep; true when every scalar lands
/// at the same offset with the same size and all scalars share one byte
/// order (\p Order).
bool walkHostImage(const PresNode *P, const WireLayout &L, uint64_t &WOff,
                   uint64_t &COff, unsigned &CAlign, LeafOrder &Order) {
  switch (P->kind()) {
  case PresNode::Kind::Prim:
  case PresNode::Kind::Enum: {
    CScalar H = hostScalarOf(P);
    HostImage M = L.hostImage(P->mint());
    if (!H.Size || M == HostImage::Differs)
      return false;
    unsigned WA = L.atomAlign(P->mint());
    unsigned WS = L.atomSize(P->mint());
    WOff = alignUpTo(WOff, WA);
    COff = alignUpTo(COff, H.Align);
    if (WOff != COff || WS != H.Size ||
        !Order.admit(M == HostImage::Reversed ? WS : 0))
      return false;
    WOff += WS;
    COff += H.Size;
    CAlign = std::max(CAlign, H.Align);
    return true;
  }
  case PresNode::Kind::Struct: {
    uint64_t SW = WOff, SC = COff;
    unsigned Inner = 1;
    for (const PresField &F : cast<PresStruct>(P)->fields())
      if (!walkHostImage(F.Pres, L, WOff, COff, Inner, Order))
        return false;
    // C pads the struct tail to its alignment; the wire stride (computed
    // by LayoutMeasurer) pads to max member alignment the same way, so
    // require the padded ends to agree.
    uint64_t CEnd = alignUpTo(COff, Inner);
    uint64_t WEnd = alignUpTo(WOff, Inner);
    if (CEnd - SC != WEnd - SW)
      return false;
    WOff = WEnd;
    COff = CEnd;
    CAlign = std::max(CAlign, Inner);
    return true;
  }
  case PresNode::Kind::FixedArray: {
    const auto *A = cast<PresFixedArray>(P);
    for (uint64_t I = 0; I != A->count(); ++I)
      if (!walkHostImage(A->elem(), L, WOff, COff, CAlign, Order))
        return false;
    return true;
  }
  default:
    return false;
  }
}

} // namespace

ElemImage flick::elemImageOf(const PresNode *Elem, const WireLayout &L) {
  ElemImage Img;
  if (classifyPres(Elem) != PKind::Scalar && !Elem->ctype())
    return Img;
  uint64_t W = 0, C = 0;
  unsigned Align = 1;
  LeafOrder Order;
  if (!walkHostImage(Elem, L, W, C, Align, Order))
    return Img;
  uint64_t CStride = alignUpTo(C, Align);
  // The wire stride emitArrayElems uses comes from LayoutMeasurer.
  LayoutMeasurer M(L);
  FixedLayout FL = M.measure(Elem);
  if (!FL.IsFixed)
    return Img;
  uint64_t WStride =
      L.padded(alignUpTo(FL.Size, std::max<uint64_t>(FL.MaxAlign, 1)));
  if (CStride != WStride)
    return Img;
  Img.Match = Order.SwapWidth ? HostImage::Reversed : HostImage::Identical;
  Img.SwapWidth = Order.SwapWidth;
  Img.Stride = CStride;
  return Img;
}

//===----------------------------------------------------------------------===//
// Memcpy run merging
//===----------------------------------------------------------------------===//
//
// A lockstep wire/host walk that mirrors LayoutMeasurer::walkNew on the
// wire side.  It differs from walkHostImage in one load-bearing rule:
// struct tails pad only the *host* side here, because walkNew lays struct
// members inline with no tail padding, whereas array elements (where
// walkHostImage is used) stride over the padded size on both sides.
// Tail divergence then shows up as a later leaf-offset mismatch or as a
// final HostSize != WireSize, which denseBitIdentical rejects.

namespace {

class RunCollector {
public:
  explicit RunCollector(const WireLayout &L) : L(L) {}

  bool walk(const PresNode *P, uint64_t &WOff, uint64_t &COff,
            unsigned &CAlign, MemcpyRuns &R) {
    if (!P)
      return true;
    if (!Seen.insert(P).second)
      return false;
    bool Ok = walkNew(P, WOff, COff, CAlign, R);
    Seen.erase(P);
    return Ok;
  }

private:
  void addLeaf(MemcpyRuns &R, uint64_t Off, uint64_t Bytes) {
    if (!R.Runs.empty() && R.Runs.back().Off + R.Runs.back().Bytes == Off)
      R.Runs.back().Bytes += Bytes;
    else
      R.Runs.push_back({Off, Bytes});
  }

  bool walkNew(const PresNode *P, uint64_t &WOff, uint64_t &COff,
               unsigned &CAlign, MemcpyRuns &R) {
    switch (P->kind()) {
    case PresNode::Kind::Void:
      return true;
    case PresNode::Kind::Prim:
    case PresNode::Kind::Enum: {
      CScalar H = hostScalarOf(P);
      if (!H.Size || !L.hostIdentical(P->mint()))
        return false;
      unsigned WA = L.atomAlign(P->mint());
      unsigned WS = L.atomSize(P->mint());
      WOff = alignUpTo(WOff, WA);
      COff = alignUpTo(COff, H.Align);
      if (WOff != COff || WS != H.Size)
        return false;
      addLeaf(R, WOff, WS);
      WOff += WS;
      COff += H.Size;
      CAlign = std::max(CAlign, H.Align);
      ++R.Leaves;
      return true;
    }
    case PresNode::Kind::Struct: {
      unsigned Inner = 1;
      for (const PresField &F : cast<PresStruct>(P)->fields())
        if (!walk(F.Pres, WOff, COff, Inner, R))
          return false;
      // Host side pads the struct tail; the wire lays the next sibling
      // straight after the last member (walkNew semantics).
      COff = alignUpTo(COff, Inner);
      CAlign = std::max(CAlign, Inner);
      return true;
    }
    case PresNode::Kind::FixedArray: {
      const auto *A = cast<PresFixedArray>(P);
      const MintType *EM = A->elem()->mint();
      if (isByteElem(L, EM)) {
        unsigned PU = L.padUnit();
        WOff = alignUpTo(WOff, PU);
        if (WOff != COff)
          return false;
        if (A->count()) {
          addLeaf(R, WOff, A->count());
          R.Leaves += static_cast<unsigned>(A->count());
        }
        WOff += L.padded(A->count());
        COff += A->count();
        return true;
      }
      LayoutMeasurer M(L);
      FixedLayout EL = M.measure(A->elem());
      if (!EL.IsFixed)
        return false;
      uint64_t WStride =
          L.padded(alignUpTo(EL.Size, std::max<uint64_t>(EL.MaxAlign, 1)));
      WOff = alignUpTo(WOff, std::max<unsigned>(EL.MaxAlign, 1));
      for (uint64_t I = 0; I != A->count(); ++I) {
        uint64_t WS = WOff, CS = COff;
        unsigned ElemCAlign = 1;
        if (!walk(A->elem(), WOff, COff, ElemCAlign, R))
          return false;
        WOff = WS + WStride;
        COff = CS + alignUpTo(COff - CS, ElemCAlign);
        CAlign = std::max(CAlign, ElemCAlign);
      }
      return true;
    }
    case PresNode::Kind::Counted:
    case PresNode::Kind::String:
    case PresNode::Kind::OptPtr:
    case PresNode::Kind::Union:
      return false;
    }
    return false;
  }

  const WireLayout &L;
  std::set<const PresNode *> Seen;
};

} // namespace

MemcpyRuns flick::memcpyRunsOf(const PresNode *P, const WireLayout &L) {
  MemcpyRuns R;
  uint64_t WOff = 0, COff = 0;
  unsigned CAlign = 1;
  RunCollector C(L);
  if (!C.walk(P, WOff, COff, CAlign, R)) {
    R.Runs.clear();
    R.Leaves = 0;
    R.Identical = false;
    return R;
  }
  R.WireSize = WOff;
  R.HostSize = alignUpTo(COff, CAlign);
  R.Identical = true;
  return R;
}

bool flick::denseBitIdentical(const MemcpyRuns &R) {
  return R.Identical && R.Leaves >= 2 && R.WireSize >= 8 &&
         R.Runs.size() == 1 && R.Runs[0].Off == 0 &&
         R.Runs[0].Bytes == R.WireSize && R.HostSize == R.WireSize;
}

//===----------------------------------------------------------------------===//
// Structural keys
//===----------------------------------------------------------------------===//

namespace {

std::string atomKeyOf(const MintType *T) {
  switch (T->kind()) {
  case MintType::Kind::Integer: {
    const auto *I = cast<MintInteger>(T);
    return (I->isSigned() ? "i" : "u") + std::to_string(I->bits());
  }
  case MintType::Kind::Float:
    return "f" + std::to_string(cast<MintFloat>(T)->bits());
  case MintType::Kind::Char:
    return "c";
  case MintType::Kind::Boolean:
    return "b";
  default:
    return "?";
  }
}

std::string ctypeKeyOf(const PresNode *P) {
  return P->ctype() ? printCastType(P->ctype(), "") : "?";
}

std::string allocKeyOf(const AllocSemantics &A) {
  std::string S;
  if (A.AllowBufferAlias)
    S += 'a';
  if (A.AllowStackAlloc)
    S += 's';
  if (A.AllowHeap)
    S += 'h';
  return S;
}

std::string boundKeyOf(const PresNode *P) {
  const auto *MA = dyn_cast<MintArray>(P->mint());
  if (!MA || !MA->isBounded())
    return "u";
  return "b" + std::to_string(MA->maxLen());
}

void structureKeyImpl(const PresNode *P, std::string &Out,
                      std::map<const PresNode *, unsigned> &Seen) {
  if (!P) {
    Out += "v;";
    return;
  }
  auto Known = Seen.find(P);
  if (Known != Seen.end()) {
    Out += "@" + std::to_string(Known->second) + ";";
    return;
  }
  Seen.emplace(P, static_cast<unsigned>(Seen.size()));
  switch (P->kind()) {
  case PresNode::Kind::Void:
    Out += "v;";
    return;
  case PresNode::Kind::Prim:
    Out += "p(" + atomKeyOf(P->mint()) + "," + ctypeKeyOf(P) + ");";
    return;
  case PresNode::Kind::Enum:
    Out += "e(" + atomKeyOf(P->mint()) + "," + ctypeKeyOf(P) + ");";
    return;
  case PresNode::Kind::Struct: {
    Out += "s(" + ctypeKeyOf(P) + "){";
    for (const PresField &F : cast<PresStruct>(P)->fields()) {
      Out += F.CName + ":";
      structureKeyImpl(F.Pres, Out, Seen);
    }
    Out += "};";
    return;
  }
  case PresNode::Kind::FixedArray: {
    const auto *A = cast<PresFixedArray>(P);
    Out += "a(" + std::to_string(A->count()) + "," + ctypeKeyOf(P) + ")";
    structureKeyImpl(A->elem(), Out, Seen);
    return;
  }
  case PresNode::Kind::Counted: {
    const auto *C = cast<PresCounted>(P);
    Out += "c(" + C->lenField() + "," + C->bufField() + "," + C->maxField() +
           "," + boundKeyOf(P) + "," + allocKeyOf(C->alloc()) + "," +
           ctypeKeyOf(P) + ")";
    structureKeyImpl(C->elem(), Out, Seen);
    return;
  }
  case PresNode::Kind::String:
    Out += "str(" + boundKeyOf(P) + "," +
           allocKeyOf(cast<PresString>(P)->alloc()) + ");";
    return;
  case PresNode::Kind::OptPtr: {
    const auto *O = cast<PresOptPtr>(P);
    Out += "o(" + allocKeyOf(O->alloc()) + "," + ctypeKeyOf(P) + ")";
    structureKeyImpl(O->elem(), Out, Seen);
    return;
  }
  case PresNode::Kind::Union: {
    const auto *U = cast<PresUnion>(P);
    Out += "u(" + ctypeKeyOf(P) + "," + U->discField() + "," +
           U->unionField() + ")[";
    structureKeyImpl(U->discPres(), Out, Seen);
    Out += "]{";
    for (const PresUnionArm &Arm : U->arms()) {
      for (int64_t V : Arm.CaseValues)
        Out += std::to_string(V) + ",";
      if (Arm.IsDefault)
        Out += "d";
      Out += ":" + Arm.ArmField + ":";
      structureKeyImpl(Arm.Pres, Out, Seen);
    }
    Out += "};";
    return;
  }
  }
}

} // namespace

std::string flick::presStructureKey(const PresNode *P) {
  std::string Out;
  std::map<const PresNode *, unsigned> Seen;
  structureKeyImpl(P, Out, Seen);
  return Out;
}

//===----------------------------------------------------------------------===//
// The plan builder
//===----------------------------------------------------------------------===//

SeqPlan flick::buildSeqPlan(const std::vector<const PresNode *> &Items,
                            const std::vector<std::string> &Names,
                            const WireLayout &L, bool Encode, bool ServerSide,
                            const std::set<const PresNode *> &Active) {
  SeqPlan Plan;
  Plan.Encode = Encode;
  Plan.ServerSide = ServerSide;
  for (size_t I = 0; I != Items.size(); ++I) {
    const PresNode *P = Items[I];
    PlanItem It;
    It.Pres = P;
    It.Name = I < Names.size() && !Names[I].empty()
                  ? Names[I]
                  : "item" + std::to_string(I);
    PKind K = classifyPres(P);
    if (K == PKind::Void) {
      // Keep the item (Items stays index-parallel with the value list),
      // but a void marshals nothing: no step.
      Plan.Items.push_back(std::move(It));
      continue;
    }
    It.Scalar = K == PKind::Scalar;
    It.HasUnion = presContainsUnion(P);
    It.Recursive = Active.count(P) != 0;
    LayoutMeasurer M(L);
    FixedLayout FL = M.measure(P);
    It.Fixed = FL.IsFixed;
    if (It.Fixed) {
      It.FixedSize = FL.Size;
      It.FixedAlign = FL.MaxAlign;
      It.Storage = StorageClass::Fixed;
      It.MaxBytes = FL.Size;
    } else if (P->mint()) {
      StorageInfo SI = analyzeStorage(P->mint(), L);
      It.Storage = SI.Class;
      It.MaxBytes = SI.MaxBytes;
    }
    // Build-time strategy mirrors the no-pass world: only recursion forces
    // nothing, every non-scalar goes out of line, and only scalars may
    // coalesce.  The inline pass relaxes both.
    It.OutOfLine = It.Recursive || !It.Scalar;
    It.CoalesceOK = It.Scalar && It.Fixed && !It.HasUnion && !It.Recursive;
    auto Idx = static_cast<unsigned>(Plan.Items.size());
    Plan.Items.push_back(std::move(It));
    MarshalStep St;
    St.Kind = StepKind::VariableSegment;
    St.Item = Idx;
    Plan.Steps.push_back(St);
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Plan dumping
//===----------------------------------------------------------------------===//

namespace {

const char *hookName(HookKind K) {
  switch (K) {
  case HookKind::RequestHeader:
    return "request_header";
  case HookKind::RequestFinish:
    return "request_finish";
  case HookKind::ReplyHeader:
    return "reply_header";
  case HookKind::ReplyFinish:
    return "reply_finish";
  }
  return "?";
}

std::string itos(uint64_t V) { return std::to_string(V); }

} // namespace

std::string flick::dumpSeqPlanSteps(const SeqPlan &Plan) {
  std::string Out;
  for (const MarshalStep &St : Plan.Steps) {
    switch (St.Kind) {
    case StepKind::FramingHook:
      Out += std::string("  framing ") + hookName(St.Hook) + "\n";
      break;
    case StepKind::TraceHook:
      Out += std::string("  trace ") + (St.TraceBegin ? "begin " : "end") +
             (St.TraceBegin ? St.TraceLabel : "") + "\n";
      break;
    case StepKind::VariableSegment: {
      Out += "  segment [" + itos(St.Item) + "] " + Plan.Items[St.Item].Name;
      if (St.PreEnsureBytes)
        Out += " pre_ensure=" + itos(St.PreEnsureBytes);
      if (St.Alloc == AllocKind::Arena)
        Out += " alloc=arena";
      else if (St.Alloc == AllocKind::Heap)
        Out += " alloc=heap";
      if (St.Alias)
        Out += " alias";
      Out += "\n";
      break;
    }
    case StepKind::GatherRef:
      Out += "  GatherRef [" + itos(St.Item) + "] " + Plan.Items[St.Item].Name +
             " min_bytes=" + itos(St.GatherMinBytes) + "\n";
      break;
    case StepKind::FixedChunk: {
      Out += "  chunk size=" + itos(St.Size) + " align=" + itos(St.Align) +
             "\n";
      for (const PlanMember &M : St.Members) {
        Out += "    [" + itos(M.Item) + "] " + Plan.Items[M.Item].Name +
               " off=" + itos(M.WireOff) + " size=" + itos(M.WireSize);
        if (M.Memcpy)
          Out += " memcpy=" + itos(M.MemcpyBytes);
        Out += "\n";
      }
      break;
    }
    }
  }
  return Out;
}

std::string flick::dumpSeqPlan(const SeqPlan &Before, const SeqPlan &After) {
  std::string Out = "== " + After.Label + " (";
  Out += After.Encode ? "encode" : "decode";
  if (After.ServerSide)
    Out += ", server";
  Out += ")\n";
  Out += "items:\n";
  for (size_t I = 0; I != After.Items.size(); ++I) {
    const PlanItem &It = After.Items[I];
    Out += "  [" + itos(I) + "] " + It.Name + ":";
    if (classifyPres(It.Pres) == PKind::Void)
      Out += " void";
    else if (It.Fixed)
      Out += " fixed size=" + itos(It.FixedSize) +
             " align=" + itos(It.FixedAlign);
    else if (It.Storage == StorageClass::Bounded)
      Out += " bounded max=" + itos(It.MaxBytes);
    else
      Out += " unbounded";
    if (It.Scalar)
      Out += " scalar";
    if (It.HasUnion)
      Out += " union";
    if (It.Recursive)
      Out += " recursive";
    if (It.OutOfLine)
      Out += " out-of-line";
    if (It.CoalesceOK)
      Out += " coalesce";
    Out += "\n";
  }
  Out += "before:\n" + dumpSeqPlanSteps(Before);
  Out += "after:\n" + dumpSeqPlanSteps(After);
  Out += "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Shared policy predicates
//===----------------------------------------------------------------------===//

uint64_t flick::boundedPreEnsureBytes(const PresNode *P, const WireLayout &L,
                                      uint64_t Threshold) {
  if (!P || !P->mint())
    return 0;
  StorageInfo SI = analyzeStorage(P->mint(), L);
  if (SI.Class != StorageClass::Bounded)
    return 0;
  // +16 covers the length words and framing slop around the segment.
  if (SI.MaxBytes + 16 > Threshold)
    return 0;
  return SI.MaxBytes + 16;
}

bool flick::aliasableCountedElem(const PresCounted *P, const WireLayout &L) {
  const MintType *EM = P->elem()->mint();
  if (!isAtomicMint(EM) || !L.hostIdentical(EM))
    return false;
  // XDR pads every element to 4 bytes, so only <=4-byte atoms lie
  // contiguously in the buffer.
  return L.atomSize(EM) <= 4 || L.kind() != WireKind::Xdr;
}

bool flick::aliasableString(const PresString *P, const WireLayout &L) {
  (void)P;
  // The presented char* can only point into the buffer when the wire
  // carries the terminating NUL (CDR counts it; XDR does not).
  return L.stringCountsNul();
}

bool flick::gatherableSegment(const PresNode *P, const WireLayout &L,
                              bool MemcpyOn) {
  const PresNode *Elem = nullptr;
  if (const auto *C = dyn_cast_or_null<PresCounted>(P))
    Elem = C->elem();
  else if (const auto *A = dyn_cast_or_null<PresFixedArray>(P))
    Elem = A->elem();
  if (!Elem)
    return false;
  const MintType *EM = Elem->mint();
  // Byte arrays always lower to one dense copy from presented storage.
  if (isByteElem(L, EM))
    return true;
  // The wider cases are the memcpy pass's bulk copies: without that pass
  // the emitter marshals per element and there is no copy to replace.
  // Swap copies stay copies: the wire bytes are not the presented ones.
  return MemcpyOn && elemImageOf(Elem, L).Match == HostImage::Identical;
}
