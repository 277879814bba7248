//===- presgen/PresGen.cpp - Presentation generator base ------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "presgen/PresGen.h"
#include "support/Diagnostics.h"
#include "support/Stats.h"
#include "support/StringExtras.h"
#include <cassert>
#include <functional>
#include <set>

using namespace flick;

PresGen::~PresGen() = default;

AllocSemantics PresGen::serverInAlloc() const {
  // Both the CORBA C mapping and rpcgen forbid servants from keeping
  // references to in-parameter storage after the work function returns, so
  // the back end may alias the request buffer or use request-lifetime
  // scratch storage (paper §3.1).
  AllocSemantics A;
  A.AllowBufferAlias = true;
  A.AllowStackAlloc = true;
  A.AllowHeap = true;
  return A;
}

//===----------------------------------------------------------------------===//
// Variable-size detection
//===----------------------------------------------------------------------===//

namespace {

bool presIsVariableImpl(const PresNode *P, std::set<const PresNode *> &Seen) {
  if (!P || !Seen.insert(P).second)
    return false;
  switch (P->kind()) {
  case PresNode::Kind::Void:
  case PresNode::Kind::Prim:
  case PresNode::Kind::Enum:
    return false;
  case PresNode::Kind::Counted:
  case PresNode::Kind::String:
  case PresNode::Kind::OptPtr:
    return true;
  case PresNode::Kind::Struct: {
    for (const PresField &F : cast<PresStruct>(P)->fields())
      if (presIsVariableImpl(F.Pres, Seen))
        return true;
    return false;
  }
  case PresNode::Kind::FixedArray:
    return presIsVariableImpl(cast<PresFixedArray>(P)->elem(), Seen);
  case PresNode::Kind::Union: {
    for (const PresUnionArm &A : cast<PresUnion>(P)->arms())
      if (presIsVariableImpl(A.Pres, Seen))
        return true;
    return false;
  }
  }
  return false;
}

} // namespace

namespace flick {
/// True when the presented C value contains pointers (variable-size in the
/// CORBA C mapping sense); decides T* vs T** out-parameter passing.
bool presIsVariable(const PresNode *P) {
  std::set<const PresNode *> Seen;
  return presIsVariableImpl(P, Seen);
}
} // namespace flick

//===----------------------------------------------------------------------===//
// Type mapping
//===----------------------------------------------------------------------===//

CastType *PresGen::primCType(AoiPrimKind K) {
  switch (K) {
  case AoiPrimKind::Void:
    return B->voidTy();
  case AoiPrimKind::Boolean:
    return B->prim("uint8_t");
  case AoiPrimKind::Char:
    return B->prim("char");
  case AoiPrimKind::Octet:
    return B->prim("uint8_t");
  case AoiPrimKind::Short:
    return B->prim("int16_t");
  case AoiPrimKind::UShort:
    return B->prim("uint16_t");
  case AoiPrimKind::Long:
    return B->prim("int32_t");
  case AoiPrimKind::ULong:
    return B->prim("uint32_t");
  case AoiPrimKind::LongLong:
    return B->prim("int64_t");
  case AoiPrimKind::ULongLong:
    return B->prim("uint64_t");
  case AoiPrimKind::Float:
    return B->prim("float");
  case AoiPrimKind::Double:
    return B->prim("double");
  }
  return B->voidTy();
}

PresGen::TypeMapping PresGen::mapType(AoiType *T) {
  auto It = Memo.find(T);
  if (It != Memo.end())
    return It->second;

  TypeMapping Map;
  switch (T->kind()) {
  case AoiType::Kind::Primitive: {
    AoiPrimKind K = cast<AoiPrimitive>(T)->prim();
    Map.CT = primCType(K);
    switch (K) {
    case AoiPrimKind::Void:
      Map.M = Out->Mint.voidType();
      Map.P = Out->make<PresVoid>(Map.M);
      break;
    case AoiPrimKind::Boolean:
      Map.M = Out->Mint.boolType();
      Map.P = Out->make<PresPrim>(Map.M, Map.CT);
      break;
    case AoiPrimKind::Char:
      Map.M = Out->Mint.charType();
      Map.P = Out->make<PresPrim>(Map.M, Map.CT);
      break;
    case AoiPrimKind::Octet:
      Map.M = Out->Mint.integer(8, false);
      Map.P = Out->make<PresPrim>(Map.M, Map.CT);
      break;
    case AoiPrimKind::Short:
    case AoiPrimKind::UShort:
    case AoiPrimKind::Long:
    case AoiPrimKind::ULong:
    case AoiPrimKind::LongLong:
    case AoiPrimKind::ULongLong: {
      unsigned Bits = (K == AoiPrimKind::Short || K == AoiPrimKind::UShort)
                          ? 16
                      : (K == AoiPrimKind::Long || K == AoiPrimKind::ULong)
                          ? 32
                          : 64;
      bool Signed = K == AoiPrimKind::Short || K == AoiPrimKind::Long ||
                    K == AoiPrimKind::LongLong;
      Map.M = Out->Mint.integer(Bits, Signed);
      Map.P = Out->make<PresPrim>(Map.M, Map.CT);
      break;
    }
    case AoiPrimKind::Float:
      Map.M = Out->Mint.floatType(32);
      Map.P = Out->make<PresPrim>(Map.M, Map.CT);
      break;
    case AoiPrimKind::Double:
      Map.M = Out->Mint.floatType(64);
      Map.P = Out->make<PresPrim>(Map.M, Map.CT);
      break;
    }
    break;
  }
  case AoiType::Kind::String: {
    uint64_t Bound = cast<AoiString>(T)->bound();
    Map.M = Out->Mint.make<MintArray>(Out->Mint.charType(), 0,
                                      Bound ? Bound : MintUnboundedLen);
    Map.CT = B->ptr(B->prim("char"));
    Map.P = Out->make<PresString>(Map.M, Map.CT, serverInAlloc());
    break;
  }
  case AoiType::Kind::Sequence:
    Map = mapSequence(cast<AoiSequence>(T), std::string());
    break;
  case AoiType::Kind::Array: {
    auto *A = cast<AoiArray>(T);
    TypeMapping Elem = mapType(A->elem());
    // Multi-dimensional arrays nest outermost-first.
    Map = Elem;
    for (size_t I = A->dims().size(); I-- > 0;) {
      uint64_t N = A->dims()[I];
      MintType *M = Out->Mint.make<MintArray>(Map.M, N, N);
      CastType *CT = B->arr(Map.CT, N);
      Map.P = Out->make<PresFixedArray>(M, CT, Map.P, N);
      Map.M = M;
      Map.CT = CT;
    }
    break;
  }
  case AoiType::Kind::Struct:
    return mapStruct(cast<AoiStruct>(T));
  case AoiType::Kind::Union:
    return mapUnion(cast<AoiUnion>(T));
  case AoiType::Kind::Enum:
    return mapEnum(cast<AoiEnum>(T));
  case AoiType::Kind::Typedef:
    return mapTypedef(cast<AoiTypedef>(T));
  case AoiType::Kind::Optional: {
    auto *O = cast<AoiOptional>(T);
    // Two-phase: optional pointers are how self-referential types close
    // their cycle, so publish the mapping before mapping the element.
    auto *M = Out->Mint.make<MintArray>(nullptr, 0, 1);
    auto *P = Out->make<PresOptPtr>(M, nullptr, nullptr, serverInAlloc());
    Map.M = M;
    Map.P = P;
    Memo.emplace(T, Map); // CT patched below; re-inserted after
    TypeMapping Elem = mapType(O->elem());
    M->setElem(Elem.M);
    P->setElem(Elem.P);
    Map.CT = B->ptr(Elem.CT);
    P->setCType(Map.CT);
    Memo[T] = Map;
    return Map;
  }
  }
  Memo.emplace(T, Map);
  return Map;
}

PresGen::TypeMapping PresGen::mapStruct(AoiStruct *S) {
  std::string Name = prefixed(S->name());
  TypeMapping Map;
  auto *M = Out->Mint.make<MintStruct>(std::vector<MintStructElem>{});
  Map.M = M;
  Map.CT = B->prim(Name);
  auto *P = Out->make<PresStruct>(M, Map.CT, std::vector<PresField>{});
  Map.P = P;
  Memo.emplace(S, Map);

  // `typedef struct N N;` first so self-references inside the definition
  // are legal.
  Out->TypeDecls.push_back(B->typedefDecl(B->structTy(Name), Name));

  std::vector<CastParam> CFields;
  for (const AoiField &F : S->fields()) {
    NameHint = F.Name;
    TypeMapping FM = mapType(F.Type);
    NameHint.clear();
    M->elems().push_back(MintStructElem{FM.M, F.Name});
    P->fieldsMut().push_back(PresField{F.Name, FM.P});
    CFields.push_back(CastParam{FM.CT, F.Name});
  }
  Out->TypeDecls.push_back(B->structDef(Name, std::move(CFields)));
  return Map;
}

PresGen::TypeMapping PresGen::mapUnion(AoiUnion *U) {
  std::string Name = prefixed(U->name());
  TypeMapping Disc = mapType(U->disc());

  // MINT side.
  std::vector<MintUnionCase> MCases;
  MintType *MDefault = nullptr;
  std::vector<PresUnionArm> Arms;
  std::vector<CastParam> UnionFields;
  for (const AoiUnionCase &C : U->cases()) {
    TypeMapping Arm;
    if (C.Type)
      Arm = mapType(C.Type);
    PresUnionArm PA;
    PA.ArmField = C.FieldName;
    PA.Pres = C.Type ? Arm.P : nullptr;
    bool IsDefault = false;
    for (const AoiCaseLabel &L : C.Labels) {
      if (L.IsDefault) {
        IsDefault = true;
        continue;
      }
      PA.CaseValues.push_back(L.Value);
      MCases.push_back(MintUnionCase{
          L.Value, C.Type ? Arm.M : Out->Mint.voidType(), C.FieldName});
    }
    PA.IsDefault = IsDefault;
    if (IsDefault)
      MDefault = C.Type ? Arm.M : Out->Mint.voidType();
    Arms.push_back(std::move(PA));
    if (C.Type)
      UnionFields.push_back(CastParam{Arm.CT, C.FieldName});
  }

  // The wire discriminator is the mapped integer/enum; MINT unions always
  // discriminate on an integer type.
  auto *MDisc = dyn_cast<MintInteger>(Disc.M);
  if (!MDisc)
    MDisc = Out->Mint.integer(32, true);
  auto *M = Out->Mint.make<MintUnion>(MDisc, std::move(MCases), MDefault);

  // C side: `typedef struct N N; union N_u {...}; struct N {D _d; union
  // N_u _u;};`
  std::string UName = Name + "_" + unionUnionField();
  Out->TypeDecls.push_back(B->typedefDecl(B->structTy(Name), Name));
  Out->TypeDecls.push_back(B->unionDef(UName, UnionFields));
  std::vector<CastParam> SFields;
  SFields.push_back(CastParam{Disc.CT, unionDiscField()});
  SFields.push_back(CastParam{B->unionTy(UName), unionUnionField()});
  Out->TypeDecls.push_back(B->structDef(Name, std::move(SFields)));

  TypeMapping Map;
  Map.M = M;
  Map.CT = B->prim(Name);
  Map.P = Out->make<PresUnion>(M, Map.CT, Disc.P, unionDiscField(),
                               unionUnionField(), std::move(Arms));
  Memo.emplace(U, Map);
  return Map;
}

PresGen::TypeMapping PresGen::mapEnum(AoiEnum *E) {
  std::string Name = prefixed(E->name());
  std::vector<CastEnumerator> Ens;
  for (const AoiEnumerator &En : E->enumerators())
    Ens.push_back(CastEnumerator{prefixed(En.Name), En.Value});
  Out->TypeDecls.push_back(B->enumDef(Name, std::move(Ens)));
  Out->TypeDecls.push_back(B->typedefDecl(B->enumTy(Name), Name));

  TypeMapping Map;
  Map.M = Out->Mint.integer(32, false);
  Map.CT = B->prim(Name);
  Map.P = Out->make<PresEnum>(Map.M, Map.CT);
  Memo.emplace(E, Map);
  return Map;
}

PresGen::TypeMapping PresGen::makeSeqStruct(const std::string &Name,
                                            TypeMapping Elem,
                                            uint64_t Bound,
                                            const std::string &MemberHint) {
  std::string Hint = MemberHint.empty() ? Name : MemberHint;
  // rpcgen derives member names from the declared name; strip the prefix so
  // `entries` yields `entries_len`, not `N_entries_len`.
  if (!options().NamePrefix.empty() &&
      startsWith(Hint, options().NamePrefix))
    Hint = Hint.substr(options().NamePrefix.size());

  Out->TypeDecls.push_back(B->typedefDecl(B->structTy(Name), Name));
  std::vector<CastParam> Fields;
  std::string MaxF = seqMaxField(Hint);
  if (!MaxF.empty())
    Fields.push_back(CastParam{B->prim("uint32_t"), MaxF});
  Fields.push_back(CastParam{B->prim("uint32_t"), seqLenField(Hint)});
  Fields.push_back(CastParam{B->ptr(Elem.CT), seqBufField(Hint)});
  Out->TypeDecls.push_back(B->structDef(Name, std::move(Fields)));

  TypeMapping Map;
  Map.M = Out->Mint.make<MintArray>(Elem.M, 0,
                                    Bound ? Bound : MintUnboundedLen);
  Map.CT = B->prim(Name);
  Map.P = Out->make<PresCounted>(Map.M, Map.CT, Elem.P, seqLenField(Hint),
                                 seqBufField(Hint), MaxF, serverInAlloc());
  return Map;
}

PresGen::TypeMapping PresGen::mapSequence(AoiSequence *S,
                                          const std::string &NameHintArg) {
  TypeMapping Elem = mapType(S->elem());
  std::string Name = NameHintArg;
  if (Name.empty() && !NameHint.empty())
    Name = prefixed(NameHint + "seq");
  if (Name.empty() || !UsedSeqNames.insert(Name).second)
    Name = prefixed("flick_seq_" + std::to_string(++AnonSeqCounter));
  TypeMapping Map = makeSeqStruct(Name, Elem, S->bound(), NameHint);
  Memo.emplace(S, Map);
  return Map;
}

PresGen::TypeMapping PresGen::mapTypedef(AoiTypedef *TD) {
  std::string Name = prefixed(TD->name());
  // A typedef of a sequence names the sequence struct itself (rpcgen
  // behavior for `typedef T name<>;`).
  if (auto *Seq = dyn_cast<AoiSequence>(TD->aliased())) {
    TypeMapping Elem = mapType(Seq->elem());
    TypeMapping Map = makeSeqStruct(Name, Elem, Seq->bound(), std::string());
    Memo.emplace(TD, Map);
    Memo.emplace(Seq, Map);
    return Map;
  }
  TypeMapping Under = mapType(TD->aliased());
  Out->TypeDecls.push_back(B->typedefDecl(Under.CT, Name));
  TypeMapping Map = Under;
  Map.CT = B->prim(Name);
  // The PRES node keeps the underlying conversion; only the spelling of the
  // C type changes.
  Memo.emplace(TD, Map);
  return Map;
}

//===----------------------------------------------------------------------===//
// Interfaces and operations
//===----------------------------------------------------------------------===//

namespace {

SigInfo paramSig(CastBuilder &B, const PresNode *P, AoiParamDir Dir,
                 bool Variable) {
  SigInfo S;
  switch (P->kind()) {
  case PresNode::Kind::Prim:
  case PresNode::Kind::Enum:
    if (Dir == AoiParamDir::In) {
      S.Type = P->ctype();
      S.Indirection = 0;
    } else {
      S.Type = B.ptr(P->ctype());
      S.Indirection = 1;
    }
    return S;
  case PresNode::Kind::String:
    if (Dir == AoiParamDir::In) {
      S.Type = B.constPtr(B.prim("char"));
      S.Indirection = 0; // the char* itself is the presented value
    } else {
      S.Type = B.ptr(B.ptr(B.prim("char")));
      S.Indirection = 1;
    }
    return S;
  case PresNode::Kind::OptPtr:
    if (Dir == AoiParamDir::In) {
      S.Type = P->ctype() ? P->ctype() : B.ptr(B.voidTy());
      S.Indirection = 0;
    } else {
      S.Type = B.ptr(P->ctype() ? P->ctype() : B.ptr(B.voidTy()));
      S.Indirection = 1;
    }
    return S;
  case PresNode::Kind::FixedArray:
    // Arrays decay: the name is a pointer to the first element; the PRES
    // node carries the count.
    S.Type = Dir == AoiParamDir::In
                 ? B.constPtr(cast<PresFixedArray>(P)->elem()->ctype())
                 : B.ptr(cast<PresFixedArray>(P)->elem()->ctype());
    S.Indirection = 0;
    return S;
  case PresNode::Kind::Struct:
  case PresNode::Kind::Union:
  case PresNode::Kind::Counted:
    if (Dir == AoiParamDir::In) {
      S.Type = B.constPtr(P->ctype());
      S.Indirection = 1;
    } else if (Dir == AoiParamDir::InOut || !Variable) {
      S.Type = B.ptr(P->ctype());
      S.Indirection = 1;
    } else {
      // Variable-size pure-out parameters are allocated by the stub
      // (CORBA C mapping): pass T **.
      S.Type = B.ptr(B.ptr(P->ctype()));
      S.Indirection = 2;
    }
    return S;
  case PresNode::Kind::Void:
    S.Type = B.voidTy();
    return S;
  }
  return S;
}

} // namespace

namespace flick {
/// Exposed for the back ends (Backend.cpp) to recompute signature shapes.
SigInfo presgenParamSig(CastBuilder &B, const PresNode *P, AoiParamDir Dir,
                        bool Variable) {
  return paramSig(B, P, Dir, Variable);
}
} // namespace flick

void PresGen::generateExceptions(const AoiModule &M) {
  for (const auto &Ex : M.exceptions()) {
    std::string Name = prefixed(Ex->Name);
    auto *MS = Out->Mint.make<MintStruct>(std::vector<MintStructElem>{});
    auto *PS = Out->make<PresStruct>(MS, B->prim(Name),
                                     std::vector<PresField>{});
    Out->TypeDecls.push_back(B->typedefDecl(B->structTy(Name), Name));
    std::vector<CastParam> CFields;
    for (const AoiField &F : Ex->Members) {
      TypeMapping FM = mapType(F.Type);
      MS->elems().push_back(MintStructElem{FM.M, F.Name});
      PS->fieldsMut().push_back(PresField{F.Name, FM.P});
      CFields.push_back(CastParam{FM.CT, F.Name});
    }
    Out->TypeDecls.push_back(B->structDef(Name, std::move(CFields)));
    Out->TypeDecls.push_back(B->rawDecl(
        "#define " + Name + "_CODE " + std::to_string(Ex->ExceptionCode)));
    Out->Exceptions.push_back(
        PresCException{Name, Ex->Name, Ex->ExceptionCode, PS});
  }
}

void PresGen::generateTypes(const AoiModule &M) {
  for (const AoiConst &C : M.consts()) {
    std::string Val = C.Value.K == AoiConstValue::Kind::Int
                          ? std::to_string(C.Value.IntValue)
                          : "\"" + escapeCString(C.Value.StrValue) + "\"";
    Out->TypeDecls.push_back(
        B->rawDecl("#define " + prefixed(C.Name) + " " + Val));
  }
  for (AoiType *T : M.namedTypes())
    mapType(T);
}

void PresGen::generateOperation(const AoiInterface &If,
                                const AoiOperation &Op,
                                PresCInterface &PIf) {
  PresCOperation P;
  P.IdlName = Op.Name;
  P.CName = prefixed(stubName(If, Op));
  P.ServerImplName = prefixed(serverImplName(If, Op));
  P.RequestCode = Op.RequestCode;
  P.Oneway = Op.Oneway;

  // Return value.
  TypeMapping RetMap = mapType(Op.ReturnType);
  P.Return.Name = "_retval";
  P.Return.Dir = AoiParamDir::Out;
  if (!isa<PresVoid>(RetMap.P)) {
    P.Return.Pres = RetMap.P;
    SigInfo S =
        paramSig(*B, RetMap.P, AoiParamDir::Out, presIsVariable(RetMap.P));
    P.Return.SigType = S.Type;
    P.Return.ByPointer = S.Indirection > 0;
  }

  std::vector<MintStructElem> ReqElems, RepElems;
  if (P.Return.Pres)
    RepElems.push_back(MintStructElem{RetMap.M, "_retval"});

  for (const AoiParam &Param : Op.Params) {
    NameHint = Param.Name;
    TypeMapping PM = mapType(Param.Type);
    NameHint.clear();
    PresCParam PP;
    PP.Name = Param.Name;
    PP.Dir = Param.Dir;
    PP.Pres = PM.P;
    if (options().StringLenParams && Param.Dir == AoiParamDir::In &&
        isa<PresString>(PM.P))
      PP.LenParamName = Param.Name + "_len";
    SigInfo S = paramSig(*B, PM.P, Param.Dir, presIsVariable(PM.P));
    PP.SigType = S.Type;
    PP.ByPointer = S.Indirection > 0;
    P.Params.push_back(PP);

    if (Param.Dir != AoiParamDir::Out)
      ReqElems.push_back(MintStructElem{PM.M, Param.Name});
    if (Param.Dir != AoiParamDir::In)
      RepElems.push_back(MintStructElem{PM.M, Param.Name});
  }

  P.RequestMint = Out->Mint.make<MintStruct>(std::move(ReqElems));
  if (!Op.Oneway)
    P.ReplyMint = Out->Mint.make<MintStruct>(std::move(RepElems));

  if (usesEnvironment()) {
    for (const AoiExceptionDecl *Ex : Op.Raises) {
      for (uint32_t I = 0; I != Out->Exceptions.size(); ++I)
        if (Out->Exceptions[I].IdlName == Ex->Name)
          P.RaisesIdx.push_back(I);
    }
  }

  PIf.Ops.push_back(std::move(P));
}

void PresGen::generateInterface(const AoiInterface &If) {
  PresCInterface PIf;
  PIf.Name = prefixed(If.Name);
  PIf.ScopedName = If.ScopedName;
  PIf.ProgramNumber = If.ProgramNumber;
  PIf.VersionNumber = If.VersionNumber;

  // CORBA object references: `typedef flick_obj *<If>;`
  if (usesEnvironment())
    Out->TypeDecls.push_back(
        B->typedefDecl(B->ptr(B->structTy("flick_obj")), PIf.Name));

  // Effective operation list: inherited ops (in base order), own ops, then
  // attribute accessors.  Request codes are re-sequenced for interfaces
  // with inheritance or attributes so they stay unique.
  std::vector<const AoiOperation *> Ops;
  std::vector<AoiOperation> Synthesized;
  std::set<const AoiInterface *> SeenBases;
  std::function<void(const AoiInterface &)> Collect =
      [&](const AoiInterface &I) {
        if (!SeenBases.insert(&I).second)
          return;
        for (const AoiInterface *Base : I.Bases)
          Collect(*Base);
        for (const AoiOperation &Op : I.Operations)
          Ops.push_back(&Op);
        for (const AoiAttribute &A : I.Attributes) {
          AoiOperation Get;
          Get.Name = "_get_" + A.Name;
          Get.ReturnType = A.Type;
          Synthesized.push_back(Get);
          if (!A.ReadOnly) {
            AoiOperation Set;
            Set.Name = "_set_" + A.Name;
            Set.ReturnType = nullptr; // patched to void below
            AoiParam P;
            P.Dir = AoiParamDir::In;
            P.Name = "value";
            P.Type = A.Type;
            Set.Params.push_back(P);
            Synthesized.push_back(Set);
          }
        }
      };
  Collect(If);

  bool Resequence =
      !If.Bases.empty() || !Synthesized.empty() || usesEnvironment();
  // Synthesized accessor ops need a void return type node; reuse one.
  AoiPrimitive VoidPrim(AoiPrimKind::Void);
  for (AoiOperation &Op : Synthesized) {
    if (!Op.ReturnType)
      Op.ReturnType = &VoidPrim;
    Ops.push_back(&Op);
  }
  uint32_t NextCode = 1;
  for (const AoiOperation *Op : Ops) {
    AoiOperation Copy = *Op;
    if (Resequence)
      Copy.RequestCode = NextCode++;
    generateOperation(If, Copy, PIf);
  }
  Out->Interfaces.push_back(std::move(PIf));
}

std::unique_ptr<PresC> PresGen::generate(const AoiModule &M,
                                         DiagnosticEngine &Diags) {
  auto P = std::make_unique<PresC>();
  P->Style = styleName();
  P->NamePrefix = Opts.NamePrefix;
  Out = P.get();
  CastBuilder Builder(P->Cast);
  B = &Builder;
  this->Diags = &Diags;
  Memo.clear();
  AnonSeqCounter = 0;
  UsedSeqNames.clear();

  {
    // The AOI -> MINT/CAST mapping of the named types is the paper's MINT
    // build step; surfaced as its own top-level --stats phase.
    FLICK_STAT_PHASE("mint");
    generateExceptions(M);
    generateTypes(M);
    FLICK_STAT_COUNT("mint.nodes", P->Mint.numNodes());
  }
  {
    FLICK_STAT_PHASE("presgen");
    for (const auto &If : M.interfaces())
      generateInterface(*If);
    FLICK_STAT_COUNT("pres.style." + P->Style, 1);
    FLICK_STAT_COUNT("pres.interfaces", P->Interfaces.size());
    FLICK_STAT_COUNT("pres.nodes", P->numNodes());
    FLICK_STAT_COUNT("mint.nodes.total", P->Mint.numNodes());
    FLICK_STAT_COUNT("cast.type_decls", P->TypeDecls.size());
    FLICK_STAT_COUNT("cast.nodes", P->Cast.numNodes());
  }

  Out = nullptr;
  B = nullptr;
  this->Diags = nullptr;
  if (Diags.hasErrors())
    return nullptr;
  return P;
}
