//===- backends/Backend.cpp - Optimizing back-end base --------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// StubGen walks the encode-type -> MINT -> PRES -> CAST chains of a PRES_C
/// and emits the marshal, unmarshal, stub, and dispatch code, applying the
/// paper's optimizations (§3): coalesced buffer checks over fixed segments,
/// chunk-pointer addressing, memcpy for bit-identical arrays and one
/// swap-copy call for byte-reversed ones, aggressive
/// inlining with out-of-line helpers only for recursive types, scratch/alias
/// parameter management, and switch-based demultiplexing.
///
//===----------------------------------------------------------------------===//

#include "backends/Backend.h"
#include "backends/StubShape.h"
#include "presgen/PresGen.h"
#include "support/Stats.h"
#include "support/StringExtras.h"
#include <cassert>

using namespace flick;

Backend::~Backend() = default;

BackendOutput Backend::generate(PresC &P, const std::string &BaseName) {
  FLICK_STAT_PHASE("backend");
  FLICK_STAT_COUNT("backend." + name(), 1);
  StubGen G(*this, P, BaseName);
  BackendOutput Out = G.run();
  FLICK_STAT_COUNT("backend.header_bytes", Out.Header.size());
  FLICK_STAT_COUNT("backend.client_bytes", Out.ClientSrc.size());
  FLICK_STAT_COUNT("backend.server_bytes", Out.ServerSrc.size());
  FLICK_STAT_COUNT("backend.common_bytes", Out.CommonSrc.size());
  FLICK_STAT_COUNT("backend.bytes_total",
                   Out.Header.size() + Out.ClientSrc.size() +
                       Out.ServerSrc.size() + Out.CommonSrc.size());
  // The CAST the stubs were printed from: presgen's declarations plus every
  // function, helper and prototype built here.
  FLICK_STAT_COUNT("backend.cast_nodes", P.Cast.numNodes());
  FLICK_STAT_COUNT("backend.cast_bytes", P.Cast.numBytes());
  return Out;
}

//===----------------------------------------------------------------------===//
// StubGen basics
//===----------------------------------------------------------------------===//

StubGen::StubGen(Backend &BE, PresC &P, const std::string &BaseName)
    : BE(BE), P(P), BaseName(BaseName), B(P.Cast), Layout(BE.wire()),
      Pipeline(BE.options(), Layout) {
  UseEnv = P.Style == "corba" || P.Style == "fluke";
}

//===----------------------------------------------------------------------===//
// Per-operation helper generation
//===----------------------------------------------------------------------===//

void StubGen::genOpHelpers(const PresCInterface &If,
                           const PresCOperation &Op) {
  bool Corba = UseEnv;
  auto PlaceOp = [&](const std::string &Name, std::vector<CastParam> Ps,
                     std::vector<CastStmt *> Body, bool ToClient) {
    bool Inline = options().Inline;
    auto *Def = B.func(B.prim("int"), Name, Ps, B.block(Body),
                       /*Static=*/Inline, /*Inline=*/Inline);
    if (Inline) {
      OpHelperDefs.push_back(Def);
      return;
    }
    OpHelperDefs.push_back(
        B.func(B.prim("int"), Name, Ps, nullptr));
    (ToClient ? ClientFile : ServerFile).add(Def);
  };
  CastType *BufPtr = B.ptr(B.structTy("flick_buf"));
  CastType *ArenaPtr = B.ptr(B.structTy("flick_arena"));

  // Framing hooks enter the plan as FramingHook steps, so the pass
  // pipeline sees the whole message and the dump shows it in order; this
  // callback lowers them back to the concrete back end.
  auto HookFn = [this, &If, &Op](HookKind H) {
    switch (H) {
    case HookKind::RequestHeader:
      BE.emitRequestHeader(*this, If, Op);
      break;
    case HookKind::RequestFinish:
      BE.emitRequestFinish(*this, If, Op);
      break;
    case HookKind::ReplyHeader:
      BE.emitReplyHeader(*this, If, B.id("FLICK_REPLY_OK"));
      break;
    case HookKind::ReplyFinish:
      BE.emitReplyFinish(*this, If);
      break;
    }
  };

  // ---- encode_request (client side) ----
  {
    std::vector<CastParam> Ps = {CastParam{BufPtr, "_buf"},
                                 CastParam{B.prim("uint32_t"), "_xid"}};
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir != AoiParamDir::Out) {
        Ps.push_back(CastParam{encodeSigType(B, Pp.Pres), Pp.Name});
        if (!Pp.LenParamName.empty())
          Ps.push_back(CastParam{B.prim("uint32_t"), Pp.LenParamName});
      }
    std::vector<CastStmt *> Body;
    Cur = &Body;
    ServerSide = false;
    CurEncode = true;
    stmt(B.rawStmt("(void)_xid;"));
    std::vector<std::pair<const PresNode *, CastExpr *>> Items;
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir != AoiParamDir::Out) {
        if (!Pp.LenParamName.empty())
          KnownStrLenIn[Pp.Pres] = B.id(Pp.LenParamName);
        Items.push_back({Pp.Pres, encodeValExpr(B, Pp.Pres, Pp.Name)});
        NextPlanNames.push_back(Pp.Name);
      }
    NextPlanLabel = Op.CName + "_encode_request";
    NextPreHooks = {HookKind::RequestHeader};
    NextPostHooks = {HookKind::RequestFinish};
    PlanHookFn = HookFn;
    emitSequence(Items, true);
    stmt(B.ret(B.id("FLICK_OK")));
    Cur = nullptr;
    PlaceOp(Op.CName + "_encode_request", Ps, Body, /*ToClient=*/true);
  }

  // ---- decode_request (server side) ----
  bool HasIns = false;
  for (const PresCParam &Pp : Op.Params)
    if (Pp.Dir != AoiParamDir::Out)
      HasIns = true;
  if (HasIns) {
    std::vector<CastParam> Ps = {CastParam{BufPtr, "_buf"},
                                 CastParam{ArenaPtr, "_ar"}};
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir != AoiParamDir::Out) {
        Ps.push_back(CastParam{decodeReqSigType(B, Pp.Pres), Pp.Name});
        if (!Pp.LenParamName.empty())
          Ps.push_back(CastParam{B.ptr(B.prim("uint32_t")),
                                 Pp.LenParamName});
      }
    std::vector<CastStmt *> Body;
    Cur = &Body;
    ServerSide = true;
    CurEncode = false;
    stmt(B.rawStmt("(void)_ar;"));
    std::vector<std::pair<const PresNode *, CastExpr *>> Items;
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir != AoiParamDir::Out) {
        if (!Pp.LenParamName.empty())
          KnownStrLenOut[Pp.Pres] = B.deref(B.id(Pp.LenParamName));
        Items.push_back({Pp.Pres, decodeReqValExpr(B, Pp.Pres, Pp.Name)});
        NextPlanNames.push_back(Pp.Name);
      }
    NextPlanLabel = Op.CName + "_decode_request";
    emitSequence(Items, false);
    stmt(B.ret(B.id("FLICK_OK")));
    Cur = nullptr;
    ServerSide = false;
    PlaceOp(Op.CName + "_decode_request", Ps, Body, /*ToClient=*/false);
  }

  if (Op.Oneway)
    return;

  // ---- encode_reply (server side) ----
  {
    std::vector<CastParam> Ps = {CastParam{BufPtr, "_buf"},
                                 CastParam{B.prim("uint32_t"), "_xid"}};
    if (Op.Return.Pres)
      Ps.push_back(
          CastParam{encodeSigType(B, Op.Return.Pres), "_retval"});
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir != AoiParamDir::In)
        Ps.push_back(CastParam{encodeSigType(B, Pp.Pres), Pp.Name});
    std::vector<CastStmt *> Body;
    Cur = &Body;
    ServerSide = false;
    CurEncode = true;
    stmt(B.rawStmt("(void)_xid;"));
    std::vector<std::pair<const PresNode *, CastExpr *>> Items;
    if (Op.Return.Pres) {
      Items.push_back(
          {Op.Return.Pres, encodeValExpr(B, Op.Return.Pres, "_retval")});
      NextPlanNames.push_back("_retval");
    }
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir != AoiParamDir::In) {
        Items.push_back({Pp.Pres, encodeValExpr(B, Pp.Pres, Pp.Name)});
        NextPlanNames.push_back(Pp.Name);
      }
    NextPlanLabel = Op.CName + "_encode_reply";
    NextPreHooks = {HookKind::ReplyHeader};
    NextPostHooks = {HookKind::ReplyFinish};
    PlanHookFn = HookFn;
    emitSequence(Items, true);
    stmt(B.ret(B.id("FLICK_OK")));
    Cur = nullptr;
    PlaceOp(Op.CName + "_encode_reply", Ps, Body, /*ToClient=*/false);
  }

  // ---- decode_reply (client side) ----
  {
    std::vector<CastParam> Ps = {CastParam{BufPtr, "_buf"}};
    if (Op.Return.Pres)
      Ps.push_back(CastParam{
          decodeRepSigType(B, Op.Return.Pres, AoiParamDir::Out,
                           /*IsRet=*/true, Corba),
          "_retval"});
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir != AoiParamDir::In)
        Ps.push_back(CastParam{
            decodeRepSigType(B, Pp.Pres, Pp.Dir, false, Corba), Pp.Name});
    if (Corba)
      Ps.push_back(
          CastParam{B.ptr(B.prim("CORBA_Environment")), "_ev"});
    std::vector<CastStmt *> Body;
    Cur = &Body;
    ServerSide = false;
    CurEncode = false;
    stmt(B.varDecl(ArenaPtr, "_ar", B.num(0)));
    stmt(B.rawStmt("(void)_ar;"));
    BE.emitReplyHeaderDecode(*this, If); // declares uint32_t _status

    if (Corba) {
      // User exceptions: decode the code word, then the matching members.
      std::vector<CastStmt *> Usr;
      auto *SaveCur = Cur;
      Cur = &Usr;
      openChunk(alignUpTo(Layout.padded(4), chunkAlign()));
      std::string Code = freshVar("_code");
      stmt(B.varDecl(B.prim("uint32_t"), Code, getU32()));
      closeChunk();
      std::vector<CastSwitchCase> ExcCases;
      for (uint32_t Idx : Op.RaisesIdx) {
        const PresCException &E = P.Exceptions[Idx];
        CastSwitchCase C;
        C.Values.push_back(B.unum(E.Code));
        C.FallsThrough = true;
        auto *Save2 = Cur;
        Cur = &C.Stmts;
        std::string Ev = freshVar("_e");
        stmt(B.varDecl(B.ptr(B.prim(E.Name)), Ev,
                       B.castTo(B.ptr(B.prim(E.Name)),
                                B.call("malloc",
                                       {B.sizeofTy(B.prim(E.Name))}))));
        stmt(B.ifStmt(B.nt(B.id(Ev)), B.ret(B.id("FLICK_ERR_ALLOC"))));
        emitValue(E.Members, B.deref(B.id(Ev)), false);
        stmt(B.exprStmt(B.assign(B.arrow(B.id("_ev"), "_major"),
                                 B.id("CORBA_USER_EXCEPTION"))));
        stmt(B.exprStmt(
            B.assign(B.arrow(B.id("_ev"), "_exc_code"), B.id(Code))));
        stmt(B.exprStmt(B.assign(B.arrow(B.id("_ev"), "_exc_value"),
                                 B.castTo(B.ptr(B.voidTy()), B.id(Ev)))));
        stmt(B.ret(B.id("FLICK_OK")));
        Cur = Save2;
        ExcCases.push_back(std::move(C));
      }
      CastSwitchCase D;
      D.Stmts.push_back(B.ret(B.id("FLICK_ERR_DECODE")));
      D.FallsThrough = true;
      ExcCases.push_back(std::move(D));
      stmt(B.switchStmt(B.id(Code), std::move(ExcCases)));
      Cur = SaveCur;
      stmt(B.ifStmt(B.eq(B.id("_status"),
                         B.id("FLICK_REPLY_USER_EXCEPTION")),
                    B.block(Usr)));
      std::vector<CastStmt *> Sys;
      Sys.push_back(B.exprStmt(B.assign(B.arrow(B.id("_ev"), "_major"),
                                        B.id("CORBA_SYSTEM_EXCEPTION"))));
      Sys.push_back(B.ret(B.id("FLICK_OK")));
      stmt(B.ifStmt(B.eq(B.id("_status"),
                         B.id("FLICK_REPLY_SYSTEM_EXCEPTION")),
                    B.block(Sys)));
      stmt(B.ifStmt(B.ne(B.id("_status"), B.id("FLICK_REPLY_OK")),
                    B.ret(B.id("FLICK_ERR_DECODE"))));
    } else {
      stmt(B.ifStmt(B.ne(B.id("_status"), B.id("FLICK_REPLY_OK")),
                    B.ret(B.id("FLICK_ERR_EXCEPTION"))));
    }

    // Decode return value and out/inout parameters.  Storage for
    // stub-allocated values is set up first; the values then decode as ONE
    // sequence so the chunk grouping mirrors encode_reply exactly.
    std::vector<std::pair<const PresNode *, CastExpr *>> Items;
    auto AddItem = [&](const PresNode *Pn, const std::string &Name,
                       AoiParamDir Dir, bool IsRet) {
      PKind K = classifyPres(Pn);
      CastExpr *Val = nullptr;
      if (K == PKind::FixArr) {
        Val = B.id(Name);
      } else if (decRepDoublePtr(Pn, Dir, IsRet, Corba)) {
        stmt(B.exprStmt(B.assign(
            B.deref(B.id(Name)),
            B.castTo(B.ptr(Pn->ctype()),
                     B.call("malloc", {B.sizeofTy(Pn->ctype())})))));
        stmt(B.ifStmt(B.nt(B.deref(B.id(Name))),
                      B.ret(B.id("FLICK_ERR_ALLOC"))));
        Val = B.deref(B.deref(B.id(Name)));
      } else {
        Val = B.deref(B.id(Name));
      }
      Items.push_back({Pn, Val});
      NextPlanNames.push_back(Name);
    };
    if (Op.Return.Pres)
      AddItem(Op.Return.Pres, "_retval", AoiParamDir::Out, true);
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir != AoiParamDir::In)
        AddItem(Pp.Pres, Pp.Name, Pp.Dir, false);
    NextPlanLabel = Op.CName + "_decode_reply";
    emitSequence(Items, false);
    stmt(B.ret(B.id("FLICK_OK")));
    Cur = nullptr;
    PlaceOp(Op.CName + "_decode_reply", Ps, Body, /*ToClient=*/true);
  }
}

//===----------------------------------------------------------------------===//
// Interface-level reply helpers (error + exception replies)
//===----------------------------------------------------------------------===//

void StubGen::genExcEncodeHelper(const PresCInterface &If) {
  CastType *BufPtr = B.ptr(B.structTy("flick_buf"));
  auto PlaceOp = [&](const std::string &Name, std::vector<CastParam> Ps,
                     std::vector<CastStmt *> Body) {
    bool Inline = options().Inline;
    auto *Def = B.func(B.prim("int"), Name, Ps, B.block(Body),
                       Inline, Inline);
    if (Inline) {
      OpHelperDefs.push_back(Def);
    } else {
      OpHelperDefs.push_back(B.func(B.prim("int"), Name, Ps, nullptr));
      ServerFile.add(Def);
    }
  };

  // Minimal system-error reply, used for failed work functions.
  {
    std::vector<CastParam> Ps = {CastParam{BufPtr, "_buf"},
                                 CastParam{B.prim("uint32_t"), "_xid"}};
    std::vector<CastStmt *> Body;
    Cur = &Body;
    CurEncode = true;
    stmt(B.rawStmt("(void)_xid;"));
    BE.emitReplyHeader(*this, If, B.id("FLICK_REPLY_SYSTEM_EXCEPTION"));
    BE.emitReplyFinish(*this, If);
    stmt(B.ret(B.id("FLICK_OK")));
    Cur = nullptr;
    PlaceOp(If.Name + "_encode_reply_err", Ps, Body);
  }

  if (!UseEnv || P.Exceptions.empty())
    return;

  // User-exception reply: status word, exception code, members.
  std::vector<CastParam> Ps = {
      CastParam{BufPtr, "_buf"}, CastParam{B.prim("uint32_t"), "_xid"},
      CastParam{B.prim("uint32_t"), "_code"},
      CastParam{B.constPtr(B.voidTy()), "_val"}};
  std::vector<CastStmt *> Body;
  Cur = &Body;
  CurEncode = true;
  stmt(B.rawStmt("(void)_xid;"));
  BE.emitReplyHeader(*this, If, B.id("FLICK_REPLY_USER_EXCEPTION"));
  openChunk(alignUpTo(Layout.padded(4), chunkAlign()));
  putU32(B.id("_code"));
  closeChunk();
  std::vector<CastSwitchCase> Cases;
  for (const PresCException &E : P.Exceptions) {
    CastSwitchCase C;
    C.Values.push_back(B.unum(E.Code));
    auto *SaveCur = Cur;
    Cur = &C.Stmts;
    std::string Ev = freshVar("_e");
    stmt(B.varDecl(B.constPtr(B.prim(E.Name)), Ev,
                   B.castTo(B.constPtr(B.prim(E.Name)), B.id("_val"))));
    emitValue(E.Members, B.deref(B.id(Ev)), true);
    Cur = SaveCur;
    Cases.push_back(std::move(C));
  }
  CastSwitchCase D;
  D.Stmts.push_back(B.ret(B.id("FLICK_ERR_DECODE")));
  D.FallsThrough = true;
  Cases.push_back(std::move(D));
  stmt(B.switchStmt(B.id("_code"), std::move(Cases)));
  BE.emitReplyFinish(*this, If);
  stmt(B.ret(B.id("FLICK_OK")));
  Cur = nullptr;
  PlaceOp(If.Name + "_encode_reply_exc", Ps, Body);
}

//===----------------------------------------------------------------------===//
// Client stubs
//===----------------------------------------------------------------------===//

void StubGen::genClientStub(const PresCInterface &If,
                            const PresCOperation &Op) {
  bool Corba = UseEnv;
  PKind RetK = classifyPres(Op.Return.Pres);

  // Return type of the stub itself.
  CastType *RetTy = B.voidTy();
  switch (RetK) {
  case PKind::Void:
    break;
  case PKind::Scalar:
    RetTy = Op.Return.Pres->ctype();
    break;
  case PKind::Str:
    RetTy = B.ptr(B.prim("char"));
    break;
  case PKind::Opt:
    RetTy = B.ptr(cast<PresOptPtr>(Op.Return.Pres)->elem()->ctype());
    break;
  case PKind::Agg:
    RetTy = B.ptr(Op.Return.Pres->ctype());
    break;
  case PKind::FixArr:
    assert(false && "operations cannot return arrays");
    break;
  }

  std::vector<CastParam> Ps;
  if (Corba)
    Ps.push_back(CastParam{B.prim(If.Name), "_obj"});
  for (const PresCParam &Pp : Op.Params) {
    Ps.push_back(CastParam{Pp.SigType, Pp.Name});
    if (!Pp.LenParamName.empty())
      Ps.push_back(CastParam{B.prim("uint32_t"), Pp.LenParamName});
  }
  CastType *StubRet = RetTy;
  if (Corba) {
    Ps.push_back(CastParam{B.ptr(B.prim("CORBA_Environment")), "_ev"});
  } else {
    // rpcgen style: status-returning stub with an explicit result slot.
    if (RetK != PKind::Void)
      Ps.push_back(CastParam{
          decodeRepSigType(B, Op.Return.Pres, AoiParamDir::Out, true,
                           false),
          "_result"});
    Ps.push_back(
        CastParam{B.ptr(B.structTy("flick_client")), "_cli"});
    StubRet = B.prim("int");
  }

  std::vector<CastStmt *> Body;
  Cur = &Body;
  CurEncode = true;
  // --trace-hooks: the stub owns the RPC root span, named after the
  // operation, so traces show per-op marshal/unmarshal children.  The
  // epilogue closes back to the saved depth rather than popping once, so
  // a decode helper that error-returns mid-span cannot skew the stack.
  if (options().TraceHooks) {
    stmt(B.rawStmt("uint32_t _tdepth = flick_trace_depth();"));
    stmt(B.rawStmt("flick_span_begin(FLICK_SPAN_RPC, \"" + Op.CName +
                   "\");"));
  }
  if (Corba)
    stmt(B.varDecl(B.ptr(B.structTy("flick_client")), "_cli",
                   B.arrow(B.id("_obj"), "client")));
  // Local return slot (CORBA style only).
  std::string RetLocal = "_retval";
  if (Corba && RetK != PKind::Void) {
    if (RetK == PKind::Scalar)
      stmt(B.varDecl(RetTy, RetLocal, B.num(0)));
    else
      stmt(B.varDecl(RetTy, RetLocal, B.num(0)));
  }
  if (Corba) {
    stmt(B.exprStmt(B.assign(B.arrow(B.id("_ev"), "_major"),
                             B.id("CORBA_NO_EXCEPTION"))));
    stmt(B.exprStmt(
        B.assign(B.arrow(B.id("_ev"), "_exc_code"), B.num(0))));
    stmt(B.exprStmt(
        B.assign(B.arrow(B.id("_ev"), "_exc_value"), B.num(0))));
  }
  stmt(B.varDecl(B.ptr(B.structTy("flick_buf")), "_buf",
                 B.call("flick_client_begin", {B.id("_cli")})));

  // Encode the request.
  std::vector<CastExpr *> EncArgs = {B.id("_buf"),
                                     B.arrow(B.id("_cli"), "next_xid")};
  for (const PresCParam &Pp : Op.Params) {
    if (Pp.Dir == AoiParamDir::Out)
      continue;
    PKind K = classifyPres(Pp.Pres);
    bool Deref = Pp.Dir == AoiParamDir::InOut &&
                 (K == PKind::Scalar || K == PKind::Str || K == PKind::Opt);
    EncArgs.push_back(Deref ? B.deref(B.id(Pp.Name))
                            : static_cast<CastExpr *>(B.id(Pp.Name)));
    if (!Pp.LenParamName.empty())
      EncArgs.push_back(B.id(Pp.LenParamName));
  }
  stmt(B.varDecl(B.prim("int"), "_err",
                 B.call(Op.CName + "_encode_request", EncArgs)));

  if (Op.Oneway) {
    stmt(B.ifStmt(B.nt(B.id("_err")),
                  B.exprStmt(B.assign(
                      B.id("_err"),
                      B.call("flick_client_send_oneway", {B.id("_cli")})))));
  } else {
    stmt(B.ifStmt(B.nt(B.id("_err")),
                  B.exprStmt(B.assign(
                      B.id("_err"),
                      B.call("flick_client_invoke", {B.id("_cli")})))));
    std::vector<CastExpr *> DecArgs = {
        B.addr(B.arrow(B.id("_cli"), "rep"))};
    if (RetK != PKind::Void)
      DecArgs.push_back(Corba ? B.addr(B.id(RetLocal))
                              : static_cast<CastExpr *>(B.id("_result")));
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir != AoiParamDir::In)
        DecArgs.push_back(B.id(Pp.Name));
    if (Corba)
      DecArgs.push_back(B.id("_ev"));
    stmt(B.ifStmt(B.nt(B.id("_err")),
                  B.exprStmt(B.assign(
                      B.id("_err"),
                      B.call(Op.CName + "_decode_reply", DecArgs)))));
  }

  if (Corba) {
    std::vector<CastStmt *> OnErr;
    OnErr.push_back(B.exprStmt(B.assign(B.arrow(B.id("_ev"), "_major"),
                                        B.id("CORBA_SYSTEM_EXCEPTION"))));
    OnErr.push_back(B.exprStmt(
        B.assign(B.arrow(B.id("_ev"), "_exc_code"),
                 B.castTo(B.prim("uint32_t"), B.id("_err")))));
    stmt(B.ifStmt(B.bin("&&", B.id("_err"),
                        B.eq(B.arrow(B.id("_ev"), "_major"),
                             B.id("CORBA_NO_EXCEPTION"))),
                  B.block(OnErr)));
    if (options().TraceHooks)
      stmt(B.rawStmt("flick_trace_close_to(_tdepth);"));
    if (RetK != PKind::Void)
      stmt(B.ret(B.id(RetLocal)));
  } else {
    if (options().TraceHooks)
      stmt(B.rawStmt("flick_trace_close_to(_tdepth);"));
    stmt(B.ret(B.id("_err")));
  }
  Cur = nullptr;

  auto *Def = B.func(StubRet, Op.CName, Ps, B.block(Body));
  ClientFile.add(Def);
  PublicProtos.push_back(B.func(StubRet, Op.CName, Ps, nullptr));
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

BackendOutput StubGen::run() {
  std::string Guard =
      "FLICK_GEN_" + toUpper(sanitizeIdentifier(BaseName)) + "_H";
  HeaderFile.HeaderGuard = Guard;
  HeaderFile.Includes = {"\"flick_runtime.h\"", "<stdlib.h>",
                         "<string.h>"};
  std::string HdrInc = "\"" + BaseName + ".h\"";
  ClientFile.Includes = {HdrInc};
  ServerFile.Includes = {HdrInc};
  CommonFile.Includes = {HdrInc};

  {
    FLICK_STAT_PHASE("stubs");
    for (const PresCInterface &If : P.Interfaces) {
      genExcEncodeHelper(If);
      for (const PresCOperation &Op : If.Ops) {
        genOpHelpers(If, Op);
        genClientStub(If, Op);
      }
      genServerDispatch(If);
    }
    FLICK_STAT_COUNT("backend.helpers", Helpers.size());
    FLICK_STAT_COUNT("backend.public_protos", PublicProtos.size());
  }
  FLICK_STAT_PHASE("print");

  // Assemble the header: types, helper protos/defs, op helpers, publics.
  HeaderFile.add(B.declComment("Generated by flickc backend '" +
                               BE.name() + "' (" +
                               wireKindName(Layout.kind()) +
                               " encoding), presentation '" + P.Style +
                               "'."));
  for (CastDecl *D : P.TypeDecls)
    HeaderFile.add(D);
  for (CastDecl *D : HelperProtos)
    HeaderFile.add(D);
  for (CastDecl *D : HelperDefs)
    HeaderFile.add(D);
  for (CastDecl *D : OpHelperDefs)
    HeaderFile.add(D);
  for (CastDecl *D : PublicProtos)
    HeaderFile.add(D);

  for (CastDecl *D : CommonDefs)
    CommonFile.add(D);

  BackendOutput Out;
  Out.HeaderName = BaseName + ".h";
  Out.PlanDump = PlanDump;
  Out.Header = printCastFile(HeaderFile);
  Out.ClientSrc = printCastFile(ClientFile);
  Out.ServerSrc = printCastFile(ServerFile);
  if (!CommonDefs.empty())
    Out.CommonSrc = printCastFile(CommonFile);
  return Out;
}
