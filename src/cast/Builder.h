//===- cast/Builder.h - Terse CAST construction helpers ---------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CastBuilder is the only way to create CAST nodes.  Its short factory
/// methods let the back ends assemble marshal code without drowning in
/// construction noise, and it copies every name, literal and child list it
/// is given into the context's arena, so callers may pass temporaries.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_CAST_BUILDER_H
#define FLICK_CAST_BUILDER_H

#include "cast/Cast.h"
#include <algorithm>
#include <cstring>
#include <initializer_list>

namespace flick {

/// Factory facade over a CastContext.  All returned nodes are owned by the
/// underlying context.
class CastBuilder {
public:
  explicit CastBuilder(CastContext &Ctx) : Ctx(Ctx) {}

  // --- Types ---
  CastType *prim(std::string_view Name) {
    return Ctx.make<CastPrim>(text(Name));
  }
  CastType *voidTy() { return prim("void"); }
  CastType *structTy(std::string_view Name) {
    return Ctx.make<CastNamed>(CastTag::Struct, text(Name));
  }
  CastType *unionTy(std::string_view Name) {
    return Ctx.make<CastNamed>(CastTag::Union, text(Name));
  }
  CastType *enumTy(std::string_view Name) {
    return Ctx.make<CastNamed>(CastTag::Enum, text(Name));
  }
  CastType *ptr(CastType *T) { return Ctx.make<CastPointer>(T, false); }
  CastType *constPtr(CastType *T) { return Ctx.make<CastPointer>(T, true); }
  CastType *arr(CastType *T, uint64_t N) { return Ctx.make<CastArray>(T, N); }

  // --- Expressions ---
  CastExpr *id(std::string_view Name) { return Ctx.make<CEIdent>(text(Name)); }
  CastExpr *num(int64_t V) {
    return Ctx.make<CEIntLit>(static_cast<uint64_t>(V), false);
  }
  CastExpr *unum(uint64_t V) { return Ctx.make<CEIntLit>(V, true); }
  CastExpr *str(std::string_view S) { return Ctx.make<CEStrLit>(text(S)); }
  CastExpr *chr(char C) { return Ctx.make<CECharLit>(C); }
  // The std::initializer_list overloads take braced argument and
  // statement lists without building a temporary vector.
  CastExpr *call(std::string_view Fn, std::span<CastExpr *const> Args) {
    return callE(id(Fn), Args);
  }
  CastExpr *call(std::string_view Fn, std::initializer_list<CastExpr *> Args) {
    return callE(id(Fn), Args);
  }
  CastExpr *callE(CastExpr *Fn, std::span<CastExpr *const> Args) {
    return Ctx.make<CECall>(Fn, list(Args));
  }
  CastExpr *callE(CastExpr *Fn, std::initializer_list<CastExpr *> Args) {
    return callE(Fn, std::span<CastExpr *const>(Args));
  }
  CastExpr *mem(CastExpr *Base, std::string_view Field) {
    return Ctx.make<CEMember>(Base, text(Field), /*Arrow=*/false);
  }
  CastExpr *arrow(CastExpr *Base, std::string_view Field) {
    return Ctx.make<CEMember>(Base, text(Field), /*Arrow=*/true);
  }
  CastExpr *idx(CastExpr *Base, CastExpr *I) {
    return Ctx.make<CEIndex>(Base, I);
  }
  CastExpr *un(std::string_view Op, CastExpr *E) {
    return Ctx.make<CEUnary>(text(Op), E);
  }
  CastExpr *deref(CastExpr *E) { return un("*", E); }
  CastExpr *addr(CastExpr *E) { return un("&", E); }
  CastExpr *nt(CastExpr *E) { return un("!", E); }
  CastExpr *bin(std::string_view Op, CastExpr *L, CastExpr *R) {
    return Ctx.make<CEBinary>(text(Op), L, R);
  }
  CastExpr *assign(CastExpr *L, CastExpr *R) { return bin("=", L, R); }
  CastExpr *add(CastExpr *L, CastExpr *R) { return bin("+", L, R); }
  CastExpr *sub(CastExpr *L, CastExpr *R) { return bin("-", L, R); }
  CastExpr *mul(CastExpr *L, CastExpr *R) { return bin("*", L, R); }
  CastExpr *eq(CastExpr *L, CastExpr *R) { return bin("==", L, R); }
  CastExpr *ne(CastExpr *L, CastExpr *R) { return bin("!=", L, R); }
  CastExpr *lt(CastExpr *L, CastExpr *R) { return bin("<", L, R); }
  CastExpr *castTo(CastType *T, CastExpr *E) {
    return Ctx.make<CECast>(T, E);
  }
  CastExpr *sizeofTy(CastType *T) { return Ctx.make<CESizeofType>(T); }
  CastExpr *ternary(CastExpr *C, CastExpr *T, CastExpr *E) {
    return Ctx.make<CETernary>(C, T, E);
  }
  CastExpr *rawE(std::string_view Text) { return Ctx.make<CERaw>(text(Text)); }

  // --- Statements ---
  CastStmt *exprStmt(CastExpr *E) { return Ctx.make<CSExpr>(E); }
  CastStmt *varDecl(CastType *T, std::string_view Name,
                    CastExpr *Init = nullptr) {
    return Ctx.make<CSVarDecl>(T, text(Name), Init);
  }
  CSBlock *block(std::span<CastStmt *const> Stmts = {}) {
    return Ctx.make<CSBlock>(list(Stmts));
  }
  CSBlock *block(std::initializer_list<CastStmt *> Stmts) {
    return block(std::span<CastStmt *const>(Stmts));
  }
  CastStmt *ifStmt(CastExpr *Cond, CastStmt *Then, CastStmt *Else = nullptr) {
    return Ctx.make<CSIf>(Cond, Then, Else);
  }
  CastStmt *whileStmt(CastExpr *Cond, CastStmt *Body) {
    return Ctx.make<CSWhile>(Cond, Body);
  }
  CastStmt *forStmt(CastStmt *Init, CastExpr *Cond, CastExpr *Step,
                    CastStmt *Body) {
    return Ctx.make<CSFor>(Init, Cond, Step, Body);
  }
  CSSwitch *switchStmt(CastExpr *Cond,
                       const std::vector<CastSwitchCase> &Cases) {
    auto *Arms = array<CSSwitch::Arm>(Cases.size());
    for (size_t I = 0; I != Cases.size(); ++I)
      new (&Arms[I]) CSSwitch::Arm{list<CastExpr>(Cases[I].Values),
                                   list<CastStmt>(Cases[I].Stmts),
                                   Cases[I].FallsThrough};
    return Ctx.make<CSSwitch>(
        Cond, std::span<const CSSwitch::Arm>(Arms, Cases.size()));
  }
  CastStmt *ret(CastExpr *E = nullptr) { return Ctx.make<CSReturn>(E); }
  CastStmt *brk() { return Ctx.make<CSBreak>(); }
  CastStmt *comment(std::string_view Text) {
    return Ctx.make<CSComment>(text(Text));
  }
  CastStmt *rawStmt(std::string_view Text) {
    return Ctx.make<CSRaw>(text(Text));
  }

  // --- Declarations ---
  CDFunc *func(CastType *Ret, std::string_view Name,
               const std::vector<CastParam> &Params, CSBlock *Body,
               bool Static = false, bool Inline = false) {
    return Ctx.make<CDFunc>(Ret, text(Name), slots(Params), Body, Static,
                            Inline);
  }
  /// A function with \p Sig's return type, name and parameters.  Nodes are
  /// immutable, so the name and parameter list are shared, not copied.
  CDFunc *func(const CDFunc *Sig, CSBlock *Body, bool Static = false,
               bool Inline = false) {
    return Ctx.make<CDFunc>(Sig->ret(), Sig->name(), Sig->params(), Body,
                            Static, Inline);
  }
  CDAggregateDef *structDef(std::string_view Name,
                            const std::vector<CastParam> &Fields) {
    return Ctx.make<CDAggregateDef>(CastTag::Struct, text(Name), slots(Fields));
  }
  CDAggregateDef *unionDef(std::string_view Name,
                           const std::vector<CastParam> &Fields) {
    return Ctx.make<CDAggregateDef>(CastTag::Union, text(Name), slots(Fields));
  }
  CDEnumDef *enumDef(std::string_view Name,
                     const std::vector<CastEnumerator> &Enumerators) {
    auto *Items = array<CDEnumDef::Item>(Enumerators.size());
    for (size_t I = 0; I != Enumerators.size(); ++I)
      new (&Items[I])
          CDEnumDef::Item{text(Enumerators[I].Name), Enumerators[I].Value};
    return Ctx.make<CDEnumDef>(
        text(Name),
        std::span<const CDEnumDef::Item>(Items, Enumerators.size()));
  }
  CDTypedef *typedefDecl(CastType *T, std::string_view Name) {
    return Ctx.make<CDTypedef>(T, text(Name));
  }
  CastDecl *declComment(std::string_view Text) {
    return Ctx.make<CDComment>(text(Text));
  }
  CastDecl *rawDecl(std::string_view Text) {
    return Ctx.make<CDRaw>(text(Text));
  }

private:
  /// Uninitialized arena storage for \p N objects of type T.
  template <typename T> T *array(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>);
    return N ? static_cast<T *>(Ctx.allocate(N * sizeof(T), alignof(T)))
             : nullptr;
  }

  std::string_view text(std::string_view S) {
    char *P = array<char>(S.size());
    if (P)
      std::memcpy(P, S.data(), S.size());
    return {P, S.size()};
  }

  template <typename T> std::span<T *const> list(std::span<T *const> Xs) {
    T **P = array<T *>(Xs.size());
    std::copy(Xs.begin(), Xs.end(), P);
    return {P, Xs.size()};
  }

  std::span<const CastSlot> slots(const std::vector<CastParam> &Ps) {
    auto *Slots = array<CastSlot>(Ps.size());
    for (size_t I = 0; I != Ps.size(); ++I)
      new (&Slots[I]) CastSlot{Ps[I].Type, text(Ps[I].Name)};
    return {Slots, Ps.size()};
  }

  CastContext &Ctx;
};

} // namespace flick

#endif // FLICK_CAST_BUILDER_H
