//===- cast/Print.cpp - CAST pretty printer -------------------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders CAST into compilable C.  Types print with real C declarator
/// syntax (pointers bind inward, arrays outward); expressions print with a
/// precedence table so parentheses appear only where required or where they
/// aid reading (mixed && / || is always parenthesized).  Every statement and
/// declaration is appended straight into the CodeWriter's buffer, left to
/// right, without per-line temporaries.
///
//===----------------------------------------------------------------------===//

#include "cast/Cast.h"
#include "support/CodeWriter.h"
#include "support/StringExtras.h"
#include <cassert>
#include <charconv>

using namespace flick;

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

namespace {

/// Appends the decimal form of \p V.
template <typename IntT> void appendInt(IntT V, std::string &Out) {
  char Buf[24];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.append(Buf, R.ptr);
}

/// True when \p P's const-pointee qualifier prints on the pointee's own `*`
/// (`char *const *`): the pointee is itself a pointer.  Otherwise it prints
/// on the specifier (`const char *`).
bool constOnPointee(const CastPointer *P) {
  return P->isConstPointee() && P->pointee() && isa<CastPointer>(P->pointee());
}

bool isDerived(const CastType *T) {
  return T && (isa<CastPointer>(T) || isa<CastArray>(T));
}

bool pointsToArray(const CastPointer *P) {
  return P->pointee() && isa<CastArray>(P->pointee());
}

/// Writes the base type's specifier, after one `const` for each const
/// pointee in the chain that is not itself a pointer.
void writeSpecifier(const CastType *T, std::string &Out) {
  unsigned Consts = 0;
  while (isDerived(T)) {
    if (const auto *P = dyn_cast<CastPointer>(T)) {
      Consts += P->isConstPointee() && !constOnPointee(P);
      T = P->pointee();
    } else {
      T = cast<CastArray>(T)->elem();
    }
  }
  for (; Consts; --Consts)
    Out += "const ";
  if (!T) {
    Out += "__NULLTYPE__";
  } else if (const auto *N = dyn_cast<CastNamed>(T)) {
    Out += N->tag() == CastTag::Struct  ? "struct "
           : N->tag() == CastTag::Union ? "union "
                                        : "enum ";
    Out += N->name();
  } else {
    Out += cast<CastPrim>(T)->name();
  }
}

/// Writes the declarator left of the name: each pointer's `*`, innermost
/// first, opening a parenthesis where a pointer to an array needs one.
/// \p ConstSelf qualifies \p T itself (its parent was a const pointee).
void writePrefix(const CastType *T, bool ConstSelf, std::string &Out) {
  if (const auto *P = dyn_cast_or_null<CastPointer>(T)) {
    writePrefix(P->pointee(), constOnPointee(P), Out);
    if (pointsToArray(P))
      Out += '(';
    Out += ConstSelf ? "*const " : "*";
  } else if (const auto *A = dyn_cast_or_null<CastArray>(T)) {
    writePrefix(A->elem(), false, Out);
  }
}

/// Writes the declarator right of the name: array bounds, outermost first,
/// and the parentheses writePrefix opened.
void writeSuffix(const CastType *T, std::string &Out) {
  while (isDerived(T)) {
    if (const auto *P = dyn_cast<CastPointer>(T)) {
      if (pointsToArray(P))
        Out += ')';
      T = P->pointee();
    } else {
      const auto *A = cast<CastArray>(T);
      Out += '[';
      if (A->size())
        appendInt(A->size(), Out);
      Out += ']';
      T = A->elem();
    }
  }
}

/// The one declarator routine: writes \p T declaring a name, left to right
/// (specifier, pointer prefix, name, array suffix).  \p WriteName appends
/// the name part -- an identifier, or a function's name and parameter list.
/// Without a name, a plain type prints as its bare specifier.
template <typename NameFn>
void writeDecl(const CastType *T, bool HasName, NameFn &&WriteName,
               std::string &Out) {
  writeSpecifier(T, Out);
  if (!HasName && !isDerived(T))
    return;
  // No space between '*' and the name, one space after the specifier.
  Out += ' ';
  writePrefix(T, false, Out);
  WriteName();
  writeSuffix(T, Out);
}

void writeDecl(const CastType *T, std::string_view Name, std::string &Out) {
  writeDecl(T, !Name.empty(), [&] { Out += Name; }, Out);
}

} // namespace

std::string flick::printCastType(const CastType *Type,
                                 std::string_view Name) {
  std::string Out;
  writeDecl(Type, Name, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

namespace {

/// C precedence levels; larger binds tighter.
int binaryPrec(std::string_view Op) {
  if (Op == "*" || Op == "/" || Op == "%")
    return 13;
  if (Op == "+" || Op == "-")
    return 12;
  if (Op == "<<" || Op == ">>")
    return 11;
  if (Op == "<" || Op == ">" || Op == "<=" || Op == ">=")
    return 10;
  if (Op == "==" || Op == "!=")
    return 9;
  if (Op == "&")
    return 8;
  if (Op == "^")
    return 7;
  if (Op == "|")
    return 6;
  if (Op == "&&")
    return 5;
  if (Op == "||")
    return 4;
  // Assignment family.
  return 2;
}

bool isAssignOp(std::string_view Op) {
  return Op.ends_with('=') && Op != "==" && Op != "!=" && Op != "<=" &&
         Op != ">=";
}

int exprPrec(const CastExpr *E) {
  switch (E->kind()) {
  case CastExpr::Kind::Ident:
  case CastExpr::Kind::IntLit:
  case CastExpr::Kind::StrLit:
  case CastExpr::Kind::CharLit:
  case CastExpr::Kind::Raw: // printed parenthesized, acts atomic
    return 16;
  case CastExpr::Kind::Call:
  case CastExpr::Kind::Member:
  case CastExpr::Kind::Index:
    return 15;
  case CastExpr::Kind::Unary:
  case CastExpr::Kind::Cast:
  case CastExpr::Kind::SizeofType:
    return 14;
  case CastExpr::Kind::Binary:
    return binaryPrec(cast<CEBinary>(E)->op());
  case CastExpr::Kind::Ternary:
    return 3;
  }
  return 0;
}

void printExpr(const CastExpr *E, std::string &Out);

/// Prints \p E, parenthesizing when its precedence is below \p MinPrec.
void printOperand(const CastExpr *E, int MinPrec, std::string &Out) {
  if (exprPrec(E) < MinPrec) {
    Out += '(';
    printExpr(E, Out);
    Out += ')';
  } else {
    printExpr(E, Out);
  }
}

void printExpr(const CastExpr *E, std::string &Out) {
  switch (E->kind()) {
  case CastExpr::Kind::Ident:
    Out += cast<CEIdent>(E)->name();
    return;
  case CastExpr::Kind::IntLit: {
    const auto *L = cast<CEIntLit>(E);
    if (L->isUnsigned() || L->value() <= 0x7fffffffffffffffULL)
      appendInt(L->value(), Out);
    else
      appendInt(static_cast<int64_t>(L->value()), Out);
    if (L->isUnsigned())
      Out += 'u';
    if (L->isLongLong())
      Out += "ll";
    return;
  }
  case CastExpr::Kind::StrLit:
    Out += '"';
    Out += escapeCString(cast<CEStrLit>(E)->value());
    Out += '"';
    return;
  case CastExpr::Kind::CharLit: {
    char C = cast<CECharLit>(E)->value();
    Out += '\'';
    if (C == '\'' || C == '\\') {
      Out += '\\';
      Out += C;
    } else {
      Out += escapeCString(std::string_view(&C, 1));
    }
    Out += '\'';
    return;
  }
  case CastExpr::Kind::Call: {
    const auto *C = cast<CECall>(E);
    printOperand(C->callee(), 15, Out);
    Out += '(';
    for (size_t I = 0, N = C->args().size(); I != N; ++I) {
      if (I)
        Out += ", ";
      printExpr(C->args()[I], Out);
    }
    Out += ')';
    return;
  }
  case CastExpr::Kind::Member: {
    const auto *M = cast<CEMember>(E);
    printOperand(M->base(), 15, Out);
    Out += M->isArrow() ? "->" : ".";
    Out += M->name();
    return;
  }
  case CastExpr::Kind::Index: {
    const auto *I = cast<CEIndex>(E);
    printOperand(I->base(), 15, Out);
    Out += '[';
    printExpr(I->index(), Out);
    Out += ']';
    return;
  }
  case CastExpr::Kind::Unary: {
    const auto *U = cast<CEUnary>(E);
    Out += U->op();
    // `- -x` and `& &x` must not fuse into `--x` / `&&x`.
    size_t Before = Out.size();
    printOperand(U->operand(), 14, Out);
    if (Before < Out.size() && !U->op().empty() &&
        Out[Before] == U->op().back()) {
      Out.insert(Before, " ");
    }
    return;
  }
  case CastExpr::Kind::Binary: {
    const auto *B = cast<CEBinary>(E);
    int Prec = binaryPrec(B->op());
    if (isAssignOp(B->op())) {
      // Right-associative.
      printOperand(B->lhs(), 14, Out);
      Out += ' ';
      Out += B->op();
      Out += ' ';
      printOperand(B->rhs(), Prec, Out);
      return;
    }
    // Left-associative; force parens when mixing && and || for clarity.
    int RhsMin = Prec + 1;
    int LhsMin = Prec;
    if (B->op() == "&&" || B->op() == "||" || B->op() == "&" ||
        B->op() == "|" || B->op() == "^") {
      auto MixedLogical = [&](const CastExpr *Sub) {
        const auto *SB = dyn_cast<CEBinary>(Sub);
        return SB && binaryPrec(SB->op()) <= 8 && SB->op() != B->op();
      };
      if (MixedLogical(B->lhs()))
        LhsMin = 15;
      if (MixedLogical(B->rhs()))
        RhsMin = 15;
    }
    printOperand(B->lhs(), LhsMin, Out);
    Out += ' ';
    Out += B->op();
    Out += ' ';
    printOperand(B->rhs(), RhsMin, Out);
    return;
  }
  case CastExpr::Kind::Cast: {
    const auto *C = cast<CECast>(E);
    Out += '(';
    writeDecl(C->type(), "", Out);
    Out += ')';
    printOperand(C->operand(), 14, Out);
    return;
  }
  case CastExpr::Kind::SizeofType:
    Out += "sizeof(";
    writeDecl(cast<CESizeofType>(E)->type(), "", Out);
    Out += ')';
    return;
  case CastExpr::Kind::Ternary: {
    const auto *T = cast<CETernary>(E);
    printOperand(T->cond(), 4, Out);
    Out += " ? ";
    printOperand(T->thenExpr(), 3, Out);
    Out += " : ";
    printOperand(T->elseExpr(), 3, Out);
    return;
  }
  case CastExpr::Kind::Raw:
    Out += '(';
    Out += cast<CERaw>(E)->text();
    Out += ')';
    return;
  }
}

} // namespace

std::string flick::printCastExpr(const CastExpr *E) {
  std::string Out;
  printExpr(E, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

namespace {

/// Line pieces beyond plain text: a type declaring a name, and an optional
/// initializer (` = E`, nothing when null).
struct Typed {
  const CastType *Type;
  std::string_view Name;
};
struct Init {
  const CastExpr *E;
};

void put(std::string &Out, std::string_view S) { Out += S; }
void put(std::string &Out, char C) { Out += C; }
void put(std::string &Out, int64_t V) { appendInt(V, Out); }
void put(std::string &Out, const CastExpr *E) { printExpr(E, Out); }
void put(std::string &Out, Typed D) { writeDecl(D.Type, D.Name, Out); }
void put(std::string &Out, Init I) {
  if (I.E) {
    Out += " = ";
    printExpr(I.E, Out);
  }
}

/// Writes \p Pieces straight into the writer's buffer and ends the line
/// (continuing one a caller has started).
template <typename... Ts> void line(CodeWriter &W, const Ts &...Pieces) {
  std::string &Out = W.startLine();
  (put(Out, Pieces), ...);
  W.endLine();
}

/// Writes `Pieces {` and indents: the in-place CodeWriter::open.
template <typename... Ts> void open(CodeWriter &W, const Ts &...Pieces) {
  std::string &Out = W.startLine();
  (put(Out, Pieces), ...);
  Out += " {";
  W.endLine().indent();
}

/// Prints \p S as the body of a control statement: blocks share the
/// header's braces, single statements print indented on their own line.
void printControlled(const CastStmt *S, CodeWriter &W) {
  if (const auto *B = dyn_cast<CSBlock>(S)) {
    for (const CastStmt *Sub : B->stmts())
      printCastStmt(Sub, W);
    return;
  }
  printCastStmt(S, W);
}

} // namespace

void flick::printCastStmt(const CastStmt *S, CodeWriter &W) {
  switch (S->kind()) {
  case CastStmt::Kind::Expr:
    line(W, cast<CSExpr>(S)->expr(), ';');
    return;
  case CastStmt::Kind::VarDecl: {
    const auto *D = cast<CSVarDecl>(S);
    line(W, Typed{D->type(), D->name()}, Init{D->init()}, ';');
    return;
  }
  case CastStmt::Kind::Block: {
    W.open("");
    for (const CastStmt *Sub : cast<CSBlock>(S)->stmts())
      printCastStmt(Sub, W);
    W.close();
    return;
  }
  case CastStmt::Kind::If: {
    const auto *I = cast<CSIf>(S);
    open(W, "if (", I->cond(), ')');
    printControlled(I->thenStmt(), W);
    if (const CastStmt *Else = I->elseStmt()) {
      W.outdent();
      W.line("} else {");
      W.indent();
      printControlled(Else, W);
    }
    W.close();
    return;
  }
  case CastStmt::Kind::While: {
    const auto *L = cast<CSWhile>(S);
    open(W, "while (", L->cond(), ')');
    printControlled(L->body(), W);
    W.close();
    return;
  }
  case CastStmt::Kind::For: {
    const auto *F = cast<CSFor>(S);
    std::string &Out = W.startLine();
    Out += "for (";
    if (const auto *D = dyn_cast_or_null<CSVarDecl>(F->init())) {
      put(Out, Typed{D->type(), D->name()});
      put(Out, Init{D->init()});
    } else if (const auto *E = dyn_cast_or_null<CSExpr>(F->init())) {
      put(Out, E->expr());
    }
    Out += "; ";
    if (F->cond())
      put(Out, F->cond());
    Out += "; ";
    if (F->step())
      put(Out, F->step());
    open(W, ')');
    printControlled(F->body(), W);
    W.close();
    return;
  }
  case CastStmt::Kind::Switch: {
    const auto *Sw = cast<CSSwitch>(S);
    open(W, "switch (", Sw->cond(), ')');
    for (const CSSwitch::Arm &C : Sw->cases()) {
      if (C.Values.empty())
        W.line("default: {");
      for (size_t I = 0, N = C.Values.size(); I != N; ++I)
        line(W, "case ", C.Values[I], I + 1 == N ? ": {" : ":");
      // Braced bodies keep locals legal across case labels.
      W.indent();
      for (const CastStmt *Sub : C.Stmts)
        printCastStmt(Sub, W);
      if (!C.FallsThrough)
        W.line("break;");
      W.outdent();
      W.line("}");
    }
    W.close();
    return;
  }
  case CastStmt::Kind::Return:
    if (const CastExpr *E = cast<CSReturn>(S)->expr())
      line(W, "return ", E, ';');
    else
      W.line("return;");
    return;
  case CastStmt::Kind::Break:
    W.line("break;");
    return;
  case CastStmt::Kind::Continue:
    W.line("continue;");
    return;
  case CastStmt::Kind::Comment:
    line(W, "/* ", cast<CSComment>(S)->text(), " */");
    return;
  case CastStmt::Kind::Raw:
    W.line(cast<CSRaw>(S)->text());
    return;
  }
}

//===----------------------------------------------------------------------===//
// Declarations and files
//===----------------------------------------------------------------------===//

void flick::printCastDecl(const CastDecl *D, CodeWriter &W) {
  switch (D->kind()) {
  case CastDecl::Kind::Var: {
    const auto *V = cast<CDVar>(D);
    line(W, V->isStatic() ? "static " : "", Typed{V->type(), V->name()},
         Init{V->init()}, ';');
    return;
  }
  case CastDecl::Kind::Func: {
    const auto *F = cast<CDFunc>(D);
    std::string &Out = W.startLine();
    if (F->isStatic())
      Out += "static ";
    if (F->isInline())
      Out += "inline ";
    writeDecl(
        F->ret(), /*HasName=*/true,
        [&] {
          Out += F->name();
          Out += '(';
          if (F->params().empty())
            Out += "void";
          for (size_t I = 0, N = F->params().size(); I != N; ++I) {
            if (I)
              Out += ", ";
            writeDecl(F->params()[I].Type, F->params()[I].Name, Out);
          }
          Out += ')';
        },
        Out);
    if (!F->body()) {
      line(W, ';');
      return;
    }
    open(W);
    for (const CastStmt *S : F->body()->stmts())
      printCastStmt(S, W);
    W.close();
    return;
  }
  case CastDecl::Kind::AggregateDef: {
    const auto *A = cast<CDAggregateDef>(D);
    open(W, A->tag() == CastTag::Struct ? "struct " : "union ", A->name());
    for (const CastSlot &F : A->fields())
      line(W, Typed{F.Type, F.Name}, ';');
    W.close(";");
    return;
  }
  case CastDecl::Kind::EnumDef: {
    const auto *E = cast<CDEnumDef>(D);
    open(W, "enum ", E->name());
    for (const CDEnumDef::Item &En : E->enumerators())
      line(W, En.Name, " = ", En.Value, ',');
    W.close(";");
    return;
  }
  case CastDecl::Kind::Typedef: {
    const auto *T = cast<CDTypedef>(D);
    line(W, "typedef ", Typed{T->type(), T->name()}, ';');
    return;
  }
  case CastDecl::Kind::Comment:
    line(W, "/* ", cast<CDComment>(D)->text(), " */");
    return;
  case CastDecl::Kind::Raw:
    W.line(cast<CDRaw>(D)->text());
    return;
  }
}

std::string flick::printCastFile(const CastFile &File) {
  CodeWriter W;
  W.line("/* Generated by flickc.  Do not edit. */");
  if (!File.HeaderGuard.empty()) {
    W.line("#ifndef " + File.HeaderGuard);
    W.line("#define " + File.HeaderGuard);
  }
  W.blank();
  for (const std::string &Inc : File.Includes)
    W.line("#include " + Inc);
  if (!File.Includes.empty())
    W.blank();
  for (const CastDecl *D : File.Decls) {
    printCastDecl(D, W);
    W.blank();
  }
  if (!File.HeaderGuard.empty())
    W.line("#endif /* " + File.HeaderGuard + " */");
  return W.take();
}
