//===- cast/Cast.h - C Abstract Syntax Tree ---------------------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CAST is Flick's explicit representation of the C code it generates
/// (paper §2.2.2): types, declarations, statements, and expressions.  Unlike
/// traditional IDL compilers that print strings as they go, Flick builds
/// CAST so that PRES nodes can associate target-language constructs with
/// MINT message types, and so back ends can transform generated code before
/// printing.  The printer lives in Print.cpp; CastBuilder (Builder.h) is the
/// only way to create nodes.
///
/// Nodes are immutable and live in their CastContext's arena.  Node text is
/// a std::string_view and child lists are std::spans, both copied into the
/// arena by the builder.  Every node class is trivially destructible, so
/// freeing a compilation's CAST releases a few arena blocks instead of
/// visiting every node.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_CAST_CAST_H
#define FLICK_CAST_CAST_H

#include "support/Casting.h"
#include <cstdint>
#include <memory_resource>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace flick {

class CodeWriter;

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

/// Base class of C type nodes.  Owned by a CastContext.
class CastType {
public:
  enum class Kind { Prim, Named, Pointer, Array };

  Kind kind() const { return K; }

protected:
  explicit CastType(Kind K) : K(K) {}

private:
  const Kind K;
};

/// A type spelled with a single token sequence: `void`, `int32_t`, `double`,
/// or any typedef name.
class CastPrim : public CastType {
public:
  explicit CastPrim(std::string_view Name) : CastType(Kind::Prim), Name(Name) {}

  std::string_view name() const { return Name; }

  static bool classof(const CastType *T) { return T->kind() == Kind::Prim; }

private:
  std::string_view Name;
};

/// Aggregate tag kinds for CastNamed.
enum class CastTag { Struct, Union, Enum };

/// A tagged type reference: `struct Foo`, `union Bar`, `enum Baz`.
class CastNamed : public CastType {
public:
  CastNamed(CastTag Tag, std::string_view Name)
      : CastType(Kind::Named), Tag(Tag), Name(Name) {}

  CastTag tag() const { return Tag; }
  std::string_view name() const { return Name; }

  static bool classof(const CastType *T) { return T->kind() == Kind::Named; }

private:
  CastTag Tag;
  std::string_view Name;
};

/// A pointer type; `Const` qualifies the pointee (`const T *`).  When the
/// pointee is itself a pointer, the qualifier prints on that pointer
/// (`char *const *`).
class CastPointer : public CastType {
public:
  CastPointer(CastType *Pointee, bool ConstPointee)
      : CastType(Kind::Pointer), Pointee(Pointee), ConstPointee(ConstPointee) {
  }

  CastType *pointee() const { return Pointee; }
  bool isConstPointee() const { return ConstPointee; }

  static bool classof(const CastType *T) {
    return T->kind() == Kind::Pointer;
  }

private:
  CastType *Pointee;
  bool ConstPointee;
};

/// An array type; Size 0 prints as an unsized `[]`.
class CastArray : public CastType {
public:
  CastArray(CastType *Elem, uint64_t Size)
      : CastType(Kind::Array), Elem(Elem), Size(Size) {}

  CastType *elem() const { return Elem; }
  uint64_t size() const { return Size; }

  static bool classof(const CastType *T) { return T->kind() == Kind::Array; }

private:
  CastType *Elem;
  uint64_t Size;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of C expression nodes.
class CastExpr {
public:
  enum class Kind {
    Ident,
    IntLit,
    StrLit,
    CharLit,
    Call,
    Member,
    Index,
    Unary,
    Binary,
    Cast,
    SizeofType,
    Ternary,
    Raw,
  };

  Kind kind() const { return K; }

protected:
  explicit CastExpr(Kind K) : K(K) {}

private:
  const Kind K;
};

/// A bare identifier.
class CEIdent : public CastExpr {
public:
  explicit CEIdent(std::string_view Name) : CastExpr(Kind::Ident), Name(Name) {}
  std::string_view name() const { return Name; }
  static bool classof(const CastExpr *E) { return E->kind() == Kind::Ident; }

private:
  std::string_view Name;
};

/// An integer literal; prints with a `u`/`ull` suffix as needed.
class CEIntLit : public CastExpr {
public:
  CEIntLit(uint64_t Value, bool IsUnsigned, bool IsLongLong = false)
      : CastExpr(Kind::IntLit), Value(Value), IsUnsigned(IsUnsigned),
        IsLongLong(IsLongLong) {}
  uint64_t value() const { return Value; }
  bool isUnsigned() const { return IsUnsigned; }
  bool isLongLong() const { return IsLongLong; }
  static bool classof(const CastExpr *E) {
    return E->kind() == Kind::IntLit;
  }

private:
  uint64_t Value;
  bool IsUnsigned;
  bool IsLongLong;
};

/// A string literal (unescaped content stored).
class CEStrLit : public CastExpr {
public:
  explicit CEStrLit(std::string_view Value)
      : CastExpr(Kind::StrLit), Value(Value) {}
  std::string_view value() const { return Value; }
  static bool classof(const CastExpr *E) {
    return E->kind() == Kind::StrLit;
  }

private:
  std::string_view Value;
};

/// A character literal.
class CECharLit : public CastExpr {
public:
  explicit CECharLit(char Value) : CastExpr(Kind::CharLit), Value(Value) {}
  char value() const { return Value; }
  static bool classof(const CastExpr *E) {
    return E->kind() == Kind::CharLit;
  }

private:
  char Value;
};

/// A function call `Callee(Args...)`.
class CECall : public CastExpr {
public:
  CECall(CastExpr *Callee, std::span<CastExpr *const> Args)
      : CastExpr(Kind::Call), Callee(Callee), Args(Args) {}
  CastExpr *callee() const { return Callee; }
  std::span<CastExpr *const> args() const { return Args; }
  static bool classof(const CastExpr *E) { return E->kind() == Kind::Call; }

private:
  CastExpr *Callee;
  std::span<CastExpr *const> Args;
};

/// Member access `Base.Name` or `Base->Name`.
class CEMember : public CastExpr {
public:
  CEMember(CastExpr *Base, std::string_view Name, bool Arrow)
      : CastExpr(Kind::Member), Base(Base), Name(Name), Arrow(Arrow) {}
  CastExpr *base() const { return Base; }
  std::string_view name() const { return Name; }
  bool isArrow() const { return Arrow; }
  static bool classof(const CastExpr *E) {
    return E->kind() == Kind::Member;
  }

private:
  CastExpr *Base;
  std::string_view Name;
  bool Arrow;
};

/// Array subscript `Base[Idx]`.
class CEIndex : public CastExpr {
public:
  CEIndex(CastExpr *Base, CastExpr *Idx)
      : CastExpr(Kind::Index), Base(Base), Idx(Idx) {}
  CastExpr *base() const { return Base; }
  CastExpr *index() const { return Idx; }
  static bool classof(const CastExpr *E) { return E->kind() == Kind::Index; }

private:
  CastExpr *Base;
  CastExpr *Idx;
};

/// A prefix unary operator (`*`, `&`, `-`, `!`, `~`, `++`, `--`).
class CEUnary : public CastExpr {
public:
  CEUnary(std::string_view Op, CastExpr *Operand)
      : CastExpr(Kind::Unary), Op(Op), Operand(Operand) {}
  std::string_view op() const { return Op; }
  CastExpr *operand() const { return Operand; }
  static bool classof(const CastExpr *E) { return E->kind() == Kind::Unary; }

private:
  std::string_view Op;
  CastExpr *Operand;
};

/// An infix binary operator, including assignment operators.
class CEBinary : public CastExpr {
public:
  CEBinary(std::string_view Op, CastExpr *LHS, CastExpr *RHS)
      : CastExpr(Kind::Binary), Op(Op), LHS(LHS), RHS(RHS) {}
  std::string_view op() const { return Op; }
  CastExpr *lhs() const { return LHS; }
  CastExpr *rhs() const { return RHS; }
  static bool classof(const CastExpr *E) {
    return E->kind() == Kind::Binary;
  }

private:
  std::string_view Op;
  CastExpr *LHS;
  CastExpr *RHS;
};

/// A C-style cast `(Type)Operand`.
class CECast : public CastExpr {
public:
  CECast(CastType *Type, CastExpr *Operand)
      : CastExpr(Kind::Cast), Type(Type), Operand(Operand) {}
  CastType *type() const { return Type; }
  CastExpr *operand() const { return Operand; }
  static bool classof(const CastExpr *E) { return E->kind() == Kind::Cast; }

private:
  CastType *Type;
  CastExpr *Operand;
};

/// `sizeof(Type)`.
class CESizeofType : public CastExpr {
public:
  explicit CESizeofType(CastType *Type)
      : CastExpr(Kind::SizeofType), Type(Type) {}
  CastType *type() const { return Type; }
  static bool classof(const CastExpr *E) {
    return E->kind() == Kind::SizeofType;
  }

private:
  CastType *Type;
};

/// `Cond ? Then : Else`.
class CETernary : public CastExpr {
public:
  CETernary(CastExpr *Cond, CastExpr *Then, CastExpr *Else)
      : CastExpr(Kind::Ternary), Cond(Cond), Then(Then), Else(Else) {}
  CastExpr *cond() const { return Cond; }
  CastExpr *thenExpr() const { return Then; }
  CastExpr *elseExpr() const { return Else; }
  static bool classof(const CastExpr *E) {
    return E->kind() == Kind::Ternary;
  }

private:
  CastExpr *Cond;
  CastExpr *Then;
  CastExpr *Else;
};

/// Verbatim expression text; printed parenthesized.  Escape hatch for
/// constructs CAST does not model.
class CERaw : public CastExpr {
public:
  explicit CERaw(std::string_view Text) : CastExpr(Kind::Raw), Text(Text) {}
  std::string_view text() const { return Text; }
  static bool classof(const CastExpr *E) { return E->kind() == Kind::Raw; }

private:
  std::string_view Text;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of C statement nodes.
class CastStmt {
public:
  enum class Kind {
    Expr,
    VarDecl,
    Block,
    If,
    While,
    For,
    Switch,
    Return,
    Break,
    Continue,
    Comment,
    Raw,
  };

  Kind kind() const { return K; }

protected:
  explicit CastStmt(Kind K) : K(K) {}

private:
  const Kind K;
};

/// An expression statement `E;`.
class CSExpr : public CastStmt {
public:
  explicit CSExpr(CastExpr *E) : CastStmt(Kind::Expr), E(E) {}
  CastExpr *expr() const { return E; }
  static bool classof(const CastStmt *S) { return S->kind() == Kind::Expr; }

private:
  CastExpr *E;
};

/// A local variable declaration with optional initializer.
class CSVarDecl : public CastStmt {
public:
  CSVarDecl(CastType *Type, std::string_view Name, CastExpr *Init)
      : CastStmt(Kind::VarDecl), Type(Type), Name(Name), Init(Init) {}
  CastType *type() const { return Type; }
  std::string_view name() const { return Name; }
  CastExpr *init() const { return Init; }
  static bool classof(const CastStmt *S) {
    return S->kind() == Kind::VarDecl;
  }

private:
  CastType *Type;
  std::string_view Name;
  CastExpr *Init;
};

/// A `{ ... }` block.
class CSBlock : public CastStmt {
public:
  explicit CSBlock(std::span<CastStmt *const> Stmts)
      : CastStmt(Kind::Block), Stmts(Stmts) {}
  std::span<CastStmt *const> stmts() const { return Stmts; }
  static bool classof(const CastStmt *S) { return S->kind() == Kind::Block; }

private:
  std::span<CastStmt *const> Stmts;
};

/// `if (Cond) Then [else Else]`.
class CSIf : public CastStmt {
public:
  CSIf(CastExpr *Cond, CastStmt *Then, CastStmt *Else)
      : CastStmt(Kind::If), Cond(Cond), Then(Then), Else(Else) {}
  CastExpr *cond() const { return Cond; }
  CastStmt *thenStmt() const { return Then; }
  CastStmt *elseStmt() const { return Else; }
  static bool classof(const CastStmt *S) { return S->kind() == Kind::If; }

private:
  CastExpr *Cond;
  CastStmt *Then;
  CastStmt *Else;
};

/// `while (Cond) Body`.
class CSWhile : public CastStmt {
public:
  CSWhile(CastExpr *Cond, CastStmt *Body)
      : CastStmt(Kind::While), Cond(Cond), Body(Body) {}
  CastExpr *cond() const { return Cond; }
  CastStmt *body() const { return Body; }
  static bool classof(const CastStmt *S) { return S->kind() == Kind::While; }

private:
  CastExpr *Cond;
  CastStmt *Body;
};

/// `for (Init; Cond; Step) Body`; Init is a var decl or expression
/// statement (or null).
class CSFor : public CastStmt {
public:
  CSFor(CastStmt *Init, CastExpr *Cond, CastExpr *Step, CastStmt *Body)
      : CastStmt(Kind::For), Init(Init), Cond(Cond), Step(Step), Body(Body) {
  }
  CastStmt *init() const { return Init; }
  CastExpr *cond() const { return Cond; }
  CastExpr *step() const { return Step; }
  CastStmt *body() const { return Body; }
  static bool classof(const CastStmt *S) { return S->kind() == Kind::For; }

private:
  CastStmt *Init;
  CastExpr *Cond;
  CastExpr *Step;
  CastStmt *Body;
};

/// One arm of a switch as the builder takes it; empty Values means
/// `default:`.  Each arm's statements are followed by `break;` unless
/// FallsThrough.
struct CastSwitchCase {
  std::vector<CastExpr *> Values;
  std::vector<CastStmt *> Stmts;
  bool FallsThrough = false;
};

/// `switch (Cond) { case...: ... }` -- the shape of Flick's word-at-a-time
/// server demultiplexers (paper §3.3).
class CSSwitch : public CastStmt {
public:
  /// A CastSwitchCase as stored in the arena.
  struct Arm {
    std::span<CastExpr *const> Values;
    std::span<CastStmt *const> Stmts;
    bool FallsThrough;
  };

  CSSwitch(CastExpr *Cond, std::span<const Arm> Cases)
      : CastStmt(Kind::Switch), Cond(Cond), Cases(Cases) {}
  CastExpr *cond() const { return Cond; }
  std::span<const Arm> cases() const { return Cases; }
  static bool classof(const CastStmt *S) {
    return S->kind() == Kind::Switch;
  }

private:
  CastExpr *Cond;
  std::span<const Arm> Cases;
};

/// `return [E];`.
class CSReturn : public CastStmt {
public:
  explicit CSReturn(CastExpr *E) : CastStmt(Kind::Return), E(E) {}
  CastExpr *expr() const { return E; }
  static bool classof(const CastStmt *S) {
    return S->kind() == Kind::Return;
  }

private:
  CastExpr *E;
};

/// `break;`
class CSBreak : public CastStmt {
public:
  CSBreak() : CastStmt(Kind::Break) {}
  static bool classof(const CastStmt *S) { return S->kind() == Kind::Break; }
};

/// `continue;`
class CSContinue : public CastStmt {
public:
  CSContinue() : CastStmt(Kind::Continue) {}
  static bool classof(const CastStmt *S) {
    return S->kind() == Kind::Continue;
  }
};

/// A `/* ... */` comment line in the output.
class CSComment : public CastStmt {
public:
  explicit CSComment(std::string_view Text)
      : CastStmt(Kind::Comment), Text(Text) {}
  std::string_view text() const { return Text; }
  static bool classof(const CastStmt *S) {
    return S->kind() == Kind::Comment;
  }

private:
  std::string_view Text;
};

/// A verbatim statement line.
class CSRaw : public CastStmt {
public:
  explicit CSRaw(std::string_view Text) : CastStmt(Kind::Raw), Text(Text) {}
  std::string_view text() const { return Text; }
  static bool classof(const CastStmt *S) { return S->kind() == Kind::Raw; }

private:
  std::string_view Text;
};

//===----------------------------------------------------------------------===//
// Declarations and files
//===----------------------------------------------------------------------===//

/// A named, typed slot (function parameter or aggregate field) as the
/// builder takes it.
struct CastParam {
  CastType *Type = nullptr;
  std::string Name;
};

/// A CastParam as stored in the arena.
struct CastSlot {
  CastType *Type;
  std::string_view Name;
};

/// Base class of file-scope declarations.
class CastDecl {
public:
  enum class Kind {
    Var,
    Func,
    AggregateDef,
    EnumDef,
    Typedef,
    Comment,
    Raw,
  };

  Kind kind() const { return K; }

protected:
  explicit CastDecl(Kind K) : K(K) {}

private:
  const Kind K;
};

/// A file-scope variable.
class CDVar : public CastDecl {
public:
  CDVar(CastType *Type, std::string_view Name, CastExpr *Init, bool Static)
      : CastDecl(Kind::Var), Type(Type), Name(Name), Init(Init),
        Static(Static) {}
  CastType *type() const { return Type; }
  std::string_view name() const { return Name; }
  CastExpr *init() const { return Init; }
  bool isStatic() const { return Static; }
  static bool classof(const CastDecl *D) { return D->kind() == Kind::Var; }

private:
  CastType *Type;
  std::string_view Name;
  CastExpr *Init;
  bool Static;
};

/// A function definition (Body set) or prototype (Body null).
class CDFunc : public CastDecl {
public:
  CDFunc(CastType *Ret, std::string_view Name, std::span<const CastSlot> Params,
         CSBlock *Body, bool Static, bool Inline)
      : CastDecl(Kind::Func), Ret(Ret), Name(Name), Params(Params),
        Body(Body), Static(Static), Inline(Inline) {}
  CastType *ret() const { return Ret; }
  std::string_view name() const { return Name; }
  std::span<const CastSlot> params() const { return Params; }
  CSBlock *body() const { return Body; }
  bool isStatic() const { return Static; }
  bool isInline() const { return Inline; }
  static bool classof(const CastDecl *D) { return D->kind() == Kind::Func; }

private:
  CastType *Ret;
  std::string_view Name;
  std::span<const CastSlot> Params;
  CSBlock *Body;
  bool Static;
  bool Inline;
};

/// A struct or union definition.
class CDAggregateDef : public CastDecl {
public:
  CDAggregateDef(CastTag Tag, std::string_view Name,
                 std::span<const CastSlot> Fields)
      : CastDecl(Kind::AggregateDef), Tag(Tag), Name(Name), Fields(Fields) {}
  CastTag tag() const { return Tag; }
  std::string_view name() const { return Name; }
  std::span<const CastSlot> fields() const { return Fields; }
  static bool classof(const CastDecl *D) {
    return D->kind() == Kind::AggregateDef;
  }

private:
  CastTag Tag;
  std::string_view Name;
  std::span<const CastSlot> Fields;
};

/// One enumerator of a CDEnumDef, as the builder takes it.
struct CastEnumerator {
  std::string Name;
  int64_t Value = 0;
};

/// An enum definition.
class CDEnumDef : public CastDecl {
public:
  /// A CastEnumerator as stored in the arena.
  struct Item {
    std::string_view Name;
    int64_t Value;
  };

  CDEnumDef(std::string_view Name, std::span<const Item> Enumerators)
      : CastDecl(Kind::EnumDef), Name(Name), Enumerators(Enumerators) {}
  std::string_view name() const { return Name; }
  std::span<const Item> enumerators() const { return Enumerators; }
  static bool classof(const CastDecl *D) {
    return D->kind() == Kind::EnumDef;
  }

private:
  std::string_view Name;
  std::span<const Item> Enumerators;
};

/// `typedef <Type> <Name>;`
class CDTypedef : public CastDecl {
public:
  CDTypedef(CastType *Type, std::string_view Name)
      : CastDecl(Kind::Typedef), Type(Type), Name(Name) {}
  CastType *type() const { return Type; }
  std::string_view name() const { return Name; }
  static bool classof(const CastDecl *D) {
    return D->kind() == Kind::Typedef;
  }

private:
  CastType *Type;
  std::string_view Name;
};

/// A file-scope comment.
class CDComment : public CastDecl {
public:
  explicit CDComment(std::string_view Text)
      : CastDecl(Kind::Comment), Text(Text) {}
  std::string_view text() const { return Text; }
  static bool classof(const CastDecl *D) {
    return D->kind() == Kind::Comment;
  }

private:
  std::string_view Text;
};

/// A verbatim file-scope line (preprocessor directives and such).
class CDRaw : public CastDecl {
public:
  explicit CDRaw(std::string_view Text) : CastDecl(Kind::Raw), Text(Text) {}
  std::string_view text() const { return Text; }
  static bool classof(const CastDecl *D) { return D->kind() == Kind::Raw; }

private:
  std::string_view Text;
};

/// One generated translation unit or header.
class CastFile {
public:
  /// Non-empty for headers; printed as an include guard.
  std::string HeaderGuard;
  std::vector<std::string> Includes;
  std::vector<CastDecl *> Decls;

  void add(CastDecl *D) { Decls.push_back(D); }
};

/// Owns every CAST node of a compilation: an arena that nodes, their text
/// and their child lists are carved from, released all at once when the
/// context dies.  Only CastBuilder allocates from it.
class CastContext {
public:
  /// Size of the arena's first block; later blocks grow geometrically.
  static constexpr size_t FirstBlockBytes = 64 * 1024;

  CastContext() : Arena(FirstBlockBytes) {}
  CastContext(const CastContext &) = delete;
  CastContext &operator=(const CastContext &) = delete;

  /// Total CAST nodes built (--stats IR-size counter).
  size_t numNodes() const { return Nodes; }
  /// Arena bytes handed out to nodes, text and child lists.
  size_t numBytes() const { return Bytes; }

private:
  friend class CastBuilder;

  void *allocate(size_t Size, size_t Align) {
    Bytes += Size;
    return Arena.allocate(Size, Align);
  }

  template <typename T, typename... Args> T *make(Args &&...As) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "CAST nodes are never destroyed; the arena is released "
                  "whole");
    ++Nodes;
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(As)...);
  }

  std::pmr::monotonic_buffer_resource Arena;
  size_t Nodes = 0;
  size_t Bytes = 0;
};

//===----------------------------------------------------------------------===//
// Printing (implemented in Print.cpp)
//===----------------------------------------------------------------------===//

/// Renders \p Type declaring \p Name using C declarator syntax
/// (`char *argv[4]`); empty Name prints an abstract declarator.
std::string printCastType(const CastType *Type, std::string_view Name);

/// Renders one expression with minimal parentheses.
std::string printCastExpr(const CastExpr *E);

/// Prints one statement (with trailing newline) into \p W.
void printCastStmt(const CastStmt *S, CodeWriter &W);

/// Prints one declaration into \p W.
void printCastDecl(const CastDecl *D, CodeWriter &W);

/// Renders a whole file, including the include guard when present.
std::string printCastFile(const CastFile &File);

} // namespace flick

#endif // FLICK_CAST_CAST_H
