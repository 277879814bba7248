//===- tests/CastPrintTests.cpp - CAST pretty-printer tests ---------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "cast/Builder.h"
#include "support/CodeWriter.h"
#include <gtest/gtest.h>
#include <type_traits>

using namespace flick;

namespace {

class CastPrint : public ::testing::Test {
protected:
  CastContext Ctx;
  CastBuilder B{Ctx};

  std::string stmtText(CastStmt *S) {
    CodeWriter W;
    printCastStmt(S, W);
    return W.take();
  }
  std::string declText(CastDecl *D) {
    CodeWriter W;
    printCastDecl(D, W);
    return W.take();
  }
};

TEST_F(CastPrint, DeclaratorSyntax) {
  EXPECT_EQ(printCastType(B.prim("int"), "x"), "int x");
  EXPECT_EQ(printCastType(B.ptr(B.prim("char")), "s"), "char *s");
  EXPECT_EQ(printCastType(B.ptr(B.ptr(B.prim("char"))), "s"), "char **s");
  EXPECT_EQ(printCastType(B.arr(B.prim("long"), 4), "a"), "long a[4]");
  EXPECT_EQ(printCastType(B.arr(B.arr(B.prim("long"), 3), 2), "g"),
            "long g[2][3]");
  EXPECT_EQ(printCastType(B.ptr(B.arr(B.prim("int"), 8)), "p"),
            "int (*p)[8]");
  EXPECT_EQ(printCastType(B.arr(B.ptr(B.prim("char")), 4), "argv"),
            "char *argv[4]");
  EXPECT_EQ(printCastType(B.constPtr(B.prim("char")), "s"),
            "const char *s");
  EXPECT_EQ(printCastType(B.structTy("foo"), ""), "struct foo");
}

// A const pointee that is itself a pointer takes the `const` on its own
// `*`; only a non-pointer pointee carries it on the specifier.
TEST_F(CastPrint, ConstPointeePointer) {
  EXPECT_EQ(printCastType(B.constPtr(B.ptr(B.prim("char"))), "s"),
            "char *const *s");
  EXPECT_EQ(printCastType(B.constPtr(B.constPtr(B.prim("char"))), "s"),
            "const char *const *s");
  EXPECT_EQ(printCastType(B.constPtr(B.ptr(B.prim("char"))), ""),
            "char *const *");
  EXPECT_EQ(printCastType(B.ptr(B.constPtr(B.prim("char"))), "s"),
            "const char **s");
  EXPECT_EQ(printCastType(B.constPtr(B.arr(B.prim("char"), 4)), "p"),
            "const char (*p)[4]");
}

TEST_F(CastPrint, ExpressionPrecedence) {
  // (a + b) * c needs parens; a + b * c does not.
  auto *E1 = B.mul(B.add(B.id("a"), B.id("b")), B.id("c"));
  EXPECT_EQ(printCastExpr(E1), "(a + b) * c");
  auto *E2 = B.add(B.id("a"), B.mul(B.id("b"), B.id("c")));
  EXPECT_EQ(printCastExpr(E2), "a + b * c");
}

TEST_F(CastPrint, UnaryDoesNotFuse) {
  auto *E = B.un("-", B.un("-", B.id("x")));
  EXPECT_EQ(printCastExpr(E), "- -x");
  auto *A = B.addr(B.addr(B.id("x")));
  EXPECT_EQ(printCastExpr(A), "& &x");
}

TEST_F(CastPrint, MemberCallsIndex) {
  auto *E = B.callE(B.id("f"), {B.mem(B.id("s"), "len"),
                                B.idx(B.arrow(B.id("p"), "buf"), B.num(3))});
  EXPECT_EQ(printCastExpr(E), "f(s.len, p->buf[3])");
}

TEST_F(CastPrint, MemberOfDerefParenthesized) {
  auto *E = B.mem(B.deref(B.id("p")), "x");
  EXPECT_EQ(printCastExpr(E), "(*p).x");
}

TEST_F(CastPrint, CastsAndSizeof) {
  auto *E = B.castTo(B.ptr(B.prim("uint8_t")),
                     B.add(B.id("p"), B.num(4)));
  EXPECT_EQ(printCastExpr(E), "(uint8_t *)(p + 4)");
  EXPECT_EQ(printCastExpr(B.sizeofTy(B.prim("int32_t"))),
            "sizeof(int32_t)");
}

TEST_F(CastPrint, MixedLogicalAlwaysParenthesized) {
  auto *E = B.bin("||", B.bin("&&", B.id("a"), B.id("b")), B.id("c"));
  EXPECT_EQ(printCastExpr(E), "(a && b) || c");
}

TEST_F(CastPrint, TernaryAndAssignment) {
  auto *E = B.assign(B.id("x"), B.ternary(B.id("c"), B.num(1), B.num(2)));
  EXPECT_EQ(printCastExpr(E), "x = c ? 1 : 2");
}

TEST_F(CastPrint, StringAndCharLiterals) {
  EXPECT_EQ(printCastExpr(B.str("a\"b")), "\"a\\\"b\"");
  EXPECT_EQ(printCastExpr(B.chr('\'')), "'\\''");
  EXPECT_EQ(printCastExpr(B.unum(7)), "7u");
}

TEST_F(CastPrint, IfElseStatement) {
  auto *S = B.ifStmt(B.id("c"), B.block({B.ret(B.num(1))}),
                     B.block({B.ret(B.num(2))}));
  EXPECT_EQ(stmtText(S), "if (c) {\n  return 1;\n} else {\n  return 2;\n}\n");
}

TEST_F(CastPrint, ForLoop) {
  auto *S = B.forStmt(B.varDecl(B.prim("size_t"), "i", B.num(0)),
                      B.lt(B.id("i"), B.id("n")),
                      B.assign(B.id("i"), B.add(B.id("i"), B.num(1))),
                      B.block({B.exprStmt(B.call("f", {B.id("i")}))}));
  EXPECT_EQ(stmtText(S),
            "for (size_t i = 0; i < n; i = i + 1) {\n  f(i);\n}\n");
}

TEST_F(CastPrint, SwitchBracesEachCase) {
  std::vector<CastSwitchCase> Cases(2);
  Cases[0].Values = {B.num(1)};
  Cases[0].Stmts = {B.varDecl(B.prim("int"), "x", B.num(0))};
  Cases[1].Stmts = {B.ret(B.num(0))}; // default
  Cases[1].FallsThrough = true;
  auto *S = B.switchStmt(B.id("op"), std::move(Cases));
  std::string Text = stmtText(S);
  EXPECT_NE(Text.find("case 1: {"), std::string::npos) << Text;
  EXPECT_NE(Text.find("default: {"), std::string::npos);
  EXPECT_NE(Text.find("break;"), std::string::npos);
}

TEST_F(CastPrint, FunctionDefinitionAndPrototype) {
  std::vector<CastParam> Ps = {{B.ptr(B.prim("char")), "s"},
                               {B.prim("int"), "n"}};
  auto *Proto = B.func(B.prim("int"), "f", Ps, nullptr);
  EXPECT_EQ(declText(Proto), "int f(char *s, int n);\n");
  auto *Def = B.func(B.prim("int"), "f", Ps,
                     B.block({B.ret(B.id("n"))}), true, true);
  EXPECT_EQ(declText(Def),
            "static inline int f(char *s, int n) {\n  return n;\n}\n");
  auto *NoArgs = B.func(B.voidTy(), "g", {}, nullptr);
  EXPECT_EQ(declText(NoArgs), "void g(void);\n");
}

TEST_F(CastPrint, AggregateAndTypedefDecls) {
  auto *S = B.structDef("pt", {{B.prim("int32_t"), "x"},
                               {B.prim("int32_t"), "y"}});
  EXPECT_EQ(declText(S), "struct pt {\n  int32_t x;\n  int32_t y;\n};\n");
  auto *T = B.typedefDecl(B.structTy("pt"), "pt");
  EXPECT_EQ(declText(T), "typedef struct pt pt;\n");
  auto *E = B.enumDef("color", {{"RED", 0}, {"BLUE", 1}});
  EXPECT_EQ(declText(E), "enum color {\n  RED = 0,\n  BLUE = 1,\n};\n");
}

TEST_F(CastPrint, HeaderGuardWrapsFile) {
  CastFile F;
  F.HeaderGuard = "TEST_H";
  F.Includes = {"<stdint.h>"};
  F.add(B.rawDecl("#define X 1"));
  std::string Text = printCastFile(F);
  EXPECT_NE(Text.find("#ifndef TEST_H"), std::string::npos);
  EXPECT_NE(Text.find("#define TEST_H"), std::string::npos);
  EXPECT_NE(Text.find("#include <stdint.h>"), std::string::npos);
  EXPECT_NE(Text.find("#endif /* TEST_H */"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The arena: nodes, text and child lists are copied in by the builder
//===----------------------------------------------------------------------===//

template <typename... Ts>
constexpr bool TriviallyDestructible =
    (std::is_trivially_destructible_v<Ts> && ...);

static_assert(TriviallyDestructible<CastPrim, CastNamed, CastPointer,
                                    CastArray>);
static_assert(TriviallyDestructible<CEIdent, CEIntLit, CEStrLit, CECharLit,
                                    CECall, CEMember, CEIndex, CEUnary,
                                    CEBinary, CECast, CESizeofType,
                                    CETernary, CERaw>);
static_assert(TriviallyDestructible<CSExpr, CSVarDecl, CSBlock, CSIf,
                                    CSWhile, CSFor, CSSwitch, CSSwitch::Arm,
                                    CSReturn, CSBreak, CSContinue,
                                    CSComment, CSRaw>);
static_assert(TriviallyDestructible<CDVar, CDFunc, CDAggregateDef,
                                    CDEnumDef, CDEnumDef::Item, CDTypedef,
                                    CDComment, CDRaw, CastSlot>);

TEST_F(CastPrint, BuilderCopiesTemporaryText) {
  std::string Name = "counter";
  CastExpr *E = B.id(Name);
  CastStmt *C = B.comment(Name + " note");
  CastType *T = B.prim(Name + "_t");
  std::vector<CastParam> Ps = {{B.prim("int"), Name}};
  CDFunc *F = B.func(B.voidTy(), Name, Ps, nullptr);
  // Overwrite every source in place, and allocate again so the dead
  // temporaries' storage is likely reused.
  Name.assign(Name.size(), 'x');
  Ps[0].Name.assign(Ps[0].Name.size(), 'y');
  std::string Scribble(64, 'z');
  EXPECT_EQ(printCastExpr(E), "counter");
  EXPECT_EQ(stmtText(C), "/* counter note */\n");
  EXPECT_EQ(printCastType(T, "v"), "counter_t v");
  EXPECT_EQ(declText(F), "void counter(int counter);\n");
}

TEST_F(CastPrint, BuilderCopiesChildLists) {
  std::vector<CastExpr *> Args = {B.id("a"), B.id("b")};
  CastExpr *Call = B.call("f", Args);
  std::vector<CastStmt *> Stmts = {B.brk()};
  CSBlock *Blk = B.block(Stmts);
  std::vector<CastSwitchCase> Cases(1);
  Cases[0].Values = {B.num(1)};
  Cases[0].Stmts = {B.ret()};
  CastStmt *Sw = B.switchStmt(B.id("k"), Cases);
  Args[0] = B.id("z");
  Args.push_back(B.id("w"));
  Stmts.assign(3, B.ret());
  Cases[0].Values.push_back(B.num(2));
  Cases[0].Stmts.clear();
  EXPECT_EQ(printCastExpr(Call), "f(a, b)");
  EXPECT_EQ(stmtText(Blk), "{\n  break;\n}\n");
  EXPECT_EQ(stmtText(Sw), "switch (k) {\n  case 1: {\n    return;\n"
                          "    break;\n  }\n}\n");
}

TEST_F(CastPrint, TextAndListLargerThanABlock) {
  const size_t Big = 4 * CastContext::FirstBlockBytes;
  std::string Long(Big, 'q');
  Long.front() = '<';
  Long.back() = '>';
  CastStmt *Raw = B.rawStmt(Long);
  std::vector<CastExpr *> Args;
  for (size_t I = 0; I != Big / sizeof(CastExpr *); ++I)
    Args.push_back(B.num(static_cast<int64_t>(I % 10)));
  CastExpr *Call = B.call("g", Args);
  Long.assign(Big, '-');
  EXPECT_EQ(stmtText(Raw), "<" + std::string(Big - 2, 'q') + ">\n");
  std::string Want = "g(";
  for (size_t I = 0; I != Args.size(); ++I)
    Want += (I ? ", " : "") + std::to_string(I % 10);
  EXPECT_EQ(printCastExpr(Call), Want + ")");
}

TEST_F(CastPrint, NodesAcrossManyBlocks) {
  std::vector<CastStmt *> Stmts;
  std::string Want = "{\n";
  for (int I = 0; Ctx.numBytes() < 8 * CastContext::FirstBlockBytes; ++I) {
    std::string V = "v" + std::to_string(I);
    Stmts.push_back(B.varDecl(B.constPtr(B.ptr(B.prim("char"))), V,
                              B.idx(B.id("names"), B.num(I))));
    Want += "  char *const *" + V + " = names[" + std::to_string(I) + "];\n";
  }
  Want += "}\n";
  EXPECT_EQ(stmtText(B.block(Stmts)), Want);
  // Seven nodes per statement (three types, three expressions, the
  // declaration) plus the block.
  EXPECT_EQ(Ctx.numNodes(), 7 * Stmts.size() + 1);
}

} // namespace
