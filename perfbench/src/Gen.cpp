//===- perfbench/src/Gen.cpp - Seeded input generators --------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The IDL grammar is grown generation by generation, L-system style: the
// axiom is a set of primitive leaves, and each rewriting step adds named
// types (struct, union, sequence typedef) whose members may only name
// primitives or shallow types of earlier generations.  Types never
// recurse, their nesting is capped, and every module is valid for its
// front end by construction.  Operations then draw parameter and result
// types from the finished type set.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pb {

std::string fmt(const char *Format, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Format);
  int N = std::vsnprintf(Buf, sizeof(Buf), Format, Ap);
  va_end(Ap);
  if (N < 0)
    return std::string();
  if (static_cast<size_t>(N) < sizeof(Buf))
    return std::string(Buf, static_cast<size_t>(N));
  std::string Out(static_cast<size_t>(N) + 1, '\0');
  va_start(Ap, Format);
  std::vsnprintf(Out.data(), Out.size(), Format, Ap);
  va_end(Ap);
  Out.resize(static_cast<size_t>(N));
  return Out;
}

namespace {

const char *const CorbaPrims[] = {"long",   "unsigned long", "short",
                                  "octet",  "char",          "boolean",
                                  "double", "long long",     "float"};
const char *const OncPrims[] = {"int",    "unsigned int", "hyper", "double",
                                "bool",   "float",        "unsigned hyper"};
const char *const MigPrims[] = {"int",  "unsigned", "int16",  "char",
                                "byte", "boolean_t", "float", "double",
                                "int64"};

template <size_t N> size_t countOf(const char *const (&)[N]) { return N; }

/// A member, parameter or result type.
struct TypeRef {
  enum Kind { Prim, Str, Arr, Seq, Named };
  Kind K = Prim;
  unsigned PrimIdx = 0; ///< primitive (Prim, Arr, and Seq of a primitive)
  unsigned Count = 0;   ///< fixed-array length, or a string bound (0: none)
  int Ref = -1;         ///< named-type index (Named, and Seq of a named type)
};

struct NamedType {
  enum Kind { Struct, Union, SeqDef };
  Kind K = Struct;
  unsigned Depth = 0; ///< named-type nesting below this one
  std::string Name;
  std::vector<TypeRef> Members; ///< fields / arms; SeqDef: the element
};

class ModuleGen {
public:
  ModuleGen(uint64_t Seed, IdlModule::Lang L, size_t Index, size_t Ops)
      : R(Seed), L(L), Index(Index), NumOps(Ops) {}

  IdlModule run() {
    IdlModule M;
    M.L = L;
    M.Ops = NumOps;
    if (L != IdlModule::Mig)
      growTypes(1 + NumOps / 2);
    switch (L) {
    case IdlModule::Corba:
      M.Name = fmt("gen%02zu.idl", Index);
      M.Backend = Index % 2 ? "fluke" : "iiop";
      M.Source = renderCorba(M.Names);
      break;
    case IdlModule::Onc:
      M.Name = fmt("gen%02zu.x", Index);
      M.Backend = Index % 2 ? "naive" : "xdr";
      M.Source = renderOnc(M.Names);
      break;
    case IdlModule::Mig:
      M.Name = fmt("gen%02zu.defs", Index);
      M.Backend = "mach";
      M.Source = renderMig(M.Names);
      break;
    }
    return M;
  }

private:
  unsigned numPrims() const {
    return static_cast<unsigned>(L == IdlModule::Corba ? countOf(CorbaPrims)
                                 : L == IdlModule::Onc ? countOf(OncPrims)
                                                       : countOf(MigPrims));
  }
  const char *prim(unsigned I) const {
    return L == IdlModule::Corba ? CorbaPrims[I]
           : L == IdlModule::Onc ? OncPrims[I]
                                 : MigPrims[I];
  }

  /// Rewrites a leaf: a primitive, string, fixed array or sequence (struct
  /// fields only), or -- once earlier generations exist -- a reference to
  /// one of the \p Refs types.
  TypeRef leaf(const std::vector<int> &Refs, bool StructField) {
    TypeRef T;
    T.PrimIdx = static_cast<unsigned>(R.below(numPrims()));
    uint64_t Pick = R.below(StructField ? 10 : 6);
    if (Pick == 3) {
      T.K = TypeRef::Str;
      T.Count = R.below(2) ? 0 : 16u << R.below(4);
    } else if (StructField && Pick == 4) {
      T.K = TypeRef::Arr;
      T.Count = 2u + static_cast<unsigned>(R.below(15));
    } else if (StructField && (Pick == 5 || Pick == 6)) {
      T.K = TypeRef::Seq;
      if (!Refs.empty() && R.below(2))
        T.Ref = Refs[R.below(Refs.size())];
    } else if (Pick >= 4 && !Refs.empty()) {
      T.K = TypeRef::Named;
      T.Ref = Refs[R.below(Refs.size())];
    }
    return T;
  }

  /// Named types nest at most this deep, so a module's generated code
  /// grows with its size rather than exponentially with its seed.
  static constexpr unsigned MaxDepth = 2;

  void growTypes(size_t Count) {
    // Each generation may reference the shallow types before it.
    size_t Generation = 0;
    while (Types.size() < Count) {
      std::vector<int> Refs;
      for (size_t I = 0; I != Types.size(); ++I)
        if (Types[I].Depth < MaxDepth)
          Refs.push_back(static_cast<int>(I));
      size_t Batch = std::min<size_t>(Count - Types.size(), 2 + Generation);
      for (size_t I = 0; I != Batch; ++I) {
        NamedType T;
        uint64_t Pick = R.below(10);
        T.K = Pick < 6 ? NamedType::Struct
              : Pick < 8 ? NamedType::Union
                         : NamedType::SeqDef;
        size_t Id = Types.size();
        T.Name = (T.K == NamedType::Struct  ? fmt("rec%zuq", Id)
                  : T.K == NamedType::Union ? fmt("var%zuq", Id)
                                            : fmt("seq%zuq", Id));
        if (T.K == NamedType::SeqDef) {
          TypeRef E;
          E.PrimIdx = static_cast<unsigned>(R.below(numPrims()));
          if (!Refs.empty() && R.below(2)) {
            E.K = TypeRef::Named;
            E.Ref = Refs[R.below(Refs.size())];
          }
          T.Members.push_back(E);
        } else {
          size_t N = T.K == NamedType::Struct ? 3 + R.below(2) : 3;
          for (size_t F = 0; F != N; ++F)
            T.Members.push_back(leaf(Refs, T.K == NamedType::Struct));
        }
        for (const TypeRef &M : T.Members)
          if (M.Ref >= 0)
            T.Depth = std::max(T.Depth, Types[M.Ref].Depth + 1);
        Types.push_back(std::move(T));
      }
      ++Generation;
    }
  }

  //===--------------------------------------------------------------------===//
  // CORBA IDL
  //===--------------------------------------------------------------------===//

  std::string corbaType(const TypeRef &T) const {
    switch (T.K) {
    case TypeRef::Prim:
    case TypeRef::Arr:
      return prim(T.PrimIdx);
    case TypeRef::Str:
      return T.Count ? fmt("string<%u>", T.Count) : "string";
    case TypeRef::Seq:
      return std::string("sequence<") +
             (T.Ref >= 0 ? Types[T.Ref].Name : prim(T.PrimIdx)) + ">";
    case TypeRef::Named:
      return Types[T.Ref].Name;
    }
    return "long";
  }

  std::string corbaDecl(const TypeRef &T, const std::string &Name) const {
    if (T.K == TypeRef::Arr)
      return corbaType(T) + " " + Name + fmt("[%u]", T.Count);
    return corbaType(T) + " " + Name;
  }

  std::string renderCorba(std::vector<std::string> &Names) {
    std::ostringstream O;
    std::string Mod = fmt("gm%zuq", Index);
    O << "// Generated corpus module " << Index << ".\nmodule " << Mod
      << " {\n";
    for (const NamedType &T : Types) {
      Names.push_back(T.Name);
      if (T.K == NamedType::SeqDef) {
        O << "  typedef sequence<"
          << (T.Members[0].K == TypeRef::Named ? Types[T.Members[0].Ref].Name
                                               : prim(T.Members[0].PrimIdx))
          << "> " << T.Name << ";\n";
      } else if (T.K == NamedType::Struct) {
        O << "  struct " << T.Name << " {\n";
        for (size_t F = 0; F != T.Members.size(); ++F)
          O << "    " << corbaDecl(T.Members[F], fmt("f%zu", F)) << ";\n";
        O << "  };\n";
      } else {
        O << "  union " << T.Name << " switch (long) {\n";
        for (size_t F = 0; F != T.Members.size(); ++F)
          O << "  case " << F << ": "
            << corbaDecl(T.Members[F], fmt("a%zu", F)) << ";\n";
        O << "  };\n";
      }
    }
    // Interfaces of at most 48 operations each.
    size_t Op = 0, IfNo = 0;
    while (Op < NumOps) {
      std::string If = fmt("If%zuq", IfNo++);
      Names.push_back(If);
      O << "  interface " << If << " {\n";
      for (size_t K = 0; K != 48 && Op < NumOps; ++K, ++Op) {
        std::string OpName = fmt("op%zuq", Op);
        Names.push_back(OpName);
        if (R.below(10) == 0) {
          O << "    oneway void " << OpName << "(in "
            << corbaType(paramType()) << " p0);\n";
          continue;
        }
        uint64_t Ret = R.below(3);
        O << "    "
          << (Ret == 0 ? std::string("void")
              : Ret == 1 ? std::string(prim(R.below(numPrims())))
                         : corbaType(paramType()))
          << " " << OpName << "(";
        size_t NP = 1 + R.below(3);
        for (size_t P = 0; P != NP; ++P) {
          static const char *const Dir[] = {"in", "in", "out", "inout"};
          O << (P ? ", " : "") << Dir[R.below(4)] << " "
            << corbaType(paramType()) << " " << fmt("p%zu", P);
        }
        O << ");\n";
      }
      O << "  };\n";
    }
    O << "};\n";
    return O.str();
  }

  /// A parameter or result: a primitive, a string, or a named type.
  TypeRef paramType() {
    TypeRef T;
    T.PrimIdx = static_cast<unsigned>(R.below(numPrims()));
    uint64_t Pick = R.below(6);
    if (Pick >= 3 && !Types.empty()) {
      T.K = TypeRef::Named;
      T.Ref = static_cast<int>(R.below(Types.size()));
    } else if (Pick == 2) {
      T.K = TypeRef::Str;
    }
    return T;
  }

  //===--------------------------------------------------------------------===//
  // ONC RPC (.x)
  //===--------------------------------------------------------------------===//

  std::string oncDecl(const TypeRef &T, const std::string &Name) const {
    switch (T.K) {
    case TypeRef::Prim:
      return std::string(prim(T.PrimIdx)) + " " + Name;
    case TypeRef::Str:
      return "string " + Name + (T.Count ? fmt("<%u>", T.Count) : "<>");
    case TypeRef::Arr:
      return std::string(prim(T.PrimIdx)) + " " + Name + fmt("[%u]", T.Count);
    case TypeRef::Seq:
      return (T.Ref >= 0 ? Types[T.Ref].Name : std::string(prim(T.PrimIdx))) +
             " " + Name + "<>";
    case TypeRef::Named:
      return Types[T.Ref].Name + " " + Name;
    }
    return "int " + Name;
  }

  std::string renderOnc(std::vector<std::string> &Names) {
    std::ostringstream O;
    O << "/* Generated corpus module " << Index << ". */\n";
    for (const NamedType &T : Types) {
      Names.push_back(T.Name);
      if (T.K == NamedType::SeqDef) {
        const TypeRef &E = T.Members[0];
        O << "typedef "
          << (E.K == TypeRef::Named ? Types[E.Ref].Name
                                    : std::string(prim(E.PrimIdx)))
          << " " << T.Name << "<>;\n";
      } else if (T.K == NamedType::Struct) {
        O << "struct " << T.Name << " {\n";
        for (size_t F = 0; F != T.Members.size(); ++F)
          O << "  " << oncDecl(T.Members[F], fmt("f%zu", F)) << ";\n";
        O << "};\n";
      } else {
        O << "union " << T.Name << " switch (int d) {\n";
        for (size_t F = 0; F != T.Members.size(); ++F)
          O << "case " << F << ": " << oncDecl(T.Members[F], fmt("a%zu", F))
            << ";\n";
        O << "default: void;\n};\n";
      }
    }
    std::string Prog = fmt("GP%zuQ", Index);
    O << "program " << Prog << " {\n  version GV" << Index << "Q {\n";
    for (size_t Op = 0; Op != NumOps; ++Op) {
      std::string OpName = fmt("op%zuq", Op);
      Names.push_back(OpName);
      auto Arg = [&]() -> std::string {
        uint64_t Pick = R.below(5);
        if (Pick == 0)
          return "void";
        if (Pick == 1 || Types.empty())
          return prim(R.below(numPrims()));
        return Types[R.below(Types.size())].Name;
      };
      std::string Ret = Arg();
      O << "    " << Ret << " " << OpName << "(" << Arg() << ") = " << Op + 1
        << ";\n";
    }
    O << "  } = 1;\n} = " << fmt("0x%08zx", 0x20010000 + Index) << ";\n";
    return O.str();
  }

  //===--------------------------------------------------------------------===//
  // MIG (.defs): scalars and arrays of scalars only
  //===--------------------------------------------------------------------===//

  std::string migType() {
    const char *P = prim(R.below(numPrims()));
    switch (R.below(4)) {
    case 0:
      return std::string("array[] of ") + P;
    case 1:
      return fmt("array[%u] of %s", 2u + static_cast<unsigned>(R.below(31)), P);
    default:
      return P;
    }
  }

  std::string renderMig(std::vector<std::string> &Names) {
    std::ostringstream O;
    std::string Sub = fmt("gs%zuq", Index);
    Names.push_back(Sub);
    O << "/* Generated corpus module " << Index << ". */\nsubsystem " << Sub
      << " " << 1000 + 100 * Index << ";\n\n";
    for (size_t Op = 0; Op != NumOps; ++Op) {
      std::string OpName = fmt("op%zuq", Op);
      Names.push_back(OpName);
      bool Simple = R.below(6) == 0;
      O << (Simple ? "simpleroutine " : "routine ") << OpName << "(";
      size_t NP = 1 + R.below(4);
      for (size_t P = 0; P != NP; ++P) {
        const char *Dir = Simple ? "" : R.below(3) == 0 ? "out " : "";
        O << (P ? "; " : "") << Dir << fmt("p%zu", P) << " : " << migType();
      }
      O << ");\n";
    }
    return O.str();
  }

  Rng R;
  IdlModule::Lang L;
  size_t Index;
  size_t NumOps;
  std::vector<NamedType> Types;
};

} // namespace

std::vector<IdlModule> generateCorpus(uint64_t Seed, size_t PerLang,
                                      size_t MaxOps) {
  Rng R(subSeed(Seed, 1));
  std::vector<IdlModule> Out;
  size_t Index = 0;
  for (IdlModule::Lang L : {IdlModule::Corba, IdlModule::Onc, IdlModule::Mig}) {
    std::vector<size_t> Ops =
        stratifiedLogSizes(R, PerLang, 1, static_cast<double>(MaxOps));
    for (size_t N : Ops)
      Out.push_back(generateModule(R.next(), L, Index++, N));
  }
  return Out;
}

IdlModule generateModule(uint64_t Seed, IdlModule::Lang L, size_t Index,
                         size_t Ops) {
  return ModuleGen(Seed, L, Index, Ops).run();
}

bool loadRepoIdl(const std::string &Dir, std::vector<IdlModule> &Out) {
  struct Entry {
    const char *File;
    IdlModule::Lang L;
    const char *Backend;
  };
  static const Entry Files[] = {
      {"bank.idl", IdlModule::Corba, "iiop"},
      {"bench.idl", IdlModule::Corba, "iiop"},
      {"kitchen.idl", IdlModule::Corba, "iiop"},
      {"mail.idl", IdlModule::Corba, "iiop"},
      {"bench.x", IdlModule::Onc, "xdr"},
      {"list.x", IdlModule::Onc, "xdr"},
      {"counter.defs", IdlModule::Mig, "mach"},
  };
  for (const Entry &E : Files) {
    std::ifstream In(Dir + "/" + E.File, std::ios::binary);
    if (!In)
      return false;
    std::stringstream Ss;
    Ss << In.rdbuf();
    IdlModule M;
    M.L = E.L;
    M.Name = E.File;
    M.Source = Ss.str();
    M.Backend = E.Backend;
    Out.push_back(std::move(M));
  }
  return true;
}

} // namespace pb
