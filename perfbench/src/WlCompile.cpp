//===- perfbench/src/WlCompile.cpp - The compile workload -----------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Single thread, in process: parse -> verify -> presgen -> backend over a
// seeded corpus of CORBA, ONC RPC and MIG modules plus the repository's
// own idl/ files.  It is the only workload where the compiler layers do
// any work, and cold one-file flickc runs vary by tens of percent, so the
// loop is warm and long.
//
// Checks, none of which trusts the compiler's own report: every module
// compiles without errors; every operation and type name the generator
// emitted appears in the generated header (all of them, by the
// generator's count); and every compile of a module is byte-identical to
// its first.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include "Workloads.h"
#include "backends/Backend.h"
#include "frontends/corba/CorbaFrontEnd.h"
#include "frontends/mig/MigFrontEnd.h"
#include "frontends/oncrpc/OncFrontEnd.h"
#include "presgen/PresGen.h"
#include "support/Diagnostics.h"
#include "support/Stats.h"
#include <cstdio>

namespace pb {
namespace {

/// Modules per front end, and the operation count of the largest.
constexpr size_t PerLang = 30;
constexpr size_t MaxOps = 200;

/// The corpus also holds one CORBA module of AnchorOps operations grown
/// from AnchorSeed whatever the run's seed.  The compiler's peak memory is
/// set by the largest module, and the generated code per operation of the
/// seeded ones varies by 14% (one standard deviation), which moved
/// peak_rss_mb by a quarter from seed to seed.  The anchor generates about
/// 1.5 times the code of the largest seeded module, so it sets the peak.
constexpr uint64_t AnchorSeed = 0x5eed;
constexpr size_t AnchorOps = 300;

struct CompileOut {
  flick::BackendOutput Files;
  std::string Error;

  size_t bytes() const {
    return Files.Header.size() + Files.ClientSrc.size() +
           Files.ServerSrc.size() + Files.CommonSrc.size();
  }
  uint64_t hash() const {
    uint64_t H = fnv1a(Files.Header.data(), Files.Header.size());
    H = fnv1a(Files.ClientSrc.data(), Files.ClientSrc.size(), H);
    H = fnv1a(Files.ServerSrc.data(), Files.ServerSrc.size(), H);
    return fnv1a(Files.CommonSrc.data(), Files.CommonSrc.size(), H);
  }
};

/// One full compile of \p M, with a span around each layer call when \p T
/// is set.  Returns false (and the diagnostics) on any error.
bool compileOne(const IdlModule &M, Tracer *T, CompileOut &Out) {
  using namespace flick;
  DiagnosticEngine Diags;
  std::unique_ptr<AoiModule> Mod;
  {
    Scope S(T, "frontends.parse");
    Mod = M.L == IdlModule::Corba ? parseCorbaIdl(M.Source, M.Name, Diags)
          : M.L == IdlModule::Onc ? parseOncIdl(M.Source, M.Name, Diags)
                                  : parseMigDefs(M.Source, M.Name, Diags);
  }
  bool Ok = Mod != nullptr;
  if (Ok) {
    Scope S(T, "aoi.verify");
    Ok = Mod->verify(Diags);
  }
  std::unique_ptr<PresC> Pres;
  if (Ok) {
    PresGenOptions PO;
    std::unique_ptr<PresGen> PG;
    if (M.L == IdlModule::Corba)
      PG = std::make_unique<CorbaPresGen>(PO);
    else if (M.L == IdlModule::Onc)
      PG = std::make_unique<RpcgenPresGen>(PO);
    else
      PG = std::make_unique<MigPresGen>(PO);
    Scope S(T, "presgen.generate");
    Pres = PG->generate(*Mod, Diags);
    Ok = Pres != nullptr;
  }
  std::unique_ptr<Backend> BE;
  if (Ok) {
    BE = createBackend(M.Backend, BackendOptions());
    Ok = BE != nullptr;
  }
  if (Ok) {
    Scope S(T, "backends.generate");
    Out.Files = BE->generate(*Pres, "out");
    Ok = !Diags.hasErrors();
  }
  // Freeing the IR is a fifth of a compile; time it per owner so the
  // traced run accounts for it.
  {
    Scope S(T, "backends.free");
    BE.reset();
  }
  {
    Scope S(T, "presgen.free");
    Pres.reset();
  }
  {
    Scope S(T, "aoi.free");
    Mod.reset();
  }
  if (!Ok)
    Out.Error = M.Name + ": " +
                (Diags.hasErrors() ? Diags.renderAll() : "no back end");
  return Ok;
}

/// Generator names missing from \p Header.
size_t missingNames(const IdlModule &M, const std::string &Header) {
  size_t Missing = 0;
  for (const std::string &N : M.Names)
    if (Header.find(N) == std::string::npos)
      ++Missing;
  return Missing;
}

struct Corpus {
  std::vector<IdlModule> Modules;
  std::vector<size_t> Order; ///< seeded visiting order of one pass
};

bool buildCorpus(const RunOptions &O, Corpus &C) {
  C.Modules = generateCorpus(O.Seed, PerLang, MaxOps);
  C.Modules.push_back(generateModule(AnchorSeed, IdlModule::Corba,
                                     3 * PerLang, AnchorOps));
  if (!loadRepoIdl(O.IdlDir, C.Modules))
    return false;
  C.Order.resize(C.Modules.size());
  for (size_t I = 0; I != C.Order.size(); ++I)
    C.Order[I] = I;
  Rng R(subSeed(O.Seed, 2));
  R.shuffle(C.Order);
  return true;
}

/// Per-module record of the first compile, which later compiles must
/// reproduce byte for byte.
struct Reference {
  bool Seen = false;
  uint64_t Hash = 0;
  size_t Compiles = 0;
};

struct Phase {
  /// One slice per complete pass over the corpus, so each slice compiles
  /// the same modules; latency percentiles pool every compile.
  Slicer Log{0, true};
  uint64_t InBytes = 0;  ///< IDL source compiled
  uint64_t OutBytes = 0; ///< generated source
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  uint64_t Passes = 0;
};

class CompileBench {
public:
  explicit CompileBench(Corpus &C) : C(C) {
    Refs.resize(C.Modules.size());
  }

  /// Compiles modules in corpus order until \p Seconds pass (a started
  /// module always finishes).
  Phase run(double Seconds, Tracer *T) {
    Phase P;
    uint64_t Start = nowNs();
    uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
    size_t Pos = 0;
    CpuRotation Rotate;
    for (uint64_t Now; (Now = nowNs()) < Deadline;) {
      Rotate.tick(Now);
      size_t Idx = C.Order[Pos];
      const IdlModule &M = C.Modules[Idx];
      CompileOut Out;
      uint64_t T0 = nowNs();
      if (T)
        T->beginOp("op", NextOp, T0);
      bool Ok = compileOne(M, T, Out);
      uint64_t T1 = nowNs();
      if (T)
        T->endOp(T1);
      ++NextOp;
      ++P.Ops;
      P.Log.add(static_cast<double>(T1 - Start),
                static_cast<double>(T1 - T0) * 1e-3,
                static_cast<double>(M.Source.size()));
      P.InBytes += M.Source.size();
      P.OutBytes += Out.bytes();
      if (!Ok || !check(Idx, Out))
        ++P.Failed;
      if (++Pos == C.Order.size()) {
        Pos = 0;
        ++P.Passes;
        P.Log.endSlice();
      }
    }
    return P;
  }

  /// Compiles again every module compiled only once, so each module's
  /// determinism was checked at least once.  Returns the failures.
  uint64_t finish() {
    uint64_t Failed = 0;
    for (size_t I = 0; I != Refs.size(); ++I) {
      if (Refs[I].Compiles != 1)
        continue;
      CompileOut Out;
      if (!compileOne(C.Modules[I], nullptr, Out) || !check(I, Out))
        ++Failed;
    }
    return Failed;
  }

  std::vector<std::string> Errors;

private:
  bool check(size_t Idx, const CompileOut &Out) {
    Reference &Ref = Refs[Idx];
    ++Ref.Compiles;
    const IdlModule &M = C.Modules[Idx];
    if (!Out.Error.empty())
      return fail(Out.Error);
    uint64_t Hash = Out.hash();
    if (!Ref.Seen) {
      Ref.Seen = true;
      Ref.Hash = Hash;
      if (size_t Missing = missingNames(M, Out.Files.Header))
        return fail(fmt("%s: %zu of %zu generated names missing from the "
                        "header",
                        M.Name.c_str(), Missing, M.Names.size()));
      return true;
    }
    if (Hash != Ref.Hash)
      return fail(M.Name + ": output differs from its first compile");
    return true;
  }

  bool fail(const std::string &Msg) {
    if (Errors.size() < 8)
      Errors.push_back(Msg);
    return false;
  }

  Corpus &C;
  std::vector<Reference> Refs;
  uint64_t NextOp = 1;
};

/// Summed wall time of the Stats regions below \p R whose names start
/// with \p Prefix (the pass.* regions).
double regionUs(const flick::StatsRegion *R, const char *Prefix) {
  if (!R)
    return 0;
  double Us = 0;
  for (const auto &C : R->Children) {
    if (C->Name.rfind(Prefix, 0) == 0)
      Us += C->WallUs;
    else
      Us += regionUs(C.get(), Prefix);
  }
  return Us;
}

} // namespace

RunResult runCompile(const RunOptions &O) {
  RunResult R;
  Corpus C;
  bool Loaded = true;
  // Set-up: corpus generation, reading idl/, and one warm-up compile of
  // the repository modules.
  auto Setup = [&] {
    Loaded = buildCorpus(O, C) && Loaded;
    for (const IdlModule &M : C.Modules) {
      if (M.Names.empty()) {
        CompileOut Out;
        compileOne(M, nullptr, Out);
      }
    }
  };
  double SetupS = medianSetupSeconds(O.Traced ? 1 : SetupReps, Setup);
  if (!Loaded) {
    R.Failed = R.Attempted = 1;
    R.Notes.push_back("cannot read the idl/ directory at " + O.IdlDir);
    return R;
  }
  size_t CorpusBytes = 0;
  for (const IdlModule &M : C.Modules)
    CorpusBytes += M.Source.size();

  CompileBench B(C);
  if (!O.Traced) {
    Phase P = B.run(O.Seconds, nullptr);
    uint64_t LateFailures = B.finish();
    R.Attempted = P.Ops;
    R.Failed = P.Failed + LateFailures;
    if (P.Passes)
      P.Log.dropSlice(); // the unfinished pass
    SliceReport S = P.Log.report();
    double KbPerS = S.BytesPerSec / 1e3;
    R.set("setup_s", SetupS, "s");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    R.set("throughput_mb_per_s", KbPerS / 1e3, "MB/s");
    reportLatency(R, S);
    R.Notes.push_back(fmt("compile_kb_per_s %.2f KB/s", KbPerS));
    R.Notes.push_back(fmt("generated_kb %.1f KB (one pass over the corpus)",
                          CorpusBytes ? P.OutBytes / 1e3 * CorpusBytes /
                                            static_cast<double>(P.InBytes)
                                      : 0));
    R.Notes.push_back(fmt("corpus %zu modules, %.1f KB IDL; %llu compiles "
                          "in %llu full passes",
                          C.Modules.size(), CorpusBytes / 1e3,
                          static_cast<unsigned long long>(P.Ops),
                          static_cast<unsigned long long>(P.Passes)));
  } else {
    Phase Base = B.run(O.Seconds / 2, nullptr);
    Tracer T(0);
    flick::Stats &St = flick::Stats::get();
    St.reset();
    St.setEnabled(true);
    Phase P = B.run(O.Seconds / 2, &T);
    St.setEnabled(false);
    uint64_t LateFailures = B.finish();
    R.Attempted = Base.Ops + P.Ops;
    R.Failed = Base.Failed + P.Failed + LateFailures;

    double Kb = P.InBytes / 1e3;
    auto PerKb = [&](const char *Span) {
      return T.find(Span).SelfNs * 1e-3 / Kb;
    };
    R.set("frontends.parse_us_per_kb", PerKb("frontends.parse"), "us/KB");
    R.set("aoi.verify_us_per_kb", PerKb("aoi.verify"), "us/KB");
    R.set("presgen.generate_us_per_kb", PerKb("presgen.generate"), "us/KB");
    R.set("backends.generate_us_per_kb", PerKb("backends.generate"), "us/KB");
    R.set("presgen.free_us_per_kb", PerKb("presgen.free"), "us/KB");
    const flick::StatsRegion *Backend = St.root().findChild("backend");
    const flick::StatsRegion *Stubs =
        Backend ? Backend->findChild("stubs") : nullptr;
    const flick::StatsRegion *Print =
        Backend ? Backend->findChild("print") : nullptr;
    const flick::StatsRegion *PresRegion = St.root().findChild("presgen");
    R.set("backends.stubs_us_per_kb", Stubs ? Stubs->WallUs / Kb : 0,
          "us/KB");
    R.set("backends.print_us_per_kb", Print ? Print->WallUs / Kb : 0,
          "us/KB");
    R.set("backends.passes_us_per_kb", regionUs(Backend, "pass.") / Kb,
          "us/KB");
    R.set("backends.out_bytes_per_in_byte",
          static_cast<double>(P.OutBytes) / static_cast<double>(P.InBytes),
          "ratio");
    R.set("backends.generated_kb",
          P.OutBytes / 1e3 * CorpusBytes / static_cast<double>(P.InBytes),
          "KB");
    R.set("presgen.mint_nodes",
          PresRegion ? static_cast<double>(
                           PresRegion->counterValue("mint.nodes.total")) /
                           static_cast<double>(P.Ops)
                     : 0,
          "count");
    reportTraceIntegrity(R, Base.Log.meanUs(), P.Log.meanUs(), T);
    saveTrace(R, O, "compile", {&T});
  }
  for (const std::string &E : B.Errors)
    R.Notes.push_back("check failed: " + E);
  return R;
}

} // namespace pb
