//===- perfbench/src/WlMarshal.cpp - The marshal workload -----------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Single thread, closed loop, no transport: encode then decode a seeded
// stream of the paper's section 4 values (int arrays, rect arrays, 256 B
// dirents; sizes log-uniform from 64 B to 256 KB) into one reused buffer,
// through the compiled XDR stubs, the compiled CDR stubs, and specialized
// XDR type programs (with the interpreter as the fallback).  This is
// Figure 3 as a user pays for it, decode included: the stubs and the
// specializer do all the work, and transport, async and server do none.
//
// Checks: decode(encode(v)) equals the generator's v on every operation;
// before timing, the compiled XDR stubs' bytes equal the specialized
// program's bytes for every XDR value, and for int arrays both equal a
// big-endian encoding the benchmark makes itself.
//
//===----------------------------------------------------------------------===//

#include "Values.h"
#include "Workloads.h"
#include "runtime/Interp.h"
#include "runtime/Specialize.h"
#include <memory>

namespace pb {
namespace {

using flick::InterpType;
using flick::InterpWire;

/// Values per (kind, executor) pair; each pair spans the whole size range.
/// The largest value stays at 256 KB: at 1 MB the source, wire and decoded
/// copies overflow a core's 2 MB L2, and the rate then followed how much
/// of the shared L3 the host's other tenants left (run-to-run spread of
/// 14% against 5%).
constexpr size_t Strata = 16;
constexpr double MinBytes = 64, MaxBytes = 1 << 18;
/// Payloads below this are "small" in the per-layer split.
constexpr size_t SmallBytes = 4096;

enum class Exec { XdrStub, CdrStub, XdrSpec };

/// Type programs over the XDR presentation structs, as a dynamic-IDL host
/// would describe them at run time.
const InterpType I32 = InterpType::scalar(0, 4);
const InterpType IntSeqTy =
    InterpType::counted(offsetof(F_intseq, intseq_len),
                        offsetof(F_intseq, intseq_val), &I32, 4);
const InterpType RectElem = InterpType::structOf({
    InterpType::scalar(offsetof(F_rect, min.x), 4),
    InterpType::scalar(offsetof(F_rect, min.y), 4),
    InterpType::scalar(offsetof(F_rect, max.x), 4),
    InterpType::scalar(offsetof(F_rect, max.y), 4),
});
const InterpType RectSeqTy = InterpType::counted(
    offsetof(F_rectseq, rectseq_len), offsetof(F_rectseq, rectseq_val),
    &RectElem, sizeof(F_rect));
const InterpType DirentElem = InterpType::structOf({
    InterpType::cstring(offsetof(F_dirent, name)),
    InterpType::fixedArray(offsetof(F_dirent, info.words), &I32, 30, 4),
    InterpType::bytes(offsetof(F_dirent, info.tag), 16),
});
const InterpType DirentSeqTy = InterpType::counted(
    offsetof(F_direntseq, direntseq_len), offsetof(F_direntseq, direntseq_val),
    &DirentElem, sizeof(F_dirent));
constexpr InterpWire XdrWire{true, true};

const InterpType &typeOf(Kind K) {
  return K == Kind::Ints ? IntSeqTy : K == Kind::Rects ? RectSeqTy : DirentSeqTy;
}

/// One pool value, presented for its executor.  Never moves (the
/// presentation points into the Raw).
struct Entry {
  Raw V;
  Exec E = Exec::XdrStub;
  Presented<XdrFamily> X;
  Presented<CdrFamily> C;

  const void *xdrValue() const {
    return V.K == Kind::Ints    ? static_cast<const void *>(&X.Ints)
           : V.K == Kind::Rects ? static_cast<const void *>(&X.Rects)
                                : static_cast<const void *>(&X.Dirents);
  }
};

/// Decode targets, one per kind and family.
struct Decoded {
  F_intseq XI{};
  F_rectseq XR{};
  F_direntseq XD{};
  C_IntSeq CI{};
  C_RectSeq CR{};
  C_DirentSeq CD{};

  void *xdr(Kind K) {
    return K == Kind::Ints    ? static_cast<void *>(&XI)
           : K == Kind::Rects ? static_cast<void *>(&XR)
                              : static_cast<void *>(&XD);
  }
};

/// Per-layer accumulator: time and payload bytes.
struct Acc {
  double Ns = 0;
  double Bytes = 0;
  double nsPerKb() const { return Bytes > 0 ? Ns / (Bytes / 1e3) : 0; }
};

template <typename F>
int stubDecode(flick_buf *B, flick_arena *A, Kind K, typename F::IntSeq &I,
               typename F::RectSeq &R, typename F::DirentSeq &D) {
  B->pos = F::bodyOffset(B);
  return K == Kind::Ints    ? F::decode(B, A, &I)
         : K == Kind::Rects ? F::decode(B, A, &R)
                            : F::decode(B, A, &D);
}

template <typename F>
bool stubEqual(Kind K, const typename F::IntSeq &I,
               const typename F::RectSeq &R, const typename F::DirentSeq &D,
               const Raw &V) {
  return K == Kind::Ints    ? equalsRaw<F>(I, V)
         : K == Kind::Rects ? equalsRaw<F>(R, V)
                            : equalsRaw<F>(D, V);
}

struct Phase {
  Slicer Log;
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  uint64_t SpecLookups = 0;
  /// [executor][0 encode, 1 decode][0 small, 1 large]
  Acc Layer[3][2][2];
};

class MarshalBench {
public:
  ~MarshalBench() {
    flick_buf_destroy(&Buf);
    flick_arena_destroy(&Arena);
  }

  /// Generates the pool, compiles the type programs from a cold cache and
  /// runs one warm-up pass.
  void setup(uint64_t Seed) {
    Pool.clear();
    Rng R(subSeed(Seed, 3));
    for (Kind K : {Kind::Ints, Kind::Rects, Kind::Dirents})
      for (Exec E : {Exec::XdrStub, Exec::CdrStub, Exec::XdrSpec})
        for (size_t Bytes : stratifiedLogSizes(R, Strata, MinBytes, MaxBytes)) {
          auto En = std::make_unique<Entry>();
          En->V = makeRaw(R, K, Bytes);
          En->E = E;
          if (E == Exec::CdrStub)
            En->C.present(En->V);
          else
            En->X.present(En->V);
          Pool.push_back(std::move(En));
        }
    Order.resize(Pool.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);

    flick::flick_spec_cache_clear();
    uint64_t T0 = nowNs();
    for (Kind K : {Kind::Ints, Kind::Rects, Kind::Dirents})
      flick::flick_specialize(typeOf(K), XdrWire);
    SpecCompileUs = static_cast<double>(nowNs() - T0) * 1e-3 / 3;

    Phase Warm;
    for (size_t I = 0; I != Pool.size(); ++I)
      op(*Pool[Order[I]], nullptr, Warm, false);
  }

  /// The byte-level references, run once before timing: stub XDR bytes
  /// equal specialized bytes, and int arrays equal the benchmark's own
  /// big-endian encoding.  Returns the mismatches.
  uint64_t verifyBytes() {
    uint64_t Bad = 0;
    flick_buf Spec;
    flick_buf_init(&Spec);
    for (const auto &En : Pool) {
      if (En->E == Exec::CdrStub)
        continue;
      flick_buf_reset(&Buf);
      flick_buf_reset(&Spec);
      bool Ok = En->X.encode(&Buf, 1) == FLICK_OK &&
                flick::flick_interp_encode(&Spec, typeOf(En->V.K),
                                           En->xdrValue(), XdrWire,
                                           true) == FLICK_OK;
      size_t Off = XdrFamily::bodyOffset(&Buf);
      Ok = Ok && Buf.len - Off == Spec.len &&
           std::memcmp(Buf.data + Off, Spec.data, Spec.len) == 0;
      if (Ok && En->V.K == Kind::Ints) {
        std::vector<uint8_t> Ref = xdrIntsReference(En->V);
        Ok = Ref.size() == Spec.len &&
             std::memcmp(Ref.data(), Spec.data, Ref.size()) == 0;
      }
      if (!Ok) {
        ++Bad;
        note(fmt("%s value of %zu B: stub XDR bytes differ from the "
                 "specialized or reference bytes",
                 kindName(En->V.K), En->V.Payload));
      }
    }
    flick_buf_destroy(&Spec);
    return Bad;
  }

  Phase run(double Seconds, Tracer *T) {
    Phase P;
    PhaseStart = nowNs();
    uint64_t Deadline = PhaseStart + static_cast<uint64_t>(Seconds * 1e9);
    size_t Pos = 0;
    CpuRotation Rotate;
    for (uint64_t Now; (Now = nowNs()) < Deadline;) {
      Rotate.tick(Now);
      // Check the clock once per 16 values: small values take ~100 ns.
      // Each value is marshaled twice and the second, warm-cache round is
      // timed: the pool is far larger than a core's cache, and what the
      // host's other tenants leave of the shared cache is not a property
      // of the stubs.
      for (int I = 0; I != 16; ++I) {
        op(*Pool[Order[Pos]], nullptr, P, false);
        op(*Pool[Order[Pos]], T, P, true);
        if (++Pos == Order.size())
          Pos = 0;
      }
    }
    return P;
  }

  double SpecCompileUs = 0;
  std::vector<std::string> Errors;

private:
  void note(const std::string &Msg) {
    if (Errors.size() < 8)
      Errors.push_back(Msg);
  }

  /// One encode + decode of \p En, timed, then checked against its Raw.
  void op(const Entry &En, Tracer *T, Phase &P, bool Timed) {
    const Raw &V = En.V;
    Decoded D;
    int Class = V.Payload < SmallBytes ? 0 : 1;
    int Ex = static_cast<int>(En.E);
    flick_buf_reset(&Buf);
    uint64_t T0 = nowNs(), TMid = 0;
    if (T)
      T->beginOp("op", ++NextOp, T0);
    int Err = FLICK_OK;
    bool Same = false;
    switch (En.E) {
    case Exec::XdrStub: {
      {
        Scope S(T, "stubs.xdr.encode");
        Err = En.X.encode(&Buf, 1);
      }
      TMid = T ? nowNs() : 0;
      Scope S(T, "stubs.xdr.decode");
      Err = Err ? Err
                : stubDecode<XdrFamily>(&Buf, &Arena, V.K, D.XI, D.XR, D.XD);
      break;
    }
    case Exec::CdrStub: {
      {
        Scope S(T, "stubs.cdr.encode");
        Err = En.C.encode(&Buf, 1);
      }
      TMid = T ? nowNs() : 0;
      Scope S(T, "stubs.cdr.decode");
      Err = Err ? Err
                : stubDecode<CdrFamily>(&Buf, &Arena, V.K, D.CI, D.CR, D.CD);
      break;
    }
    case Exec::XdrSpec: {
      const InterpType &Ty = typeOf(V.K);
      {
        Scope S(T, "specialize.xdr.encode");
        const flick::flick_spec_program *Prog =
            flick::flick_specialize(Ty, XdrWire);
        Err = Prog ? flick::flick_spec_encode(&Buf, Prog, En.xdrValue())
                   : flick::flick_interp_encode(&Buf, Ty, En.xdrValue(),
                                                XdrWire);
      }
      TMid = T ? nowNs() : 0;
      Scope S(T, "specialize.xdr.decode");
      const flick::flick_spec_program *Prog =
          flick::flick_specialize(Ty, XdrWire);
      P.SpecLookups += 2;
      if (!Err)
        Err = Prog ? flick::flick_spec_decode(&Buf, Prog, D.xdr(V.K), &Arena)
                   : flick::flick_interp_decode(&Buf, Ty, D.xdr(V.K), XdrWire,
                                                &Arena);
      break;
    }
    }
    uint64_t T1 = nowNs();
    if (T) {
      T->endOp(T1);
      P.Layer[Ex][0][Class].Ns += static_cast<double>(TMid - T0);
      P.Layer[Ex][0][Class].Bytes += static_cast<double>(V.Payload);
      P.Layer[Ex][1][Class].Ns += static_cast<double>(T1 - TMid);
      P.Layer[Ex][1][Class].Bytes += static_cast<double>(V.Payload);
    }
    if (!Err)
      Same = En.E == Exec::CdrStub
                 ? stubEqual<CdrFamily>(V.K, D.CI, D.CR, D.CD, V)
                 : stubEqual<XdrFamily>(V.K, D.XI, D.XR, D.XD, V);
    flick_arena_reset(&Arena);
    ++P.Ops;
    if (Timed)
      P.Log.add(static_cast<double>(T1 - PhaseStart),
                static_cast<double>(T1 - T0) * 1e-3,
                static_cast<double>(V.Payload));
    if (!Same) {
      ++P.Failed;
      note(fmt("%s value of %zu B: decode(encode(v)) != v (status %d)",
               kindName(V.K), V.Payload, Err));
    }
  }

  std::vector<std::unique_ptr<Entry>> Pool;
  std::vector<size_t> Order;
  flick_buf Buf{};
  flick_arena Arena{};
  uint64_t NextOp = 0;
  uint64_t PhaseStart = 0;
};

} // namespace

RunResult runMarshal(const RunOptions &O) {
  RunResult R;
  MarshalBench B;
  double SetupS =
      medianSetupSeconds(O.Traced ? 1 : SetupReps, [&] { B.setup(O.Seed); });
  uint64_t BadBytes = B.verifyBytes();
  if (!O.Traced) {
    Phase P = B.run(O.Seconds, nullptr);
    R.Attempted = P.Ops;
    R.Failed = P.Failed + BadBytes;
    SliceReport S = P.Log.report();
    double MbPerS = S.BytesPerSec / 1e6;
    R.set("setup_s", SetupS, "s");
    R.set("peak_rss_mb", peakRssMb(), "MB");
    R.set("throughput_mb_per_s", MbPerS, "MB/s");
    reportLatency(R, S);
    R.Notes.push_back(fmt("marshal_mb_per_s %.2f MB/s (payload encoded and "
                          "decoded per second of marshal time)",
                          MbPerS));
  } else {
    Phase Base = B.run(O.Seconds / 2, nullptr);
    Tracer T(0);
    flick_metrics M;
    flick_metrics_enable(&M);
    Phase P = B.run(O.Seconds / 2, &T);
    flick_metrics_disable();
    R.Attempted = Base.Ops + P.Ops;
    R.Failed = Base.Failed + P.Failed + BadBytes;
    static const char *const ExecName[] = {"stubs.xdr", "stubs.cdr",
                                           "specialize.xdr"};
    static const char *const DirName[] = {"encode", "decode"};
    static const char *const ClassName[] = {"small", "large"};
    for (int E = 0; E != 3; ++E)
      for (int D = 0; D != 2; ++D)
        for (int C = 0; C != 2; ++C)
          R.set(fmt("%s.%s.%s_ns_per_kb", ExecName[E], DirName[D],
                    ClassName[C]),
                P.Layer[E][D][C].nsPerKb(), "ns/KB");
    double Ops = static_cast<double>(P.Ops);
    R.set("stubs.buf_grows_per_op", static_cast<double>(M.buf_grows) / Ops,
          "count");
    R.set("specialize.compile_us", B.SpecCompileUs, "us");
    R.set("specialize.cache_hit_frac",
          P.SpecLookups ? static_cast<double>(M.spec_cache_hits) /
                              static_cast<double>(P.SpecLookups)
                        : 0,
          "ratio");
    R.set("specialize.interp_dispatches",
          static_cast<double>(M.interp_dispatches), "count");
    reportTraceIntegrity(R, Base.Log.meanUs(), P.Log.meanUs(), T);
    saveTrace(R, O, "marshal", {&T});
  }
  for (const std::string &E : B.Errors)
    R.Notes.push_back("check failed: " + E);
  return R;
}

} // namespace pb
