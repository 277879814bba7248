//===- perfbench/src/Spans.h - Layer spans for the traced run ---*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own span recorder.  The traced run opens a span around
/// each call the benchmark makes into a layer's public functions (parse,
/// verify, presgen, backend, stub encode/decode, specializer, client
/// invoke, async submit, server dispatch); the program under test is not
/// instrumented.  Each span has a name, start, end, parent and the id of
/// the operation it belongs to.  Spans are kept in memory and written as
/// Chrome trace-event JSON at exit; per-layer totals and self times
/// (duration minus the part covered by direct children) accumulate as each
/// operation closes.
///
/// A null Tracer pointer means "untraced": every hook is one pointer test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Common.h"
#include <cstdio>
#include <string>
#include <vector>

namespace pb {

constexpr uint32_t NoParent = ~0u;

struct Span {
  const char *Name = nullptr; ///< a string literal
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Parent = NoParent; ///< index into the owning list
  uint64_t OpId = 0;
};

/// Totals of every span with one name.
struct LayerTotals {
  const char *Name = nullptr;
  uint64_t Count = 0;
  double TotalNs = 0;
  double SelfNs = 0;
};

/// One thread's recorder.  Not thread-safe: each thread owns one.
class Tracer {
public:
  /// At most this many spans are kept for export (totals count every
  /// span), which bounds the trace file and the tracer's memory.
  static constexpr size_t KeepCap = 50000;

  /// \p Thread labels the spans in the exported file.
  explicit Tracer(uint32_t Thread) : Thread(Thread) {}

  /// Opens the root span of operation \p OpId.
  void beginOp(const char *RootName, uint64_t OpId, uint64_t StartNs);
  /// Closes the root and folds the operation's spans into the totals.
  void endOp(uint64_t EndNs);
  /// Re-labels the open operation (a server learns the id mid-dispatch).
  void setOpId(uint64_t OpId) { CurOp = OpId; }

  uint32_t begin(const char *Name, uint64_t StartNs);
  void end(uint32_t Idx, uint64_t EndNs);
  /// Records an already-timed child of the innermost open span.
  void record(const char *Name, uint64_t StartNs, uint64_t EndNs);

  /// Totals for \p Name (all zero when never seen).
  LayerTotals find(const char *Name) const;
  uint64_t ops() const { return Ops; }
  uint64_t dropped() const { return Dropped; }

  /// Adds \p O's totals into this tracer's (after O's thread has ended).
  void absorbTotals(const Tracer &O);

  /// Writes the kept spans as Chrome trace "X" events (no surrounding
  /// array); \p First tracks comma placement across tracers.
  void writeEvents(std::FILE *F, bool &First) const;

private:
  LayerTotals &slot(const char *Name);

  uint32_t Thread;
  uint64_t CurOp = 0;
  uint64_t Ops = 0;
  uint64_t Dropped = 0;
  std::vector<Span> Cur;        ///< spans of the open operation
  std::vector<uint32_t> Stack;  ///< open spans (indices into Cur)
  std::vector<double> ChildNs;  ///< scratch: direct-child time per span
  std::vector<Span> Kept;       ///< closed spans kept for export
  std::vector<LayerTotals> Totals;
};

/// Times one layer call when \p T is non-null.
class Scope {
public:
  Scope(Tracer *T, const char *Name)
      : T(T), Idx(T ? T->begin(Name, nowNs()) : 0) {}
  ~Scope() {
    if (T)
      T->end(Idx, nowNs());
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  uint32_t Idx;
};

/// Writes every tracer's kept spans to \p Path as one Chrome trace-event
/// document.  Returns false when the file cannot be written.
bool writeTraceFile(const std::string &Path,
                    const std::vector<const Tracer *> &Tracers);

} // namespace pb

#endif // PERFBENCH_SPANS_H
