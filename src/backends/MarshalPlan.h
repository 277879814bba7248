//===- backends/MarshalPlan.h - Marshal-plan IR and analysis ----*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MarshalPlan IR: a per-operation sequence of typed marshal steps
/// built from PRES_C by pure analysis, transformed by the pass pipeline
/// (Passes.h), and lowered to CAST by the plan emitter (PlanEmit.cpp).
/// This is the explicit middle layer the paper's architecture implies
/// between presentation and code: the builder only *describes* the
/// message, the passes decide the optimization strategy, and the emitter
/// owns every chunkAddr/putWire/getWire detail.
///
/// This header also hosts the shared layout analyses (fixed-size
/// measurement, host/wire element images, memcpy run merging) so the
/// builder, the passes, and the emitter agree on one set of predicates --
/// the invariant that keeps plan annotations and emitted code in sync.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_BACKENDS_MARSHALPLAN_H
#define FLICK_BACKENDS_MARSHALPLAN_H

#include "mint/Wire.h"
#include "pres/Pres.h"
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace flick {

//===----------------------------------------------------------------------===//
// Shared shape classification
//===----------------------------------------------------------------------===//

/// Broad parameter-shape classification used by the signature tables and
/// the inlining policy.
enum class PKind { Scalar, Str, FixArr, Agg, Opt, Void };

PKind classifyPres(const PresNode *P);

/// True when the subtree contains a discriminated union (unions never
/// share chunks: their size depends on the discriminator).
bool presContainsUnion(const PresNode *P);

inline uint64_t alignUpTo(uint64_t V, uint64_t A) {
  return (V + A - 1) / A * A;
}

bool isAtomicMint(const MintType *T);

/// True for char/octet elements, which arrays pack one byte each with
/// trailing padding only (the XDR `opaque` convention; CDR packs bytes
/// naturally).  Standalone scalars still use atomSize (XDR widens them).
bool isByteElem(const WireLayout &L, const MintType *T);

/// Endianness suffix of the runtime encode/decode primitive family.
const char *endianSuffix(WireKind K);

std::string encFnFor(const WireLayout &L, unsigned Size);
std::string decFnFor(const WireLayout &L, unsigned Size);

/// Chunk alignment for a wire format (4 for XDR, 8 otherwise).
unsigned chunkAlignFor(const WireLayout &L);

//===----------------------------------------------------------------------===//
// Fixed-layout measurement
//===----------------------------------------------------------------------===//
//
// Exact wire offsets of a fixed-size PRES subtree, mirrored exactly by
// StubGen::emitFixedInChunk.  Chunks start aligned to chunkAlign(), so
// member alignment within a chunk is valid whenever MaxAlign <= chunkAlign.

struct FixedLayout {
  uint64_t Size = 0; ///< exact encoded bytes (before chunk padding)
  unsigned MaxAlign = 1;
  bool IsFixed = true; ///< false when the subtree has variable size
};

class LayoutMeasurer {
public:
  explicit LayoutMeasurer(const WireLayout &L) : L(L) {}

  FixedLayout measure(const PresNode *P);

  /// Measures a run of items laid out sequentially (struct fields or
  /// top-level parameters sharing one chunk).
  FixedLayout measureSeq(const std::vector<const PresNode *> &Items);

  bool walk(const PresNode *P, uint64_t &Off, unsigned &MaxAlign);

private:
  bool walkNew(const PresNode *P, uint64_t &Off, unsigned &MaxAlign);

  const WireLayout &L;
  std::set<const PresNode *> Seen;
};

//===----------------------------------------------------------------------===//
// Element host images (USC-style extension; the paper's §3.2 future
// work): an array element whose host-C layout matches its wire layout
// byte for byte may be block-copied whole, and one that matches except
// for byte order may be swap-copied whole.
//===----------------------------------------------------------------------===//

/// Host-C size/alignment of a presented scalar (System V x86-64-ish
/// rules: natural alignment; enums are int-sized).  The generated code
/// carries a static_assert so a mismatched ABI fails the build instead of
/// corrupting messages.
struct CScalar {
  unsigned Size = 0;
  unsigned Align = 0;
};

CScalar hostScalarOf(const PresNode *P);

/// How arrays of one element type may move between host and wire.
struct ElemImage {
  /// Identical: every scalar lands at the same offset with the same size
  /// and no byte swap, so the array is one `memcpy`.  Reversed: the same,
  /// except that every scalar is byte-swapped and all share SwapWidth,
  /// so the array is one flick_swap_copy_u<8*SwapWidth>.  Differs:
  /// padding, mixed widths, or widened scalars; marshal per element.
  HostImage Match = HostImage::Differs;
  unsigned SwapWidth = 0; ///< the one scalar width when Reversed
  uint64_t Stride = 0;    ///< shared host/wire stride unless Differs
};

/// Walks the wire and host layouts of \p Elem in lockstep and classifies
/// arrays of it under \p L.  An aggregate without a C type is Differs:
/// its block copy could not carry the generated layout static_assert.
ElemImage elemImageOf(const PresNode *Elem, const WireLayout &L);

//===----------------------------------------------------------------------===//
// Memcpy run merging
//===----------------------------------------------------------------------===//
//
// The memcpy pass views a fixed subtree as a list of host-identical leaf
// byte ranges at wire offsets (relative to the subtree start) and merges
// adjacent ranges into maximal runs.  A subtree whose merged runs reduce
// to one run covering the whole wire image, with the host image the same
// size, is "dense bit-identical": the emitter may replace its per-field
// chunk stores with a single block copy without changing any wire byte
// (there is no padding for closeChunk/putWire to zero).

struct MemcpyRun {
  uint64_t Off = 0;   ///< wire offset relative to the subtree start
  uint64_t Bytes = 0; ///< merged length
};

struct MemcpyRuns {
  /// Maximal merged runs in offset order.  Empty when Identical is false.
  std::vector<MemcpyRun> Runs;
  uint64_t WireSize = 0; ///< walkNew-style wire size of the subtree
  uint64_t HostSize = 0; ///< padded host sizeof
  unsigned Leaves = 0;   ///< scalar leaves merged into the runs
  /// False when some leaf is byte-swapped, differently sized, or at a
  /// diverging host offset -- the subtree cannot block-copy at all.
  bool Identical = false;
};

/// Collects and merges the host-identical leaf runs of \p P.
MemcpyRuns memcpyRunsOf(const PresNode *P, const WireLayout &L);

/// True when \p R merged to a single run covering the whole subtree with
/// matching host size -- the precondition for whole-subtree memcpy.
bool denseBitIdentical(const MemcpyRuns &R);

//===----------------------------------------------------------------------===//
// Structural keys
//===----------------------------------------------------------------------===//

/// A stable string fingerprint of a presented type's *structure*: node
/// kinds, printed C types, field/discriminator names, bounds, and
/// allocation semantics, with cycles broken by back-references.  Two
/// nodes with equal keys marshal identically and share one out-of-line
/// helper (shrinking Table 2 object sizes).
std::string presStructureKey(const PresNode *P);

//===----------------------------------------------------------------------===//
// The plan IR
//===----------------------------------------------------------------------===//

/// Analysis record for one sequence item (a top-level parameter or a
/// struct field).  Computed once by buildSeqPlan; passes only read these
/// facts and write strategy flags into the steps.
struct PlanItem {
  const PresNode *Pres = nullptr; ///< null only in synthetic pass tests
  std::string Name;               ///< dump label
  bool Fixed = false;             ///< wire size is static
  uint64_t FixedSize = 0;         ///< walkNew size when Fixed
  unsigned FixedAlign = 1;        ///< max interior alignment when Fixed
  bool Scalar = false;            ///< Prim/Enum
  bool HasUnion = false;          ///< subtree contains a union
  bool Recursive = false;         ///< already on the emission stack
  /// Lowered through an out-of-line helper call (recursive types always;
  /// every non-scalar aggregate unless the inline pass runs).
  bool OutOfLine = false;
  /// Eligible for chunk coalescing (set by the builder for scalars, by
  /// the inline pass for fixed aggregates).
  bool CoalesceOK = false;
  StorageClass Storage = StorageClass::Unbounded;
  uint64_t MaxBytes = 0; ///< bound when Storage != Unbounded
};

enum class StepKind {
  FixedChunk,
  VariableSegment,
  FramingHook,
  TraceHook,
  GatherRef
};

/// Message-framing positions owned by the concrete back end; the plan
/// records where they sit so coalescing never crosses them and the dump
/// shows the full message.
enum class HookKind { RequestHeader, RequestFinish, ReplyHeader, ReplyFinish };

/// Where a decode-side variable segment places unmarshaled storage.
enum class AllocKind { None, Arena, Heap };

/// One item inside a FixedChunk with its precomputed wire window.
struct PlanMember {
  unsigned Item = 0;     ///< index into SeqPlan::Items
  uint64_t WireOff = 0;  ///< chunk offset before this member's first atom
  uint64_t WireSize = 0; ///< bytes this member advances the chunk cursor
  /// Lower the whole member as one block copy (memcpy run-merge pass).
  bool Memcpy = false;
  uint64_t MemcpyBytes = 0;
};

struct MarshalStep {
  StepKind Kind = StepKind::VariableSegment;

  // FixedChunk: one coalesced buffer check + chunk-relative addressing.
  uint64_t Size = 0;  ///< exact bytes before chunk-alignment padding
  unsigned Align = 1; ///< max member alignment (dump/diagnostics)
  std::vector<PlanMember> Members;

  // VariableSegment: per-item lowering through emitValue.
  unsigned Item = 0;
  /// Bounded->fixed promotion: ensure this many bytes once up front, then
  /// marshal with no further space checks (0 = no promotion).
  uint64_t PreEnsureBytes = 0;
  /// Decode side may alias the request buffer instead of copying.
  bool Alias = false;
  AllocKind Alloc = AllocKind::None;

  // FramingHook.
  HookKind Hook = HookKind::RequestHeader;

  // TraceHook (--trace-hooks): lowers to flick_span_begin(kind, label)
  // when TraceBegin, flick_span_end() otherwise.
  bool TraceBegin = false;
  std::string TraceKind;  ///< span-kind enumerator, e.g. "FLICK_SPAN_MARSHAL"
  std::string TraceLabel; ///< span name literal (the plan label)

  // GatherRef (--gather-min-bytes): an encode-side VariableSegment whose
  // dense bulk copies should instead *borrow* the presented storage via
  // flick_buf_ref when at least this many bytes are in play (the emitter
  // keeps the copying path as the small-size / ref-overflow fallback).
  uint64_t GatherMinBytes = 0;
};

/// The plan for one generated function body (or one struct interior).
struct SeqPlan {
  std::string Label; ///< "<op>_encode_request" etc.; empty for interiors
  bool Encode = false;
  bool ServerSide = false;
  std::vector<PlanItem> Items;
  std::vector<MarshalStep> Steps;
};

/// Builds the strategy-neutral plan: analyzes every item and emits one
/// VariableSegment per non-void item (passes introduce chunks and
/// annotations afterwards).  \p Active is the set of nodes currently
/// being emitted (recursion context).  \p Names may be empty or parallel
/// to \p Items.
SeqPlan buildSeqPlan(const std::vector<const PresNode *> &Items,
                     const std::vector<std::string> &Names,
                     const WireLayout &L, bool Encode, bool ServerSide,
                     const std::set<const PresNode *> &Active);

/// Renders the step list as stable text (one line per step, two-space
/// indent) for --dump-marshal-plan and the golden tests.
std::string dumpSeqPlanSteps(const SeqPlan &Plan);

/// Renders a full before/after record: header line, item table, and both
/// step lists.
std::string dumpSeqPlan(const SeqPlan &Before, const SeqPlan &After);

//===----------------------------------------------------------------------===//
// Shared policy predicates
//===----------------------------------------------------------------------===//
//
// The bounded/alias predicates are consulted both by the passes (to
// annotate the plan) and by the emitter (to generate the code), so the
// dumped plan can never drift from the emitted strategy.

/// Bytes to pre-ensure for a bounded variable segment, or 0 when the
/// segment does not qualify under \p Threshold (paper §3.1's 8KB rule;
/// the +16 covers framing slop).
uint64_t boundedPreEnsureBytes(const PresNode *P, const WireLayout &L,
                               uint64_t Threshold);

/// Type-level half of the counted-array alias decision: element bytes are
/// usable in place straight from the wire.
bool aliasableCountedElem(const PresCounted *P, const WireLayout &L);

/// Type-level half of the string alias decision (the wire must carry the
/// NUL for the presented char* to point into the buffer).
bool aliasableString(const PresString *P, const WireLayout &L);

/// True when an encode-side array segment of \p P's elements would lower
/// to a single dense memcpy from presented storage (byte elements, or --
/// when the memcpy pass is on -- host-identical atoms / bit-identical
/// aggregates), i.e. the bulk copy the gather pass can replace with a
/// borrowed reference.
bool gatherableSegment(const PresNode *P, const WireLayout &L, bool MemcpyOn);

} // namespace flick

#endif // FLICK_BACKENDS_MARSHALPLAN_H
