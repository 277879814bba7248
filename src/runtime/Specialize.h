//===- runtime/Specialize.h - Runtime marshal specializer -------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime specializer: compiles an InterpType type program (the
/// dynamic-IDL description the interpreter walks one dispatch per field)
/// into a flat, allocation-free threaded-code program of patched stencil
/// kernels (runtime/Stencils.h) at load time.  The key MarshalPlan
/// analyses rerun here on the type program instead of the compiler IR:
///
///   - adjacent bit-identical scalar fields collapse into single memcpy
///     runs (and endianness-mismatched uniform-width runs into bulk
///     byte-swap runs),
///   - per-field bounds checks hoist into one front-loaded reservation
///     (encode) or bounds check (decode) per fixed-size region,
///   - contiguous fixed arrays merge into their surrounding runs, and
///     counted sequences over dense elements become a single
///     length+bulk-copy kernel.
///
/// Programs are cached keyed by a binary serialization of the wire
/// convention plus the InterpType tree, so marshaling N values of one
/// dynamic type compiles once, and each later lookup costs one walk of the
/// tree with no formatting and no allocation.  Specialized output is
/// byte-identical to the interpreter's (and therefore to the compiled
/// stubs'): the equivalence suite pins this.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_SPECIALIZE_H
#define FLICK_RUNTIME_SPECIALIZE_H

#include "runtime/Interp.h"
#include "runtime/Stencils.h"
#include <string>

namespace flick {

/// A specialized program: the patched encode and decode op arrays plus
/// compile-time facts.  Owned by the program cache; immutable once built.
struct flick_spec_program {
  std::vector<flick_spec_enc_op> Enc;
  std::vector<flick_spec_dec_op> Dec;
  uint64_t Hash = 0;       ///< structural hash of (type tree, wire)
  uint64_t StepsFused = 0; ///< primitive steps fused away at compile time
};

/// Returns the cached specialized program for (\p T, \p W), compiling it
/// on first use.  Returns null when the type program cannot be
/// specialized (unsupported width, excessive nesting, a cyclic tree); the
/// null result is cached too, so callers can retry cheaply and fall back
/// to the interpreter.  Thread-safe; counts spec_programs /
/// spec_compile_ns / spec_cache_hits / spec_steps_fused on the calling
/// thread's metrics.
const flick_spec_program *flick_specialize(const InterpType &T,
                                           const InterpWire &W);

/// Runs a specialized encode/decode.  Wire output and error behavior
/// match flick_interp_encode/decode byte for byte; copy accounting is one
/// bulk copy per call (the same basis as the instrumented interpreter).
int flick_spec_encode(flick_buf *Buf, const flick_spec_program *P,
                      const void *Val);
int flick_spec_decode(flick_buf *Buf, const flick_spec_program *P,
                      void *Val, flick_arena *Ar);

/// The cache key, as binary bytes: the wire convention, then per node a
/// kind tag and the fields that kind uses (offsets, widths, counts,
/// strides) at fixed width, with a struct's field count before its fields
/// and a marker for an absent Elem.  Structurally identical trees, however
/// built, produce the same key and share one program; any other pair of
/// trees produces distinct keys.  A tree nested deeper or larger than the
/// specializer's backstops, a cyclic one included, gets a finite key
/// truncated with a marker, and flick_specialize refuses it.
std::string flick_spec_structural_key(const InterpType &T,
                                      const InterpWire &W);

/// The hash of the structural key that the program cache uses; a compiled
/// program carries it as flick_spec_program::Hash.
uint64_t flick_spec_structural_hash(const InterpType &T,
                                    const InterpWire &W);

/// Cached program count (including cached specialization refusals).
size_t flick_spec_cache_size();

/// Drops every cached program.  For tests and compile-cost benches only:
/// pointers returned by flick_specialize before the clear dangle after it.
void flick_spec_cache_clear();

} // namespace flick

#endif // FLICK_RUNTIME_SPECIALIZE_H
