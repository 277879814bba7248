//===- runtime/Interp.h - Interpretive marshaler baseline -------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A type-program interpreter in the style of ILU and the SunSoft IIOP
/// engine (paper §5): instead of compiled stubs, a runtime walks a
/// description of the C type -- one dynamic dispatch per field -- and
/// converts to/from wire format.  This is the "interpreted stubs" point in
/// the design space that Figure 3's ORBeline/ILU rows represent.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_INTERP_H
#define FLICK_RUNTIME_INTERP_H

#include "runtime/flick_runtime.h"
#include <cstddef>
#include <vector>

namespace flick {

/// A node in the type program.  Offsets are into the presented C value.
struct InterpType {
  enum class Kind {
    Scalar,     ///< integer/float of Width bytes at Offset
    Bytes,      ///< Count raw bytes at Offset (char/octet arrays)
    Struct,     ///< fields at offsets
    FixedArray, ///< Count elements of Elem, HostStride apart
    Counted,    ///< {u32 len at LenOffset; T *buf at BufOffset}
    CString,    ///< NUL-terminated char* at Offset
  };

  Kind K = Kind::Scalar;
  size_t Offset = 0;

  // Scalar
  unsigned Width = 4;      ///< 1/2/4/8
  bool IsFloat = false;

  // Bytes / FixedArray / Counted
  size_t Count = 0;
  size_t HostStride = 0;
  const InterpType *Elem = nullptr;

  // Struct
  std::vector<InterpType> Fields;

  // Counted
  size_t LenOffset = 0;
  size_t BufOffset = 0;

  // --- convenience constructors ---
  static InterpType scalar(size_t Off, unsigned Width, bool IsFloat = false);
  static InterpType bytes(size_t Off, size_t Count);
  static InterpType cstring(size_t Off);
  static InterpType structOf(std::vector<InterpType> Fields);
  static InterpType fixedArray(size_t Off, const InterpType *Elem,
                               size_t Count, size_t HostStride);
  static InterpType counted(size_t LenOff, size_t BufOff,
                            const InterpType *Elem, size_t HostStride);
};

/// Decode nesting limit: the interpreter follows at most this many nested
/// nodes, the root counting as one, and fails deeper input with
/// FLICK_ERR_DECODE instead of exhausting the stack.  Only a recursive
/// type (an Elem leading back to an enclosing node) nests this deep, so
/// for it the limit bounds how deeply a decoded value may nest.
enum { FLICK_INTERP_MAX_NEST = 1024 };

/// Wire conventions for the interpreter.
struct InterpWire {
  bool BigEndian = true;   ///< XDR; false = CDR-LE
  bool XdrWidening = true; ///< pad every item to 4 bytes (XDR)
};

/// Encodes the C value \p Val described by \p T into \p Buf.  With
/// \p Specialize set, routes through the runtime specializer
/// (runtime/Specialize.h): the type program is compiled to threaded code
/// on first use and cached; unspecializable trees fall back to the
/// interpreter transparently.  Wire output is byte-identical either way.
int flick_interp_encode(flick_buf *Buf, const InterpType &T,
                        const void *Val, const InterpWire &W,
                        bool Specialize = false);

/// Decodes from \p Buf into the C value \p Val (pointer members are heap
/// allocated, or arena-allocated when \p Ar is non-null).  A counted
/// sequence may claim no more elements than there are bytes left (checked
/// before its array is allocated), and a value may nest at most
/// FLICK_INTERP_MAX_NEST nodes deep; other input fails with
/// FLICK_ERR_DECODE.  \p Specialize as for flick_interp_encode.
int flick_interp_decode(flick_buf *Buf, const InterpType &T, void *Val,
                        const InterpWire &W, flick_arena *Ar,
                        bool Specialize = false);

} // namespace flick

#endif // FLICK_RUNTIME_INTERP_H
