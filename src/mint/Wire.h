//===- mint/Wire.h - On-the-wire atomic encodings ---------------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The encoding layer *below* MINT (paper Figure 2): how each atomic MINT
/// type is laid out in message bytes for a given protocol.  Back ends and
/// the storage analysis consult a WireLayout to size message segments, to
/// decide when a host-format `memcpy` is legal, and to pick the inline
/// runtime primitive to call for each datum.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_MINT_WIRE_H
#define FLICK_MINT_WIRE_H

#include "mint/Mint.h"
#include <string>

namespace flick {

/// The message data encodings supported by the back ends.
enum class WireKind {
  /// RFC 1832 XDR: big-endian, every item padded to 4 bytes, bool is a
  /// 4-byte word, strings are counted *without* the NUL.
  Xdr,
  /// CORBA CDR, little-endian variant: natural alignment (1/2/4/8),
  /// strings counted *including* the NUL.
  CdrLE,
  /// CORBA CDR, big-endian variant.
  CdrBE,
  /// Mach 3 typed messages: host-endian data preceded by type descriptor
  /// words; 4-byte alignment.
  MachTyped,
  /// Fluke kernel IPC: host-endian packed words; the first register-file
  /// words of a message travel in "registers".
  FlukeReg,
};

/// Returns a stable lowercase name ("xdr", "cdr-le", ...).
const char *wireKindName(WireKind K);

/// How an atom's encoded bytes relate to its host in-memory bytes.
enum class HostImage {
  /// Bit-identical: arrays may be copied with `memcpy` (paper §3.2).
  Identical,
  /// Same size, opposite byte order: arrays may be copied with a
  /// byte-swapping block copy.
  Reversed,
  /// Widened or otherwise re-encoded: each value needs its own conversion.
  Differs,
};

/// Byte-level layout rules for one encoding.  All queries are per atomic
/// MINT type; aggregates are laid out by concatenation with alignment.
class WireLayout {
public:
  explicit WireLayout(WireKind K) : K(K) {}

  WireKind kind() const { return K; }

  /// Encoded size in bytes of one atomic value (Integer/Float/Char/Bool).
  unsigned atomSize(const MintType *T) const;

  /// Required alignment (relative to message start) of an atomic value.
  unsigned atomAlign(const MintType *T) const;

  /// How the encoded representation of \p T relates to the host's
  /// in-memory one.  Depends on host endianness.
  HostImage hostImage(const MintType *T) const;

  /// True when arrays of \p T may be copied with `memcpy`.
  bool hostIdentical(const MintType *T) const {
    return hostImage(T) == HostImage::Identical;
  }

  /// Size in bytes of an array/string length word.
  unsigned lengthWordSize() const { return 4; }

  /// True when string length counts include the terminating NUL (CDR).
  bool stringCountsNul() const { return K == WireKind::CdrLE ||
                                        K == WireKind::CdrBE; }

  /// Granularity every marshaled item is padded to (XDR: 4; others: 1,
  /// meaning only natural alignment applies).
  unsigned padUnit() const { return K == WireKind::Xdr ? 4 : 1; }

  /// True when multi-byte values must be byte-swapped on this host.
  bool needsSwap(const MintType *T) const;

  /// Rounds \p Size up to this encoding's pad unit.
  uint64_t padded(uint64_t Size) const {
    unsigned U = padUnit();
    return (Size + U - 1) / U * U;
  }

  /// Name of the runtime primitive family ("xdr", "cdr", "mach", "fluke");
  /// generated code calls e.g. `flick_<family>_encode_u32`.
  std::string primitiveFamily() const;

private:
  WireKind K;
};

//===----------------------------------------------------------------------===//
// Storage analysis (paper §3.1, "Marshal Buffer Management")
//===----------------------------------------------------------------------===//

/// Classification of a message region's encoded size.
enum class StorageClass {
  /// Size is a compile-time constant.
  Fixed,
  /// Size varies but has a static upper bound.
  Bounded,
  /// No static upper bound.
  Unbounded,
};

/// Result of analyzing one MINT subtree under a WireLayout.
struct StorageInfo {
  StorageClass Class = StorageClass::Fixed;
  /// Exact size when Fixed; minimum size otherwise.  Conservative: element
  /// sizes are rounded up to their alignment, so this is an upper bound on
  /// the exact fixed size and safe for buffer pre-allocation.
  uint64_t MinBytes = 0;
  /// Upper bound when Fixed or Bounded; meaningless when Unbounded.
  uint64_t MaxBytes = 0;
};

/// Computes the storage classification of \p T encoded with \p Layout.
/// Recursive types (cycles) are classified Unbounded.
StorageInfo analyzeStorage(const MintType *T, const WireLayout &Layout);

} // namespace flick

#endif // FLICK_MINT_WIRE_H
