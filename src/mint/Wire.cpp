//===- mint/Wire.cpp - On-the-wire atomic encodings -----------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mint/Wire.h"
#include <algorithm>
#include <bit>
#include <cassert>
#include <set>

using namespace flick;

const char *flick::wireKindName(WireKind K) {
  switch (K) {
  case WireKind::Xdr:
    return "xdr";
  case WireKind::CdrLE:
    return "cdr-le";
  case WireKind::CdrBE:
    return "cdr-be";
  case WireKind::MachTyped:
    return "mach";
  case WireKind::FlukeReg:
    return "fluke";
  }
  return "<bad-wire>";
}

unsigned WireLayout::atomSize(const MintType *T) const {
  switch (T->kind()) {
  case MintType::Kind::Integer: {
    unsigned Bytes = cast<MintInteger>(T)->bits() / 8;
    // XDR hyper stays 8 bytes; everything smaller widens to a 4-byte unit.
    if (K == WireKind::Xdr && Bytes < 4)
      return 4;
    return Bytes;
  }
  case MintType::Kind::Float:
    return cast<MintFloat>(T)->bits() / 8;
  case MintType::Kind::Char:
    return K == WireKind::Xdr ? 4 : 1;
  case MintType::Kind::Boolean:
    return K == WireKind::Xdr ? 4 : 1;
  default:
    assert(false && "atomSize on non-atomic MINT type");
    return 0;
  }
}

unsigned WireLayout::atomAlign(const MintType *T) const {
  if (K == WireKind::Xdr)
    return 4;
  unsigned Size = atomSize(T);
  return Size == 0 ? 1 : Size;
}

bool WireLayout::needsSwap(const MintType *T) const {
  unsigned Size = atomSize(T);
  if (Size <= 1)
    return false;
  constexpr bool HostLittle = std::endian::native == std::endian::little;
  switch (K) {
  case WireKind::Xdr:
  case WireKind::CdrBE:
    return HostLittle;
  case WireKind::CdrLE:
    return !HostLittle;
  case WireKind::MachTyped:
  case WireKind::FlukeReg:
    return false; // host-endian encodings
  }
  return false;
}

HostImage WireLayout::hostImage(const MintType *T) const {
  // XDR widens sub-word integers, chars and bools to 4 bytes, so only its
  // 4- and 8-byte kinds keep their size -- and on a little-endian host
  // those are reversed.  The runtime presents booleans as one byte.
  unsigned HostSize = 1;
  switch (T->kind()) {
  case MintType::Kind::Integer:
    HostSize = cast<MintInteger>(T)->bits() / 8;
    break;
  case MintType::Kind::Float:
    HostSize = cast<MintFloat>(T)->bits() / 8;
    break;
  case MintType::Kind::Char:
  case MintType::Kind::Boolean:
    break;
  default:
    return HostImage::Differs;
  }
  if (atomSize(T) != HostSize)
    return HostImage::Differs;
  return needsSwap(T) ? HostImage::Reversed : HostImage::Identical;
}

std::string WireLayout::primitiveFamily() const {
  switch (K) {
  case WireKind::Xdr:
    return "xdr";
  case WireKind::CdrLE:
  case WireKind::CdrBE:
    return "cdr";
  case WireKind::MachTyped:
    return "mach";
  case WireKind::FlukeReg:
    return "fluke";
  }
  return "bad";
}

namespace {

/// One storage-analysis walk; tracks in-progress nodes so cycles classify
/// as Unbounded instead of recursing forever.
class StorageAnalyzer {
public:
  explicit StorageAnalyzer(const WireLayout &Layout) : Layout(Layout) {}

  StorageInfo analyze(const MintType *T) {
    assert(T && "analyzing null MINT type");
    if (!InProgress.insert(T).second)
      return StorageInfo{StorageClass::Unbounded, 0, 0};
    StorageInfo Info = analyzeNew(T);
    InProgress.erase(T);
    return Info;
  }

private:
  /// Size of one array element including inter-element padding; used for
  /// `count * elemSize` bounds.  Conservatively rounds the element size up
  /// to its own alignment.
  static uint64_t strideOf(const StorageInfo &Elem, uint64_t Align,
                           const WireLayout &Layout) {
    uint64_t S = Elem.MaxBytes;
    S = (S + Align - 1) / Align * Align;
    return Layout.padded(S);
  }

  StorageInfo analyzeNew(const MintType *T) {
    switch (T->kind()) {
    case MintType::Kind::Void:
      return StorageInfo{StorageClass::Fixed, 0, 0};
    case MintType::Kind::Integer:
    case MintType::Kind::Float:
    case MintType::Kind::Char:
    case MintType::Kind::Boolean: {
      uint64_t S = Layout.padded(Layout.atomSize(T));
      return StorageInfo{StorageClass::Fixed, S, S};
    }
    case MintType::Kind::Array: {
      const auto *A = cast<MintArray>(T);
      StorageInfo Elem = analyze(A->elem());
      uint64_t Align = alignOf(A->elem());
      if (A->isFixed()) {
        if (Elem.Class == StorageClass::Fixed) {
          uint64_t S = A->maxLen() * strideOf(Elem, Align, Layout);
          return StorageInfo{StorageClass::Fixed, S, S};
        }
        if (Elem.Class == StorageClass::Bounded)
          return StorageInfo{StorageClass::Bounded,
                             A->minLen() * Elem.MinBytes,
                             A->maxLen() * strideOf(Elem, Align, Layout)};
        return StorageInfo{StorageClass::Unbounded, 0, 0};
      }
      uint64_t LenBytes = Layout.padded(Layout.lengthWordSize());
      if (!A->isBounded() || Elem.Class == StorageClass::Unbounded)
        return StorageInfo{StorageClass::Unbounded,
                           LenBytes + A->minLen() * Elem.MinBytes, 0};
      return StorageInfo{StorageClass::Bounded,
                         LenBytes + A->minLen() * Elem.MinBytes,
                         LenBytes +
                             A->maxLen() * strideOf(Elem, Align, Layout)};
    }
    case MintType::Kind::Struct: {
      const auto *S = cast<MintStruct>(T);
      StorageInfo Out{StorageClass::Fixed, 0, 0};
      for (const MintStructElem &E : S->elems()) {
        StorageInfo Elem = analyze(E.Type);
        if (Elem.Class == StorageClass::Unbounded ||
            Out.Class == StorageClass::Unbounded) {
          Out.Class = StorageClass::Unbounded;
          Out.MinBytes += Elem.MinBytes;
          continue;
        }
        if (Elem.Class == StorageClass::Bounded)
          Out.Class = StorageClass::Bounded;
        // Conservative alignment slack between members.
        uint64_t Align = alignOf(E.Type);
        Out.MinBytes += Elem.MinBytes;
        Out.MaxBytes =
            (Out.MaxBytes + Align - 1) / Align * Align + Elem.MaxBytes;
      }
      return Out;
    }
    case MintType::Kind::Union: {
      const auto *U = cast<MintUnion>(T);
      StorageInfo Disc = analyze(U->disc());
      StorageInfo Out{StorageClass::Fixed, 0, 0};
      bool First = true;
      auto Merge = [&](const StorageInfo &Arm) {
        if (Arm.Class == StorageClass::Unbounded)
          Out.Class = StorageClass::Unbounded;
        else if (Arm.Class == StorageClass::Bounded &&
                 Out.Class == StorageClass::Fixed)
          Out.Class = StorageClass::Bounded;
        Out.MinBytes = First ? Arm.MinBytes
                             : std::min(Out.MinBytes, Arm.MinBytes);
        Out.MaxBytes = std::max(Out.MaxBytes, Arm.MaxBytes);
        First = false;
      };
      for (const MintUnionCase &C : U->cases())
        Merge(analyze(C.Body));
      if (U->defaultBody())
        Merge(analyze(U->defaultBody()));
      if (First)
        Out = StorageInfo{StorageClass::Fixed, 0, 0};
      // Arms of different sizes make the total variable even if each arm is
      // fixed.
      if (Out.Class == StorageClass::Fixed && Out.MinBytes != Out.MaxBytes)
        Out.Class = StorageClass::Bounded;
      Out.MinBytes += Disc.MinBytes;
      Out.MaxBytes += Disc.MaxBytes;
      return Out;
    }
    }
    return StorageInfo{StorageClass::Unbounded, 0, 0};
  }

  uint64_t alignOf(const MintType *T) {
    switch (T->kind()) {
    case MintType::Kind::Integer:
    case MintType::Kind::Float:
    case MintType::Kind::Char:
    case MintType::Kind::Boolean:
      return Layout.atomAlign(T);
    default:
      return Layout.padUnit() > 1 ? Layout.padUnit() : 8;
    }
  }

  const WireLayout &Layout;
  std::set<const MintType *> InProgress;
};

} // namespace

StorageInfo flick::analyzeStorage(const MintType *T,
                                  const WireLayout &Layout) {
  return StorageAnalyzer(Layout).analyze(T);
}
