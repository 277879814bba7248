//===- runtime/Interp.cpp - Interpretive marshaler baseline ---------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/Interp.h"
#include "runtime/Specialize.h"
#include <cstring>

using namespace flick;

InterpType InterpType::scalar(size_t Off, unsigned Width, bool IsFloat) {
  InterpType T;
  T.K = Kind::Scalar;
  T.Offset = Off;
  T.Width = Width;
  T.IsFloat = IsFloat;
  return T;
}

InterpType InterpType::bytes(size_t Off, size_t Count) {
  InterpType T;
  T.K = Kind::Bytes;
  T.Offset = Off;
  T.Count = Count;
  return T;
}

InterpType InterpType::cstring(size_t Off) {
  InterpType T;
  T.K = Kind::CString;
  T.Offset = Off;
  return T;
}

InterpType InterpType::structOf(std::vector<InterpType> Fields) {
  InterpType T;
  T.K = Kind::Struct;
  T.Fields = std::move(Fields);
  return T;
}

InterpType InterpType::fixedArray(size_t Off, const InterpType *Elem,
                                  size_t Count, size_t HostStride) {
  InterpType T;
  T.K = Kind::FixedArray;
  T.Offset = Off;
  T.Elem = Elem;
  T.Count = Count;
  T.HostStride = HostStride;
  return T;
}

InterpType InterpType::counted(size_t LenOff, size_t BufOff,
                               const InterpType *Elem, size_t HostStride) {
  InterpType T;
  T.K = Kind::Counted;
  T.LenOffset = LenOff;
  T.BufOffset = BufOff;
  T.Elem = Elem;
  T.HostStride = HostStride;
  return T;
}

namespace {

unsigned wireWidth(const InterpWire &W, unsigned Width) {
  return W.XdrWidening && Width < 4 ? 4 : Width;
}

int putScalar(flick_buf *B, const InterpWire &W, unsigned Width,
              const uint8_t *Src) {
  unsigned WW = wireWidth(W, Width);
  if (int Err = flick_buf_ensure(B, WW))
    return Err;
  uint8_t *P = flick_buf_grab_raw(B, WW);
  uint64_t V = 0;
  std::memcpy(&V, Src, Width);
  // Sign extension is unnecessary: decode truncates back to Width.
  switch (WW) {
  case 1:
    flick_enc_u8(P, static_cast<uint8_t>(V));
    break;
  case 2:
    if (W.BigEndian)
      flick_enc_u16be(P, static_cast<uint16_t>(V));
    else
      flick_enc_u16le(P, static_cast<uint16_t>(V));
    break;
  case 4:
    if (W.BigEndian)
      flick_enc_u32be(P, static_cast<uint32_t>(V));
    else
      flick_enc_u32le(P, static_cast<uint32_t>(V));
    break;
  default:
    if (W.BigEndian)
      flick_enc_u64be(P, V);
    else
      flick_enc_u64le(P, V);
    break;
  }
  return FLICK_OK;
}

int getScalar(flick_buf *B, const InterpWire &W, unsigned Width,
              uint8_t *Dst) {
  unsigned WW = wireWidth(W, Width);
  if (!flick_buf_check(B, WW))
    return FLICK_ERR_DECODE;
  const uint8_t *P = flick_buf_take_raw(B, WW);
  uint64_t V = 0;
  switch (WW) {
  case 1:
    V = flick_dec_u8(P);
    break;
  case 2:
    V = W.BigEndian ? flick_dec_u16be(P) : flick_dec_u16le(P);
    break;
  case 4:
    V = W.BigEndian ? flick_dec_u32be(P) : flick_dec_u32le(P);
    break;
  default:
    V = W.BigEndian ? flick_dec_u64be(P) : flick_dec_u64le(P);
    break;
  }
  std::memcpy(Dst, &V, Width);
  return FLICK_OK;
}

int putU32(flick_buf *B, const InterpWire &W, uint32_t V) {
  return putScalar(B, W, 4, reinterpret_cast<const uint8_t *>(&V));
}

int getU32(flick_buf *B, const InterpWire &W, uint32_t *V) {
  return getScalar(B, W, 4, reinterpret_cast<uint8_t *>(V));
}

int pad4(flick_buf *B, const InterpWire &W, bool Encode) {
  if (!W.XdrWidening)
    return FLICK_OK;
  return Encode ? flick_buf_align_write(B, 4) : flick_buf_align_read(B, 4);
}

// The recursive cores use the raw (non-accounting) cursor ops; the public
// entry points charge bytes_copied/copy_ops once per call so
// copies_per_rpc is on the same basis as compiled stubs and the
// specializer.

int encodeNode(flick_buf *Buf, const InterpType &T, const void *Val,
               const InterpWire &W) {
  flick_metric_add(&flick_metrics::interp_encodes, 1);
  flick_metric_add(&flick_metrics::interp_dispatches, 1);
  const uint8_t *V = static_cast<const uint8_t *>(Val);
  switch (T.K) {
  case InterpType::Kind::Scalar:
    return putScalar(Buf, W, T.Width, V + T.Offset);
  case InterpType::Kind::Bytes: {
    if (int Err = flick_buf_ensure(Buf, T.Count))
      return Err;
    std::memcpy(flick_buf_grab_raw(Buf, T.Count), V + T.Offset, T.Count);
    return pad4(Buf, W, true);
  }
  case InterpType::Kind::CString: {
    const char *S = *reinterpret_cast<const char *const *>(V + T.Offset);
    if (!S)
      S = "";
    size_t Len = std::strlen(S);
    size_t WireLen = Len + (W.XdrWidening ? 0 : 1); // CDR counts the NUL
    if (int Err = putU32(Buf, W, static_cast<uint32_t>(WireLen)))
      return Err;
    if (int Err = flick_buf_ensure(Buf, WireLen))
      return Err;
    std::memcpy(flick_buf_grab_raw(Buf, WireLen), S, WireLen);
    return pad4(Buf, W, true);
  }
  case InterpType::Kind::Struct:
    for (const InterpType &F : T.Fields)
      if (int Err = encodeNode(Buf, F, V, W))
        return Err;
    return FLICK_OK;
  case InterpType::Kind::FixedArray: {
    const uint8_t *Base = V + T.Offset;
    for (size_t I = 0; I != T.Count; ++I)
      if (int Err = encodeNode(Buf, *T.Elem, Base + I * T.HostStride, W))
        return Err;
    return FLICK_OK;
  }
  case InterpType::Kind::Counted: {
    uint32_t Len;
    std::memcpy(&Len, V + T.LenOffset, 4);
    const uint8_t *Base =
        *reinterpret_cast<const uint8_t *const *>(V + T.BufOffset);
    if (int Err = putU32(Buf, W, Len))
      return Err;
    for (uint32_t I = 0; I != Len; ++I)
      if (int Err = encodeNode(Buf, *T.Elem, Base + I * T.HostStride, W))
        return Err;
    return FLICK_OK;
  }
  }
  return FLICK_ERR_DECODE;
}

/// Decodes \p T, which sits \p Depth nodes deep (the root is 1).
int decodeNode(flick_buf *Buf, const InterpType &T, void *Val,
               const InterpWire &W, flick_arena *Ar, unsigned Depth) {
  if (Depth > FLICK_INTERP_MAX_NEST)
    return FLICK_ERR_DECODE;
  flick_metric_add(&flick_metrics::interp_decodes, 1);
  flick_metric_add(&flick_metrics::interp_dispatches, 1);
  uint8_t *V = static_cast<uint8_t *>(Val);
  switch (T.K) {
  case InterpType::Kind::Scalar:
    return getScalar(Buf, W, T.Width, V + T.Offset);
  case InterpType::Kind::Bytes: {
    if (!flick_buf_check(Buf, T.Count))
      return FLICK_ERR_DECODE;
    std::memcpy(V + T.Offset, flick_buf_take_raw(Buf, T.Count), T.Count);
    return pad4(Buf, W, false);
  }
  case InterpType::Kind::CString: {
    uint32_t WireLen;
    if (int Err = getU32(Buf, W, &WireLen))
      return Err;
    if (!flick_buf_check(Buf, WireLen))
      return FLICK_ERR_DECODE;
    char *S = static_cast<char *>(flick_arena_alloc(Ar, WireLen + 1));
    if (!S)
      return FLICK_ERR_ALLOC;
    std::memcpy(S, flick_buf_take_raw(Buf, WireLen), WireLen);
    S[WireLen] = '\0';
    *reinterpret_cast<char **>(V + T.Offset) = S;
    return pad4(Buf, W, false);
  }
  case InterpType::Kind::Struct:
    for (const InterpType &F : T.Fields)
      if (int Err = decodeNode(Buf, F, V, W, Ar, Depth + 1))
        return Err;
    return FLICK_OK;
  case InterpType::Kind::FixedArray: {
    uint8_t *Base = V + T.Offset;
    for (size_t I = 0; I != T.Count; ++I)
      if (int Err = decodeNode(Buf, *T.Elem, Base + I * T.HostStride, W, Ar,
                               Depth + 1))
        return Err;
    return FLICK_OK;
  }
  case InterpType::Kind::Counted: {
    uint32_t Len;
    if (int Err = getU32(Buf, W, &Len))
      return Err;
    // The compiled stubs' rule: no more elements than bytes left, checked
    // before the count sizes an allocation.
    if (Len > (1u << 28) || !flick_buf_check(Buf, Len))
      return FLICK_ERR_DECODE;
    uint8_t *Base = static_cast<uint8_t *>(
        flick_arena_alloc(Ar, (size_t(Len) + 1) * T.HostStride));
    if (!Base)
      return FLICK_ERR_ALLOC;
    for (uint32_t I = 0; I != Len; ++I)
      if (int Err = decodeNode(Buf, *T.Elem, Base + I * T.HostStride, W, Ar,
                               Depth + 1))
        return Err;
    std::memcpy(V + T.LenOffset, &Len, 4);
    *reinterpret_cast<uint8_t **>(V + T.BufOffset) = Base;
    return FLICK_OK;
  }
  }
  return FLICK_ERR_DECODE;
}

} // namespace

int flick::flick_interp_encode(flick_buf *Buf, const InterpType &T,
                               const void *Val, const InterpWire &W,
                               bool Specialize) {
  if (Specialize)
    if (const flick_spec_program *P = flick_specialize(T, W))
      return flick_spec_encode(Buf, P, Val);
  size_t Len0 = Buf->len;
  int Err = encodeNode(Buf, T, Val, W);
  if (flick_metrics_active) {
    flick_metrics_active->bytes_copied += Buf->len - Len0;
    ++flick_metrics_active->copy_ops;
  }
  return Err;
}

int flick::flick_interp_decode(flick_buf *Buf, const InterpType &T,
                               void *Val, const InterpWire &W,
                               flick_arena *Ar, bool Specialize) {
  if (Specialize)
    if (const flick_spec_program *P = flick_specialize(T, W))
      return flick_spec_decode(Buf, P, Val, Ar);
  size_t Pos0 = Buf->pos;
  int Err = decodeNode(Buf, T, Val, W, Ar, 1);
  if (flick_metrics_active) {
    flick_metrics_active->bytes_copied += Buf->pos - Pos0;
    ++flick_metrics_active->copy_ops;
  }
  return Err;
}
