//===- runtime/Stencils.cpp - Pre-compiled marshal stencil kernels --------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Kernel bodies.  Each kernel reads its holes from the op record, moves
// bytes with raw cursor arithmetic (capacity was reserved / bounds were
// checked by a front-loaded reserve/check op, or the kernel ensures its
// own variable-size region), accumulates the dispatch-avoidance
// accounting, and returns the next op.  Copy accounting is deliberately
// NOT per kernel: flick_spec_encode/decode account one bulk copy per
// call, the same basis the instrumented interpreter uses, so
// copies_per_rpc is comparable across marshal modes.
//
//===----------------------------------------------------------------------===//

#include "runtime/Stencils.h"
#include <cstring>

using namespace flick;

namespace {

template <bool BE> void putU32At(uint8_t *P, uint32_t V) {
  if constexpr (BE)
    flick_enc_u32be(P, V);
  else
    flick_enc_u32le(P, V);
}

template <bool BE> uint32_t getU32At(const uint8_t *P) {
  if constexpr (BE)
    return flick_dec_u32be(P);
  return flick_dec_u32le(P);
}

inline void swapCopy(uint8_t *Dst, const uint8_t *Src, size_t N,
                     unsigned Width) {
  switch (Width) {
  case 2:
    flick_swap_copy_u16(Dst, Src, N);
    break;
  case 4:
    flick_swap_copy_u32(Dst, Src, N);
    break;
  default:
    flick_swap_copy_u64(Dst, Src, N);
    break;
  }
}

//===----------------------------------------------------------------------===//
// Encode kernels
//===----------------------------------------------------------------------===//

template <unsigned HostW, unsigned WireW, bool BE>
const flick_spec_enc_op *encScalar(const flick_spec_enc_op *Op,
                                   flick_spec_enc_ctx &C) {
  uint8_t *P = C.Buf->data + C.Buf->len;
  C.Buf->len += WireW;
  uint64_t V = 0;
  std::memcpy(&V, C.V + Op->A, HostW);
  if constexpr (WireW == 1)
    flick_enc_u8(P, static_cast<uint8_t>(V));
  else if constexpr (WireW == 2) {
    if constexpr (BE)
      flick_enc_u16be(P, static_cast<uint16_t>(V));
    else
      flick_enc_u16le(P, static_cast<uint16_t>(V));
  } else if constexpr (WireW == 4) {
    if constexpr (BE)
      flick_enc_u32be(P, static_cast<uint32_t>(V));
    else
      flick_enc_u32le(P, static_cast<uint32_t>(V));
  } else {
    if constexpr (BE)
      flick_enc_u64be(P, V);
    else
      flick_enc_u64le(P, V);
  }
  C.Covers += Op->Covers;
  ++C.Steps;
  return Op + 1;
}

const flick_spec_enc_op *encMemcpy(const flick_spec_enc_op *Op,
                                   flick_spec_enc_ctx &C) {
  std::memcpy(C.Buf->data + C.Buf->len, C.V + Op->A, Op->B);
  C.Buf->len += Op->B;
  C.Covers += Op->Covers;
  ++C.Steps;
  return Op + 1;
}

template <unsigned Width>
const flick_spec_enc_op *encSwap(const flick_spec_enc_op *Op,
                                 flick_spec_enc_ctx &C) {
  swapCopy(C.Buf->data + C.Buf->len, C.V + Op->A, Op->B, Width);
  C.Buf->len += size_t(Op->B) * Width;
  C.Covers += Op->Covers;
  ++C.Steps;
  return Op + 1;
}

const flick_spec_enc_op *encReserve(const flick_spec_enc_op *Op,
                                    flick_spec_enc_ctx &C) {
  ++C.Steps;
  if (int Err = flick_buf_ensure(C.Buf, Op->A)) {
    C.Err = Err;
    return nullptr;
  }
  return Op + 1;
}

const flick_spec_enc_op *encAlign4(const flick_spec_enc_op *Op,
                                   flick_spec_enc_ctx &C) {
  ++C.Steps;
  if (int Err = flick_buf_align_write(C.Buf, 4)) {
    C.Err = Err;
    return nullptr;
  }
  return Op + 1;
}

template <bool BE, bool Widening>
const flick_spec_enc_op *encCString(const flick_spec_enc_op *Op,
                                    flick_spec_enc_ctx &C) {
  const char *S = *reinterpret_cast<const char *const *>(C.V + Op->A);
  if (!S)
    S = "";
  size_t Len = std::strlen(S);
  size_t WireLen = Len + (Widening ? 0 : 1); // CDR counts the NUL
  if (int Err = flick_buf_ensure(C.Buf, 4 + WireLen + 3)) {
    C.Err = Err;
    return nullptr;
  }
  putU32At<BE>(C.Buf->data + C.Buf->len, static_cast<uint32_t>(WireLen));
  C.Buf->len += 4;
  std::memcpy(C.Buf->data + C.Buf->len, S, WireLen);
  C.Buf->len += WireLen;
  C.Covers += Op->Covers;
  ++C.Steps;
  if constexpr (Widening)
    if (int Err = flick_buf_align_write(C.Buf, 4)) {
      C.Err = Err;
      return nullptr;
    }
  return Op + 1;
}

template <bool BE, unsigned SwapWidth>
const flick_spec_enc_op *encCountedDense(const flick_spec_enc_op *Op,
                                         flick_spec_enc_ctx &C) {
  uint32_t Len;
  std::memcpy(&Len, C.V + Op->A, 4);
  const uint8_t *Base =
      *reinterpret_cast<const uint8_t *const *>(C.V + Op->B);
  size_t Bytes = size_t(Len) * Op->C;
  if (int Err = flick_buf_ensure(C.Buf, 4 + Bytes)) {
    C.Err = Err;
    return nullptr;
  }
  putU32At<BE>(C.Buf->data + C.Buf->len, Len);
  C.Buf->len += 4;
  if (Bytes) {
    if constexpr (SwapWidth == 0)
      std::memcpy(C.Buf->data + C.Buf->len, Base, Bytes);
    else
      swapCopy(C.Buf->data + C.Buf->len, Base, Bytes / SwapWidth,
               SwapWidth);
    C.Buf->len += Bytes;
  }
  C.Covers += 1 + uint64_t(Len) * Op->Covers;
  ++C.Steps;
  return Op + 1;
}

const flick_spec_enc_op *encLoopFixed(const flick_spec_enc_op *Op,
                                      flick_spec_enc_ctx &C) {
  flick_spec_enc_ctx::Frame &F = C.Stack[C.Depth++];
  F.SavedV = C.V;
  F.Cur = C.V + Op->A;
  F.Left = Op->B;
  F.Stride = Op->C;
  C.V = F.Cur;
  C.Covers += Op->Covers;
  ++C.Steps;
  return Op + 1;
}

template <bool BE>
const flick_spec_enc_op *encLoopCounted(const flick_spec_enc_op *Op,
                                        flick_spec_enc_ctx &C) {
  uint32_t Len;
  std::memcpy(&Len, C.V + Op->A, 4);
  if (int Err = flick_buf_ensure(C.Buf, 4)) {
    C.Err = Err;
    return nullptr;
  }
  putU32At<BE>(C.Buf->data + C.Buf->len, Len);
  C.Buf->len += 4;
  C.Covers += Op->Covers;
  ++C.Steps;
  if (!Len)
    return Op + Op->D;
  flick_spec_enc_ctx::Frame &F = C.Stack[C.Depth++];
  F.SavedV = C.V;
  F.Cur = *reinterpret_cast<const uint8_t *const *>(C.V + Op->B);
  F.Left = Len;
  F.Stride = Op->C;
  C.V = F.Cur;
  return Op + 1;
}

const flick_spec_enc_op *encLoopEnd(const flick_spec_enc_op *Op,
                                    flick_spec_enc_ctx &C) {
  ++C.Steps;
  flick_spec_enc_ctx::Frame &F = C.Stack[C.Depth - 1];
  if (--F.Left) {
    F.Cur += F.Stride;
    C.V = F.Cur;
    return Op - Op->D;
  }
  C.V = F.SavedV;
  --C.Depth;
  return Op + 1;
}

const flick_spec_enc_op *encEnd(const flick_spec_enc_op *,
                                flick_spec_enc_ctx &) {
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Decode kernels
//===----------------------------------------------------------------------===//

template <unsigned HostW, unsigned WireW, bool BE>
const flick_spec_dec_op *decScalar(const flick_spec_dec_op *Op,
                                   flick_spec_dec_ctx &C) {
  const uint8_t *P = C.Buf->data + C.Buf->pos;
  C.Buf->pos += WireW;
  uint64_t V;
  if constexpr (WireW == 1)
    V = flick_dec_u8(P);
  else if constexpr (WireW == 2)
    V = BE ? flick_dec_u16be(P) : flick_dec_u16le(P);
  else if constexpr (WireW == 4)
    V = BE ? flick_dec_u32be(P) : flick_dec_u32le(P);
  else
    V = BE ? flick_dec_u64be(P) : flick_dec_u64le(P);
  std::memcpy(C.V + Op->A, &V, HostW);
  C.Covers += Op->Covers;
  ++C.Steps;
  return Op + 1;
}

const flick_spec_dec_op *decMemcpy(const flick_spec_dec_op *Op,
                                   flick_spec_dec_ctx &C) {
  std::memcpy(C.V + Op->A, C.Buf->data + C.Buf->pos, Op->B);
  C.Buf->pos += Op->B;
  C.Covers += Op->Covers;
  ++C.Steps;
  return Op + 1;
}

template <unsigned Width>
const flick_spec_dec_op *decSwap(const flick_spec_dec_op *Op,
                                 flick_spec_dec_ctx &C) {
  swapCopy(C.V + Op->A, C.Buf->data + C.Buf->pos, Op->B, Width);
  C.Buf->pos += size_t(Op->B) * Width;
  C.Covers += Op->Covers;
  ++C.Steps;
  return Op + 1;
}

const flick_spec_dec_op *decCheck(const flick_spec_dec_op *Op,
                                  flick_spec_dec_ctx &C) {
  ++C.Steps;
  if (!flick_buf_check(C.Buf, Op->A)) {
    C.Err = FLICK_ERR_DECODE;
    return nullptr;
  }
  return Op + 1;
}

const flick_spec_dec_op *decAlign4(const flick_spec_dec_op *Op,
                                   flick_spec_dec_ctx &C) {
  ++C.Steps;
  if (int Err = flick_buf_align_read(C.Buf, 4)) {
    C.Err = Err;
    return nullptr;
  }
  return Op + 1;
}

template <bool BE, bool Widening>
const flick_spec_dec_op *decCString(const flick_spec_dec_op *Op,
                                    flick_spec_dec_ctx &C) {
  if (!flick_buf_check(C.Buf, 4)) {
    C.Err = FLICK_ERR_DECODE;
    return nullptr;
  }
  uint32_t WireLen = getU32At<BE>(C.Buf->data + C.Buf->pos);
  C.Buf->pos += 4;
  if (!flick_buf_check(C.Buf, WireLen)) {
    C.Err = FLICK_ERR_DECODE;
    return nullptr;
  }
  char *S = static_cast<char *>(flick_arena_alloc(C.Ar, WireLen + 1));
  if (!S) {
    C.Err = FLICK_ERR_ALLOC;
    return nullptr;
  }
  std::memcpy(S, C.Buf->data + C.Buf->pos, WireLen);
  C.Buf->pos += WireLen;
  S[WireLen] = '\0';
  *reinterpret_cast<char **>(C.V + Op->A) = S;
  C.Covers += Op->Covers;
  ++C.Steps;
  if constexpr (Widening)
    if (int Err = flick_buf_align_read(C.Buf, 4)) {
      C.Err = Err;
      return nullptr;
    }
  return Op + 1;
}

template <bool BE, unsigned SwapWidth>
const flick_spec_dec_op *decCountedDense(const flick_spec_dec_op *Op,
                                         flick_spec_dec_ctx &C) {
  if (!flick_buf_check(C.Buf, 4)) {
    C.Err = FLICK_ERR_DECODE;
    return nullptr;
  }
  uint32_t Len = getU32At<BE>(C.Buf->data + C.Buf->pos);
  C.Buf->pos += 4;
  if (Len > (1u << 28)) {
    C.Err = FLICK_ERR_DECODE;
    return nullptr;
  }
  size_t Bytes = size_t(Len) * Op->C;
  if (!flick_buf_check(C.Buf, Bytes)) {
    C.Err = FLICK_ERR_DECODE;
    return nullptr;
  }
  uint8_t *Base = static_cast<uint8_t *>(
      flick_arena_alloc(C.Ar, (size_t(Len) + 1) * Op->C));
  if (!Base) {
    C.Err = FLICK_ERR_ALLOC;
    return nullptr;
  }
  if (Bytes) {
    if constexpr (SwapWidth == 0)
      std::memcpy(Base, C.Buf->data + C.Buf->pos, Bytes);
    else
      swapCopy(Base, C.Buf->data + C.Buf->pos, Bytes / SwapWidth,
               SwapWidth);
    C.Buf->pos += Bytes;
  }
  std::memcpy(C.V + Op->A, &Len, 4);
  *reinterpret_cast<uint8_t **>(C.V + Op->B) = Base;
  C.Covers += 1 + uint64_t(Len) * Op->Covers;
  ++C.Steps;
  return Op + 1;
}

const flick_spec_dec_op *decLoopFixed(const flick_spec_dec_op *Op,
                                      flick_spec_dec_ctx &C) {
  flick_spec_dec_ctx::Frame &F = C.Stack[C.Depth++];
  F.SavedV = C.V;
  F.Cur = C.V + Op->A;
  F.Left = Op->B;
  F.Stride = Op->C;
  C.V = F.Cur;
  C.Covers += Op->Covers;
  ++C.Steps;
  return Op + 1;
}

template <bool BE>
const flick_spec_dec_op *decLoopCounted(const flick_spec_dec_op *Op,
                                        flick_spec_dec_ctx &C) {
  if (!flick_buf_check(C.Buf, 4)) {
    C.Err = FLICK_ERR_DECODE;
    return nullptr;
  }
  uint32_t Len = getU32At<BE>(C.Buf->data + C.Buf->pos);
  C.Buf->pos += 4;
  // The compiled stubs' rule: no more elements than bytes left, checked
  // before the count sizes an allocation.
  if (Len > (1u << 28) || !flick_buf_check(C.Buf, Len)) {
    C.Err = FLICK_ERR_DECODE;
    return nullptr;
  }
  uint8_t *Base = static_cast<uint8_t *>(
      flick_arena_alloc(C.Ar, (size_t(Len) + 1) * Op->C));
  if (!Base) {
    C.Err = FLICK_ERR_ALLOC;
    return nullptr;
  }
  std::memcpy(C.V + Op->A, &Len, 4);
  *reinterpret_cast<uint8_t **>(C.V + Op->B) = Base;
  C.Covers += Op->Covers;
  ++C.Steps;
  if (!Len)
    return Op + Op->D;
  flick_spec_dec_ctx::Frame &F = C.Stack[C.Depth++];
  F.SavedV = C.V;
  F.Cur = Base;
  F.Left = Len;
  F.Stride = Op->C;
  C.V = F.Cur;
  return Op + 1;
}

const flick_spec_dec_op *decLoopEnd(const flick_spec_dec_op *Op,
                                    flick_spec_dec_ctx &C) {
  ++C.Steps;
  flick_spec_dec_ctx::Frame &F = C.Stack[C.Depth - 1];
  if (--F.Left) {
    F.Cur += F.Stride;
    C.V = F.Cur;
    return Op - Op->D;
  }
  C.V = F.SavedV;
  --C.Depth;
  return Op + 1;
}

const flick_spec_dec_op *decEnd(const flick_spec_dec_op *,
                                flick_spec_dec_ctx &) {
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Selectors
//===----------------------------------------------------------------------===//

flick_spec_enc_fn flick::flick_stencil_enc_scalar(unsigned HostW,
                                                  unsigned WireW,
                                                  bool BigEndian) {
  if (HostW == WireW)
    switch (HostW) {
    case 1:
      return encScalar<1, 1, false>;
    case 2:
      return BigEndian ? encScalar<2, 2, true> : encScalar<2, 2, false>;
    case 4:
      return BigEndian ? encScalar<4, 4, true> : encScalar<4, 4, false>;
    case 8:
      return BigEndian ? encScalar<8, 8, true> : encScalar<8, 8, false>;
    default:
      return nullptr;
    }
  if (WireW != 4)
    return nullptr; // only XDR's widen-to-4 is in the library
  switch (HostW) {
  case 1:
    return BigEndian ? encScalar<1, 4, true> : encScalar<1, 4, false>;
  case 2:
    return BigEndian ? encScalar<2, 4, true> : encScalar<2, 4, false>;
  default:
    return nullptr;
  }
}

flick_spec_dec_fn flick::flick_stencil_dec_scalar(unsigned HostW,
                                                  unsigned WireW,
                                                  bool BigEndian) {
  if (HostW == WireW)
    switch (HostW) {
    case 1:
      return decScalar<1, 1, false>;
    case 2:
      return BigEndian ? decScalar<2, 2, true> : decScalar<2, 2, false>;
    case 4:
      return BigEndian ? decScalar<4, 4, true> : decScalar<4, 4, false>;
    case 8:
      return BigEndian ? decScalar<8, 8, true> : decScalar<8, 8, false>;
    default:
      return nullptr;
    }
  if (WireW != 4)
    return nullptr;
  switch (HostW) {
  case 1:
    return BigEndian ? decScalar<1, 4, true> : decScalar<1, 4, false>;
  case 2:
    return BigEndian ? decScalar<2, 4, true> : decScalar<2, 4, false>;
  default:
    return nullptr;
  }
}

flick_spec_enc_fn flick::flick_stencil_enc_memcpy() { return encMemcpy; }
flick_spec_dec_fn flick::flick_stencil_dec_memcpy() { return decMemcpy; }

flick_spec_enc_fn flick::flick_stencil_enc_swap(unsigned Width) {
  switch (Width) {
  case 2:
    return encSwap<2>;
  case 4:
    return encSwap<4>;
  case 8:
    return encSwap<8>;
  default:
    return nullptr;
  }
}

flick_spec_dec_fn flick::flick_stencil_dec_swap(unsigned Width) {
  switch (Width) {
  case 2:
    return decSwap<2>;
  case 4:
    return decSwap<4>;
  case 8:
    return decSwap<8>;
  default:
    return nullptr;
  }
}

flick_spec_enc_fn flick::flick_stencil_enc_reserve() { return encReserve; }
flick_spec_dec_fn flick::flick_stencil_dec_check() { return decCheck; }
flick_spec_enc_fn flick::flick_stencil_enc_align4() { return encAlign4; }
flick_spec_dec_fn flick::flick_stencil_dec_align4() { return decAlign4; }

flick_spec_enc_fn flick::flick_stencil_enc_cstring(bool BigEndian,
                                                   bool Widening) {
  if (BigEndian)
    return Widening ? encCString<true, true> : encCString<true, false>;
  return Widening ? encCString<false, true> : encCString<false, false>;
}

flick_spec_dec_fn flick::flick_stencil_dec_cstring(bool BigEndian,
                                                   bool Widening) {
  if (BigEndian)
    return Widening ? decCString<true, true> : decCString<true, false>;
  return Widening ? decCString<false, true> : decCString<false, false>;
}

flick_spec_enc_fn flick::flick_stencil_enc_counted_dense(bool BigEndian,
                                                         unsigned SwapWidth) {
  if (BigEndian)
    switch (SwapWidth) {
    case 0:
      return encCountedDense<true, 0>;
    case 2:
      return encCountedDense<true, 2>;
    case 4:
      return encCountedDense<true, 4>;
    case 8:
      return encCountedDense<true, 8>;
    default:
      return nullptr;
    }
  switch (SwapWidth) {
  case 0:
    return encCountedDense<false, 0>;
  case 2:
    return encCountedDense<false, 2>;
  case 4:
    return encCountedDense<false, 4>;
  case 8:
    return encCountedDense<false, 8>;
  default:
    return nullptr;
  }
}

flick_spec_dec_fn flick::flick_stencil_dec_counted_dense(bool BigEndian,
                                                         unsigned SwapWidth) {
  if (BigEndian)
    switch (SwapWidth) {
    case 0:
      return decCountedDense<true, 0>;
    case 2:
      return decCountedDense<true, 2>;
    case 4:
      return decCountedDense<true, 4>;
    case 8:
      return decCountedDense<true, 8>;
    default:
      return nullptr;
    }
  switch (SwapWidth) {
  case 0:
    return decCountedDense<false, 0>;
  case 2:
    return decCountedDense<false, 2>;
  case 4:
    return decCountedDense<false, 4>;
  case 8:
    return decCountedDense<false, 8>;
  default:
    return nullptr;
  }
}

flick_spec_enc_fn flick::flick_stencil_enc_loop_fixed() {
  return encLoopFixed;
}
flick_spec_dec_fn flick::flick_stencil_dec_loop_fixed() {
  return decLoopFixed;
}

flick_spec_enc_fn flick::flick_stencil_enc_loop_counted(bool BigEndian) {
  return BigEndian ? encLoopCounted<true> : encLoopCounted<false>;
}
flick_spec_dec_fn flick::flick_stencil_dec_loop_counted(bool BigEndian) {
  return BigEndian ? decLoopCounted<true> : decLoopCounted<false>;
}

flick_spec_enc_fn flick::flick_stencil_enc_loop_end() { return encLoopEnd; }
flick_spec_dec_fn flick::flick_stencil_dec_loop_end() { return decLoopEnd; }

flick_spec_enc_fn flick::flick_stencil_enc_end() { return encEnd; }
flick_spec_dec_fn flick::flick_stencil_dec_end() { return decEnd; }
