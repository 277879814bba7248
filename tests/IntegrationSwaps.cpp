//===- tests/IntegrationSwaps.cpp - swap-copy lowering vs per-datum stubs -===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential wire tests for the byte-swapping block copy.  idl/swaps.x
/// is compiled twice: by the XDR back end (SX_), which moves same-width
/// scalar arrays with one flick_swap_copy_u32/u64 call, and by the naive
/// back end (SN_), which moves every datum through its own call.  For
/// counts around the kernel's vector boundaries, every array shape must
/// encode to the same bytes on both sides, each side must decode the
/// other's bytes back to the same values, and a truncated array must fail
/// in the XDR stubs with FLICK_ERR_DECODE before any of it is taken from
/// the buffer.
///
//===----------------------------------------------------------------------===//

#include "it_sn.h"
#include "it_sx.h"
#include <cstring>
#include <gtest/gtest.h>
#include <type_traits>
#include <vector>

// Servants: the tests call the encode/decode helpers directly.
#define FLICK_SWAP_SERVANTS(P)                                                 \
  int P##send_ints_1_svc(const P##ints *) { return 0; }                        \
  int P##send_uints_1_svc(const P##uints *) { return 0; }                      \
  int P##send_colors_1_svc(const P##colors *) { return 0; }                    \
  int P##send_floats_1_svc(const P##floats *) { return 0; }                    \
  int P##send_hypers_1_svc(const P##hypers *) { return 0; }                    \
  int P##send_doubles_1_svc(const P##doubles *) { return 0; }                  \
  int P##send_rects_1_svc(const P##rects *) { return 0; }                      \
  int P##send_tagged_1_svc(const P##taggeds *) { return 0; }                   \
  int P##send_padded_1_svc(const P##paddeds *) { return 0; }                   \
  int P##send_shorts_1_svc(const P##shorts *) { return 0; }
FLICK_SWAP_SERVANTS(SX_)
FLICK_SWAP_SERVANTS(SN_)
#undef FLICK_SWAP_SERVANTS

namespace {

/// ONC RPC call header ahead of the argument; the decode helpers start
/// after it.
constexpr size_t CallHeader = 40;
const uint32_t Counts[] = {0, 1, 7, 8, 9, 1000};

template <typename Seq> auto seqVal(const Seq &S) {
  const auto &[Len, Val] = S;
  (void)Len;
  return Val;
}
template <typename Seq> uint32_t seqLen(const Seq &S) {
  const auto &[Len, Val] = S;
  (void)Val;
  return Len;
}

template <typename Seq>
using ElemOf = std::remove_pointer_t<decltype(seqVal(std::declval<Seq>()))>;

/// One stub set's request helpers for a sequence type.  The XDR stubs
/// decode into the arena; the naive ones malloc and need Free.
template <typename Seq> struct Stubs {
  int (*Encode)(flick_buf *, uint32_t, const Seq *);
  int (*Decode)(flick_buf *, flick_arena *, Seq *);
  void (*Free)(Seq *);
};

template <typename Seq>
Stubs<Seq> stubs(int (*Encode)(flick_buf *, uint32_t, const Seq *),
                 int (*Decode)(flick_buf *, flick_arena *, Seq *),
                 void (*Free)(Seq *) = nullptr) {
  return {Encode, Decode, Free};
}

std::vector<uint8_t> encode(auto Enc, const auto &Seq) {
  flick_buf B;
  flick_buf_init(&B);
  EXPECT_EQ(Enc(&B, 9, &Seq), FLICK_OK);
  std::vector<uint8_t> Out(B.data, B.data + B.len);
  flick_buf_destroy(&B);
  return Out;
}

/// Decodes \p Msg (a whole request) with \p S into \p Out; returns the
/// status and leaves the buffer position in \p Pos.
template <typename Seq>
int decode(const Stubs<Seq> &S, const std::vector<uint8_t> &Msg,
           flick_arena &Ar, Seq &Out, size_t &Pos) {
  flick_buf B;
  flick_buf_init(&B);
  EXPECT_EQ(flick_buf_ensure(&B, Msg.size() + 1), FLICK_OK);
  if (!Msg.empty())
    std::memcpy(flick_buf_grab(&B, Msg.size()), Msg.data(), Msg.size());
  B.pos = CallHeader;
  int Rc = S.Decode(&B, &Ar, &Out);
  Pos = B.pos;
  flick_buf_destroy(&B);
  return Rc;
}

/// Decodes \p Msg with \p S and re-encodes the result with the same
/// stubs: equal bytes mean every value survived.  Byte-exact element
/// images (no padding) are also compared directly.
template <typename Seq>
void expectDecodes(const Stubs<Seq> &S, const std::vector<uint8_t> &Msg,
                   const void *Want, uint32_t N, const char *Side) {
  using Elem = ElemOf<Seq>;
  flick_arena Ar{};
  Seq Out{};
  size_t Pos = 0;
  ASSERT_EQ(decode(S, Msg, Ar, Out, Pos), FLICK_OK) << Side;
  EXPECT_EQ(Pos, Msg.size()) << Side;
  ASSERT_EQ(seqLen(Out), N) << Side;
  if constexpr (std::has_unique_object_representations_v<Elem> ||
                std::is_floating_point_v<Elem>) {
    if (N) {
      EXPECT_EQ(std::memcmp(seqVal(Out), Want, N * sizeof(Elem)), 0) << Side;
    }
  }
  EXPECT_EQ(encode(S.Encode, Out), Msg) << Side << " re-encode";
  if (S.Free)
    S.Free(&Out);
  flick_arena_destroy(&Ar);
}

/// The whole differential check for one array shape; \p Make gives the
/// optimized stubs' I-th element.
template <typename XSeq, typename NSeq>
void checkShape(Stubs<XSeq> X, Stubs<NSeq> N,
                ElemOf<XSeq> (*Make)(uint32_t)) {
  using XElem = ElemOf<XSeq>;
  using NElem = ElemOf<NSeq>;
  static_assert(sizeof(XElem) == sizeof(NElem));
  for (uint32_t Count : Counts) {
    SCOPED_TRACE(::testing::Message() << "count " << Count);
    std::vector<XElem> XV(Count);
    for (uint32_t I = 0; I != Count; ++I)
      XV[I] = Make(I);
    std::vector<NElem> NV(Count);
    if (Count)
      std::memcpy(static_cast<void *>(NV.data()), XV.data(),
                  Count * sizeof(XElem));
    // Empty arrays present a null buffer, as CORBA and rpcgen callers do.
    XSeq XS{Count, Count ? XV.data() : nullptr};
    NSeq NS{Count, Count ? NV.data() : nullptr};

    std::vector<uint8_t> XBytes = encode(X.Encode, XS);
    std::vector<uint8_t> NBytes = encode(N.Encode, NS);
    ASSERT_EQ(XBytes, NBytes);
    ASSERT_EQ(XBytes.size() % 4, 0u);

    expectDecodes(X, NBytes, XV.data(), Count, "optimized decodes naive");
    expectDecodes(N, XBytes, XV.data(), Count, "naive decodes optimized");

    if (!Count)
      continue;
    // Cut inside the array and at its last byte: the whole-array check
    // fails before the array is taken, leaving the position just past
    // the length word.  (The naive decoder is not run here: it leaks its
    // partly filled array on this error path.)
    size_t Data = CallHeader + 4;
    for (size_t Cut : {Data + 1, XBytes.size() - 1}) {
      std::vector<uint8_t> Short(XBytes.begin(), XBytes.begin() + Cut);
      flick_arena Ar{};
      XSeq XOut{};
      size_t Pos = 0;
      EXPECT_EQ(decode(X, Short, Ar, XOut, Pos), FLICK_ERR_DECODE)
          << "cut at " << Cut;
      EXPECT_EQ(Pos, Data) << "cut at " << Cut;
      flick_arena_destroy(&Ar);
    }
  }
}

// Hashes spread the elements over all byte values.
uint32_t mix(uint32_t I) { return I * 2654435761u + 0x9E3779B9u; }

TEST(SwapWire, IntArrays) {
  auto X = stubs(SX_send_ints_1_encode_request, SX_send_ints_1_decode_request);
  auto N = stubs(SN_send_ints_1_encode_request, SN_send_ints_1_decode_request,
                 SN_ints_flick_free);
  checkShape(X, N, +[](uint32_t I) { return int32_t(mix(I)); });
}

TEST(SwapWire, UnsignedArrays) {
  auto X = stubs(SX_send_uints_1_encode_request,
                 SX_send_uints_1_decode_request);
  auto N = stubs(SN_send_uints_1_encode_request, SN_send_uints_1_decode_request,
                 SN_uints_flick_free);
  checkShape(X, N, +[](uint32_t I) { return mix(I); });
}

TEST(SwapWire, EnumArrays) {
  auto X = stubs(SX_send_colors_1_encode_request,
                 SX_send_colors_1_decode_request);
  auto N = stubs(SN_send_colors_1_encode_request,
                 SN_send_colors_1_decode_request, SN_colors_flick_free);
  checkShape(X, N, +[](uint32_t I) { return SX_color(1 + mix(I) % 3); });
}

TEST(SwapWire, FloatArrays) {
  auto X = stubs(SX_send_floats_1_encode_request,
                 SX_send_floats_1_decode_request);
  auto N = stubs(SN_send_floats_1_encode_request,
                 SN_send_floats_1_decode_request, SN_floats_flick_free);
  checkShape(X, N, +[](uint32_t I) { return float(int32_t(mix(I))) / 7.0f; });
}

TEST(SwapWire, HyperArrays) {
  auto X = stubs(SX_send_hypers_1_encode_request,
                 SX_send_hypers_1_decode_request);
  auto N = stubs(SN_send_hypers_1_encode_request,
                 SN_send_hypers_1_decode_request, SN_hypers_flick_free);
  checkShape(X, N, +[](uint32_t I) {
    return int64_t(uint64_t(mix(I)) << 32 | mix(I + 1));
  });
}

TEST(SwapWire, DoubleArrays) {
  auto X = stubs(SX_send_doubles_1_encode_request,
                 SX_send_doubles_1_decode_request);
  auto N = stubs(SN_send_doubles_1_encode_request,
                 SN_send_doubles_1_decode_request, SN_doubles_flick_free);
  checkShape(X, N, +[](uint32_t I) { return double(int32_t(mix(I))) / 3.0; });
}

TEST(SwapWire, RectArrays) {
  auto X = stubs(SX_send_rects_1_encode_request,
                 SX_send_rects_1_decode_request);
  auto N = stubs(SN_send_rects_1_encode_request, SN_send_rects_1_decode_request,
                 SN_rects_flick_free);
  checkShape(X, N, +[](uint32_t I) {
    return SX_rect{int32_t(mix(4 * I)), int32_t(mix(4 * I + 1)),
                   int32_t(mix(4 * I + 2)), int32_t(mix(4 * I + 3))};
  });
}

TEST(SwapWire, IntArrayBesideOpaqueInsideStruct) {
  auto X = stubs(SX_send_tagged_1_encode_request,
                 SX_send_tagged_1_decode_request);
  auto N = stubs(SN_send_tagged_1_encode_request,
                 SN_send_tagged_1_decode_request, SN_taggeds_flick_free);
  checkShape(X, N, +[](uint32_t I) {
    SX_tagged T;
    for (uint32_t J = 0; J != 30; ++J)
      T.w[J] = int32_t(mix(30 * I + J));
    for (uint32_t J = 0; J != 16; ++J)
      T.tag[J] = uint8_t(mix(16 * I + J) >> 24);
    return T;
  });
}

TEST(SwapWire, PaddedStructsKeepTheLoop) {
  auto X = stubs(SX_send_padded_1_encode_request,
                 SX_send_padded_1_decode_request);
  auto N = stubs(SN_send_padded_1_encode_request,
                 SN_send_padded_1_decode_request, SN_paddeds_flick_free);
  checkShape(X, N, +[](uint32_t I) {
    SX_padded P{};
    P.a = int32_t(mix(2 * I));
    P.b = int64_t(uint64_t(mix(2 * I + 1)) << 31);
    return P;
  });
}

TEST(SwapWire, WidenedShortsKeepTheLoop) {
  auto X = stubs(SX_send_shorts_1_encode_request,
                 SX_send_shorts_1_decode_request);
  auto N = stubs(SN_send_shorts_1_encode_request,
                 SN_send_shorts_1_decode_request, SN_shorts_flick_free);
  checkShape(X, N, +[](uint32_t I) { return int16_t(mix(I) >> 16); });
}

} // namespace
