//===- perfbench/src/Values.h - The paper's evaluation values ---*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded values of the paper's section 4 workloads (int arrays, rect
/// arrays, 256-byte directory entries), kept in a form independent of any
/// stub family, plus their presentation through each generated family:
/// XDR (rpcgen presentation, F_ prefix), CDR (CORBA presentation, C_) and
/// CDR with the gather pass (G_).  Family traits give the workloads one
/// spelling for the three stub sets, and the equality and checksum
/// helpers here are the benchmark's own references.
///
/// RPC payloads carry an operation id and a checksum in their first words
/// (ints: words 0 and 1; rects: the first rect's min corner; dirents: the
/// first entry's info words 0 and 1), so the server's work functions can
/// verify every payload they receive.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_VALUES_H
#define PERFBENCH_VALUES_H

#include "Common.h"
#include "pb_cdr.h"
#include "pb_gather.h"
#include "pb_xdr.h"
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace pb {

enum class Kind { Ints, Rects, Dirents };

inline const char *kindName(Kind K) {
  return K == Kind::Ints ? "ints" : K == Kind::Rects ? "rects" : "dirents";
}

/// Characters of a dirent name: with the 4-byte length word and the
/// 136-byte stat block, one entry is 256 bytes of XDR.
constexpr size_t DirentNameLen = 116;
constexpr size_t DirentBytes = 256;

/// A value as the generator made it, before any presentation.
struct Raw {
  Kind K = Kind::Ints;
  uint32_t N = 0;      ///< elements
  size_t Payload = 0;  ///< presented bytes (4, 16 or 256 per element)
  std::vector<int32_t> Words;     ///< ints: N; rects: 4N (min x, y, max x, y)
  std::vector<std::string> Names; ///< dirents
  std::vector<uint32_t> Info;     ///< dirents: 30 per entry
  std::vector<uint8_t> Tags;      ///< dirents: 16 per entry
};

/// A value of about \p Bytes presented bytes (at least one element, and
/// at least two ints so the RPC id/checksum words fit).
Raw makeRaw(Rng &R, Kind K, size_t Bytes);

/// The RPC checksum of \p V's content outside the id/checksum words.
uint32_t rawChecksum(const Raw &V);

/// The XDR body of an int array as the benchmark encodes it itself:
/// big-endian length, then big-endian elements.
std::vector<uint8_t> xdrIntsReference(const Raw &V);

//===----------------------------------------------------------------------===//
// Stub families
//===----------------------------------------------------------------------===//

/// ONC RPC / XDR stubs (rpcgen presentation).
struct XdrFamily {
  using IntSeq = F_intseq;
  using RectSeq = F_rectseq;
  using DirentSeq = F_direntseq;
  using Rect = F_rect;
  using Dirent = F_dirent;

  static void set(IntSeq &S, uint32_t N, int32_t *P) {
    S.intseq_len = N;
    S.intseq_val = P;
  }
  static void set(RectSeq &S, uint32_t N, Rect *P) {
    S.rectseq_len = N;
    S.rectseq_val = P;
  }
  static void set(DirentSeq &S, uint32_t N, Dirent *P) {
    S.direntseq_len = N;
    S.direntseq_val = P;
  }
  static uint32_t len(const IntSeq &S) { return S.intseq_len; }
  static uint32_t len(const RectSeq &S) { return S.rectseq_len; }
  static uint32_t len(const DirentSeq &S) { return S.direntseq_len; }
  static const int32_t *at(const IntSeq &S) { return S.intseq_val; }
  static const Rect *at(const RectSeq &S) { return S.rectseq_val; }
  static const Dirent *at(const DirentSeq &S) { return S.direntseq_val; }

  static int encode(flick_buf *B, uint32_t Xid, const IntSeq *S) {
    return F_send_ints_1_encode_request(B, Xid, S);
  }
  static int encode(flick_buf *B, uint32_t Xid, const RectSeq *S) {
    return F_send_rects_1_encode_request(B, Xid, S);
  }
  static int encode(flick_buf *B, uint32_t Xid, const DirentSeq *S) {
    return F_send_dirents_1_encode_request(B, Xid, S);
  }
  static int decode(flick_buf *B, flick_arena *A, IntSeq *S) {
    return F_send_ints_1_decode_request(B, A, S);
  }
  static int decode(flick_buf *B, flick_arena *A, RectSeq *S) {
    return F_send_rects_1_decode_request(B, A, S);
  }
  static int decode(flick_buf *B, flick_arena *A, DirentSeq *S) {
    return F_send_dirents_1_decode_request(B, A, S);
  }
  static int decodeReply(flick_buf *B, Kind K) {
    return K == Kind::Ints    ? F_send_ints_1_decode_reply(B)
           : K == Kind::Rects ? F_send_rects_1_decode_reply(B)
                              : F_send_dirents_1_decode_reply(B);
  }
  /// Offset of the argument body in an encoded request (the ONC RPC call
  /// header is ten fixed words).
  static size_t bodyOffset(const flick_buf *) { return 40; }
};

/// Offset of the argument body of a GIOP 1.0 request: the fixed header
/// through the object key, the operation name, the principal, then
/// 8-byte alignment.
inline size_t giopBodyOffset(const flick_buf *B) {
  if (B->len < 36)
    return B->len;
  size_t NameLen = flick_dec_u32le(B->data + 32);
  size_t Pos = 36 + NameLen;
  Pos = (Pos + 3) & ~size_t(3);
  Pos += 4;
  return (Pos + 7) & ~size_t(7);
}

#define PERFBENCH_CORBA_FAMILY(FAMILY, P)                                      \
  struct FAMILY {                                                              \
    using IntSeq = P##IntSeq;                                                  \
    using RectSeq = P##RectSeq;                                                \
    using DirentSeq = P##DirentSeq;                                            \
    using Rect = P##Rect;                                                      \
    using Dirent = P##Dirent;                                                  \
    template <typename S, typename E>                                          \
    static void set(S &Seq, uint32_t N, E *Ptr) {                              \
      Seq._maximum = N;                                                        \
      Seq._length = N;                                                         \
      Seq._buffer = Ptr;                                                       \
    }                                                                          \
    template <typename S> static uint32_t len(const S &Seq) {                  \
      return Seq._length;                                                      \
    }                                                                          \
    template <typename S> static auto at(const S &Seq) {                       \
      return static_cast<const std::remove_pointer_t<decltype(Seq._buffer)>   \
                             *>(Seq._buffer);                                  \
    }                                                                          \
    static int encode(flick_buf *B, uint32_t Xid, const IntSeq *S) {           \
      return P##Transfer_send_ints_encode_request(B, Xid, S);                  \
    }                                                                          \
    static int encode(flick_buf *B, uint32_t Xid, const RectSeq *S) {          \
      return P##Transfer_send_rects_encode_request(B, Xid, S);                 \
    }                                                                          \
    static int encode(flick_buf *B, uint32_t Xid, const DirentSeq *S) {        \
      return P##Transfer_send_dirents_encode_request(B, Xid, S);               \
    }                                                                          \
    static int decode(flick_buf *B, flick_arena *A, IntSeq *S) {               \
      return P##Transfer_send_ints_decode_request(B, A, S);                    \
    }                                                                          \
    static int decode(flick_buf *B, flick_arena *A, RectSeq *S) {              \
      return P##Transfer_send_rects_decode_request(B, A, S);                   \
    }                                                                          \
    static int decode(flick_buf *B, flick_arena *A, DirentSeq *S) {            \
      return P##Transfer_send_dirents_decode_request(B, A, S);                 \
    }                                                                          \
    static int decodeReply(flick_buf *B, Kind K) {                             \
      CORBA_Environment Ev{};                                                  \
      int Err = K == Kind::Ints ? P##Transfer_send_ints_decode_reply(B, &Ev)   \
                : K == Kind::Rects                                             \
                    ? P##Transfer_send_rects_decode_reply(B, &Ev)              \
                    : P##Transfer_send_dirents_decode_reply(B, &Ev);           \
      return Err ? Err                                                         \
                 : Ev._major == CORBA_NO_EXCEPTION ? FLICK_OK                  \
                                                   : FLICK_ERR_EXCEPTION;      \
    }                                                                          \
    static size_t bodyOffset(const flick_buf *B) { return giopBodyOffset(B); } \
  };

PERFBENCH_CORBA_FAMILY(CdrFamily, C_)
PERFBENCH_CORBA_FAMILY(GatherFamily, G_)
#undef PERFBENCH_CORBA_FAMILY

/// A Raw value presented through family \p F: the sequence structs point
/// into typed element storage owned here (ints point into the Raw).
template <typename F> struct Presented {
  Kind K = Kind::Ints;
  typename F::IntSeq Ints{};
  typename F::RectSeq Rects{};
  typename F::DirentSeq Dirents{};
  std::vector<typename F::Rect> RectStore;
  std::vector<typename F::Dirent> DirentStore;

  /// \p V must outlive this presentation (ints and names are borrowed).
  void present(Raw &V) {
    K = V.K;
    if (K == Kind::Ints) {
      F::set(Ints, V.N, V.Words.data());
    } else if (K == Kind::Rects) {
      RectStore.resize(V.N);
      for (uint32_t I = 0; I != V.N; ++I) {
        const int32_t *W = &V.Words[4 * I];
        RectStore[I].min.x = W[0];
        RectStore[I].min.y = W[1];
        RectStore[I].max.x = W[2];
        RectStore[I].max.y = W[3];
      }
      F::set(Rects, V.N, RectStore.data());
    } else {
      DirentStore.resize(V.N);
      for (uint32_t I = 0; I != V.N; ++I) {
        DirentStore[I].name = V.Names[I].data();
        std::memcpy(DirentStore[I].info.words, &V.Info[30 * I], 120);
        std::memcpy(DirentStore[I].info.tag, &V.Tags[16 * I], 16);
      }
      F::set(Dirents, V.N, DirentStore.data());
    }
  }

  int encode(flick_buf *B, uint32_t Xid) const {
    return K == Kind::Ints    ? F::encode(B, Xid, &Ints)
           : K == Kind::Rects ? F::encode(B, Xid, &Rects)
                              : F::encode(B, Xid, &Dirents);
  }

  /// Writes the RPC id and checksum words (the checksum covers everything
  /// else, and is recomputed by the server from what it decodes).
  void stamp(uint32_t OpId, uint32_t Checksum) {
    if (K == Kind::Ints) {
      const_cast<int32_t *>(F::at(Ints))[0] = static_cast<int32_t>(OpId);
      const_cast<int32_t *>(F::at(Ints))[1] = static_cast<int32_t>(Checksum);
    } else if (K == Kind::Rects) {
      RectStore[0].min.x = static_cast<int32_t>(OpId);
      RectStore[0].min.y = static_cast<int32_t>(Checksum);
    } else {
      DirentStore[0].info.words[0] = OpId;
      DirentStore[0].info.words[1] = Checksum;
    }
  }
};

//===----------------------------------------------------------------------===//
// References: equality with the Raw value, and payload checksums
//===----------------------------------------------------------------------===//

template <typename F>
bool equalsRaw(const typename F::IntSeq &S, const Raw &V) {
  return V.K == Kind::Ints && F::len(S) == V.N &&
         std::memcmp(F::at(S), V.Words.data(), 4 * size_t(V.N)) == 0;
}

template <typename F>
bool equalsRaw(const typename F::RectSeq &S, const Raw &V) {
  if (V.K != Kind::Rects || F::len(S) != V.N)
    return false;
  const auto *E = F::at(S);
  for (uint32_t I = 0; I != V.N; ++I) {
    const int32_t *W = &V.Words[4 * I];
    if (E[I].min.x != W[0] || E[I].min.y != W[1] || E[I].max.x != W[2] ||
        E[I].max.y != W[3])
      return false;
  }
  return true;
}

template <typename F>
bool equalsRaw(const typename F::DirentSeq &S, const Raw &V) {
  if (V.K != Kind::Dirents || F::len(S) != V.N)
    return false;
  const auto *E = F::at(S);
  for (uint32_t I = 0; I != V.N; ++I)
    if (!E[I].name || V.Names[I] != E[I].name ||
        std::memcmp(E[I].info.words, &V.Info[30 * I], 120) != 0 ||
        std::memcmp(E[I].info.tag, &V.Tags[16 * I], 16) != 0)
      return false;
  return true;
}

/// Checksum of a decoded int array (words 2..N).
template <typename F> uint32_t payloadChecksum(const typename F::IntSeq &S) {
  uint32_t N = F::len(S);
  return N < 2 ? 0
               : mixWords(reinterpret_cast<const uint32_t *>(F::at(S)) + 2,
                          N - 2);
}

template <typename F> uint32_t payloadChecksum(const typename F::RectSeq &S) {
  uint32_t N = F::len(S);
  const auto *E = F::at(S);
  uint32_t H = 2166136261u;
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t W[4] = {static_cast<uint32_t>(E[I].min.x),
                     static_cast<uint32_t>(E[I].min.y),
                     static_cast<uint32_t>(E[I].max.x),
                     static_cast<uint32_t>(E[I].max.y)};
    H = I ? mixWords(W, 4, H) : mixWords(W + 2, 2, H);
  }
  return H;
}

template <typename F>
uint32_t payloadChecksum(const typename F::DirentSeq &S) {
  uint32_t N = F::len(S);
  const auto *E = F::at(S);
  uint32_t H = 2166136261u;
  for (uint32_t I = 0; I != N; ++I) {
    H = I ? mixWords(E[I].info.words, 30, H)
          : mixWords(E[I].info.words + 2, 28, H);
    H = static_cast<uint32_t>(fnv1a(E[I].info.tag, 16, H));
    H = static_cast<uint32_t>(
        fnv1a(E[I].name, E[I].name ? std::strlen(E[I].name) : 0, H));
  }
  return H;
}

/// Payload op id (see the file comment).
template <typename F> uint32_t payloadOpId(const typename F::IntSeq &S) {
  return F::len(S) ? static_cast<uint32_t>(F::at(S)[0]) : 0;
}
template <typename F> uint32_t payloadOpId(const typename F::RectSeq &S) {
  return F::len(S) ? static_cast<uint32_t>(F::at(S)[0].min.x) : 0;
}
template <typename F> uint32_t payloadOpId(const typename F::DirentSeq &S) {
  return F::len(S) ? F::at(S)[0].info.words[0] : 0;
}
template <typename F> uint32_t payloadStamp(const typename F::IntSeq &S) {
  return F::len(S) > 1 ? static_cast<uint32_t>(F::at(S)[1]) : 0;
}
template <typename F> uint32_t payloadStamp(const typename F::RectSeq &S) {
  return F::len(S) ? static_cast<uint32_t>(F::at(S)[0].min.y) : 0;
}
template <typename F> uint32_t payloadStamp(const typename F::DirentSeq &S) {
  return F::len(S) ? F::at(S)[0].info.words[1] : 0;
}

} // namespace pb

#endif // PERFBENCH_VALUES_H
