//===- tests/BackendTextTests.cpp - generated-code property tests ---------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Asserts structural properties of the generated C text: that the
/// optimizations of paper §3 actually show up in the code (one coalesced
/// buffer check per fixed segment, chunk-pointer addressing, memcpy for
/// bit-identical arrays and swap copies for byte-reversed ones,
/// switch-based demux, word-at-a-time name matching) and disappear when
/// their flags are off.
///
//===----------------------------------------------------------------------===//

#include "backends/Backend.h"
#include "frontends/corba/CorbaFrontEnd.h"
#include "frontends/oncrpc/OncFrontEnd.h"
#include "presgen/PresGen.h"
#include "support/Diagnostics.h"
#include <gtest/gtest.h>

using namespace flick;

namespace {

BackendOutput gen(const std::string &Src, bool Onc,
                  const std::string &BackendTag,
                  BackendOptions Opts = BackendOptions()) {
  DiagnosticEngine D;
  std::unique_ptr<AoiModule> M =
      Onc ? parseOncIdl(Src, "t.x", D) : parseCorbaIdl(Src, "t.idl", D);
  EXPECT_TRUE(M) << D.renderAll();
  std::unique_ptr<PresGen> PG;
  if (Onc)
    PG = std::make_unique<RpcgenPresGen>(PresGenOptions{});
  else
    PG = std::make_unique<CorbaPresGen>(PresGenOptions{});
  auto P = PG->generate(*M, D);
  EXPECT_TRUE(P) << D.renderAll();
  auto BE = createBackend(BackendTag, Opts);
  EXPECT_TRUE(BE);
  return BE->generate(*P, "t");
}

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t N = 0, Pos = 0;
  while ((Pos = Hay.find(Needle, Pos)) != std::string::npos) {
    ++N;
    Pos += Needle.size();
  }
  return N;
}

/// Extracts one function's body from generated text.
std::string functionBody(const std::string &Text, const std::string &Name) {
  size_t Pos = Text.find(" " + Name + "(");
  EXPECT_NE(Pos, std::string::npos) << "function " << Name << " not found";
  if (Pos == std::string::npos)
    return {};
  size_t Open = Text.find('{', Pos);
  size_t Depth = 1, I = Open + 1;
  while (I < Text.size() && Depth) {
    if (Text[I] == '{')
      ++Depth;
    if (Text[I] == '}')
      --Depth;
    ++I;
  }
  return Text.substr(Open, I - Open);
}

const char *FixedIdl = R"(
  struct P4 { long a; long b; long c; long d; };
  interface I { void f(in P4 v, in long x); };
)";

TEST(BackendText, FixedMessageHasSingleBufferCheck) {
  // Paper §3.1: a fixed-size message checks marshal-buffer space exactly
  // once (header and body may be separate chunks; the body itself must
  // not check per datum).
  auto Out = gen(FixedIdl, false, "iiop");
  std::string Body = functionBody(Out.Header, "I_f_encode_request");
  // One ensure for the header+name chunk, one for the 5-long body chunk,
  // plus the trailing-alignment helper: at most 3, far below per-datum.
  EXPECT_LE(countOccurrences(Body, "flick_buf_ensure"), 3u) << Body;
  // Chunk-pointer addressing with constant offsets (paper §3.2).
  EXPECT_NE(Body.find("_chk"), std::string::npos);
}

TEST(BackendText, NoChunkFlagChecksPerDatum) {
  BackendOptions O;
  O.Chunk = false;
  auto Out = gen(FixedIdl, false, "iiop", O);
  std::string Body = functionBody(Out.Header, "I_f_encode_request");
  // Five body fields + header pieces: many separate ensures.
  EXPECT_GE(countOccurrences(Body, "flick_buf_ensure"), 5u) << Body;
}

TEST(BackendText, MemcpyForBitIdenticalArrays) {
  // CDR-LE int arrays are bit-identical on a little-endian host.
  auto Out = gen("typedef sequence<long> S;\n"
                 "interface I { void f(in S v); };",
                 false, "iiop");
  std::string Body = functionBody(Out.Header, "I_f_encode_request");
  EXPECT_NE(Body.find("memcpy"), std::string::npos) << Body;
  EXPECT_EQ(Body.find("for ("), std::string::npos)
      << "int arrays must not marshal element by element:\n"
      << Body;
}

const char *XdrIntSeqIdl = R"(
    typedef int s<>;
    program P { version V { void F(s) = 1; } = 1; } = 1;)";

TEST(BackendText, SwapArraysGetSingleCheckAndSwapCopy) {
  // XDR int arrays on a little-endian host: one coalesced space check,
  // then one byte-swapping block copy of the whole array.
  auto Out = gen(XdrIntSeqIdl, true, "xdr");
  std::string Body = functionBody(Out.Header, "f_1_encode_request");
  EXPECT_EQ(countOccurrences(Body, "flick_swap_copy_u32("), 1u) << Body;
  EXPECT_EQ(Body.find("for ("), std::string::npos)
      << "int arrays must not marshal element by element:\n"
      << Body;
  // Header + length word + ONE whole-array ensure: no per-element checks.
  EXPECT_LE(countOccurrences(Body, "flick_buf_ensure"), 3u) << Body;
}

TEST(BackendText, NoMemcpyFlagFallsBackToLoops) {
  BackendOptions O;
  O.Memcpy = false;
  auto Out = gen("typedef sequence<long> S;\n"
                 "interface I { void f(in S v); };",
                 false, "iiop", O);
  std::string Body = functionBody(Out.Header, "I_f_encode_request");
  EXPECT_NE(Body.find("for ("), std::string::npos) << Body;
}

TEST(BackendText, NoMemcpyFlagKeepsXdrSwapLoops) {
  BackendOptions O;
  O.Memcpy = false;
  auto Out = gen(XdrIntSeqIdl, true, "xdr", O);
  std::string Body = functionBody(Out.Header, "f_1_encode_request");
  EXPECT_NE(Body.find("for ("), std::string::npos) << Body;
  EXPECT_NE(Body.find("flick_enc_u32be"), std::string::npos) << Body;
  EXPECT_EQ(Body.find("flick_swap_copy"), std::string::npos) << Body;
}

TEST(BackendText, DispatchUsesSwitchOnProcedureNumber) {
  auto Out = gen(R"(
    program P { version V {
      void A(int) = 1; void B(int) = 2; void C(int) = 3;
    } = 1; } = 9;)",
                 true, "xdr");
  EXPECT_NE(Out.ServerSrc.find("switch (_opcode)"), std::string::npos);
  EXPECT_NE(Out.ServerSrc.find("case 1u:"), std::string::npos);
  EXPECT_NE(Out.ServerSrc.find("case 3u:"), std::string::npos);
  EXPECT_NE(Out.ServerSrc.find("FLICK_ERR_NO_SUCH_OP"), std::string::npos);
}

TEST(BackendText, IiopDemuxMatchesNamesWordAtATime) {
  // Paper §3.3: multi-word discriminators decode with nested switches on
  // machine words.
  auto Out = gen("interface I { void send(in long a);\n"
                 "  void send_more(in long a); void stop(); };",
                 false, "iiop");
  EXPECT_NE(Out.ServerSrc.find("switch (flick_dec_u32ne(_opname))"),
            std::string::npos)
      << Out.ServerSrc;
  // "send\0..." and "send_more\0..." share the first word, so a nested
  // word comparison must appear.
  EXPECT_GE(countOccurrences(Out.ServerSrc, "flick_dec_u32ne(_opname + 4"),
            1u);
}

TEST(BackendText, ServerAliasesRequestBufferForArrays) {
  auto Out = gen("typedef sequence<long> S;\n"
                 "interface I { void f(in S v); };",
                 false, "iiop");
  std::string Body = functionBody(Out.Header, "I_f_decode_request");
  EXPECT_NE(Body.find("flick_buf_take_mut"), std::string::npos)
      << "expected decode-in-place aliasing:\n"
      << Body;
}

TEST(BackendText, NoAliasFlagCopiesInstead) {
  BackendOptions O;
  O.BufferAlias = false;
  auto Out = gen("typedef sequence<long> S;\n"
                 "interface I { void f(in S v); };",
                 false, "iiop", O);
  std::string Body = functionBody(Out.Header, "I_f_decode_request");
  EXPECT_EQ(Body.find("flick_buf_take_mut"), std::string::npos);
  EXPECT_NE(Body.find("flick_arena_alloc"), std::string::npos) << Body;
}

TEST(BackendText, NoScratchFlagMallocs) {
  BackendOptions O;
  O.ScratchAlloc = false;
  auto Out = gen("typedef sequence<long> S;\n"
                 "interface I { void f(in S v); };",
                 false, "iiop", O);
  std::string Body = functionBody(Out.Header, "I_f_decode_request");
  EXPECT_EQ(Body.find("flick_arena_alloc"), std::string::npos);
  EXPECT_NE(Body.find("malloc"), std::string::npos) << Body;
}

TEST(BackendText, RecursiveTypesGetOutOfLineHelpers) {
  // Paper §3.3: everything inlines except recursive types.
  auto Out = gen(R"(
    struct node { int v; node *next; };
    typedef node *list;
    program P { version V { void F(list) = 1; } = 1; } = 1;)",
                 true, "xdr");
  EXPECT_NE(Out.Header.find("_enc_h"), std::string::npos);
  EXPECT_NE(Out.Header.find("_dec_h"), std::string::npos);
}

TEST(BackendText, NonRecursiveTypesFullyInline) {
  auto Out = gen(FixedIdl, false, "iiop");
  // No out-of-line marshal helpers for plain structs.
  EXPECT_EQ(Out.Header.find("_enc_h"), std::string::npos);
}

TEST(BackendText, NaiveBackendCallsPerDatumFunctions) {
  auto Out = gen(R"(
    typedef int s<>;
    program P { version V { void F(s) = 1; } = 1; } = 1;)",
                 true, "naive");
  EXPECT_FALSE(Out.CommonSrc.empty());
  EXPECT_NE(Out.CommonSrc.find("flick_naive_put_u32"), std::string::npos);
  EXPECT_EQ(Out.CommonSrc.find("flick_swap_copy"), std::string::npos);
  // Stubs call out-of-line helpers instead of inlining.
  EXPECT_EQ(Out.Header.find("static inline int f_1_encode_request"),
            std::string::npos);
}

TEST(BackendText, BoundedSegmentPreEnsuresOnce) {
  // A bounded string below the threshold triggers the §3.1 bounded-segment
  // optimization: one ensure of the maximum, then no further checks.
  auto Out = gen("interface I { void f(in string<64> s); };", false, "iiop");
  std::string Body = functionBody(Out.Header, "I_f_encode_request");
  // The string body itself must not re-ensure: only the header chunk and
  // the single bounded pre-ensure remain.
  EXPECT_LE(countOccurrences(Body, "flick_buf_ensure"), 2u) << Body;
}

TEST(BackendText, OnewayGeneratesNoReplyHelpers) {
  auto Out = gen("interface I { oneway void ping(in long t); };", false,
                 "iiop");
  EXPECT_EQ(Out.Header.find("I_ping_decode_reply"), std::string::npos);
  EXPECT_NE(Out.ClientSrc.find("flick_client_send_oneway"),
            std::string::npos);
}

TEST(BackendText, ExceptionsProduceEncodeHelperAndEnvHandling) {
  auto Out = gen("exception E { long code; };\n"
                 "interface I { void f() raises(E); };",
                 false, "iiop");
  EXPECT_NE(Out.Header.find("I_encode_reply_exc"), std::string::npos);
  EXPECT_NE(Out.ServerSrc.find("CORBA_USER_EXCEPTION"), std::string::npos);
  std::string Body = functionBody(Out.Header, "I_f_decode_reply");
  EXPECT_NE(Body.find("FLICK_REPLY_USER_EXCEPTION"), std::string::npos);
}

TEST(BackendText, XdrHeaderIsOneFortyByteChunk) {
  auto Out = gen(R"(
    program P { version V { void F(int) = 1; } = 1; } = 9;)",
                 true, "xdr");
  std::string Body = functionBody(Out.Header, "f_1_encode_request");
  EXPECT_NE(Body.find("flick_buf_grab(_buf, 40u)"), std::string::npos)
      << Body;
}

TEST(BackendText, GiopSizePatchEmitted) {
  auto Out = gen("interface I { void f(in long x); };", false, "iiop");
  std::string Body = functionBody(Out.Header, "I_f_encode_request");
  EXPECT_NE(Body.find("_buf->len - _mark"), std::string::npos) << Body;
}

TEST(BackendText, MachHeaderUsesMsghIdConvention) {
  // MIG convention: request ids are base + proc; sizes patch like GIOP.
  auto Out = gen(R"(
    program P { version V { void F(int) = 3; } = 1; } = 1;)",
                 true, "mach");
  std::string Body = functionBody(Out.Header, "f_1_encode_request");
  EXPECT_NE(Body.find("403u"), std::string::npos) << Body; // 400 + proc 3
  EXPECT_NE(Body.find("flick_enc_u32ne"), std::string::npos)
      << "Mach messages are host-endian";
  EXPECT_NE(Body.find("_buf->len - _mark"), std::string::npos);
}

TEST(BackendText, FlukeRequestRidesInRegisterWindow) {
  auto Out = gen(R"(
    program P { version V { void F(int) = 1; } = 1; } = 7;)",
                 true, "fluke");
  std::string Body = functionBody(Out.Header, "f_1_encode_request");
  // The whole register window reserves as one 32-byte chunk.
  EXPECT_NE(Body.find("flick_buf_grab(_buf, 32u)"), std::string::npos)
      << Body;
}

TEST(BackendText, AggregateArraysBlockCopyWhenBitIdentical) {
  // USC-style extension (paper §3.2 future work): arrays of structs whose
  // host layout equals their wire layout move with one memcpy, guarded by
  // a generated static_assert.
  auto Out = gen(R"(
    struct Pt { long x; long y; };
    struct R { Pt min; Pt max; };
    typedef sequence<R> Rs;
    interface I { void f(in Rs v); };)",
                 false, "iiop");
  std::string Body = functionBody(Out.Header, "I_f_encode_request");
  EXPECT_NE(Body.find("static_assert(sizeof(R) == 16"), std::string::npos)
      << Body;
  EXPECT_EQ(Body.find("for ("), std::string::npos)
      << "bit-identical struct arrays must not loop" << Body;
}

TEST(BackendText, ByteReversedAggregateArraysSwapCopyWhole) {
  // XDR struct arrays whose every scalar is a same-width word land at the
  // host offsets in reversed byte order: one swap copy, under the same
  // static_assert as the memcpy case.
  auto Out = gen(R"(
    struct Pt { long x; long y; };
    struct R { Pt min; Pt max; };
    typedef sequence<R> Rs;
    typedef sequence<long long> Hs;
    interface I { void f(in Rs v); void g(in Hs h); };)",
                 false, "xdr");
  std::string Body = functionBody(Out.Header, "I_f_encode_request");
  EXPECT_NE(Body.find("static_assert(sizeof(R) == 16"), std::string::npos)
      << Body;
  EXPECT_EQ(countOccurrences(Body, "flick_swap_copy_u32("), 1u) << Body;
  EXPECT_EQ(Body.find("for ("), std::string::npos) << Body;
  Body = functionBody(Out.Header, "I_f_decode_request");
  EXPECT_EQ(countOccurrences(Body, "flick_swap_copy_u32("), 1u) << Body;
  EXPECT_EQ(Body.find("for ("), std::string::npos) << Body;
  Body = functionBody(Out.Header, "I_g_encode_request");
  EXPECT_EQ(countOccurrences(Body, "flick_swap_copy_u64("), 1u) << Body;
}

TEST(BackendText, MixedLayoutAggregatesStillLoop) {
  // A short + long struct has host padding the XDR wire does not mirror
  // (XDR widens the short): no block copy.
  auto Out = gen(R"(
    struct M { short s; long l; };
    typedef sequence<M> Ms;
    interface I { void f(in Ms v); };)",
                 false, "xdr");
  std::string Body = functionBody(Out.Header, "I_f_encode_request");
  EXPECT_EQ(Body.find("static_assert"), std::string::npos);
  EXPECT_NE(Body.find("for ("), std::string::npos) << Body;
}

TEST(BackendText, EveryBackendAcceptsEveryPresentation) {
  // The kit property (paper Figure 1): any presentation feeds any back
  // end.  Smoke-generate the kitchen-sink module across the matrix.
  const char *Idl = R"(
    struct S { long a; string b; };
    typedef sequence<S> Seq;
    interface I { void f(in Seq v, out S r); };
  )";
  for (const char *BE : {"xdr", "iiop", "mach", "fluke", "naive"}) {
    auto Out = gen(Idl, false, BE);
    EXPECT_FALSE(Out.Header.empty()) << BE;
    EXPECT_NE(Out.ServerSrc.find("I_dispatch"), std::string::npos) << BE;
  }
}

} // namespace
