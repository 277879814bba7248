//===- runtime/Runtime.cpp - Out-of-line runtime pieces -------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/flick_runtime.h"
#include "runtime/Channel.h"
#include "runtime/Sampler.h"
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

int flick_buf_grow(flick_buf *b, size_t need) {
  size_t want = b->len + need;
  size_t cap = b->cap ? b->cap : size_t(FLICK_BUF_MIN_CAP);
  while (cap < want)
    cap *= 2;
  flick_metric_add(&flick_metrics::buf_grows, 1);
  uint8_t *data = static_cast<uint8_t *>(std::realloc(b->data, cap));
  if (!data) {
    flick_metric_add(&flick_metrics::alloc_errors, 1);
    return FLICK_ERR_ALLOC;
  }
  b->data = data;
  b->cap = cap;
  return FLICK_OK;
}

//===----------------------------------------------------------------------===//
// Swap-copy kernel
//===----------------------------------------------------------------------===//
//
// One kernel per word width W moves byte-reversed arrays for the compiled
// stubs and the specializer's swap stencils.  The AVX2 body reverses 32
// bytes per pshufb and finishes with the scalar loop; CPUs without AVX2
// run the scalar loop alone.  The body is chosen once at load time.  GCC
// function multiversioning would dispatch only in translation units that
// see every version, and generated stubs see just the declaration.

namespace {

template <unsigned W> void swapOne(uint8_t *Dst, const uint8_t *Src) {
  if constexpr (W == 2)
    flick_enc_u16be(Dst, flick_dec_u16le(Src));
  else if constexpr (W == 4)
    flick_enc_u32be(Dst, flick_dec_u32le(Src));
  else
    flick_enc_u64be(Dst, flick_dec_u64le(Src));
}

/// Swaps bytes [\p From, \p Bytes) one word at a time; touches nothing
/// when the range is empty.
template <unsigned W>
void swapScalar(uint8_t *Dst, const uint8_t *Src, size_t From, size_t Bytes) {
  for (size_t I = From; I != Bytes; I += W)
    swapOne<W>(Dst + I, Src + I);
}

#if defined(__x86_64__) || defined(__i386__)
/// pshufb control reversing every W-byte word of a 16-byte lane.
template <unsigned W> struct SwapMask {
  alignas(16) uint8_t Bytes[16] = {};
  constexpr SwapMask() {
    for (unsigned I = 0; I != 16; ++I)
      Bytes[I] = static_cast<uint8_t>(I / W * W + (W - 1 - I % W));
  }
};

template <unsigned W>
__attribute__((target("avx2"))) void swapAvx2(uint8_t *Dst, const uint8_t *Src,
                                              size_t Bytes) {
  static constexpr SwapMask<W> M;
  const __m256i Mask = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i *>(M.Bytes)));
  size_t I = 0;
  for (; Bytes - I >= 32; I += 32) {
    __m256i V = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Dst + I),
                        _mm256_shuffle_epi8(V, Mask));
  }
  swapScalar<W>(Dst, Src, I, Bytes);
}

bool cpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

/// Set during static initialization.  A call from an earlier initializer
/// reads false and takes the scalar body, which is just as correct.
const bool HasAvx2 = cpuHasAvx2();
#endif

template <unsigned W>
void swapCopy(uint8_t *Dst, const uint8_t *Src, size_t Words) {
#if defined(__x86_64__) || defined(__i386__)
  if (HasAvx2) {
    swapAvx2<W>(Dst, Src, Words * W);
    return;
  }
#endif
  swapScalar<W>(Dst, Src, 0, Words * W);
}

} // namespace

void flick_swap_copy_u16(uint8_t *dst, const uint8_t *src, size_t halves) {
  swapCopy<2>(dst, src, halves);
}

void flick_swap_copy_u32(uint8_t *dst, const uint8_t *src, size_t words) {
  swapCopy<4>(dst, src, words);
}

void flick_swap_copy_u64(uint8_t *dst, const uint8_t *src, size_t dwords) {
  swapCopy<8>(dst, src, dwords);
}

namespace {
/// Flight-recorder bracket around one client invoke: in-flight count and
/// the watchdog's start stamp on entry; completion count, stamp clear, and
/// in-flight decrement on every exit path.  Costs one relaxed flag load
/// when the recorder is off.
struct InvokeGauge {
  int Slot = -1;
  bool On = false;
  InvokeGauge() {
    if (!flick_gauges_on())
      return;
    On = true;
    flick_gauges_global.inflight_rpcs.fetch_add(1, std::memory_order_relaxed);
    Slot = flick_stall_mark_begin();
  }
  ~InvokeGauge() {
    if (!On)
      return;
    flick_stall_mark_end(Slot);
    flick_gauge_sub(&flick_gauges::inflight_rpcs, 1);
    flick_gauge_add(&flick_gauges::rpcs_completed, 1);
  }
};

/// Busy bracket around one server dispatch (receive-to-reply): workers_busy
/// while inside, worker_busy_ns accumulated on exit, so the sampler can
/// derive per-interval busy fractions for the pool.
struct BusyGauge {
  uint64_t T0 = 0;
  bool On = false;
  BusyGauge() {
    if (!flick_gauges_on())
      return;
    On = true;
    T0 = flick_gauge_now_ns();
    flick_gauge_add(&flick_gauges::workers_busy, 1);
  }
  ~BusyGauge() {
    if (!On)
      return;
    flick_gauge_sub(&flick_gauges::workers_busy, 1);
    uint64_t Now = flick_gauge_now_ns();
    flick_gauges_global.worker_busy_ns.fetch_add(
        Now > T0 ? Now - T0 : 0, std::memory_order_relaxed);
  }
};

/// Header linking retired arena blocks; block data follows the header.
/// 16-byte alignment keeps the data area aligned for any presented type.
struct alignas(16) ArenaBlock {
  ArenaBlock *next;
};

void freeRetired(flick_arena *a) {
  auto *B = static_cast<ArenaBlock *>(a->retired);
  while (B) {
    ArenaBlock *Next = B->next;
    std::free(B);
    B = Next;
  }
  a->retired = nullptr;
}
} // namespace

void flick_arena_reset(flick_arena *a) {
  flick_metric_max(&flick_metrics::arena_high_water, a->used);
  freeRetired(a);
  a->used = 0;
}

void flick_arena_destroy(flick_arena *a) {
  flick_metric_max(&flick_metrics::arena_high_water, a->used);
  freeRetired(a);
  if (a->base)
    std::free(reinterpret_cast<uint8_t *>(a->base) - sizeof(ArenaBlock));
  *a = flick_arena{};
}

void *flick_arena_grow_alloc(flick_arena *a, size_t n) {
  // Existing allocations stay valid: retire the current block and open a
  // bigger one.
  size_t cap = a->cap ? a->cap * 2 : 4096;
  while (cap < n + 16)
    cap *= 2;
  flick_metric_add(&flick_metrics::arena_grows, 1);
  auto *Blk = static_cast<ArenaBlock *>(std::malloc(sizeof(ArenaBlock) + cap));
  if (!Blk) {
    flick_metric_add(&flick_metrics::alloc_errors, 1);
    return nullptr;
  }
  if (a->base) {
    auto *Old = reinterpret_cast<ArenaBlock *>(
        reinterpret_cast<uint8_t *>(a->base) - sizeof(ArenaBlock));
    Old->next = static_cast<ArenaBlock *>(a->retired);
    a->retired = Old;
  }
  Blk->next = nullptr;
  a->base = reinterpret_cast<uint8_t *>(Blk) + sizeof(ArenaBlock);
  a->cap = cap;
  a->used = n;
  return a->base;
}

void flick_client_init(flick_client *c, flick_channel *chan) {
  *c = flick_client{};
  c->chan = chan;
  flick_buf_init(&c->req);
  flick_buf_init(&c->rep);
}

void flick_client_destroy(flick_client *c) {
  flick_buf_destroy(&c->req);
  flick_buf_destroy(&c->rep);
}

int flick_client_invoke(flick_client *c) {
  ++c->next_xid;
  InvokeGauge Gauge;
  flick_metric_add(&flick_metrics::rpcs_sent, 1);
  flick_metric_add(&flick_metrics::request_bytes, flick_buf_total(&c->req));
  // Latency sampling and tracing cost one pointer test each when off.
  bool Timed = flick_metrics_active != nullptr;
  std::chrono::steady_clock::time_point T0;
  if (Timed)
    T0 = std::chrono::steady_clock::now();
  // Open the RPC root unless a generated stub (--trace-hooks) already did,
  // then a SEND child for the request.  Error paths close back to Base, so
  // nothing can leak open spans.
  uint32_t Base = 0;
  if (flick_trace_active) {
    Base = flick_trace_active->depth;
    if (Base == 0)
      flick_trace_begin_impl(FLICK_SPAN_RPC, "rpc");
    if (c->endpoint)
      flick_trace_tag_endpoint(c->endpoint); // children inherit the tag
    flick_trace_begin_impl(FLICK_SPAN_SEND, "send");
  }
  int err = flick_channel_send_buf(c->chan, &c->req);
  if (flick_trace_active)
    flick_trace_end_impl(); // SEND
  if (err) {
    flick_metric_add(&flick_metrics::transport_errors, 1);
    flick_trace_close_to(Base);
    return err;
  }
  // The server runs synchronously under this recv (LocalLink pump); its
  // spans parent onto the SEND span via the propagated context.
  err = flick_channel_recv(c->chan, &c->rep);
  if (flick_trace_active)
    flick_trace_deposit(0, 0); // the reply's context is not a parent here
  if (err) {
    flick_metric_add(&flick_metrics::transport_errors, 1);
    flick_trace_close_to(Base);
    return err;
  }
  flick_metric_add(&flick_metrics::replies_received, 1);
  flick_metric_add(&flick_metrics::reply_bytes, c->rep.len);
  flick_trace_close_to(Base);
  if (Timed && flick_metrics_active)
    flick_hist_record(&flick_metrics_active->rpc_latency,
                      std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - T0)
                          .count());
  return FLICK_OK;
}

int flick_client_send_oneway(flick_client *c) {
  ++c->next_xid;
  flick_metric_add(&flick_metrics::oneways_sent, 1);
  flick_metric_add(&flick_metrics::request_bytes, flick_buf_total(&c->req));
  uint32_t Base = 0;
  if (flick_trace_active) {
    Base = flick_trace_active->depth;
    if (Base == 0)
      flick_trace_begin_impl(FLICK_SPAN_RPC, "rpc");
    if (c->endpoint)
      flick_trace_tag_endpoint(c->endpoint);
    flick_trace_begin_impl(FLICK_SPAN_SEND, "send");
  }
  int err = flick_channel_send_buf(c->chan, &c->req);
  if (err)
    flick_metric_add(&flick_metrics::transport_errors, 1);
  flick_trace_close_to(Base);
  return err;
}

void flick_server_init(flick_server *s, flick_channel *chan,
                       flick_dispatch_fn dispatch) {
  *s = flick_server{};
  s->chan = chan;
  s->dispatch = dispatch;
  flick_buf_init(&s->req);
  flick_buf_init(&s->rep);
}

void flick_server_destroy(flick_server *s) {
  flick_buf_destroy(&s->req);
  flick_buf_destroy(&s->rep);
  flick_arena_destroy(&s->arena);
}

int flick_server_handle_one(flick_server *s) {
  if (int err = flick_channel_recv(s->chan, &s->req)) {
    flick_metric_add(&flick_metrics::transport_errors, 1);
    return err;
  }
  // The receive deposited the request's trace context; the server root
  // adopts it as an explicit remote parent (out-of-band propagation).
  BusyGauge Busy;
  uint32_t Base = 0;
  if (flick_trace_active) {
    Base = flick_trace_active->depth;
    flick_trace_begin_remote_impl(FLICK_SPAN_DEMUX, "demux");
  }
  flick_metric_add(&flick_metrics::rpcs_handled, 1);
  flick_metric_add(&flick_metrics::server_request_bytes, s->req.len);
  flick_buf_reset(&s->rep);
  flick_arena_reset(&s->arena);
  int status = s->dispatch(s, &s->req, &s->rep);
  // The request's bytes are dead once dispatch returns: aliased decode
  // pointers are scoped to the dispatch frame and replies never gather.
  // Handing the adopted wire storage back now lets the client's next
  // request refill the same hot allocation.
  s->chan->release(&s->req);
  if (status != FLICK_OK) {
    if (status == FLICK_ERR_DECODE)
      flick_metric_add(&flick_metrics::decode_errors, 1);
    else if (status == FLICK_ERR_NO_SUCH_OP)
      flick_metric_add(&flick_metrics::demux_errors, 1);
    flick_trace_close_to(Base);
    return status;
  }
  // Oneway requests produce an empty reply buffer: nothing to send.
  if (s->rep.len == 0) {
    flick_trace_close_to(Base);
    return FLICK_OK;
  }
  flick_metric_add(&flick_metrics::replies_sent, 1);
  flick_metric_add(&flick_metrics::server_reply_bytes, s->rep.len);
  if (flick_trace_active)
    flick_trace_begin_impl(FLICK_SPAN_REPLY, "reply");
  int err = flick_channel_send_buf(s->chan, &s->rep);
  flick_trace_close_to(Base); // ends REPLY and the DEMUX root
  if (err) {
    flick_metric_add(&flick_metrics::transport_errors, 1);
    return err;
  }
  return FLICK_OK;
}
