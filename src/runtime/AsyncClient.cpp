//===- runtime/AsyncClient.cpp - Pipelined client + reply demux -----------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The async pipelined client: many requests in flight per connection,
// matched to replies by the out-of-band correlation id the transports
// carry next to the trace context (DESIGN.md §15).  Everything here runs
// on the submitting thread -- the "demultiplexer" is the pump loop inside
// wait/drain/blocking-submit, which receives replies in arrival order and
// completes whichever pending call each one names.
//
//===----------------------------------------------------------------------===//

#include "runtime/Channel.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include <chrono>
#include <memory>
#include <new>
#include <vector>

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Heap side of a flick_async_client: the call slots (stable addresses --
/// callers hold flick_call* across pumps), the pending/free lists, the
/// reply scratch buffer, and the oneway cork arena.
struct AsyncImpl {
  /// Every slot ever allocated, for destroy.  Slots are recycled through
  /// Free; the window bounds *in-flight* calls, so completed-but-unreleased
  /// handles cost extra slots rather than deadlocking a blocking submit.
  std::vector<std::unique_ptr<flick_call>> AllSlots;
  flick_call *Free = nullptr;
  flick_call *Pending = nullptr;
  flick_buf Scratch; ///< reply landing zone before its call is known
  // Corked oneways: flattened frames back to back, one length per frame.
  std::vector<uint8_t> CorkBytes;
  std::vector<size_t> CorkLens;
  uint32_t CorkMax = 64;
};

AsyncImpl *impl(flick_async_client *c) {
  return static_cast<AsyncImpl *>(c->impl);
}

flick_call *takeSlot(AsyncImpl *I) {
  if (flick_call *Call = I->Free) {
    I->Free = Call->next;
    Call->next = nullptr;
    return Call;
  }
  auto *Call = new (std::nothrow) flick_call;
  if (!Call)
    return nullptr;
  flick_buf_init(&Call->rep);
  I->AllSlots.emplace_back(Call);
  return Call;
}

/// Completes \p Call with the reply currently in the scratch buffer: the
/// buffers swap (the call adopts the wire storage, the emptied slot buffer
/// becomes the next scratch), latency is recorded against the call's own
/// submit stamp -- not any per-client state -- so out-of-order completions
/// attribute correctly.
void completeWithReply(AsyncImpl *I, flick_call *Call) {
  flick_buf Tmp = Call->rep;
  Call->rep = I->Scratch;
  I->Scratch = Tmp;
  Call->status = FLICK_OK;
  Call->done = 1;
  flick_metric_add(&flick_metrics::replies_received, 1);
  flick_metric_add(&flick_metrics::reply_bytes, Call->rep.len);
  if (flick_metrics_active && Call->submit_ns) {
    uint64_t Now = nowNs();
    flick_hist_record(&flick_metrics_active->rpc_latency,
                      Now > Call->submit_ns
                          ? static_cast<double>(Now - Call->submit_ns) / 1000.0
                          : 0.0);
  }
  flick_gauge_sub(&flick_gauges::inflight_rpcs, 1);
  flick_gauge_add(&flick_gauges::rpcs_completed, 1);
  if (Call->on_complete)
    Call->on_complete(Call, Call->ctx);
}

/// Transport death with requests in flight: every pending call completes
/// with \p Err (callbacks run), so no handle is ever left dangling in the
/// not-done state.
void failAllPending(flick_async_client *c, AsyncImpl *I, int Err) {
  while (flick_call *Call = I->Pending) {
    I->Pending = Call->next;
    Call->next = nullptr;
    --c->inflight;
    flick_buf_reset(&Call->rep);
    Call->status = Err;
    Call->done = 1;
    flick_gauge_sub(&flick_gauges::inflight_rpcs, 1);
    if (Call->on_complete)
      Call->on_complete(Call, Call->ctx);
  }
}

/// Receives replies until exactly one pending call completes (replies
/// matching no pending call are dropped and counted, never fatal).  No-op
/// when nothing is pending.  On a transport error every pending call is
/// failed and the error returned.
int pumpOne(flick_async_client *c, AsyncImpl *I) {
  while (I->Pending) {
    if (int Err = flick_channel_recv(c->chan, &I->Scratch)) {
      flick_metric_add(&flick_metrics::transport_errors, 1);
      failAllPending(c, I, Err);
      return Err;
    }
    // The receive deposited the reply's trace context; a reply is not a
    // parent for whatever span opens next (same as the sync client).
    if (flick_trace_active)
      flick_trace_deposit(0, 0);
    uint64_t Id = c->chan->lastCorrelation();
    flick_call **PP = &I->Pending;
    while (*PP && (*PP)->id != Id)
      PP = &(*PP)->next;
    flick_call *Call = *PP;
    if (!Call) {
      // Duplicate or unknown correlation id.
      flick_metric_add(&flick_metrics::corr_drops, 1);
      flick_channel_release(c->chan, &I->Scratch);
      continue;
    }
    *PP = Call->next;
    Call->next = nullptr;
    --c->inflight;
    completeWithReply(I, Call);
    return FLICK_OK;
  }
  return FLICK_OK;
}

} // namespace

int flick_async_client_init(flick_async_client *c, flick_channel *chan,
                            const flick_async_opts *opts) {
  *c = flick_async_client{};
  c->chan = chan;
  flick_buf_init(&c->req);
  flick_async_opts O = opts ? *opts : flick_async_opts{};
  c->window = O.window ? O.window : 1;
  c->fail_fast = O.fail_fast;
  auto *I = new (std::nothrow) AsyncImpl;
  if (!I) {
    flick_metric_add(&flick_metrics::alloc_errors, 1);
    return FLICK_ERR_ALLOC;
  }
  I->CorkMax = O.cork_max ? O.cork_max : 1;
  // Each corked frame may cost the transport a header iovec plus a payload
  // iovec; keep any single batch comfortably under IOV_MAX (1024).
  if (I->CorkMax > 256)
    I->CorkMax = 256;
  flick_buf_init(&I->Scratch);
  c->impl = I;
  return FLICK_OK;
}

void flick_async_client_destroy(flick_async_client *c) {
  if (AsyncImpl *I = impl(c)) {
    for (auto &Slot : I->AllSlots)
      flick_buf_destroy(&Slot->rep);
    flick_buf_destroy(&I->Scratch);
    delete I;
  }
  flick_buf_destroy(&c->req);
  *c = flick_async_client{};
}

flick_buf *flick_async_begin(flick_async_client *c) {
  flick_buf_reset(&c->req);
  return &c->req;
}

int flick_async_submit(flick_async_client *c, flick_call **out,
                       flick_call_fn on_complete, void *ctx) {
  AsyncImpl *I = impl(c);
  if (out)
    *out = nullptr;
  if (c->inflight >= c->window) {
    flick_gauge_add(&flick_gauges::window_stalls, 1);
    if (c->fail_fast)
      return FLICK_ERR_WOULD_BLOCK;
    while (c->inflight >= c->window)
      if (int Err = pumpOne(c, I))
        return Err;
  }
  flick_call *Call = takeSlot(I);
  if (!Call) {
    flick_metric_add(&flick_metrics::alloc_errors, 1);
    return FLICK_ERR_ALLOC;
  }
  Call->id = ++c->next_id; // nonzero: sync traffic is id 0 by construction
  Call->status = FLICK_OK;
  Call->done = 0;
  Call->on_complete = on_complete;
  Call->ctx = ctx;
  // Per-call submit stamp (not per-client): completions arriving out of
  // order still record each call's own latency.
  Call->submit_ns = flick_metrics_active ? nowNs() : 0;
  flick_metric_add(&flick_metrics::rpcs_sent, 1);
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
  // The correlation id rides out of band for this one send only; it is
  // cleared right after so oneways and any interleaved synchronous traffic
  // on the channel keep their id-0 frames.
  c->chan->setCorrelation(Call->id);
  int Err = flick_channel_send_buf(c->chan, &c->req);
  c->chan->setCorrelation(0);
  flick_trace_close_to(Base);
  if (Err) {
    flick_metric_add(&flick_metrics::transport_errors, 1);
    Call->next = I->Free;
    I->Free = Call;
    return Err;
  }
  Call->next = I->Pending;
  I->Pending = Call;
  ++c->inflight;
  flick_gauge_add(&flick_gauges::inflight_rpcs, 1);
  if (out)
    *out = Call;
  return FLICK_OK;
}

int flick_async_wait(flick_async_client *c, flick_call *call) {
  AsyncImpl *I = impl(c);
  while (!call->done) {
    if (!I->Pending)
      return FLICK_ERR_TRANSPORT; // not a submitted call: nothing can land
    if (int Err = pumpOne(c, I)) {
      (void)Err; // every pending call (this one included) is now done
      break;
    }
  }
  return call->status;
}

int flick_async_drain(flick_async_client *c) {
  AsyncImpl *I = impl(c);
  int First = flick_async_flush(c);
  while (I->Pending)
    if (int Err = pumpOne(c, I)) {
      if (!First)
        First = Err;
      break; // pumpOne already failed everything still pending
    }
  return First;
}

void flick_async_release(flick_async_client *c, flick_call *call) {
  AsyncImpl *I = impl(c);
  // Hand adopted wire storage back to the transport (same reuse story as
  // flick_client_begin), then recycle the slot.
  flick_channel_release(c->chan, &call->rep);
  flick_buf_reset(&call->rep);
  call->id = 0;
  call->status = FLICK_OK;
  call->done = 0;
  call->submit_ns = 0;
  call->on_complete = nullptr;
  call->ctx = nullptr;
  call->next = I->Free;
  I->Free = call;
}

int flick_async_oneway(flick_async_client *c) {
  AsyncImpl *I = impl(c);
  size_t Total = flick_buf_total(&c->req);
  flick_metric_add(&flick_metrics::oneways_sent, 1);
  flick_metric_add(&flick_metrics::request_bytes, Total);
  // Flatten into the cork arena (one staging copy, charged as such); the
  // wire bytes per frame are identical to an uncorked oneway's.
  size_t Off = I->CorkBytes.size();
  I->CorkBytes.resize(Off + Total);
  flick_iov Iov[2 * FLICK_BUF_MAX_REFS + 1];
  size_t N = flick_buf_iovec(&c->req, Iov);
  uint8_t *Dst = I->CorkBytes.data() + Off;
  for (size_t S = 0; S != N; ++S) {
    std::memcpy(Dst, Iov[S].base, Iov[S].len);
    Dst += Iov[S].len;
  }
  if (flick_metrics_active) {
    flick_metrics_active->bytes_copied += Total;
    ++flick_metrics_active->copy_ops;
  }
  I->CorkLens.push_back(Total);
  if (I->CorkLens.size() >= I->CorkMax)
    return flick_async_flush(c);
  return FLICK_OK;
}

int flick_async_flush(flick_async_client *c) {
  AsyncImpl *I = impl(c);
  size_t N = I->CorkLens.size();
  if (!N)
    return FLICK_OK;
  std::vector<flick_iov> Iovs(N);
  std::vector<const flick_iov *> Segs(N);
  std::vector<size_t> Counts(N, 1);
  size_t Off = 0;
  for (size_t M = 0; M != N; ++M) {
    Iovs[M].base = I->CorkBytes.data() + Off;
    Iovs[M].len = I->CorkLens[M];
    Off += I->CorkLens[M];
    Segs[M] = &Iovs[M];
  }
  uint32_t Base = 0;
  if (flick_trace_active) {
    Base = flick_trace_active->depth;
    if (Base == 0)
      flick_trace_begin_impl(FLICK_SPAN_RPC, "rpc");
    if (c->endpoint)
      flick_trace_tag_endpoint(c->endpoint);
    flick_trace_begin_impl(FLICK_SPAN_SEND, "send");
  }
  int Err = c->chan->sendBatch(Segs.data(), Counts.data(), N);
  flick_trace_close_to(Base);
  I->CorkBytes.clear();
  I->CorkLens.clear();
  if (Err)
    flick_metric_add(&flick_metrics::transport_errors, 1);
  return Err;
}
