//===- runtime/Channel.h - Message channel + wire-buffer pool ---*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Channel abstraction beneath the generated stubs -- one send path
/// (sendv: a message as scatter-gather segments, one segment being the
/// flat case) and one receive path (recvInto: receive by adoption) -- and
/// the WireBufPool with the pooled-message discipline every endpoint
/// shares: fill a pooled buffer on send, adopt it on receive, reclaim it
/// on release.
///
/// The concrete transports live in `runtime/transport/`:
///
///  - transport/LocalLink.h    deterministic single-threaded pump link
///                             (examples, goldens, fig3-7 benches)
///  - transport/Transport.h    the pluggable seam for the concurrent
///                             runtime, with ThreadedLink (mutex queue
///                             baseline), ShardedLink (lock-free rings +
///                             work stealing), and SocketLink (Unix
///                             sockets + epoll) behind it
///
/// This header intentionally keeps no transport: code that only moves
/// bytes over "some channel" includes this; code that builds links picks
/// one from transport/.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_CHANNEL_H
#define FLICK_RUNTIME_CHANNEL_H

#include "runtime/flick_runtime.h"
#include <cstddef>
#include <cstdint>

namespace flick {

/// Abstract message transport: send one framed message / receive one.
class Channel {
public:
  virtual ~Channel();

  /// Queues one message given as \p Count scatter-gather segments, which
  /// are borrowed only for the duration of the call.  One segment is the
  /// flat case; zero segments (or only empty ones) send an empty message.
  /// Returns FLICK_OK or FLICK_ERR_TRANSPORT.
  virtual int sendv(const flick_iov *Segs, size_t Count) = 0;

  /// Receives one message into \p Into, resetting its cursors, borrowed
  /// segments and contents first.  The transports hand their pooled wire
  /// buffer over by adoption (WireBufPool::adopt).  Returns FLICK_OK or
  /// FLICK_ERR_TRANSPORT when no message can be produced.
  virtual int recvInto(flick_buf *Into) = 0;

  /// Hint that \p Buf's contents are dead (the dispatch frame or client
  /// call that was reading them has finished).  Transports that adopt
  /// pooled storage into receive buffers reclaim it here
  /// (WireBufPool::reclaim), so the next sender refills the same hot
  /// allocation instead of ping-ponging between two; a channel that
  /// copies into the caller's storage instead leaves it alone.  The
  /// buffer stays valid either way.
  virtual void release(flick_buf *Buf) = 0;

  /// Queues \p NMsgs whole messages in one call, each given as its own
  /// scatter-gather segment list (Segs[i], Counts[i] segments).  Used by
  /// the async client's oneway corking: transports that can amortize
  /// per-send cost override this (SocketLink issues one sendmsg over all
  /// frames); the default just loops sendv per message.  Stops at the
  /// first failure and returns its status.
  virtual int sendBatch(const flick_iov *const *Segs, const size_t *Counts,
                        size_t NMsgs);

  //===--------------------------------------------------------------------===//
  // Out-of-band request correlation (DESIGN.md §15)
  //
  // The async pipelined client tags every outgoing request with a nonzero
  // correlation id; the transport carries it *next to* the payload (in
  // the queue transports' WireMsg / SocketLink's frame header, exactly
  // where the trace context already rides) so payload bytes are identical
  // whether or not the caller pipelines.  A worker-side channel that
  // receives a request auto-echoes the id onto its next reply, so servers
  // need no changes.  Synchronous clients never call setCorrelation and
  // the id stays 0 throughout.
  //===--------------------------------------------------------------------===//

  /// Sets the correlation id stamped on subsequent outgoing messages.
  void setCorrelation(uint64_t Id) { CorrOut = Id; }

  /// The correlation id carried by the most recently received message
  /// (0 when the sender did not tag it).
  uint64_t lastCorrelation() const { return CorrIn; }

protected:
  uint64_t CorrOut = 0; ///< id stamped on the next send
  uint64_t CorrIn = 0;  ///< id carried by the last received message
};

/// One message queued inside an in-process transport (LocalLink,
/// ThreadedLink, ShardedLink).  The wire bytes live in a pool-managed
/// malloc allocation so a receiver can adopt it whole instead of copying
/// it out.  Everything else rides out of band, never inside the bytes, so
/// neither tracing nor pipelining can perturb the wire format: the
/// sender's trace context (TraceId, ParentSpan, Endpoint) and the async
/// client's correlation id Corr (0 for synchronous callers).  EnqNs
/// stamps when a request entered a shared queue (gauge clock, 0 when
/// neither the flight recorder nor the sender's tracer is on) so the
/// dequeue side can account the enqueue-to-dequeue wait.
struct WireMsg {
  uint8_t *Data = nullptr;
  size_t Cap = 0;
  size_t Len = 0;
  uint64_t TraceId = 0;
  uint64_t ParentSpan = 0;
  uint32_t Endpoint = 0;
  uint64_t EnqNs = 0;
  uint64_t Corr = 0;
};

/// Fixed-size free list of malloc'd wire-message allocations (DESIGN.md
/// §11): a receiver adopts a pooled buffer whole instead of copying it
/// out, and releases its previous one for the next sender to refill.  Not
/// internally synchronized -- every pool belongs to one channel endpoint,
/// and in threaded mode each endpoint is confined to one thread, so the
/// zero-copy path stays hot without a global lock.  Buffers migrate
/// freely between pools (all storage is plain malloc/free).
///
/// fill, adopt and reclaim are the whole message discipline of a pooled
/// endpoint; they are inline because fill sits on every queue transport's
/// send path.
class WireBufPool {
public:
  ~WireBufPool();

  /// Returns a buffer with capacity >= \p Need: a pooled one when the
  /// free list has a fit (pool_hits), else a fresh malloc (pool_misses).
  uint8_t *acquire(size_t Need, size_t *Cap);

  /// Parks \p Data for reuse, or frees it when the pool is full.
  void release(uint8_t *Data, size_t Cap);

  /// Fills \p M with one outgoing message: acquires a buffer for the
  /// segments' total length, gathers them into it (the one bulk copy of
  /// a queue transport's send, counted as one copy op), and stamps the
  /// caller's trace context and correlation id \p Corr.  Empty segments
  /// are skipped, so an empty message never hands memcpy a null base.
  /// Returns FLICK_ERR_TRANSPORT (counting alloc_errors) when no buffer
  /// can be had.
  int fill(WireMsg *M, const flick_iov *Segs, size_t Count, uint64_t Corr) {
    size_t Total = 0;
    for (size_t I = 0; I != Count; ++I)
      Total += Segs[I].len;
    M->Data = acquire(Total, &M->Cap);
    if (!M->Data) {
      flick_metric_add(&flick_metrics::alloc_errors, 1);
      return FLICK_ERR_TRANSPORT;
    }
    uint8_t *Out = M->Data;
    for (size_t I = 0; I != Count; ++I)
      if (Segs[I].len) {
        std::memcpy(Out, Segs[I].base, Segs[I].len);
        Out += Segs[I].len;
      }
    M->Len = Total;
    if (flick_metrics_active) {
      flick_metrics_active->bytes_copied += Total;
      ++flick_metrics_active->copy_ops;
    }
    if (flick_trace_active)
      flick_trace_stamp(&M->TraceId, &M->ParentSpan, &M->Endpoint);
    M->Corr = Corr;
    return FLICK_OK;
  }

  /// Receive by adoption: \p Data (\p Len bytes in a \p Cap-byte
  /// allocation from any pool) becomes \p Into's storage with both
  /// cursors and the borrowed segments reset, and Into's old storage is
  /// parked here for the next send.  The receive itself copies nothing.
  /// Legal because flick_buf manages storage with realloc/free and pools
  /// allocate with malloc.
  void adopt(flick_buf *Into, uint8_t *Data, size_t Cap, size_t Len) {
    flick_buf_reset(Into);
    release(Into->data, Into->cap);
    Into->data = Data;
    Into->cap = Cap;
    Into->len = Len;
    Into->pos = 0;
  }

  /// The body of every adopting endpoint's Channel::release: parks
  /// \p Buf's storage the moment its reader is done with it, so the next
  /// send refills this same (cache-hot) allocation.  Without the early
  /// release two buffers alternate -- one adopted, one filling --
  /// doubling the transport's cache footprint per direction.  \p Buf is
  /// left empty and valid.
  void reclaim(flick_buf *Buf) {
    release(Buf->data, Buf->cap);
    Buf->data = nullptr;
    Buf->cap = 0;
    Buf->len = 0;
    Buf->pos = 0;
  }

private:
  struct Ent {
    uint8_t *Data;
    size_t Cap;
  };
  enum { MaxBufs = 8 };
  Ent Bufs[MaxBufs];
  size_t Count = 0;
};

} // namespace flick

#endif // FLICK_RUNTIME_CHANNEL_H
