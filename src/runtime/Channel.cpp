//===- runtime/Channel.cpp - Message channel + wire-buffer pool -----------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
// The concrete transports (LocalLink, ThreadedLink, ShardedLink,
// SocketLink) live in runtime/transport/.
//
//===----------------------------------------------------------------------===//

#include "runtime/Channel.h"
#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"

using namespace flick;

Channel::~Channel() = default;

size_t flick_buf_iovec(const flick_buf *b, flick_iov *iov) {
  size_t n = 0;
  size_t own = 0; // owned bytes already emitted
  for (size_t i = 0; i != b->nrefs; ++i) {
    const flick_buf_ref_ent &E = b->refs[i];
    if (E.own_off > own) {
      iov[n].base = b->data + own;
      iov[n].len = E.own_off - own;
      ++n;
      own = E.own_off;
    }
    iov[n].base = E.base;
    iov[n].len = E.len;
    ++n;
  }
  if (b->len > own) {
    iov[n].base = b->data + own;
    iov[n].len = b->len - own;
    ++n;
  }
  return n;
}

int Channel::sendBatch(const flick_iov *const *Segs, const size_t *Counts,
                       size_t NMsgs) {
  for (size_t I = 0; I != NMsgs; ++I)
    if (int Err = sendv(Segs[I], Counts[I]))
      return Err;
  return FLICK_OK;
}

//===----------------------------------------------------------------------===//
// WireBufPool
//===----------------------------------------------------------------------===//

WireBufPool::~WireBufPool() {
  flick_gauge_sub(&flick_gauges::pool_buffers, Count);
  for (size_t I = 0; I != Count; ++I)
    std::free(Bufs[I].Data);
}

uint8_t *WireBufPool::acquire(size_t Need, size_t *Cap) {
  for (size_t I = 0; I != Count; ++I) {
    if (Bufs[I].Cap >= Need) {
      uint8_t *Data = Bufs[I].Data;
      *Cap = Bufs[I].Cap;
      Bufs[I] = Bufs[--Count];
      flick_metric_add(&flick_metrics::pool_hits, 1);
      flick_gauge_add(&flick_gauges::pool_gauge_hits, 1);
      flick_gauge_sub(&flick_gauges::pool_buffers, 1);
      return Data;
    }
  }
  flick_metric_add(&flick_metrics::pool_misses, 1);
  flick_gauge_add(&flick_gauges::pool_gauge_misses, 1);
  size_t C = Need ? Need : 1;
  *Cap = C;
  return static_cast<uint8_t *>(std::malloc(C));
}

void WireBufPool::release(uint8_t *Data, size_t Cap) {
  if (!Data)
    return;
  if (Count < MaxBufs) {
    Bufs[Count].Data = Data;
    Bufs[Count].Cap = Cap;
    ++Count;
    flick_gauge_add(&flick_gauges::pool_buffers, 1);
    return;
  }
  std::free(Data);
}

//===----------------------------------------------------------------------===//
// C shims used by generated code
//===----------------------------------------------------------------------===//

int flick_channel_send_buf(flick_channel *ch, const flick_buf *b) {
  flick_iov iov[2 * FLICK_BUF_MAX_REFS + 1];
  return ch->sendv(iov, flick_buf_iovec(b, iov));
}

int flick_channel_recv(flick_channel *ch, flick_buf *into) {
  return ch->recvInto(into);
}

void flick_channel_release(flick_channel *ch, flick_buf *buf) {
  ch->release(buf);
}
