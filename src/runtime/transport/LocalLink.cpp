//===- runtime/transport/LocalLink.cpp - In-process pump link -------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "runtime/transport/LocalLink.h"
#include "runtime/flick_runtime.h"

using namespace flick;

LocalLink::LocalLink() : AEnd(*this, true), BEnd(*this, false) {}

LocalLink::~LocalLink() {
  for (std::deque<WireMsg> *Q : {&ToA, &ToB})
    for (WireMsg &M : *Q)
      std::free(M.Data);
}

void LocalLink::setModel(NetworkModel Model, SimClock *Clock) {
  this->Model = std::move(Model);
  this->Clock = Clock;
}

void LocalLink::account(size_t Len) {
  if (!Clock)
    return;
  double Us = Model.wireTimeUs(Len);
  Clock->advance(Us);
  if (flick_metrics_active)
    flick_metrics_active->wire_time_us += Us;
  // The modeled transit time is already known, so it is recorded as a
  // completed child span of whatever send is in flight.
  if (flick_trace_active)
    flick_trace_record_complete(FLICK_SPAN_WIRE, "wire", Us);
}

int LocalLink::End::sendv(const flick_iov *Segs, size_t Count) {
  WireMsg M;
  if (int Err = Link.Pool.fill(&M, Segs, Count, CorrOut))
    return Err;
  Link.account(M.Len);
  (IsClient ? Link.ToB : Link.ToA).push_back(M);
  return FLICK_OK;
}

int LocalLink::End::recvInto(flick_buf *Into) {
  auto &Queue = IsClient ? Link.ToA : Link.ToB;
  // The client side synchronously pumps the server until a reply shows up;
  // the server side simply fails when no request is pending.
  while (Queue.empty()) {
    if (!IsClient || !Link.Pump || !Link.Pump())
      return FLICK_ERR_TRANSPORT;
  }
  WireMsg M = Queue.front();
  Queue.pop_front();
  CorrIn = M.Corr;
  if (!IsClient)
    CorrOut = M.Corr; // echo the request's id onto the reply
  if (flick_trace_active)
    flick_trace_deposit(M.TraceId, M.ParentSpan, M.Endpoint);
  Link.Pool.adopt(Into, M.Data, M.Cap, M.Len);
  return FLICK_OK;
}
