//===- runtime/transport/LocalLink.h - In-process pump link -----*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LocalLink: a deterministic in-process request/reply pair.  The client
/// endpoint's recv "pumps" the registered server when its queue is empty,
/// so examples, goldens, and the fig3-7 benches run on one thread with
/// reproducible interleaving.  A link may carry a NetworkModel + SimClock
/// to account simulated wire time per message (the substitute for the
/// paper's Ethernet/Myrinet/Mach testbeds -- see NetworkModel.h).
///
/// LocalLink is single-threaded by construction and therefore not a
/// flick::Transport; the concurrent transports live beside it in this
/// directory (Transport.h).
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_RUNTIME_TRANSPORT_LOCALLINK_H
#define FLICK_RUNTIME_TRANSPORT_LOCALLINK_H

#include "runtime/Channel.h"
#include "runtime/NetworkModel.h"
#include <cstdint>
#include <deque>
#include <functional>

namespace flick {

/// An in-process bidirectional link with two endpoints.  Endpoint A is the
/// client side, endpoint B the server side.  When A receives with an empty
/// queue, the link invokes the pump callback (typically
/// `flick_server_handle_one`) until a reply appears, keeping everything on
/// one thread and deterministic.  This is the single-threaded mode; for
/// concurrent clients and a worker pool, use a Transport (Transport.h).
class LocalLink {
public:
  LocalLink();
  ~LocalLink();

  /// Attaches a wire-time model; every send advances \p Clock.
  void setModel(NetworkModel Model, SimClock *Clock);

  /// Registers the server pump invoked when the client blocks on recv.
  /// Returning false means "cannot make progress" (transport error).
  void setPump(std::function<bool()> Pump) { this->Pump = std::move(Pump); }

  Channel &clientEnd() { return AEnd; }
  Channel &serverEnd() { return BEnd; }

  /// Messages queued toward the server that it has not received yet.
  size_t pendingToServer() const { return ToB.size(); }

private:
  class End final : public Channel {
  public:
    End(LocalLink &Link, bool IsClient) : Link(Link), IsClient(IsClient) {}
    int sendv(const flick_iov *Segs, size_t Count) override;
    int recvInto(flick_buf *Into) override;
    void release(flick_buf *Buf) override { Link.Pool.reclaim(Buf); }

  private:
    LocalLink &Link;
    bool IsClient;
  };

  void account(size_t Len);

  /// Queued messages.  The server end echoes a request's correlation id
  /// onto its reply, so correlation unit tests run on this deterministic
  /// link too.
  std::deque<WireMsg> ToA; // server -> client
  std::deque<WireMsg> ToB; // client -> server
  WireBufPool Pool;
  NetworkModel Model = NetworkModel::ideal();
  SimClock *Clock = nullptr;
  std::function<bool()> Pump;
  End AEnd;
  End BEnd;
};

} // namespace flick

#endif // FLICK_RUNTIME_TRANSPORT_LOCALLINK_H
