//===- tests/ChannelTestUtil.h - driving a Channel from tests ---*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for tests that drive Channel endpoints by hand: flat bytes in
/// and out over the one send path (sendv) and the one receive path
/// (recvInto + release), plus the endpoint contracts every transport --
/// LocalLink included -- is checked against.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_TESTS_CHANNELTESTUTIL_H
#define FLICK_TESTS_CHANNELTESTUTIL_H

#include "runtime/Channel.h"
#include "runtime/flick_runtime.h"
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

namespace flick {

/// Sends \p Len bytes at \p Data as a one-segment message.
inline int sendBytes(Channel &C, const void *Data, size_t Len) {
  flick_iov Seg = {static_cast<const uint8_t *>(Data), Len};
  return C.sendv(&Seg, 1);
}

/// Receives one message, copies its bytes into \p Out and releases the
/// adopted storage back to the endpoint.
inline int recvBytes(Channel &C, std::vector<uint8_t> &Out) {
  flick_buf B;
  flick_buf_init(&B);
  int Err = C.recvInto(&B);
  if (Err == FLICK_OK)
    Out.assign(B.data, B.data + B.len);
  C.release(&B);
  flick_buf_destroy(&B);
  return Err;
}

/// A zero-segment send and a single null, zero-length segment are both
/// the empty message: each must reach \p Server through recvInto with
/// len 0 and the client's correlation id, and the server's empty reply
/// (auto-echoing that id) must reach \p Client the same way.
inline void expectEmptyMessagesRoundTrip(Channel &Client, Channel &Server) {
  const flick_iov NullSeg = {nullptr, 0};
  struct Shape {
    const flick_iov *Segs;
    size_t Count;
    uint64_t Corr;
  };
  const Shape Shapes[] = {{nullptr, 0, 11}, {&NullSeg, 1, 12}};
  flick_buf Got;
  flick_buf_init(&Got);
  for (const Shape &S : Shapes) {
    Client.setCorrelation(S.Corr);
    ASSERT_EQ(Client.sendv(S.Segs, S.Count), FLICK_OK);
    ASSERT_EQ(Server.recvInto(&Got), FLICK_OK);
    EXPECT_EQ(Got.len, 0u);
    EXPECT_EQ(Server.lastCorrelation(), S.Corr);
    Server.release(&Got);
    ASSERT_EQ(Server.sendv(S.Segs, S.Count), FLICK_OK);
    ASSERT_EQ(Client.recvInto(&Got), FLICK_OK);
    EXPECT_EQ(Got.len, 0u);
    EXPECT_EQ(Client.lastCorrelation(), S.Corr);
    Client.release(&Got);
  }
  flick_buf_destroy(&Got);
}

/// recvInto must reset a dirty receive buffer: both cursors, the borrowed
/// segments, the length, and the stale bytes.
inline void expectRecvIntoResetsDirtyBuffer(Channel &Sender,
                                            Channel &Receiver) {
  const uint8_t Msg[] = {0xAA, 0xBB};
  ASSERT_EQ(sendBytes(Sender, Msg, sizeof Msg), FLICK_OK);
  flick_buf Into;
  flick_buf_init(&Into);
  // Dirty the buffer as a previous call would have.
  ASSERT_EQ(flick_buf_ensure(&Into, 64), FLICK_OK);
  std::memset(flick_buf_grab(&Into, 64), 0xFF, 64);
  Into.pos = 17;
  uint8_t Span[8] = {};
  ASSERT_EQ(flick_buf_ref(&Into, Span, sizeof Span), FLICK_OK);
  ASSERT_EQ(Receiver.recvInto(&Into), FLICK_OK);
  EXPECT_EQ(Into.len, sizeof Msg);
  EXPECT_EQ(Into.pos, 0u);
  EXPECT_EQ(Into.nrefs, 0u);
  EXPECT_EQ(Into.ref_bytes, 0u);
  EXPECT_EQ(std::memcmp(Into.data, Msg, sizeof Msg), 0);
  Receiver.release(&Into);
  flick_buf_destroy(&Into);
}

} // namespace flick

#endif // FLICK_TESTS_CHANNELTESTUTIL_H
