//===- bench/fig7_mig_comparison.cpp - Paper Figure 7 ---------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 7: Flick's Mach 3 stubs vs MIG-generated stubs, integer arrays over
/// Mach IPC.  MIG stands in as a hand-modeled stub in the style MIG emitted: a
/// fixed static message buffer (no growth checks, no xid bookkeeping -- MIG's
/// small-message advantage) but an extra staging copy into the send message
/// (Mach's typed-message handling -- MIG's large-message penalty).  Both sides
/// read what they receive in place in the receive buffer, as MIG stubs did.
/// The paper: MIG ~2x faster below 8 KB, Flick pulls ahead from 8 KB, +17% at
/// 64 KB.  The crossover (not the exact percentages) is the reproduced claim;
/// see EXPERIMENTS.md.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "b_mach.h"
#include "runtime/Calibrate.h"
#include "runtime/transport/LocalLink.h"
#include <cstring>
#include <vector>

using namespace flickbench;

int M_send_ints_1_svc(const M_intseq *) { return 0; }
int M_send_rects_1_svc(const M_rectseq *) { return 0; }
int M_send_dirents_1_svc(const M_direntseq *) { return 0; }

namespace {

//===----------------------------------------------------------------------===//
// The MIG-style stub pair (hand-modeled; see file comment)
//===----------------------------------------------------------------------===//

struct MigClient {
  flick::Channel *Chan = nullptr;
  std::vector<uint8_t> Msg;   ///< MIG's static message buffer
  std::vector<uint8_t> Stage; ///< the typed-message staging copy
  flick_buf Reply;            ///< the reply port's receive buffer
};

int migSendInts(MigClient &C, const int32_t *Data, uint32_t N) {
  size_t Len = 28 + size_t(N) * 4;
  uint8_t *B = C.Msg.data();
  // Fixed header; MIG compiled these stores with no checks at all.
  flick_enc_u32ne(B + 0, 0);
  flick_enc_u32ne(B + 4, static_cast<uint32_t>(Len));
  flick_enc_u32ne(B + 8, 1);
  flick_enc_u32ne(B + 12, 2);
  flick_enc_u32ne(B + 16, 401); // msgh_id: proc 1
  flick_enc_u32ne(B + 20, 0);
  flick_enc_u32ne(B + 24, N);
  std::memcpy(B + 28, Data, size_t(N) * 4);
  // Typed-message handling: Mach stages the message once more.
  std::memcpy(C.Stage.data(), B, Len);
  flick_iov Seg = {C.Stage.data(), Len};
  if (int Err = C.Chan->sendv(&Seg, 1))
    return Err;
  int Err = C.Chan->recvInto(&C.Reply);
  C.Chan->release(&C.Reply);
  return Err;
}

/// Server side of the MIG pair: consume the request in its receive
/// buffer, push a tiny reply.
bool migServe(flick::LocalLink &Link) {
  flick::Channel &Port = Link.serverEnd();
  flick_buf Req;
  flick_buf_init(&Req);
  if (Port.recvInto(&Req) != FLICK_OK)
    return false;
  bool Ok = Req.len >= 28;
  if (Ok) {
    uint32_t N = flick_dec_u32ne(Req.data + 24);
    // MIG delivered arrays in the message body; the servant reads in
    // place.
    volatile int32_t Sink = 0;
    if (N)
      Sink = flick_dec_u32ne(Req.data + 28);
    (void)Sink;
  }
  Port.release(&Req);
  if (!Ok)
    return false;
  uint8_t Reply[32] = {0};
  flick_enc_u32ne(Reply + 16, 501);
  flick_iov Seg = {Reply, sizeof Reply};
  return Port.sendv(&Seg, 1) == FLICK_OK;
}

} // namespace

int main() {
  flick_metrics *Metrics = benchMetricsIfJson();
  double HostBw = flick::measureCopyBandwidth();
  flick::NetworkModel Model =
      flick::scaleModelToHost(flick::NetworkModel::machIpc(), HostBw);
  std::printf(
      "=== Figure 7: Flick vs MIG stubs over Mach IPC ===\n"
      "paper: MIG ~2x faster below 8K; Flick ahead from 8K (+17%% at "
      "64K)\nhost copy bw %.1f MB/s; scaled per-message cost %.3f us\n\n",
      HostBw / 1e6, Model.PerMsgOverheadUs);
  std::printf("%8s %14s %14s %12s\n", "size", "flick(Mb/s)", "mig(Mb/s)",
              "flick/mig");

  std::vector<size_t> Sizes = {64,   256,   1024,   4096,   8192,
                               16384, 65536, 262144, 1048576};
  for (size_t Bytes : Sizes) {
    uint32_t N = static_cast<uint32_t>(Bytes / 4);
    std::vector<int32_t> Data(N, 7);

    // Flick Mach stubs over the simulated IPC port.
    flick::LocalLink FL;
    flick::SimClock FC;
    FL.setModel(Model, &FC);
    flick_server Srv;
    flick_server_init(&Srv, &FL.serverEnd(), M_BENCHPROG_dispatch);
    FL.setPump([&] { return flick_server_handle_one(&Srv) == FLICK_OK; });
    flick_client Cli;
    flick_client_init(&Cli, &FL.clientEnd());
    M_intseq MS{N, Data.data()};
    FC.reset();
    size_t FCalls = 0;
    TimeStats FCpu = timeIt([&] {
      ++FCalls;
      M_send_ints_1(&MS, &Cli);
    });
    double FSim = FC.totalUs() * 1e-6 / double(FCalls);
    double FT = double(Bytes) * 8.0 / (FCpu.Best + FSim) / 1e6;

    // MIG-style stubs over an identical port.
    flick::LocalLink ML;
    flick::SimClock MC;
    ML.setModel(Model, &MC);
    ML.setPump([&] { return migServe(ML); });
    MigClient Mig;
    Mig.Chan = &ML.clientEnd();
    Mig.Msg.resize(28 + Bytes);
    Mig.Stage.resize(28 + Bytes);
    flick_buf_init(&Mig.Reply);
    MC.reset();
    size_t MCalls = 0;
    TimeStats MCpu = timeIt([&] {
      ++MCalls;
      migSendInts(Mig, Data.data(), N);
    });
    double MSim = MC.totalUs() * 1e-6 / double(MCalls);
    double MT = double(Bytes) * 8.0 / (MCpu.Best + MSim) / 1e6;

    JsonReport::get().addRate("ints", "flick-mach", Bytes, FCpu,
                              FT * 1e6 / 8.0);
    JsonReport::get().addRate("ints", "mig", Bytes, MCpu, MT * 1e6 / 8.0);
    std::printf("%8s %14.1f %14.1f %11.2fx\n", fmtBytes(Bytes).c_str(),
                FT, MT, MT > 0 ? FT / MT : 0);
    flick_buf_destroy(&Mig.Reply);
    flick_client_destroy(&Cli);
    flick_server_destroy(&Srv);
  }
  return JsonReport::get().write("fig7_mig_comparison", Metrics) ? 0 : 1;
}
