//===- perfbench/tests/LogicTests.cpp - The benchmark's own logic ---------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Tests of what the benchmark computes by itself: percentile math, input
// generator determinism for a fixed seed, span self times, and open-loop
// lateness accounting.  Run with `.bench_build/perfbench_tests` after
// building the perfbench project.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Gen.h"
#include "Spans.h"
#include <gtest/gtest.h>

using namespace pb;

TEST(Percentiles, NearestRankOnKnownSamples) {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  EXPECT_EQ(percentileSorted(V, 0.5), 50);
  EXPECT_EQ(percentileSorted(V, 0.99), 99);
  EXPECT_EQ(percentileSorted(V, 1.0), 100);
  EXPECT_EQ(percentileSorted(V, 0.001), 1);
  EXPECT_EQ(percentileSorted({}, 0.5), 0);
  EXPECT_EQ(percentileSorted({7}, 0.99), 7);
}

TEST(Percentiles, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(medianOf({3, 1, 2}), 2);
  EXPECT_EQ(medianOf({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(medianOf({}), 0);
}

TEST(Percentiles, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(supportedTail(1000), 0.99);
  EXPECT_EQ(supportedTail(100000), 0.99); // capped at p99
  EXPECT_EQ(supportedTail(999), 0.98);
  EXPECT_EQ(supportedTail(400), 0.975);
  EXPECT_EQ(supportedTail(100), 0.9);
  EXPECT_EQ(supportedTail(19), 0.5);
  EXPECT_EQ(supportedTail(100000, EndToEndTail), EndToEndTail);
  EXPECT_EQ(supportedTail(99, EndToEndTail), 0.5);
  EXPECT_TRUE(supportsTail(100, 0.9));
  EXPECT_FALSE(supportsTail(999, 0.99));
  LatencySummary S = summarize({5, 1, 4, 2, 3});
  EXPECT_EQ(S.Count, 5u);
  EXPECT_EQ(S.P50, 3);
  EXPECT_EQ(S.TailLevel, 0.5);
  EXPECT_EQ(S.Mean, 3);
}

TEST(Generators, StratifiedSizesCoverEveryStratumOnce) {
  Rng R(42);
  std::vector<size_t> S = stratifiedLogSizes(R, 16, 64, 1 << 20);
  ASSERT_EQ(S.size(), 16u);
  std::sort(S.begin(), S.end());
  double Ratio = std::pow(double(1 << 20) / 64, 1.0 / 16);
  for (size_t I = 0; I != S.size(); ++I) {
    EXPECT_GE(S[I], std::floor(64 * std::pow(Ratio, double(I))));
    EXPECT_LE(S[I], std::ceil(64 * std::pow(Ratio, double(I + 1))));
  }
}

TEST(Generators, CorpusIsAFunctionOfTheSeed) {
  std::vector<IdlModule> A = generateCorpus(7, 4, 50);
  std::vector<IdlModule> B = generateCorpus(7, 4, 50);
  std::vector<IdlModule> C = generateCorpus(8, 4, 50);
  ASSERT_EQ(A.size(), 12u);
  ASSERT_EQ(A.size(), B.size());
  bool AnyDiffers = false;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Source, B[I].Source);
    EXPECT_EQ(A[I].Names, B[I].Names);
    EXPECT_EQ(A[I].Backend, B[I].Backend);
    EXPECT_FALSE(A[I].Names.empty());
    AnyDiffers |= A[I].Source != C[I].Source;
  }
  EXPECT_TRUE(AnyDiffers);
}

TEST(Generators, ModuleIsAFunctionOfItsArguments) {
  IdlModule A = generateModule(5, IdlModule::Corba, 90, 40);
  IdlModule B = generateModule(5, IdlModule::Corba, 90, 40);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.Backend, "iiop");
  EXPECT_EQ(A.Ops, 40u);
  EXPECT_NE(A.Source, generateModule(6, IdlModule::Corba, 90, 40).Source);
}

TEST(Generators, ArrivalScheduleIsSeededAndHasTheRequestedRate) {
  ArrivalSchedule A(3, 1000), B(3, 1000);
  double Last = 0;
  for (int I = 0; I != 20000; ++I) {
    double T = A.next();
    EXPECT_EQ(T, B.next());
    EXPECT_GE(T, Last);
    Last = T;
  }
  // 20000 arrivals at 1000/s span about 20 s.
  EXPECT_NEAR(Last / 1e9, 20.0, 0.6);
}

TEST(Spans, SelfTimeExcludesDirectChildren) {
  Tracer T(0);
  T.beginOp("op", 1, 0);
  uint32_t Parse = T.begin("parse", 10);
  T.record("lex", 12, 20);
  T.end(Parse, 50);
  T.record("emit", 60, 90);
  T.endOp(100);
  EXPECT_EQ(T.find("op").TotalNs, 100);
  EXPECT_EQ(T.find("op").SelfNs, 100 - 40 - 30);
  EXPECT_EQ(T.find("parse").SelfNs, 40 - 8);
  EXPECT_EQ(T.find("lex").SelfNs, 8);
  EXPECT_EQ(T.find("missing").Count, 0u);
  EXPECT_EQ(T.ops(), 1u);
}

TEST(OpenLoop, LatencyRunsFromTheScheduledArrival) {
  // Arrivals every 10 us; the generator stalls 1 ms before the third send
  // and catches up by sending the delayed requests back to back; each
  // request then takes 5 us.  Timed from the send, every latency would
  // read 5 us and the stall would vanish.
  OpenLoopBook Book(1e9, true);
  for (int I = 0; I != 10; ++I) {
    double Sched = I * 1e4;
    double Send = I < 2 ? Sched : std::max(Sched, 2e4 + 1e6);
    Book.sent(Sched, Send);
    Book.done(Sched, Send + 5e3, 64);
  }
  // Latencies: 5, 5, then 1005 down to 935 in steps of 10.
  LatencySummary Lat = Book.Latency.report().Lat;
  EXPECT_EQ(Lat.Count, 10u);
  EXPECT_EQ(Lat.P50, 955);
  EXPECT_EQ(Lat.Mean, 777);
  // Lags: 0, 0, then 1000 down to 930.
  LatencySummary Lag = Book.Lag.report().Lat;
  EXPECT_EQ(Lag.P50, 950);
}

TEST(OpenLoop, AnEarlySendIsNotNegativeLag) {
  OpenLoopBook Book(1e9, true);
  Book.sent(100, 90);
  EXPECT_EQ(Book.Lag.report().Lat.P50, 0);
}

TEST(Slicer, ReportsMediansOverSlices) {
  Slicer S(1e9);
  // Three one-second slices of 1000 ops; the middle one runs 10x slower.
  for (int Slice = 0; Slice != 3; ++Slice)
    for (int I = 0; I != 1000; ++I)
      S.add(Slice * 1e9 + I * 1e5, Slice == 1 ? 100.0 : 10.0 + I % 2, 1000);
  SliceReport R = S.report();
  EXPECT_EQ(R.Slices, 3u);
  EXPECT_EQ(R.Lat.Count, 3000u);
  EXPECT_EQ(R.Lat.P50, 10);
  EXPECT_EQ(R.Lat.Tail, 11);
  EXPECT_NEAR(R.BytesPerSec, 1000 / 10.5e-6, 1);
}
