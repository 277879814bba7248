//===- tests/StatsTests.cpp - compiler stats registry tests ---------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the --stats registry (regions, counters, JSON shape) and
/// a whole-pipeline test asserting that a compile records the five phases
/// (parse, verify, mint, presgen, backend) with nonzero IR counters.
///
//===----------------------------------------------------------------------===//

#include "backends/Backend.h"
#include "frontends/corba/CorbaFrontEnd.h"
#include "presgen/PresGen.h"
#include "support/Diagnostics.h"
#include "support/Stats.h"
#include <gtest/gtest.h>

using namespace flick;

namespace {

/// Turns stats on for one test and restores the registry afterward so
/// other tests in the binary never see stale phases.
class StatsTest : public ::testing::Test {
protected:
  void SetUp() override {
    Stats::get().reset();
    Stats::get().setEnabled(true);
  }
  void TearDown() override {
    Stats::get().reset();
    Stats::get().setEnabled(false);
  }
};

TEST_F(StatsTest, CountersAccumulateOnCurrentRegion) {
  FLICK_STAT_COUNT("apples", 2);
  FLICK_STAT_COUNT("apples", 3);
  {
    FLICK_STAT_PHASE("inner");
    FLICK_STAT_COUNT("pears", 1);
  }
  const StatsRegion &R = Stats::get().root();
  EXPECT_EQ(R.counterValue("apples"), 5u);
  EXPECT_EQ(R.counterValue("pears"), 0u) << "pears belongs to the phase";
  ASSERT_NE(R.findChild("inner"), nullptr);
  EXPECT_EQ(R.findChild("inner")->counterValue("pears"), 1u);
}

TEST_F(StatsTest, PhasesNestAndRecordTime) {
  {
    FLICK_STAT_PHASE("outer");
    {
      FLICK_STAT_PHASE("nested");
      FLICK_STAT_COUNT("n", 7);
    }
  }
  const StatsRegion *Outer = Stats::get().root().findChild("outer");
  ASSERT_NE(Outer, nullptr);
  EXPECT_GE(Outer->WallUs, 0.0);
  const StatsRegion *Nested = Outer->findChild("nested");
  ASSERT_NE(Nested, nullptr);
  EXPECT_EQ(Nested->counterValue("n"), 7u);
  EXPECT_EQ(Stats::get().root().findChild("nested"), nullptr)
      << "nested must hang under outer, not the root";
}

TEST_F(StatsTest, DisabledRegistryRecordsNothing) {
  Stats::get().setEnabled(false);
  {
    FLICK_STAT_PHASE("ghost");
    FLICK_STAT_COUNT("ghost.count", 9);
  }
  EXPECT_TRUE(Stats::get().root().Children.empty());
  EXPECT_EQ(Stats::get().root().counterValue("ghost.count"), 0u);
}

TEST_F(StatsTest, SamePhaseNameMergesAcrossOpens) {
  {
    FLICK_STAT_PHASE("p");
    FLICK_STAT_COUNT("c", 1);
  }
  {
    FLICK_STAT_PHASE("p");
    FLICK_STAT_COUNT("c", 2);
  }
  ASSERT_EQ(Stats::get().root().Children.size(), 1u);
  EXPECT_EQ(Stats::get().root().findChild("p")->counterValue("c"), 3u);
}

TEST_F(StatsTest, JsonEscapesAndContainsNotes) {
  Stats::get().note("input", "a\"b\\c");
  FLICK_STAT_COUNT("k", 1);
  std::string J = Stats::get().toJson();
  EXPECT_NE(J.find("\"input\": \"a\\\"b\\\\c\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"k\": 1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"build\": {\"git\": "), std::string::npos)
      << "stats exports carry build attribution: " << J;
}

TEST(StatsJsonEscape, ControlCharacters) {
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape("t\tx"), "t\\tx");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

/// The acceptance-criteria test: a full compile records one region per
/// pipeline phase and nonzero IR-size counters.
TEST_F(StatsTest, FullPipelineRecordsFivePhases) {
  const char *Idl = R"(
    struct Item { long id; string label; };
    interface Store {
      long put(in Item it);
      Item get(in long id);
    };
  )";
  DiagnosticEngine D;
  std::unique_ptr<AoiModule> M;
  {
    FLICK_STAT_PHASE("parse");
    M = parseCorbaIdl(Idl, "t.idl", D);
  }
  ASSERT_TRUE(M) << D.renderAll();
  {
    FLICK_STAT_PHASE("verify");
    ASSERT_TRUE(M->verify(D)) << D.renderAll();
  }
  CorbaPresGen PG{PresGenOptions{}};
  auto P = PG.generate(*M, D); // opens the mint + presgen phases itself
  ASSERT_TRUE(P) << D.renderAll();
  auto BE = createBackend("iiop", BackendOptions());
  ASSERT_TRUE(BE);
  BackendOutput Out = BE->generate(*P, "t"); // opens the backend phase

  const StatsRegion &R = Stats::get().root();
  for (const char *Phase : {"parse", "verify", "mint", "presgen", "backend"})
    EXPECT_NE(R.findChild(Phase), nullptr) << "missing phase " << Phase;
  EXPECT_EQ(R.Children.size(), 5u);

  const StatsRegion *Parse = R.findChild("parse");
  ASSERT_NE(Parse, nullptr);
  EXPECT_GT(Parse->counterValue("lexer.tokens"), 0u);

  const StatsRegion *Presgen = R.findChild("presgen");
  ASSERT_NE(Presgen, nullptr);
  EXPECT_GT(Presgen->counterValue("mint.nodes.total"), 0u);
  EXPECT_GT(Presgen->counterValue("cast.nodes"), 0u);
  EXPECT_GT(Presgen->counterValue("pres.interfaces"), 0u);

  const StatsRegion *Backend = R.findChild("backend");
  ASSERT_NE(Backend, nullptr);
  EXPECT_GT(Backend->counterValue("backend.bytes_total"), 0u);
  EXPECT_EQ(Backend->counterValue("backend.bytes_total"),
            Out.Header.size() + Out.ClientSrc.size() + Out.ServerSrc.size() +
                Out.CommonSrc.size());
  // The back end's CAST count covers presgen's and its own.
  EXPECT_EQ(Backend->counterValue("backend.cast_nodes"), P->Cast.numNodes());
  EXPECT_GT(Backend->counterValue("backend.cast_nodes"),
            Presgen->counterValue("cast.nodes"));
  EXPECT_EQ(Backend->counterValue("backend.cast_bytes"), P->Cast.numBytes());
  EXPECT_GT(Backend->counterValue("backend.cast_bytes"),
            Backend->counterValue("backend.cast_nodes"));
  // The hierarchy: stub generation and printing nest under backend.
  EXPECT_NE(Backend->findChild("stubs"), nullptr);
  EXPECT_NE(Backend->findChild("print"), nullptr);

  EXPECT_NE(Stats::get().toJson().find("\"phases\""), std::string::npos);
}

} // namespace
