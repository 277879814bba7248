//===- tests/IntegrationRoster.cpp - string-array round trips -------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Round-trips a fixed array of strings (idl/roster.idl) through the IIOP
/// stubs.  An in string array is presented as `char *const *`, which the
/// server skeleton's decoded `char *[4]` and a caller's `char *const [4]`
/// both convert to; spelled `const char **`, the generated server did not
/// compile.
///
//===----------------------------------------------------------------------===//

#include "ItHarness.h"
#include "it_roster.h"
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>

using namespace flick;

int32_t Team_total_length_server(char *const *n, CORBA_Environment *_ev) {
  int32_t Total = 0;
  for (int I = 0; I != 4; ++I)
    Total += static_cast<int32_t>(std::strlen(n[I]));
  return Total;
}

/// The reversed strings point into the decoded request, which outlives the
/// reply's encoding.
void Team_reverse_server(char *const *n, char **r, CORBA_Environment *_ev) {
  for (int I = 0; I != 4; ++I)
    r[I] = n[3 - I];
}

namespace {

class RosterIt : public ::testing::Test {
protected:
  ItRig Rig{Team_dispatch};
  CORBA_Environment Ev{};
  char Ada[4] = "ada", Empty[1] = "", Grace[6] = "grace",
       Barbara[8] = "barbara";
};

TEST_F(RosterIt, InStringArray) {
  Names In = {Ada, Empty, Grace, Barbara};
  EXPECT_EQ(Team_total_length(Rig.object(), In, &Ev), 15);
  EXPECT_EQ(Ev._major, unsigned(CORBA_NO_EXCEPTION));
}

TEST_F(RosterIt, ConstArrayBindsToInParameter) {
  char *const In[4] = {Barbara, Grace, Empty, Ada};
  EXPECT_EQ(Team_total_length(Rig.object(), In, &Ev), 15);
  EXPECT_EQ(Ev._major, unsigned(CORBA_NO_EXCEPTION));
}

TEST_F(RosterIt, OutStringArrayReversed) {
  Names In = {Ada, Empty, Grace, Barbara};
  Names Out = {};
  Team_reverse(Rig.object(), In, Out, &Ev);
  ASSERT_EQ(Ev._major, unsigned(CORBA_NO_EXCEPTION));
  EXPECT_STREQ(Out[0], "barbara");
  EXPECT_STREQ(Out[1], "grace");
  EXPECT_STREQ(Out[2], "");
  EXPECT_STREQ(Out[3], "ada");
  for (char *S : Out)
    free(S);
}

} // namespace
