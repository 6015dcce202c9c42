// Unit tests of the benchmark's own helpers: nearest-rank percentiles,
// ratios with their base, and the seeded open-loop schedule.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(NearestRank, PicksTheSmallestSampleCoveringP) {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(nearest_rank(v, 5.0), 15);    // rank ceil(0.25) = 1
  EXPECT_EQ(nearest_rank(v, 30.0), 20);   // rank ceil(1.5) = 2
  EXPECT_EQ(nearest_rank(v, 40.0), 20);   // rank 2 exactly
  EXPECT_EQ(nearest_rank(v, 50.0), 35);   // rank ceil(2.5) = 3
  EXPECT_EQ(nearest_rank(v, 100.0), 50);
}

TEST(NearestRank, IgnoresInputOrder) {
  const std::vector<double> v = {50, 15, 40, 20, 35};
  EXPECT_EQ(nearest_rank(v, 50.0), 35);
}

TEST(NearestRank, WholeRanksDoNotRoundUp) {
  // 90% of 100 samples is rank 90; computing 0.9 * 100 first would give
  // 90.00000000000001 and the 91st sample.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(nearest_rank(v, 90.0), 90);
  EXPECT_EQ(nearest_rank(v, 50.0), 50);
  std::vector<double> twenty(v.begin(), v.begin() + 20);
  EXPECT_EQ(nearest_rank(twenty, 50.0), 10);
  EXPECT_EQ(nearest_rank(twenty, 90.0), 18);
}

TEST(NearestRank, SingleSampleAndInfinity) {
  EXPECT_EQ(nearest_rank({7.0}, 1.0), 7.0);
  EXPECT_EQ(nearest_rank({7.0}, 100.0), 7.0);
  // A failed request is recorded as +inf and must land in the tail.
  EXPECT_TRUE(std::isinf(nearest_rank({1.0, 2.0, INFINITY}, 90.0)));
  EXPECT_EQ(nearest_rank({1.0, 2.0, INFINITY}, 50.0), 2.0);
}

TEST(NearestRank, RejectsEmptySampleAndBadP) {
  EXPECT_THROW(nearest_rank({}, 50.0), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, 101.0), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, NAN), std::invalid_argument);
}

TEST(Ratio, DividesByItsBase) {
  EXPECT_DOUBLE_EQ((Ratio{3.0, 4.0}.value()), 0.75);
  EXPECT_DOUBLE_EQ((Ratio{0.0, 4.0}.value()), 0.0);
}

TEST(Ratio, EmptyBaseReadsZero) {
  // Nothing attempted (e.g. no cache lookups on a cache-less workload).
  EXPECT_EQ((Ratio{0.0, 0.0}.value()), 0.0);
  EXPECT_EQ((Ratio{5.0, 0.0}.value()), 0.0);
}

TEST(OpenLoopSchedule, SameSeedSameSchedule) {
  const auto a = open_loop_schedule(42, 36.0, 5.0, 0.5, 4);
  const auto b = open_loop_schedule(42, 36.0, 5.0, 0.5, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].explain, b[i].explain);
    EXPECT_EQ(a[i].connection, b[i].connection);
  }
}

TEST(OpenLoopSchedule, DifferentSeedsDiffer) {
  const auto a = open_loop_schedule(1, 36.0, 5.0, 0.5, 4);
  const auto b = open_loop_schedule(2, 36.0, 5.0, 0.5, 4);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_s != b[i].due_s || a[i].explain != b[i].explain;
  }
  EXPECT_TRUE(differs);
}

TEST(OpenLoopSchedule, HoldsTheRateWithinTheWindow) {
  const double rate = 36.0, duration = 10.0;
  const auto s = open_loop_schedule(7, rate, duration, 0.5, 4);
  // A constant-rate schedule offers rate * duration requests, +-1 for the
  // seeded phase.
  EXPECT_NEAR(static_cast<double>(s.size()), rate * duration, 1.0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s[i].due_s, 0.0);
    EXPECT_LT(s[i].due_s, duration);
    EXPECT_EQ(s[i].connection, i % 4);
    if (i > 0) {
      EXPECT_NEAR(s[i].due_s - s[i - 1].due_s, 1.0 / rate, 1e-12);
    }
  }
}

TEST(OpenLoopSchedule, ExplainShareIsRespected) {
  const auto s = open_loop_schedule(11, 100.0, 100.0, 0.5, 4);
  std::size_t explains = 0;
  for (const Arrival& a : s) explains += a.explain ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(explains) / static_cast<double>(s.size()),
              0.5, 0.03);
  for (const Arrival& a : open_loop_schedule(11, 100.0, 1.0, 0.0, 4)) {
    EXPECT_FALSE(a.explain);
  }
}

TEST(OpenLoopSchedule, RejectsBadArguments) {
  EXPECT_THROW(open_loop_schedule(1, 0.0, 1.0, 0.5, 4), std::invalid_argument);
  EXPECT_THROW(open_loop_schedule(1, 1.0, 0.0, 0.5, 4), std::invalid_argument);
  EXPECT_THROW(open_loop_schedule(1, 1.0, 1.0, 0.5, 0), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
