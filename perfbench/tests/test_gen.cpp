// Unit tests of the benchmark's load generator core (src/gen.h). Built
// by the perfbench package; run with `ctest` in its build directory.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "gen.h"

namespace perfbench {
namespace {

TEST(Schedule, SameSeedSameArrivals) {
  const auto a = make_schedule(7, 4000, 2000, 3);
  const auto b = make_schedule(7, 4000, 2000, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ms, b[i].due_ms);
    EXPECT_EQ(a[i].endpoint, b[i].endpoint);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(Schedule, OtherSeedOtherArrivals) {
  const auto a = make_schedule(7, 4000, 2000, 3);
  const auto b = make_schedule(8, 4000, 2000, 3);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a.front().due_ms, b.front().due_ms);
}

TEST(Schedule, RateEndpointsAndValuesAreAsAsked) {
  const auto a = make_schedule(3, 4000, 5000, 3);
  // 20000 expected arrivals; Poisson sd ~141.
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 1000.0);
  std::set<std::int64_t> values;
  int per_endpoint[3] = {0, 0, 0};
  double prev = 0;
  for (const Arrival& x : a) {
    EXPECT_GE(x.due_ms, prev);
    EXPECT_LT(x.due_ms, 5000.0);
    prev = x.due_ms;
    ASSERT_GE(x.endpoint, 0);
    ASSERT_LT(x.endpoint, 3);
    ++per_endpoint[x.endpoint];
    EXPECT_GT(x.value, 1000);  // never a server's idle 100 + id
    values.insert(x.value);
  }
  EXPECT_EQ(values.size(), a.size());
  for (const int c : per_endpoint) EXPECT_GT(c, 6000);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // p90 of 100 samples is rank 90: exactly ten beyond it.
  ASSERT_TRUE(tail_percentile(v, 90).has_value());
  EXPECT_EQ(*tail_percentile(v, 90), 90.0);
  // p99 would rest on one sample beyond.
  EXPECT_FALSE(tail_percentile(v, 99).has_value());
  v.pop_back();  // 99 samples: p90 is rank 90, nine beyond
  EXPECT_FALSE(tail_percentile(v, 90).has_value());
  EXPECT_TRUE(tail_percentile(v, 75).has_value());
}

TEST(Percentile, P99ReportableFromAThousand) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  ASSERT_TRUE(tail_percentile(v, 99).has_value());
  EXPECT_EQ(*tail_percentile(v, 99), 990.0);
}

TEST(Percentile, MedianOfEvenAndOdd) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Tally, LateAndUnansweredCountAsFailed) {
  Tally t;
  t.add(1.5, 50);
  t.add(50.0, 50);          // at the limit: in time
  t.add(50.5, 50);          // late
  t.add(std::nullopt, 50);  // never answered
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.in_limit, 2u);
  EXPECT_EQ(t.late, 1u);
  EXPECT_EQ(t.unanswered, 1u);
  EXPECT_DOUBLE_EQ(t.ok_share(), 0.5);  // both failures miss goodput
}

TEST(Endpoint, AnswersRetireOnce) {
  Endpoint ep(0, 3);
  const auto s1 = ep.submit(10, 0.0);
  const auto s2 = ep.submit(11, 1.0);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(ep.answer(s2), std::optional<std::size_t>(11));
  EXPECT_FALSE(ep.answer(s2).has_value());  // duplicate reply
  EXPECT_FALSE(ep.answer(99).has_value());  // unknown req_seq
  EXPECT_EQ(ep.fail_over(2.0).size(), 1u);   // only s1 is left
}

TEST(Endpoint, OverdueFromOldestSend) {
  Endpoint ep(0, 3);
  EXPECT_FALSE(ep.overdue(1e9, 400));  // nothing outstanding
  ep.submit(0, 100.0);
  ep.submit(1, 300.0);
  EXPECT_FALSE(ep.overdue(499.0, 400));
  EXPECT_TRUE(ep.overdue(500.0, 400));
  ep.answer(1);  // the oldest answered: the clock restarts at 300
  EXPECT_FALSE(ep.overdue(600.0, 400));
  EXPECT_TRUE(ep.overdue(700.0, 400));
}

TEST(Endpoint, FailoverResendsWholeOutstandingSetInSeqOrder) {
  Endpoint ep(2, 3);
  for (std::size_t r = 0; r < 6; ++r) {
    ep.submit(100 + r, static_cast<double>(r));
  }
  ep.answer(2);
  ep.answer(5);
  const auto resend = ep.fail_over(1000.0);
  EXPECT_EQ(ep.target(), 0);  // wraps to the next server
  ASSERT_EQ(resend.size(), 4u);
  const std::uint64_t want_seq[] = {1, 3, 4, 6};
  const std::size_t want_req[] = {100, 102, 103, 105};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(resend[i].first, want_seq[i]);
    EXPECT_EQ(resend[i].second, want_req[i]);
  }
  // Resent now: not overdue again until a full timeout later.
  EXPECT_FALSE(ep.overdue(1399.0, 400));
  EXPECT_TRUE(ep.overdue(1400.0, 400));
  // New requests keep rising above every resent req_seq.
  EXPECT_EQ(ep.submit(200, 1001.0), 7u);
}

}  // namespace
}  // namespace perfbench
