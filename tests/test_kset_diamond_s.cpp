// Tests for the ◇S-based k-coordinator k-set agreement baseline.
#include <gtest/gtest.h>

#include "core/kset_diamond_s.h"

#include "fd/suspect_oracles.h"
#include "sim/delay_policy.h"

namespace saf::core {
namespace {

DiamondSKSetConfig base(int n, int t, int k, std::uint64_t seed) {
  DiamondSKSetConfig c;
  c.n = n;
  c.t = t;
  c.k = k;
  c.seed = seed;
  return c;
}

void expect_safe_and_live(const DiamondSKSetResult& r, int k) {
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.validity);
  EXPECT_GE(r.distinct_decided, 1);
  EXPECT_LE(r.distinct_decided, k);
}

TEST(DiamondSKSet, FailureFreeRunDecides) {
  expect_safe_and_live(run_diamond_s_kset(base(9, 4, 2, 3)), 2);
}

TEST(DiamondSKSet, KOneIsConsensus) {
  auto r = run_diamond_s_kset(base(7, 3, 1, 5));
  expect_safe_and_live(r, 1);
  EXPECT_EQ(r.distinct_decided, 1);
}

TEST(DiamondSKSet, ToleratesMaximalCrashesIncludingCoordinators) {
  auto c = base(9, 4, 3, 7);
  // Kill the whole round-1 coordinator window {0,1,2} plus one more.
  c.crashes.crash_at(0, 10).crash_at(1, 20).crash_at(2, 30).crash_at(5, 400);
  auto r = run_diamond_s_kset(c);
  expect_safe_and_live(r, 3);
}

TEST(DiamondSKSet, CoordinatorDiesMidBroadcast) {
  auto c = base(7, 3, 2, 9);
  c.crashes.crash_after_sends(0, 3);  // round-1 coordinator, partial send
  auto r = run_diamond_s_kset(c);
  expect_safe_and_live(r, 2);
}

TEST(DiamondSKSet, SafeDuringDetectorAnarchy) {
  // The detector misbehaves until 2500 — unlike the Ω route, this
  // protocol may well decide during anarchy (a live coordinator's value
  // can land before any suspicion fires); the point is that safety and
  // validity hold no matter what the detector does.
  auto c = base(9, 4, 2, 11);
  c.fd_stab = 2500;
  c.noise = 0.25;
  expect_safe_and_live(run_diamond_s_kset(c), 2);
}

TEST(DiamondSKSet, WindowRotationCoversEveryProcess) {
  DiamondSKSetConfig cfg = base(7, 3, 3, 1);
  fd::SuspectOracle* dummy = nullptr;
  (void)dummy;
  // Pure unit check on the window schedule (no run needed).
  sim::SimConfig sc;
  sc.n = 7;
  sc.t = 3;
  sim::Simulator sim(sc, {}, std::make_unique<sim::FixedDelay>(1));
  fd::LimitedScopeSuspectOracle ds(sim.pattern(), 7, {});
  DiamondSKSetProcess p(0, 7, 3, 3, ds, 1);
  ProcSet covered;
  for (int r = 1; r <= 7; ++r) {
    const ProcSet c = p.coordinators(r);
    EXPECT_EQ(c.size(), 3);
    covered |= c;
  }
  EXPECT_EQ(covered, ProcSet::full(7));
}

// gtest names each case after the raw bytes of its parameter, so the
// struct has no padding: k and crashes are 64-bit, which lays out the
// same bytes as a 32-bit field followed by zeroed padding. Implicit
// padding would carry leftover heap bytes and rename the case every run.
struct DsParam {
  int n, t;
  std::int64_t k;
  std::uint64_t seed;
  std::int64_t crashes;
};

class DiamondSKSetSweep : public ::testing::TestWithParam<DsParam> {};

TEST_P(DiamondSKSetSweep, SafeAndLive) {
  const auto p = GetParam();
  const int k = static_cast<int>(p.k);
  auto c = base(p.n, p.t, k, p.seed);
  for (int i = 0; i < p.crashes; ++i) {
    c.crashes.crash_at((3 * i + 1) % p.n, 50 * (i + 1));
  }
  expect_safe_and_live(run_diamond_s_kset(c), k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiamondSKSetSweep,
    ::testing::Values(DsParam{5, 2, 1, 1, 2}, DsParam{5, 2, 2, 2, 1},
                      DsParam{7, 3, 2, 3, 3}, DsParam{9, 4, 3, 4, 4},
                      DsParam{11, 5, 4, 5, 3}, DsParam{11, 5, 5, 6, 5}));

TEST(DiamondSKSet, RejectsBadConfig) {
  EXPECT_THROW(run_diamond_s_kset(base(6, 3, 2, 1)),
               std::invalid_argument);  // t >= n/2
  EXPECT_THROW(run_diamond_s_kset(base(7, 3, 0, 1)), std::invalid_argument);
}

}  // namespace
}  // namespace saf::core
