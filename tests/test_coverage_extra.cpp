// Extra coverage: consensus coordinator-crash sweeps, oracle parameter
// validation, checker stability-margin behaviour, and network accounting.
#include <gtest/gtest.h>

#include <memory>

#include "core/consensus.h"
#include "fd/checkers.h"
#include "fd/omega_oracle.h"
#include "fd/query_oracles.h"
#include "fd/suspect_oracles.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace saf {
namespace {

// --- Consensus: kill coordinators at awkward moments ----------------------

// gtest names each case after the raw bytes of its parameter, so the
// struct has no padding: a 64-bit victim lays out the same bytes as a
// ProcessId followed by zeroed padding. Implicit padding would carry
// leftover heap bytes and rename the case every run.
struct CoordCrashParam {
  std::int64_t victim;    ///< round-1..n coordinator candidates
  std::uint64_t sends;    ///< crash after this many sends
};

class CoordinatorCrash : public ::testing::TestWithParam<CoordCrashParam> {};

TEST_P(CoordinatorCrash, DiamondSConsensusSurvives) {
  const auto p = GetParam();
  const auto victim = static_cast<ProcessId>(p.victim);
  core::ConsensusRunConfig cfg;
  cfg.n = 7;
  cfg.t = 3;
  cfg.seed = 31 + static_cast<std::uint64_t>(victim);
  cfg.crashes.crash_after_sends(victim, p.sends);
  auto r = core::run_diamond_s_consensus(cfg);
  EXPECT_TRUE(r.all_correct_decided) << "victim p" << victim;
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
}

TEST_P(CoordinatorCrash, OmegaConsensusSurvives) {
  const auto p = GetParam();
  const auto victim = static_cast<ProcessId>(p.victim);
  core::ConsensusRunConfig cfg;
  cfg.n = 7;
  cfg.t = 3;
  cfg.seed = 57 + static_cast<std::uint64_t>(victim);
  cfg.crashes.crash_after_sends(victim, p.sends);
  auto r = core::run_omega_consensus(cfg);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.agreement);
}

std::vector<CoordCrashParam> coord_params() {
  std::vector<CoordCrashParam> out;
  for (ProcessId v = 0; v < 7; v += 2) {
    for (std::uint64_t s : {1ull, 5ull, 9ull, 30ull}) {
      out.push_back({v, s});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoordinatorCrash,
                         ::testing::ValuesIn(coord_params()));

// --- Oracle parameter validation ------------------------------------------

TEST(OracleValidation, OmegaForcedSetMustBeLegal) {
  sim::CrashPlan plan;
  plan.crash_at(3, 100);
  sim::FailurePattern fp(4, 1, plan);
  fd::OmegaOracleParams op;
  op.forced_final_set = ProcSet{3};  // faulty-only: illegal
  EXPECT_THROW(fd::OmegaZOracle(fp, 2, op), std::invalid_argument);
  op.forced_final_set = ProcSet{0, 1, 2};  // size 3 > z = 2: illegal
  EXPECT_THROW(fd::OmegaZOracle(fp, 2, op), std::invalid_argument);
  op.forced_final_set = ProcSet{0, 3};  // one correct member: legal
  fd::OmegaZOracle ok(fp, 2, op);
  EXPECT_EQ(ok.final_set(), ProcSet({0, 3}));
}

TEST(OracleValidation, NegativeTimeParametersRejected) {
  sim::FailurePattern fp(4, 1, {});
  fd::SuspectOracleParams sp;
  sp.stab_time = -1;
  EXPECT_THROW(fd::LimitedScopeSuspectOracle(fp, 2, sp),
               std::invalid_argument);
  fd::QueryOracleParams qp;
  qp.detect_delay = -5;
  EXPECT_THROW(fd::PhiOracle(fp, 1, qp), std::invalid_argument);
}

TEST(OracleValidation, PhiYRangeChecked) {
  sim::FailurePattern fp(6, 2, {});
  EXPECT_THROW(fd::PhiOracle(fp, -1, {}), std::invalid_argument);
  EXPECT_THROW(fd::PhiOracle(fp, 3, {}), std::invalid_argument);  // y > t
}

// --- Checker stability margin ----------------------------------------------

TEST(CheckerMargins, LateStabilizationNearHorizonIsRejected) {
  // A history that only settles in the last 5% of the run must FAIL the
  // eventual checks even though it technically "holds to the horizon".
  constexpr Time kHorizon = 10'000;
  sim::FailurePattern fp(3, 1, {});
  fd::SetHistory h(3);
  for (int i = 0; i < 3; ++i) {
    // Everyone flaps between leaders until 9.6k, then agrees on {0}.
    h[static_cast<std::size_t>(i)].record(0, ProcSet{ProcessId(i)});
    h[static_cast<std::size_t>(i)].record(9'600, ProcSet{0});
  }
  EXPECT_FALSE(fd::check_eventual_leadership(h, fp, 1, kHorizon).pass);
  // The same history over a doubled horizon (stable half the run): pass.
  EXPECT_TRUE(fd::check_eventual_leadership(h, fp, 1, 2 * kHorizon).pass);
}

TEST(CheckerMargins, CompletenessWitnessNearHorizonIsRejected) {
  constexpr Time kHorizon = 10'000;
  sim::CrashPlan plan;
  plan.crash_at(2, 100);
  sim::FailurePattern fp(3, 1, plan);
  fp.record_crash(2, 100);
  fd::SetHistory h(3);
  h[0].record(9'700, ProcSet{2});  // suspicion arrives absurdly late
  h[1].record(200, ProcSet{2});
  EXPECT_FALSE(fd::check_strong_completeness(h, fp, kHorizon).pass);
}

// --- Network accounting -----------------------------------------------------

struct TagAMsg final : sim::Message {
  std::string_view tag() const override { return "tag_a"; }
};
struct TagBMsg final : sim::Message {
  std::string_view tag() const override { return "tag_b"; }
};

class TagProcess : public sim::Process {
 public:
  using Process::Process;
  sim::ProtocolTask run() override {
    broadcast_msg(TagAMsg{});
    co_await sleep_for(10);
    send_to((id() + 1) % n(), TagBMsg{});
    co_await sleep_for(20);
    send_to((id() + 1) % n(), TagBMsg{});
  }
};

TEST(NetworkAccounting, PerTagCountsAndLastSendTimes) {
  sim::SimConfig sc;
  sc.n = 3;
  sc.t = 1;
  sc.seed = 3;
  sc.horizon = 1000;
  sim::Simulator sim(sc, {}, std::make_unique<sim::FixedDelay>(2));
  for (ProcessId i = 0; i < 3; ++i) {
    sim.add_process(std::make_unique<TagProcess>(i, 3, 1));
  }
  sim.run();
  EXPECT_EQ(sim.network().sent_with_tag("tag_a"), 9u);   // 3 broadcasts x 3
  EXPECT_EQ(sim.network().sent_with_tag("tag_b"), 6u);   // 2 unicasts x 3
  EXPECT_EQ(sim.network().sent_with_tag("nothing"), 0u);
  EXPECT_EQ(sim.network().last_send_time("tag_a"), 0);
  EXPECT_EQ(sim.network().last_send_time("tag_b"), 30);
  EXPECT_EQ(sim.network().last_send_time("nothing"), kNeverTime);
  EXPECT_EQ(sim.network().total_sent(), 15u);
}

}  // namespace
}  // namespace saf
