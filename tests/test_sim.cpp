// Tests for the discrete-event engine: determinism, delays, crashes,
// coroutine wait semantics, and the reliable-broadcast properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/delay_policy.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace saf::sim {
namespace {

struct PingMsg final : Message {
  explicit PingMsg(int v) : value(v) {}
  std::string_view tag() const override { return "ping"; }
  int value;
};

struct RPingMsg final : Message {
  explicit RPingMsg(int v) : value(v) {}
  std::string_view tag() const override { return "rping"; }
  int value;
};

/// Broadcasts one ping at start; records everything it receives.
class PingProcess : public Process {
 public:
  using Process::Process;

  ProtocolTask run() override {
    broadcast_msg(PingMsg{id() * 1000});
    co_await until([this] {
      return static_cast<int>(received.size()) >= n();
    });
    done_time = now();
  }

  void on_message(const Message& m) override {
    if (const auto* p = dynamic_cast<const PingMsg*>(&m)) {
      received.push_back(p->value);
      senders.push_back(p->sender);
    }
  }

  std::vector<int> received;
  std::vector<ProcessId> senders;
  Time done_time = kNeverTime;
};

SimConfig cfg(int n, int t, std::uint64_t seed = 3, Time horizon = 5000) {
  SimConfig c;
  c.n = n;
  c.t = t;
  c.seed = seed;
  c.horizon = horizon;
  return c;
}

TEST(Simulator, AllToAllPingsDeliverToEveryAliveProcess) {
  SimConfig c = cfg(4, 1);
  Simulator sim(c, CrashPlan{}, std::make_unique<UniformDelay>(1, 10));
  std::vector<PingProcess*> ps;
  for (ProcessId i = 0; i < 4; ++i) {
    ps.push_back(static_cast<PingProcess*>(
        &sim.add_process(std::make_unique<PingProcess>(i, 4, 1))));
  }
  sim.run();
  for (auto* p : ps) {
    EXPECT_EQ(p->received.size(), 4u) << "process " << p->id();
    EXPECT_NE(p->done_time, kNeverTime);
  }
  EXPECT_EQ(sim.network().sent_with_tag("ping"), 16u);
}

TEST(Simulator, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Simulator sim(cfg(5, 2, 42), CrashPlan{},
                  std::make_unique<UniformDelay>(1, 20));
    std::vector<PingProcess*> ps;
    for (ProcessId i = 0; i < 5; ++i) {
      ps.push_back(static_cast<PingProcess*>(
          &sim.add_process(std::make_unique<PingProcess>(i, 5, 2))));
    }
    sim.run();
    std::vector<std::vector<int>> out;
    for (auto* p : ps) out.push_back(p->received);
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, SeedChangesDeliveryOrder) {
  auto order_of = [](std::uint64_t seed) {
    Simulator sim(cfg(6, 2, seed), CrashPlan{},
                  std::make_unique<UniformDelay>(1, 50));
    std::vector<PingProcess*> ps;
    for (ProcessId i = 0; i < 6; ++i) {
      ps.push_back(static_cast<PingProcess*>(
          &sim.add_process(std::make_unique<PingProcess>(i, 6, 2))));
    }
    sim.run();
    return ps[0]->senders;
  };
  EXPECT_NE(order_of(1), order_of(99));
}

TEST(Simulator, CrashedProcessStopsSendingAndReceiving) {
  CrashPlan plan;
  plan.crash_at(0, 0);  // crashes before taking any step
  Simulator sim(cfg(3, 1), plan, std::make_unique<FixedDelay>(2));
  std::vector<PingProcess*> ps;
  for (ProcessId i = 0; i < 3; ++i) {
    ps.push_back(static_cast<PingProcess*>(
        &sim.add_process(std::make_unique<PingProcess>(i, 3, 1))));
  }
  sim.run();
  EXPECT_TRUE(ps[0]->received.empty());
  // Others got pings only from the two alive processes.
  EXPECT_EQ(ps[1]->received.size(), 2u);
  EXPECT_EQ(ps[2]->received.size(), 2u);
  EXPECT_TRUE(sim.pattern().crashed_by(0, 0));
}

TEST(Simulator, SendTriggeredCrashCutsABroadcastShort) {
  CrashPlan plan;
  plan.crash_after_sends(0, 2);  // dies after its 2nd unicast
  Simulator sim(cfg(4, 1), plan, std::make_unique<FixedDelay>(2));
  std::vector<PingProcess*> ps;
  for (ProcessId i = 0; i < 4; ++i) {
    ps.push_back(static_cast<PingProcess*>(
        &sim.add_process(std::make_unique<PingProcess>(i, 4, 1))));
  }
  sim.run();
  // p0's broadcast put exactly two copies in flight (self + p1, sends in
  // id order); the self-copy is dropped at delivery because p0 is dead,
  // so exactly one ping from p0 lands — at p1.
  int got = 0;
  for (auto* p : ps) {
    for (ProcessId s : p->senders) {
      if (s == 0) ++got;
    }
  }
  EXPECT_EQ(got, 1);
  EXPECT_EQ(ps[1]->senders.front() == 0 ||
                std::count(ps[1]->senders.begin(), ps[1]->senders.end(), 0) == 1,
            true);
  EXPECT_TRUE(sim.pattern().crashed_by(0, sim.now()));
}

// --- Reliable broadcast ------------------------------------------------

class RbProcess : public Process {
 public:
  RbProcess(ProcessId id, int n, int t, bool broadcaster)
      : Process(id, n, t), broadcaster_(broadcaster) {}

  ProtocolTask run() override {
    if (broadcaster_) {
      rbroadcast_msg(RPingMsg{7});
      rbroadcast_msg(RPingMsg{8});
    }
    co_await until([] { return false; });  // stay alive forever
  }

  void on_rdeliver(const Message& m) override {
    delivered.push_back(dynamic_cast<const RPingMsg&>(m).value);
  }

  std::vector<int> delivered;

 private:
  bool broadcaster_;
};

TEST(ReliableBroadcast, DeliveredExactlyOnceByEveryCorrectProcess) {
  Simulator sim(cfg(5, 2), CrashPlan{}, std::make_unique<UniformDelay>(1, 9));
  std::vector<RbProcess*> ps;
  for (ProcessId i = 0; i < 5; ++i) {
    ps.push_back(static_cast<RbProcess*>(&sim.add_process(
        std::make_unique<RbProcess>(i, 5, 2, /*broadcaster=*/i == 0))));
  }
  sim.run();
  for (auto* p : ps) {
    ASSERT_EQ(p->delivered.size(), 2u) << "process " << p->id();
    EXPECT_EQ(p->delivered[0] + p->delivered[1], 15);  // {7, 8}, any order
  }
}

TEST(ReliableBroadcast, TerminationDespiteSenderCrashMidBroadcast) {
  // p0 R-broadcasts, but crashes after reaching only one peer; the relay
  // must still deliver to every correct process.
  CrashPlan plan;
  plan.crash_after_sends(0, 2);  // self + one peer
  Simulator sim(cfg(5, 2), plan, std::make_unique<FixedDelay>(3));
  std::vector<RbProcess*> ps;
  for (ProcessId i = 0; i < 5; ++i) {
    ps.push_back(static_cast<RbProcess*>(&sim.add_process(
        std::make_unique<RbProcess>(i, 5, 2, i == 0))));
  }
  sim.run();
  for (ProcessId i = 1; i < 5; ++i) {
    ASSERT_GE(ps[static_cast<std::size_t>(i)]->delivered.size(), 1u)
        << "correct process " << i << " missed the R-broadcast";
    EXPECT_EQ(ps[static_cast<std::size_t>(i)]->delivered[0], 7);
  }
  // Agreement on what was delivered: either everyone got only the first
  // message, or everyone got both.
  for (ProcessId i = 2; i < 5; ++i) {
    EXPECT_EQ(ps[static_cast<std::size_t>(i)]->delivered,
              ps[1]->delivered);
  }
}

/// Stands in for a service node across a restart: each "life"
/// R-broadcasts one value with its origin sequence started at
/// `first_seq`, as a restarted node's fresh RB layer would.
class RestartingOrigin : public Process {
 public:
  using Process::Process;
  ProtocolTask run() override { co_await until([] { return false; }); }
  void life(std::uint64_t first_seq, int value) {
    seed_rb_seq(first_seq);
    rbroadcast_msg(RPingMsg{value});
  }
};

/// R-delivered values at p1 and p2 after two lives of origin p0 that
/// start their sequences at `first0` and `first1`.
std::vector<std::vector<int>> two_lives(std::uint64_t first0,
                                        std::uint64_t first1) {
  Simulator sim(cfg(3, 1), CrashPlan{}, std::make_unique<FixedDelay>(2));
  auto* origin = static_cast<RestartingOrigin*>(
      &sim.add_process(std::make_unique<RestartingOrigin>(0, 3, 1)));
  std::vector<RbProcess*> peers;
  for (ProcessId i = 1; i < 3; ++i) {
    peers.push_back(static_cast<RbProcess*>(&sim.add_process(
        std::make_unique<RbProcess>(i, 3, 1, /*broadcaster=*/false))));
  }
  sim.schedule(10, [origin, first0] { origin->life(first0, 7); });
  sim.schedule(100, [origin, first1] { origin->life(first1, 8); });
  sim.run();
  return {peers[0]->delivered, peers[1]->delivered};
}

TEST(ReliableBroadcast, TwoLivesOfOneOriginAreBothDelivered) {
  // Lives seeded apart (incarnation << 32, as the decision service does)
  // are distinct (origin, seq) keys: both broadcasts reach every peer.
  const auto seeded = two_lives(0, std::uint64_t{1} << 32);
  for (const std::vector<int>& d : seeded) {
    EXPECT_EQ(d, (std::vector<int>{7, 8}));
  }
  // A second life restarting at seq 0 reuses the first life's key, and
  // the peers' dedup sets discard its different payload.
  const auto reused = two_lives(0, 0);
  for (const std::vector<int>& d : reused) {
    EXPECT_EQ(d, (std::vector<int>{7}));
  }
}

// --- Coroutine wait semantics ------------------------------------------

class SleeperProcess : public Process {
 public:
  using Process::Process;
  ProtocolTask run() override {
    co_await sleep_for(10);
    wake1 = now();
    co_await sleep_for(25);
    wake2 = now();
  }
  Time wake1 = kNeverTime;
  Time wake2 = kNeverTime;
};

TEST(Simulator, SleepForWakesAtTheRightVirtualTimes) {
  Simulator sim(cfg(1, 0), CrashPlan{}, std::make_unique<FixedDelay>(1));
  auto& p = static_cast<SleeperProcess&>(
      sim.add_process(std::make_unique<SleeperProcess>(0, 1, 0)));
  sim.run();
  EXPECT_EQ(p.wake1, 10);
  EXPECT_EQ(p.wake2, 35);
}

class TwoTaskProcess : public Process {
 public:
  using Process::Process;
  void boot() override {
    spawn(task_a());
    spawn(task_b());
  }
  ProtocolTask task_a() {
    co_await until([this] { return flag; });
    a_done = now();
  }
  ProtocolTask task_b() {
    co_await sleep_for(42);
    flag = true;
    b_done = now();
  }
  bool flag = false;
  Time a_done = kNeverTime;
  Time b_done = kNeverTime;
};

TEST(Simulator, MultipleTasksPerProcessWakeEachOther) {
  Simulator sim(cfg(1, 0), CrashPlan{}, std::make_unique<FixedDelay>(1));
  auto& p = static_cast<TwoTaskProcess&>(
      sim.add_process(std::make_unique<TwoTaskProcess>(0, 1, 0)));
  sim.run();
  EXPECT_EQ(p.b_done, 42);
  EXPECT_EQ(p.a_done, 42);  // until() noticed the flag at the same instant
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim(cfg(2, 0, 3, 100000), CrashPlan{},
                std::make_unique<FixedDelay>(5));
  sim.add_process(std::make_unique<PingProcess>(0, 2, 0));
  sim.add_process(std::make_unique<PingProcess>(1, 2, 0));
  const bool stopped = sim.run_until([&] { return sim.now() >= 7; });
  EXPECT_TRUE(stopped);
  EXPECT_LT(sim.now(), 100);
}

TEST(FailurePattern, RejectsPlansWithTooManyCrashes) {
  CrashPlan plan;
  plan.crash_at(0, 5).crash_at(1, 6);
  EXPECT_THROW(FailurePattern(3, 1, plan), std::invalid_argument);
}

TEST(FailurePattern, TracksCrashSetOverTime) {
  CrashPlan plan;
  plan.crash_at(2, 50);
  FailurePattern fp(4, 2, plan);
  fp.record_crash(2, 50);
  EXPECT_FALSE(fp.crashed_by(2, 49));
  EXPECT_TRUE(fp.crashed_by(2, 50));
  EXPECT_EQ(fp.crashed_set(100), ProcSet({2}));
  EXPECT_EQ(fp.planned_correct(), ProcSet({0, 1, 3}));
  EXPECT_EQ(fp.correct_at_end(1000), ProcSet({0, 1, 3}));
}

}  // namespace
}  // namespace saf::sim
