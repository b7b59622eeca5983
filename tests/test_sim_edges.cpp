// Event-queue edge cases: events exactly at the horizon, minimum-delay
// self-sends, same-instant schedule() from inside a running event, and
// the engine's guard rails (delay >= 1, no scheduling into the past).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/protocols.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace saf::sim {
namespace {

SimConfig cfg(int n, int t, Time horizon, std::uint64_t seed = 3) {
  SimConfig c;
  c.n = n;
  c.t = t;
  c.seed = seed;
  c.horizon = horizon;
  return c;
}

struct NoteMsg final : Message {
  explicit NoteMsg(int v) : value(v) {}
  std::string_view tag() const override { return "note"; }
  int value;
};

/// Inert process: no tasks of its own, records deliveries.
class SinkProcess : public Process {
 public:
  using Process::Process;
  ProtocolTask run() override { co_return; }
  void on_message(const Message& m) override {
    if (const auto* p = dynamic_cast<const NoteMsg*>(&m)) {
      log.push_back({now(), p->value});
    }
  }
  std::vector<std::pair<Time, int>> log;
};

TEST(SimEdges, EventExactlyAtHorizonRuns) {
  Simulator sim(cfg(1, 0, /*horizon=*/100), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  sim.add_process(std::make_unique<SinkProcess>(0, 1, 0));
  bool at_horizon = false;
  bool past_horizon = false;
  sim.schedule(100, [&] { at_horizon = true; });
  sim.schedule(101, [&] { past_horizon = true; });
  sim.run();
  EXPECT_TRUE(at_horizon) << "an event at exactly t == horizon must run";
  EXPECT_FALSE(past_horizon);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimEdges, MinimalHorizonRunsInstantsZeroAndOne) {
  Simulator sim(cfg(1, 0, /*horizon=*/1), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  sim.add_process(std::make_unique<SinkProcess>(0, 1, 0));
  int fired = 0;
  sim.schedule(0, [&] { ++fired; });
  sim.schedule(1, [&] { ++fired; });
  sim.schedule(2, [&] { ADD_FAILURE() << "beyond the horizon"; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEdges, HorizonZeroIsRejected) {
  EXPECT_THROW(Simulator(cfg(1, 0, /*horizon=*/0), CrashPlan{},
                         std::make_unique<FixedDelay>(1)),
               std::invalid_argument);
}

TEST(SimEdges, MinimumDelaySelfSendArrivesNextInstant) {
  // A self-send is a real network message: it passes through the delay
  // policy like any other, so the earliest legal arrival is now + 1.
  class SelfSender : public SinkProcess {
   public:
    using SinkProcess::SinkProcess;
    ProtocolTask run() override {
      send_time = now();
      send_to(id(), NoteMsg{7});
      co_await until([this] { return !log.empty(); });
      recv_time = now();
    }
    Time send_time = kNeverTime;
    Time recv_time = kNeverTime;
  };
  Simulator sim(cfg(1, 0, 1000), CrashPlan{}, std::make_unique<FixedDelay>(1));
  auto& p = static_cast<SelfSender&>(
      sim.add_process(std::make_unique<SelfSender>(0, 1, 0)));
  sim.run();
  ASSERT_EQ(p.log.size(), 1u);
  EXPECT_EQ(p.recv_time, p.send_time + 1);
  EXPECT_EQ(p.log[0].second, 7);
}

TEST(SimEdges, SameInstantScheduleRunsAfterAlreadyQueuedEvents) {
  Simulator sim(cfg(1, 0, 1000), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  sim.add_process(std::make_unique<SinkProcess>(0, 1, 0));
  std::vector<std::string> order;
  // A and B are queued at t=10 in that order; A schedules C for the
  // same instant from inside its execution. The seq tie-break puts C
  // after B: same-instant events run in schedule() order.
  sim.schedule(10, [&] {
    order.push_back("A");
    sim.schedule(sim.now(), [&] { order.push_back("C"); });
  });
  sim.schedule(10, [&] { order.push_back("B"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"A", "B", "C"}));
}

TEST(SimEdges, SameInstantChainTerminatesAtFiniteDepth) {
  // A bounded chain of now()-schedules all executes within one instant.
  Simulator sim(cfg(1, 0, 1000), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  sim.add_process(std::make_unique<SinkProcess>(0, 1, 0));
  int depth = 0;
  std::function<void()> step = [&] {
    if (++depth < 50) sim.schedule(sim.now(), step);
  };
  sim.schedule(5, step);
  sim.run();
  EXPECT_EQ(depth, 50);
}

TEST(SimEdges, EventsProcessedCountsHorizonEvent) {
  Simulator sim(cfg(1, 0, 100), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  sim.add_process(std::make_unique<SinkProcess>(0, 1, 0));
  const std::uint64_t before = sim.events_processed();
  EXPECT_EQ(before, 0u);
  sim.schedule(100, [] {});
  sim.run();
  EXPECT_GT(sim.events_processed(), 0u);
}

class Talker : public SinkProcess {
 public:
  using SinkProcess::SinkProcess;
  ProtocolTask run() override {
    send_to(1 - id(), NoteMsg{1});
    co_return;
  }
};

TEST(SimEdges, ScriptedDelayClampsZeroToTheMinimumLegalDelay) {
  // The convenience wrapper saturates at 1 so scripts may return 0;
  // the message still arrives strictly after the send instant.
  Simulator sim(cfg(2, 0, 1000), CrashPlan{},
                std::make_unique<ScriptedDelay>(
                    [](ProcessId, ProcessId, Time, util::Rng&) -> Time {
                      return 0;
                    }));
  auto& p1 = static_cast<Talker&>(
      sim.add_process(std::make_unique<Talker>(0, 2, 0)));
  auto& p2 = static_cast<Talker&>(
      sim.add_process(std::make_unique<Talker>(1, 2, 0)));
  sim.run();
  ASSERT_EQ(p1.log.size(), 1u);
  ASSERT_EQ(p2.log.size(), 1u);
  EXPECT_EQ(p1.log[0].first, 1);  // sent at 0, delivered at 0 + max(0,1)
  EXPECT_EQ(p2.log[0].first, 1);
}

using SimEdgesDeath = ::testing::Test;

TEST(SimEdgesDeath, RawZeroDelayPolicyIsRejected) {
  // A DelayPolicy subclass that bypasses the clamp hits the network's
  // backstop: instant delivery would break the asynchronous model.
  class ZeroDelay final : public DelayPolicy {
   public:
    Time delay(ProcessId, ProcessId, Time, util::Rng&) override { return 0; }
  };
  auto run = [] {
    Simulator sim(cfg(2, 0, 1000), CrashPlan{},
                  std::make_unique<ZeroDelay>());
    sim.add_process(std::make_unique<Talker>(0, 2, 0));
    sim.add_process(std::make_unique<Talker>(1, 2, 0));
    sim.run();
  };
  EXPECT_DEATH(run(), "delay policies must return >= 1");
}

TEST(SimEdges, RunUntilStopsAfterTheSatisfyingEventNotLater) {
  // run_until checks its predicate after every event, so the run halts
  // at the event that satisfied it — later queued events stay pending.
  Simulator sim(cfg(1, 0, 1000), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  sim.add_process(std::make_unique<SinkProcess>(0, 1, 0));
  int fired = 0;
  for (Time t = 10; t <= 100; t += 10) {
    sim.schedule(t, [&] { ++fired; });
  }
  const bool stopped = sim.run_until([&] { return fired == 3; });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimEdges, RunUntilReportsFailureWhenTheHorizonCutsTheRunOff) {
  Simulator sim(cfg(1, 0, /*horizon=*/50), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  sim.add_process(std::make_unique<SinkProcess>(0, 1, 0));
  bool late_fired = false;
  sim.schedule(49, [] {});
  sim.schedule(51, [&] { late_fired = true; });
  const bool stopped = sim.run_until([&] { return late_fired; });
  EXPECT_FALSE(stopped) << "predicate only becomes true past the horizon";
  EXPECT_FALSE(late_fired);
  EXPECT_LE(sim.now(), 50);
}

TEST(SimEdges, MessagesToACrashedProcessAreDroppedAtDelivery) {
  // Crash filtering happens at pop time: a message in flight to a
  // process that crashes before arrival is silently discarded.
  class LateTalker : public SinkProcess {
   public:
    using SinkProcess::SinkProcess;
    ProtocolTask run() override {
      if (id() == 0) {
        co_await sleep_for(100);  // past p1's crash at t=50
        send_to(1, NoteMsg{9});
        co_await sleep_for(100);
        send_to(0, NoteMsg{4});  // self-send: p0 is alive, must arrive
      }
    }
  };
  CrashPlan plan;
  plan.crash_at(1, 50);
  Simulator sim(cfg(2, 1, 1000), CrashPlan{plan},
                std::make_unique<FixedDelay>(3));
  auto& p0 = static_cast<LateTalker&>(
      sim.add_process(std::make_unique<LateTalker>(0, 2, 1)));
  auto& p1 = static_cast<LateTalker&>(
      sim.add_process(std::make_unique<LateTalker>(1, 2, 1)));
  sim.run();
  EXPECT_TRUE(sim.is_crashed(1));
  EXPECT_TRUE(p1.log.empty()) << "delivery to a crashed process";
  ASSERT_EQ(p0.log.size(), 1u);
  EXPECT_EQ(p0.log[0].second, 4);
}

TEST(SimEdges, DeliveryDigestIsInvariantAcrossIdenticalRuns) {
  // The delivery-order fingerprint of a run is a pure function of its
  // configuration — rebuilding the simulator must reproduce it exactly.
  // Exercises the full hot path: arena messages, interned broadcasts,
  // the calendar queue, crash filtering.
  struct BeatMsg final : Message {
    std::string_view tag() const override { return "edge-beat"; }
  };
  class Chatter : public SinkProcess {
   public:
    using SinkProcess::SinkProcess;
    ProtocolTask run() override {
      for (int round = 0; round < 40; ++round) {
        broadcast_interned<BeatMsg>();
        send_to((id() + 1) % n(), NoteMsg{round});
        co_await sleep_for(7);
      }
    }
  };
  auto digest_of = [] {
    CrashPlan plan;
    plan.crash_at(2, 90);
    Simulator sim(cfg(3, 1, 500, /*seed=*/11), CrashPlan{plan},
                  std::make_unique<FixedDelay>(2));
    check::DeliveryDigest digest;
    sim.set_delivery_observer(
        [&digest](Time at, ProcessId to, const Message& m) {
          digest.observe(at, to, m);
        });
    for (ProcessId id = 0; id < 3; ++id) {
      sim.add_process(std::make_unique<Chatter>(id, 3, 1));
    }
    sim.run();
    EXPECT_GT(digest.count(), 0u);
    return digest.value();
  };
  const std::uint64_t first = digest_of();
  EXPECT_EQ(first, digest_of());
  EXPECT_EQ(first, digest_of());
}

TEST(SimEdges, FinishedTasksAreReaped) {
  // One short-lived task per time unit, 10k of them: each sleeps once
  // and returns. The engine must free every finished frame, so the
  // live task count stays at the spawner plus its in-flight children.
  class Spawner : public SinkProcess {
   public:
    using SinkProcess::SinkProcess;
    ProtocolTask run() override {
      for (int i = 0; i < 10'000; ++i) {
        spawn(child());
        max_live = std::max(max_live, live_tasks());
        co_await sleep_for(1);
      }
    }
    ProtocolTask child() {
      co_await sleep_for(1);
      ++finished;
    }
    std::size_t max_live = 0;
    int finished = 0;
  };
  Simulator sim(cfg(1, 0, 20'000), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  auto& p = static_cast<Spawner&>(
      sim.add_process(std::make_unique<Spawner>(0, 1, 0)));
  sim.run();
  EXPECT_EQ(p.finished, 10'000);
  EXPECT_LE(p.max_live, 3u);
  EXPECT_EQ(p.live_tasks(), 0u);
}

TEST(SimEdges, TaskThatThrewKeepsRethrowing) {
  // Reaping frees only tasks that returned normally: a task that threw
  // stays, and every later resume of any task rethrows its exception.
  class Thrower : public SinkProcess {
   public:
    using SinkProcess::SinkProcess;
    void boot() override {
      spawn(bomb());
      spawn(ticker());
    }
    ProtocolTask bomb() {
      co_await sleep_for(1);
      throw std::runtime_error("bomb");
    }
    ProtocolTask ticker() {
      for (;;) co_await sleep_for(2);
    }
  };
  Simulator sim(cfg(1, 0, 1000), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  auto& p = static_cast<Thrower&>(
      sim.add_process(std::make_unique<Thrower>(0, 1, 0)));
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.now(), 1);
  EXPECT_EQ(p.live_tasks(), 2u);
  // The ticker's next wakeup resumes a healthy task; the failed one is
  // still there and rethrows.
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.now(), 2);
}

TEST(SimEdgesDeath, SchedulingIntoThePastAborts) {
  auto run = [] {
    Simulator sim(cfg(1, 0, 1000), CrashPlan{},
                  std::make_unique<FixedDelay>(1));
    sim.add_process(std::make_unique<SinkProcess>(0, 1, 0));
    sim.schedule(50, [&sim] { sim.schedule(49, [] {}); });
    sim.run();
  };
  EXPECT_DEATH(run(), "cannot schedule into the past");
}

}  // namespace
}  // namespace saf::sim
