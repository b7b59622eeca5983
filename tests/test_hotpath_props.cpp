// Property and edge tests for the hot-path machinery the engine leans
// on: the calendar queue's 1024-instant window (bucket aliasing, exact
// boundary, overflow heap, rewind), the per-run bump arena (chunk
// growth, oversized blocks, reset-reuse, destructor order, ASan
// poisoning), broadcast_interned's one-instance-per-(process, type)
// contract, and Simulator::recycle_arena's guards.
//
// The queue tests are differential: every scenario is drained fully and
// compared against a stable sort on (time, seq) — the determinism
// contract the simulator's replay machinery depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/delay_policy.h"
#include "sim/event_queue.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "util/arena.h"
#include "util/rng.h"

#if defined(__SANITIZE_ADDRESS__)
#define SAF_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SAF_TEST_ASAN 1
#endif
#endif
#ifdef SAF_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace saf::sim {
namespace {

constexpr Time kWindow = 1024;  // EventQueue's ring width (event_queue.h)

Event ev(Time t, std::uint64_t seq) {
  Event e;
  e.time = t;
  e.seq = seq;
  return e;
}

std::vector<std::pair<Time, std::uint64_t>> sorted(
    std::vector<std::pair<Time, std::uint64_t>> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::pair<Time, std::uint64_t>> drain(EventQueue& q) {
  std::vector<std::pair<Time, std::uint64_t>> out;
  while (!q.empty()) {
    const Event e = q.pop();
    out.emplace_back(e.time, e.seq);
  }
  return out;
}

// --- calendar-queue window edges ---------------------------------------

TEST(HotPathQueue, ExactWindowBoundarySplitsRingFromOverflow) {
  // From a fresh queue the ring covers [0, 1024): instant 1023 is the
  // last ring bucket, 1024 the first overflow citizen. Both orders of
  // arrival must drain identically.
  for (const bool overflow_first : {false, true}) {
    EventQueue q;
    std::vector<std::pair<Time, std::uint64_t>> keys;
    std::uint64_t seq = 0;
    auto push = [&](Time t) {
      keys.emplace_back(t, seq);
      q.push(ev(t, seq++));
    };
    if (overflow_first) {
      push(kWindow);
      push(kWindow - 1);
    } else {
      push(kWindow - 1);
      push(kWindow);
    }
    push(kWindow + 1);
    push(0);
    EXPECT_EQ(drain(q), sorted(keys)) << "overflow_first=" << overflow_first;
  }
}

TEST(HotPathQueue, AliasedBucketsNeverMixInstants) {
  // t, t + 1024 and t + 2048 map to the SAME ring bucket (t & 1023).
  // Pushed newest-first, they must still pop in time order — the window
  // bound, not the bucket index, decides ring membership.
  for (const Time base : {Time{0}, Time{5}, kWindow - 1}) {
    EventQueue q;
    std::vector<std::pair<Time, std::uint64_t>> keys;
    std::uint64_t seq = 0;
    for (const Time t : {base + 2 * kWindow, base + kWindow, base}) {
      keys.emplace_back(t, seq);
      q.push(ev(t, seq++));
    }
    EXPECT_EQ(drain(q), sorted(keys)) << "base=" << base;
  }
}

TEST(HotPathQueue, FullWindowWraparoundShuffled) {
  // One event at every instant of two consecutive windows, pushed in a
  // seeded shuffle: the drain must visit all 2048 instants in order,
  // advancing the window across the wraparound seam.
  util::Rng rng(7);
  std::vector<Time> times;
  for (Time t = 0; t < 2 * kWindow; ++t) times.push_back(t);
  rng.shuffle(times);
  EventQueue q;
  std::vector<std::pair<Time, std::uint64_t>> keys;
  std::uint64_t seq = 0;
  for (const Time t : times) {
    keys.emplace_back(t, seq);
    q.push(ev(t, seq++));
  }
  EXPECT_EQ(drain(q), sorted(keys));
}

TEST(HotPathQueue, SlidingWindowDrainWhilePushingNextWindow) {
  // The steady-state shape at a window seam: drain the current window
  // while successors land one-to-two windows ahead, repeatedly.
  EventQueue q;
  util::Rng rng(21);
  std::vector<std::pair<Time, std::uint64_t>> keys, popped;
  std::uint64_t seq = 0;
  auto push = [&](Time t) {
    keys.emplace_back(t, seq);
    q.push(ev(t, seq++));
  };
  for (int i = 0; i < 64; ++i) push(rng.uniform(0, kWindow - 1));
  while (!q.empty()) {
    const Event e = q.pop();
    popped.emplace_back(e.time, e.seq);
    if (seq < 2'000) {
      // Successor lands in [now + 1, now + 2 windows): every push
      // straddles or crosses the seam eventually.
      push(e.time + 1 + rng.uniform(0, 2 * kWindow - 2));
    }
  }
  EXPECT_EQ(popped, sorted(keys));
}

TEST(HotPathQueue, OverflowHeapAbsorbsFarFutureBursts) {
  // Thousands of events sprayed across a 2^20 span: nearly all start in
  // the overflow heap and migrate ring-ward across many window jumps.
  util::Rng rng(1234);
  EventQueue q;
  std::vector<std::pair<Time, std::uint64_t>> keys;
  std::uint64_t seq = 0;
  for (int i = 0; i < 3'000; ++i) {
    const Time t = rng.uniform(0, Time{1} << 20);
    keys.emplace_back(t, seq);
    q.push(ev(t, seq++));
  }
  EXPECT_EQ(drain(q), sorted(keys));
}

TEST(HotPathQueue, RewindLandsInAnAliasedBucket) {
  // After draining to a far instant the window has jumped; a push one
  // whole window earlier (same bucket index as the drained instant)
  // takes the rewind path and must not collide with stale ring state.
  EventQueue q;
  q.push(ev(10 * kWindow, 0));
  EXPECT_EQ(q.pop().time, 10 * kWindow);
  q.push(ev(9 * kWindow, 1));   // same bucket index, earlier window
  q.push(ev(10 * kWindow, 2));  // the just-drained instant again
  q.push(ev(9 * kWindow, 3));
  EXPECT_EQ(drain(q), (std::vector<std::pair<Time, std::uint64_t>>{
                          {9 * kWindow, 1},
                          {9 * kWindow, 3},
                          {10 * kWindow, 2},
                      }));
}

// --- arena chunk behaviour ---------------------------------------------

TEST(HotPathArena, GrowthAcrossChunksKeepsBlocksDisjoint) {
  // ~256 KiB of 256-byte blocks forces several 64 KiB chunks. Write a
  // distinct pattern into every block up front, then verify all of them:
  // overlapping or recycled storage would corrupt an earlier pattern.
  util::Arena a;
  constexpr std::size_t kBlock = 256;
  constexpr int kCount = 1000;
  std::vector<unsigned char*> blocks;
  for (int i = 0; i < kCount; ++i) {
    auto* p = static_cast<unsigned char*>(a.allocate(kBlock, 16));
    std::memset(p, i % 251, kBlock);
    blocks.push_back(p);
  }
  EXPECT_GE(a.bytes_allocated(), kBlock * kCount);
  EXPECT_GE(a.bytes_reserved(), a.bytes_allocated());
  for (int i = 0; i < kCount; ++i) {
    for (std::size_t b = 0; b < kBlock; ++b) {
      ASSERT_EQ(blocks[i][b], i % 251) << "block " << i << " byte " << b;
    }
  }
}

TEST(HotPathArena, OversizedAllocationBypassesTheChunkSize) {
  // A single block larger than the 64 KiB chunk must still come back
  // aligned and usable, and must not wedge subsequent small allocations.
  util::Arena a;
  constexpr std::size_t kBig = 200'000;
  auto* big = static_cast<unsigned char*>(a.allocate(kBig, 64));
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
  std::memset(big, 0xAB, kBig);
  auto* small = static_cast<unsigned char*>(a.allocate(32, 8));
  std::memset(small, 0xCD, 32);
  EXPECT_EQ(big[0], 0xAB);
  EXPECT_EQ(big[kBig - 1], 0xAB);
}

TEST(HotPathArena, ResetRetainsChunksAndReachesSteadyState) {
  // The reset-and-rerun cycle the simulator does per run: after the
  // first fill the arena holds enough chunk capacity that an identical
  // second fill allocates no new chunks.
  util::Arena a;
  auto fill = [&a] {
    for (int i = 0; i < 500; ++i) a.allocate(300, 16);
  };
  fill();
  const std::size_t reserved_after_first = a.bytes_reserved();
  a.reset();
  EXPECT_EQ(a.bytes_allocated(), 0u);
  EXPECT_EQ(a.bytes_reserved(), reserved_after_first)
      << "reset must retain chunks, not free them";
  fill();
  EXPECT_EQ(a.bytes_reserved(), reserved_after_first)
      << "an identical refill must reuse the retained chunks";
}

TEST(HotPathArena, ResetDestroysInReverseCreationOrderAcrossChunks) {
  struct Tracked {
    explicit Tracked(std::vector<int>* log, int id) : log_(log), id_(id) {}
    ~Tracked() { log_->push_back(id_); }
    std::vector<int>* log_;
    int id_;
    char pad_[4000];  // ~16 objects per chunk: the log spans chunks
  };
  std::vector<int> log;
  util::Arena a;
  constexpr int kCount = 100;
  for (int i = 0; i < kCount; ++i) a.create<Tracked>(&log, i);
  a.reset();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)], kCount - 1 - i);
  }
}

TEST(HotPathArena, AlignmentIsHonoredAfterOddSizes) {
  util::Arena a;
  a.allocate(1, 1);  // skew the bump pointer
  for (const std::size_t align : {std::size_t{8}, std::size_t{64}}) {
    void* p = a.allocate(24, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align=" << align;
    a.allocate(3, 1);  // skew again before the next round
  }
}

#ifdef SAF_TEST_ASAN
TEST(HotPathArena, ResetPoisonsBlocksUntilTheyAreHandedOutAgain) {
  // A pointer kept across reset() trips ASan until a later allocation
  // hands its slot out again.
  util::Arena a;
  auto* p = static_cast<unsigned char*>(a.allocate(64, 8));
  std::memset(p, 0x5A, 64);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  a.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 63));
  auto* q = static_cast<unsigned char*>(a.allocate(64, 8));
  ASSERT_EQ(q, p) << "reset must rewind to the same slot";
  EXPECT_FALSE(__asan_address_is_poisoned(q));
  EXPECT_FALSE(__asan_address_is_poisoned(q + 63));
}
#endif

// --- broadcast_interned identity ---------------------------------------

struct PingMsg final : Message {
  std::string_view tag() const override { return "ping"; }
};

/// Records the arena address and arrival time of every ping it receives.
class PingRecorder : public Process {
 public:
  using Process::Process;
  ProtocolTask run() override { co_return; }
  void on_message(const Message& m) override {
    if (dynamic_cast<const PingMsg*>(&m) != nullptr) {
      addresses.push_back(&m);
      arrivals.push_back(now());
    }
  }
  std::vector<const Message*> addresses;
  std::vector<Time> arrivals;
};

SimConfig ping_cfg(std::uint64_t seed) {
  SimConfig c;
  c.n = 3;
  c.t = 0;
  c.seed = seed;
  c.horizon = 500;
  return c;
}

/// Broadcasts the interned ping from p0 at t = 10, 20, 30 and returns
/// the three recorders' logs.
std::vector<PingRecorder*> run_ping_round(Simulator& sim) {
  std::vector<PingRecorder*> procs;
  for (ProcessId i = 0; i < 3; ++i) {
    procs.push_back(static_cast<PingRecorder*>(
        &sim.add_process(std::make_unique<PingRecorder>(i, 3, 0))));
  }
  for (const Time t : {Time{10}, Time{20}, Time{30}}) {
    sim.schedule(t, [&sim, procs] { procs[0]->broadcast_interned<PingMsg>(); });
  }
  sim.run();
  return procs;
}

TEST(HotPathIntern, BroadcastInternedIsOneInstancePerRun) {
  Simulator sim(ping_cfg(17), CrashPlan{}, std::make_unique<FixedDelay>(2));
  const auto procs = run_ping_round(sim);
  // Every recipient saw all three broadcasts, and every delivery —
  // across broadcasts AND across recipients — aliased the single
  // interned instance: steady-state chatter allocates nothing.
  const Message* instance = nullptr;
  for (const PingRecorder* p : procs) {
    ASSERT_EQ(p->addresses.size(), 3u) << "process " << p->id();
    for (const Message* m : p->addresses) {
      if (instance == nullptr) instance = m;
      EXPECT_EQ(m, instance);
    }
  }
}

TEST(HotPathIntern, InternedScheduleIsIdenticalAcrossRuns) {
  // Two fresh simulators, same seed: interning must not disturb the
  // delivery schedule (times and counts identical run to run).
  std::vector<std::vector<Time>> first, second;
  for (auto* out : {&first, &second}) {
    Simulator sim(ping_cfg(99), CrashPlan{},
                  std::make_unique<UniformDelay>(1, 8));
    for (const PingRecorder* p : run_ping_round(sim)) {
      out->push_back(p->arrivals);
    }
  }
  EXPECT_EQ(first, second);
}

// --- arena recycling ---------------------------------------------------

struct LoadMsg final : Message {
  explicit LoadMsg(int v) : value(v) {}
  std::string_view tag() const override { return "load"; }
  int value;
  char pad[48] = {};
};

/// Broadcasts one LoadMsg per global tick; keeps only a count.
class Loader : public Process {
 public:
  using Process::Process;
  ProtocolTask run() override { co_return; }
  void on_tick() override { broadcast_msg(LoadMsg{++sent}); }
  void on_message(const Message& m) override {
    if (dynamic_cast<const LoadMsg*>(&m) != nullptr) ++received;
  }
  int sent = 0;
  int received = 0;
};

SimConfig load_cfg(Time tick_period, Time horizon) {
  SimConfig c;
  c.n = 3;
  c.t = 0;
  c.seed = 5;
  c.tick_period = tick_period;
  c.horizon = horizon;
  return c;
}

TEST(HotPathRecycle, RefusesWhileAFixedDelayDeliveryIsInFlight) {
  Simulator sim(load_cfg(10, 100), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  std::vector<Loader*> ps;
  for (ProcessId i = 0; i < 3; ++i) {
    ps.push_back(static_cast<Loader*>(
        &sim.add_process(std::make_unique<Loader>(i, 3, 0))));
  }
  sim.pump(10);  // the tick at 10 broadcasts; deliveries land at 11
  EXPECT_EQ(sim.pending_deliveries(), 9u);
  const std::size_t used = sim.arena().bytes_allocated();
  ASSERT_GT(used, 0u);
  EXPECT_FALSE(sim.recycle_arena());
  EXPECT_EQ(sim.arena().bytes_allocated(), used) << "a refusal frees nothing";

  sim.pump(11);
  EXPECT_EQ(sim.pending_deliveries(), 0u);
  EXPECT_EQ(ps[0]->received, 3);
  EXPECT_TRUE(sim.recycle_arena());
  EXPECT_EQ(sim.arena().bytes_allocated(), 0u);
}

TEST(HotPathRecycle, PumpLoopWithRecyclingHoldsOneChunk) {
  // Ticks every 2 ms broadcast; a 1 ms pump loop sees every delivery
  // land on the odd instants, so a recycle succeeds there. The same run
  // without recycling needs dozens of chunks.
  constexpr Time kHorizon = 20'000;
  std::size_t reserved[2] = {0, 0};
  int received[2] = {0, 0};
  for (const bool recycle : {false, true}) {
    Simulator sim(load_cfg(2, kHorizon), CrashPlan{},
                  std::make_unique<FixedDelay>(1));
    std::vector<Loader*> ps;
    for (ProcessId i = 0; i < 3; ++i) {
      ps.push_back(static_cast<Loader*>(
          &sim.add_process(std::make_unique<Loader>(i, 3, 0))));
    }
    int recycled = 0;
    for (Time t = 1; t <= kHorizon; ++t) {
      sim.pump(t);
      if (recycle && sim.recycle_arena()) ++recycled;
    }
    if (recycle) {
      EXPECT_EQ(recycled, static_cast<int>(kHorizon / 2));
    }
    reserved[recycle ? 1 : 0] = sim.arena().bytes_reserved();
    received[recycle ? 1 : 0] = ps[2]->received;
  }
  EXPECT_EQ(received[0], received[1]) << "recycling must not change the run";
  EXPECT_EQ(reserved[1], util::Arena::kChunkSize);
  EXPECT_GT(reserved[0], 20 * util::Arena::kChunkSize);
}

TEST(HotPathRecycle, RefusesWhileAProcessHoldsInternedMessages) {
  Simulator sim(ping_cfg(3), CrashPlan{}, std::make_unique<FixedDelay>(2));
  const auto procs = run_ping_round(sim);
  ASSERT_EQ(procs[1]->addresses.size(), 3u);
  EXPECT_EQ(sim.pending_deliveries(), 0u);
  EXPECT_FALSE(sim.recycle_arena())
      << "p0's interned ping is reused by its next broadcast";
}

struct RbValueMsg final : Message {
  explicit RbValueMsg(int v) : value(v) {}
  std::string_view tag() const override { return "rb_value"; }
  int value;
};

/// R-broadcasts one value at start (p0 only) with RB acks on.
class AckedBroadcaster : public Process {
 public:
  using Process::Process;
  ProtocolTask run() override {
    if (id() == 0) rbroadcast_msg(RbValueMsg{1});
    co_return;
  }
  void on_rdeliver(const Message& m) override {
    (void)m;
    ++delivered;
  }
  int delivered = 0;
};

TEST(HotPathRecycle, RefusesWhileTheRbAckLedgerHoldsAnEnvelope) {
  // p2 is down from the start, so p0's envelope stays in its
  // retransmission ledger (first retry at 40) after every live copy and
  // ack has been dispatched.
  CrashPlan plan;
  plan.crash_at(2, 0);
  SimConfig c = ping_cfg(4);
  c.t = 1;
  Simulator sim(c, plan, std::make_unique<FixedDelay>(1));
  std::vector<AckedBroadcaster*> ps;
  for (ProcessId i = 0; i < 3; ++i) {
    ps.push_back(static_cast<AckedBroadcaster*>(
        &sim.add_process(std::make_unique<AckedBroadcaster>(i, 3, 1))));
    ps.back()->enable_rb_acks();
  }
  sim.pump(10);
  EXPECT_EQ(ps[1]->delivered, 1);
  EXPECT_EQ(sim.pending_deliveries(), 0u);
  EXPECT_FALSE(sim.recycle_arena());
}

#ifdef SAF_TEST_ASAN
/// Keeps a pointer to the last LoadMsg it received.
class Keeper : public Loader {
 public:
  using Loader::Loader;
  void on_message(const Message& m) override {
    Loader::on_message(m);
    if (const auto* lm = dynamic_cast<const LoadMsg*>(&m)) kept = lm;
  }
  const LoadMsg* kept = nullptr;
};

TEST(HotPathRecycleDeathTest, ReadThroughAPointerKeptAcrossARecycleIsReported) {
  // The bug recycle_arena's contract forbids: a protocol keeping an
  // arena pointer past the pump. ASan reports the read instead of
  // letting it see whatever the next wakeup allocates there.
  const auto keep_and_read = [] {
    Simulator sim(load_cfg(10, 100), CrashPlan{},
                  std::make_unique<FixedDelay>(1));
    Keeper* k = nullptr;
    for (ProcessId i = 0; i < 3; ++i) {
      auto p = std::make_unique<Keeper>(i, 3, 0);
      if (i == 0) k = p.get();
      sim.add_process(std::move(p));
    }
    sim.pump(11);
    if (!sim.recycle_arena() || k->kept == nullptr) std::abort();
    std::printf("%d\n", k->kept->value);
  };
  EXPECT_DEATH(keep_and_read(), "use-after-poison");
}
#endif

}  // namespace
}  // namespace saf::sim
