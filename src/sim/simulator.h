// The discrete-event engine.
//
// A Simulator owns the virtual clock, the event queue, the process table,
// the network and the ground-truth failure pattern. Runs are fully
// deterministic functions of (config seed, crash plan, delay policy,
// protocol code): the event queue breaks time ties by insertion sequence
// and all randomness flows from seeded streams.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/delay_policy.h"
#include "sim/event_queue.h"
#include "sim/failure_pattern.h"
#include "sim/state_digest.h"
#include "trace/tracer.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/types.h"

namespace saf::sim {

class Process;
class Network;

/// Observer of message deliveries, invoked for every message actually
/// handed to an alive process (post crash-filtering), in execution
/// order. The schedule-exploration harness (src/check) uses this to
/// fingerprint and record the decided delivery order of a run.
using DeliveryObserver =
    std::function<void(Time at, ProcessId to, const Message& m)>;

/// Chooser for the DFS checker's dispatch-order exploration: given the
/// maximal prefix of same-instant pending unicast deliveries (the "race
/// set", in seq order), returns the index to dispatch next. Consulted
/// only when the race set has at least two members; the events live in
/// the queue, so the chooser must not schedule or pop.
using RaceChooser =
    std::function<std::size_t(const std::vector<const Event*>& race)>;

struct SimConfig {
  std::uint64_t seed = 1;
  int n = 0;  ///< number of processes (fixed by the processes added)
  int t = 0;  ///< model bound on crashes
  /// Period of the global tick event. Ticks re-evaluate wait predicates
  /// that depend only on time (oracle outputs), and drive on_tick hooks.
  Time tick_period = 5;
  /// Hard stop: no event later than this is processed.
  Time horizon = 200'000;
  /// Watchdog: stop the run (timed_out() becomes true) once this many
  /// events have been processed. 0 disables the budget. Deterministic —
  /// part of the run identity.
  std::uint64_t max_events = 0;
  /// Watchdog: wall-clock budget in milliseconds, checked every ~4096
  /// events. 0 disables. NOT deterministic — a safety net against runs
  /// that are pathological in real time; digest-sensitive workloads
  /// should rely on max_events / horizon instead.
  std::int64_t wall_budget_ms = 0;
  /// Aggregated broadcasts for large n: a broadcast becomes ONE queue
  /// event (one shared delay sample) whose dispatch delivers to every
  /// process in id order, instead of n per-recipient events each with an
  /// independent delay. Cuts queue traffic from O(n²) to O(n) per
  /// all-to-all step (heartbeats, phase messages). Deterministic, but a
  /// DIFFERENT schedule than the per-recipient path — off by default so
  /// recorded digests and golden traces are untouched. Fault and remote
  /// hooks still see every (from, to) traversal: the one event unrolls
  /// through Network::deliver_broadcast at the delivery instant, where
  /// each link's hook decision is applied per recipient.
  bool batched_broadcasts = false;
};

class Simulator {
 public:
  /// Processes must be added before run()/run_until(); their count must
  /// equal cfg.n.
  Simulator(SimConfig cfg, CrashPlan plan,
            std::unique_ptr<DelayPolicy> delays);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a process; its id must equal the number of processes added
  /// so far (processes are added in id order 0..n-1).
  Process& add_process(std::unique_ptr<Process> p);

  /// Runs until the horizon (or until no events remain).
  void run();

  /// Runs until stop() holds (checked after every event). Returns true
  /// iff stop() became true before the horizon.
  bool run_until(const std::function<bool()>& stop);

  /// Live-runtime seam (src/rt): dispatches every pending event with
  /// time <= upto, then advances the virtual clock to exactly `upto`.
  /// Unlike run()/run_until(), the clock never jumps ahead of `upto` to
  /// a future event — a wall-clock driver calls pump(elapsed_ms) each
  /// iteration so virtual time tracks real time. Starts the processes
  /// on the first call, like run(). Events beyond the horizon are never
  /// dispatched.
  void pump(Time upto);

  /// Live-runtime seam: schedules delivery of an arena-owned message to
  /// local process `to` at the current instant (after everything already
  /// queued there). This is the inbound half of the transport seam — a
  /// remote peer's message enters the engine here, bypassing the local
  /// Network (whose delay policy and crash filter model only this
  /// simulator's processes).
  void inject_deliver(ProcessId to, const Message* m);

  /// Live-runtime seam: the virtual time of the earliest pending event,
  /// or kNeverTime when none — an epoll-driven pump loop sleeps until
  /// this instant instead of polling on a fixed quantum.
  Time next_event_time();

  Time now() const { return now_; }
  Time horizon() const { return cfg_.horizon; }
  int n() const { return cfg_.n; }
  int t() const { return cfg_.t; }
  std::uint64_t seed() const { return cfg_.seed; }

  bool is_crashed(ProcessId pid) const;
  ProcSet alive_set() const;

  FailurePattern& pattern() { return pattern_; }
  const FailurePattern& pattern() const { return pattern_; }
  Network& network() { return *network_; }
  const Network& network() const;

  /// General-purpose deterministic stream (distinct from the network's).
  util::Rng& rng() { return rng_; }

  /// Schedules fn at absolute time `at` (>= now). Events at the same
  /// instant execute in schedule() order (the seq tie-break), so an
  /// event scheduled with at == now() from inside a running event fires
  /// later within the same instant, after everything already queued
  /// there.
  void schedule(Time at, std::function<void()> fn);

  /// Per-run arena that owns every protocol message (and any other
  /// run-scoped pool object). Freed wholesale on destruction, or on a
  /// successful recycle_arena().
  util::Arena& arena() { return arena_; }

  /// Long-lived-runtime seam: resets the arena so its chunks serve the
  /// next messages. Refuses (returns false, nothing freed) while a
  /// queued event carries a message, or while a process holds arena
  /// pointers across events (interned broadcasts, RB ack-mode
  /// retransmission ledgers). Anything else a protocol keeps of a
  /// delivered message must be a copy: the caller vouches for that
  /// (see svc/server.cpp). Sim-only runs never call this.
  bool recycle_arena();

  /// Queued events that carry a message (unicast or aggregated
  /// broadcast deliveries). O(1).
  std::size_t pending_deliveries() const { return pending_deliveries_; }

  /// Installs (or clears, with nullptr) the delivery observer. May be
  /// set before or during a run; replaces any previous observer.
  void set_delivery_observer(DeliveryObserver obs);

  /// Installs (or clears, with nullptrs) the structured trace sink and
  /// metrics registry. `mask` selects which event kinds reach the sink.
  /// With nothing installed — the default — every trace point in the
  /// engine reduces to a null-pointer test.
  void set_trace(trace::TraceSink* sink, trace::MetricsRegistry* metrics,
                 std::uint32_t mask = trace::kDefaultMask) {
    tracer_.install(sink, metrics, mask);
  }

  /// The run's trace emission point. Protocol and oracle code reaches it
  /// through the host Simulator / Process to emit protocol-level events.
  trace::Tracer& tracer() { return tracer_; }

  std::uint64_t events_processed() const { return events_processed_; }

  /// True iff the run was stopped by a watchdog budget (max_events or
  /// wall_budget_ms) before reaching the horizon / its stop predicate.
  bool timed_out() const { return timed_out_; }

  /// Installs (or clears, with nullptr) the DFS race chooser: pending
  /// same-instant unicast deliveries dispatch in the order the chooser
  /// picks instead of strict seq order. Closure events and aggregated
  /// broadcasts are barriers — they always dispatch in seq order.
  void set_race_chooser(RaceChooser chooser);

  /// Folds the run's semantic state — clock, crash set, per-process
  /// engine + protocol state, pending events — into `d`. Pure values
  /// (never addresses), and order-insensitive within an instant, so the
  /// digest is a sound visited-set key for the DFS checker (see
  /// docs/exhaustive_checking.md). Excludes accounting that cannot
  /// influence the future (network counters, RNG cursors, trace state);
  /// send counters are folded only while a send-triggered crash is
  /// still pending on them.
  void state_digest(StateDigest& d) const;

  /// True iff `pid` has an unfired send-triggered crash in the plan —
  /// the one way dispatching a delivery can change the enabled-event
  /// set mid-instant, which the DFS partial-order reduction must treat
  /// as a dependency.
  bool pending_send_trigger(ProcessId pid) const;

  /// Fault injection: schedules a crash of `pid` at absolute time `at`,
  /// bypassing the CrashPlan and its <= t bound. Used to push a run
  /// outside AS_{n,t}; the process stays "planned correct", so oracles
  /// built from the plan will keep trusting it — exactly the assumption
  /// violation the fault layer wants to study. Call before run().
  void inject_crash_at(Time at, ProcessId pid);

 private:
  friend class Network;
  friend class Process;

  void start_if_needed();
  /// schedule() plus digest metadata: every engine-scheduled closure
  /// carries its kind and owning process so state_digest() can
  /// fingerprint it without inspecting the std::function.
  void schedule_tagged(Time at, EventKind kind, ProcessId owner,
                       std::function<void()> fn);
  /// Pops the next event to dispatch: queue minimum, or the race
  /// chooser's pick among same-instant deliveries when one is installed.
  Event pop_next_event();
  /// Runs an event just popped from the queue (delivery or closure),
  /// advancing the clock to it.
  void dispatch(Event& e);
  void crash(ProcessId pid);
  /// Counts completed sends; fires send-triggered crashes.
  void note_send(ProcessId sender) { note_sends(sender, 1); }
  void note_sends(ProcessId sender, std::uint64_t count);
  /// Schedules a message delivery without a closure (the hot path).
  void schedule_deliver(Time at, ProcessId to, const Message* m);
  /// Schedules one aggregated delivery of `m` to every process
  /// (dispatched as deliver_all — the batched-broadcast event).
  void schedule_broadcast_deliver(Time at, const Message* m);
  void deliver(ProcessId to, const Message& m);
  void deliver_all(const Message& m);
  void tick();

  SimConfig cfg_;
  CrashPlan plan_;
  FailurePattern pattern_;
  util::Rng rng_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<bool> crashed_;
  std::vector<std::uint64_t> sends_by_;
  DeliveryObserver delivery_observer_;
  RaceChooser race_chooser_;
  std::vector<const Event*> race_scratch_;
  trace::Tracer tracer_;
  util::Arena arena_;
  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t pending_deliveries_ = 0;  ///< queued events with msg set
  bool started_ = false;
  bool timed_out_ = false;
  std::chrono::steady_clock::time_point wall_start_{};

  bool over_budget();
};

}  // namespace saf::sim
