// Base class for simulated processes.
//
// A protocol is written as a subclass: message state updates live in
// on_message / on_rdeliver handlers (the paper's "when ... is received /
// R_delivered" tasks), and control flow lives in coroutines (the paper's
// numbered tasks) suspending on `co_await until(pred)`.
//
// A process may run SEVERAL tasks concurrently (boot() spawns them); this
// is how a transformation algorithm (e.g. the two wheels building Ω_z)
// and a protocol consuming its output (e.g. k-set agreement) share one
// process, exactly as the paper's layered reductions intend.
//
// The simulator re-evaluates pending wait predicates after every delivery
// to the process and on every global tick (so predicates over oracle
// outputs, which change with time only, are noticed promptly).
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <typeinfo>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "sim/task.h"
#include "util/arena.h"
#include "util/types.h"

namespace saf::trace {
class Tracer;
}  // namespace saf::trace

namespace saf::sim {

class Simulator;
class RbLayer;

class Process {
 public:
  Process(ProcessId id, int n, int t);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const { return id_; }
  int n() const { return n_; }
  int t() const { return t_; }

  /// Spawns the process's tasks at time 0. The default boots run().
  virtual void boot() { spawn(run()); }

  /// The protocol's main coroutine (single-task processes).
  virtual ProtocolTask run();

  /// Handler for plain (non reliable-broadcast) message deliveries.
  virtual void on_message(const Message& m) { (void)m; }

  /// Handler for reliable-broadcast deliveries.
  virtual void on_rdeliver(const Message& m) { (void)m; }

  /// Optional periodic hook, driven by the simulator's global tick.
  virtual void on_tick() {}

  /// Protocol-state fingerprint seam for the DFS checker
  /// (docs/exhaustive_checking.md): fold every protocol member that can
  /// influence future behavior into `d` — values only, never addresses,
  /// with ids and id sets flowing through d.mix_id / d.mix_set. The
  /// engine folds its own per-process state (coroutine waiters, the
  /// reliable-broadcast dedup set) separately; a protocol that leaves
  /// this empty disables hash-based pruning soundness for itself.
  virtual void state_digest(StateDigest& d) const { (void)d; }

  bool is_crashed() const;
  Time now() const;

  /// Tasks spawned and not yet reaped (finished tasks that threw nothing
  /// are reaped after every resume).
  std::size_t live_tasks() const { return tasks_.size(); }

  /// The owning simulator's trace emission point — protocol code uses it
  /// for x_move / l_move / decide / quiesce events. Only valid once the
  /// process has been added to a Simulator.
  trace::Tracer& tracer();

  /// Sends a protocol message point-to-point. The payload is moved into
  /// the simulator's per-run arena (one bump allocation, no refcounting).
  template <typename M>
  void send_to(ProcessId to, M msg) {
    send_raw(to, stamp(arena().create<M>(std::move(msg))));
  }

  /// The paper's Broadcast(m): send to every process including self.
  template <typename M>
  void broadcast_msg(M msg) {
    broadcast_raw(stamp(arena().create<M>(std::move(msg))));
  }

  /// Broadcast of a payload-free message type M (heartbeats, inquiries,
  /// alive-pings — the protocols' small fixed vocabulary). The instance
  /// is interned: created once per (process, type) and reused for every
  /// subsequent broadcast, so steady-state chatter allocates nothing.
  template <typename M>
  void broadcast_interned() {
    static_assert(std::is_default_constructible_v<M>,
                  "interned messages carry no payload");
    broadcast_raw(interned_instance(typeid(M), [this] {
      return stamp(arena().create<M>());
    }));
  }

  /// The paper's R_broadcast(m) (reliable broadcast via echo-forwarding,
  /// see RbLayer).
  template <typename M>
  void rbroadcast_msg(M msg) {
    rbroadcast_raw(stamp(arena().create<M>(std::move(msg))));
  }

  /// Switches this process's reliable-broadcast layer into
  /// quasi-reliable mode for runs over lossy links: every envelope
  /// receipt is acknowledged, and unacked destinations are retransmitted
  /// with exponential backoff (base << min(retry-1, 6)), up to
  /// max_retries attempts. Call on every process before the run starts.
  void enable_rb_acks(Time backoff_base = 40, int max_retries = 8);

  struct UntilAwaiter {
    Process* p;
    std::function<bool()> pred;
    bool await_ready() const { return pred(); }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  struct SleepAwaiter {
    Process* p;
    Time d;
    bool await_ready() const { return d <= 0; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  /// co_await until(pred): suspends until pred() holds.
  [[nodiscard]] UntilAwaiter until(std::function<bool()> pred) {
    return UntilAwaiter{this, std::move(pred)};
  }

  /// co_await sleep_for(d): suspends for d time units.
  [[nodiscard]] SleepAwaiter sleep_for(Time d) { return SleepAwaiter{this, d}; }

 protected:
  /// Starts an additional task (call from boot(), or from a running
  /// task). The task's frame is freed once it returns.
  void spawn(ProtocolTask task);

  /// The owning simulator's per-run message arena. Only valid once the
  /// process has been added to a Simulator.
  util::Arena& arena();

  /// Starts this process's reliable-broadcast origin sequence at
  /// `first` instead of 0 (see RbLayer::set_next_seq). For a process
  /// that outlives a restart of its origin id; call before the first
  /// rbroadcast.
  void seed_rb_seq(std::uint64_t first);

 private:
  friend class Simulator;
  friend class RbLayer;

  struct Waiter {
    std::coroutine_handle<> handle;
    std::function<bool()> pred;  ///< null for sleep-based waiters
    std::uint64_t token = 0;
  };

  void attach(Simulator* sim);
  /// True while engine-owned per-process state points into the arena
  /// across events (Simulator::recycle_arena's guard).
  bool holds_arena_pointers() const;
  void start();
  /// Folds the engine-owned per-process state (started flag, waiter
  /// multiset, RB dedup set) into `d`; the protocol's own members are
  /// folded by the state_digest() virtual.
  void digest_generic(StateDigest& d) const;
  void handle_delivery(const Message& m);
  void maybe_wake();
  void resume_handle(std::coroutine_handle<> h);
  /// Frees finished tasks that threw nothing; rethrows a failed one.
  void reap_tasks();
  void wake_token(std::uint64_t token);
  /// Stamps the sender id onto a freshly created message.
  template <typename M>
  const M* stamp(M* m) {
    m->sender = id_;
    return m;
  }
  /// Looks up (or creates, via `make`) the interned instance of a type.
  const Message* interned_instance(const std::type_info& type,
                                   const std::function<const Message*()>& make);
  void send_raw(ProcessId to, const Message* m);
  void broadcast_raw(const Message* m);
  void rbroadcast_raw(const Message* m);

  ProcessId id_;
  int n_;
  int t_;
  Simulator* sim_ = nullptr;
  std::vector<ProtocolTask> tasks_;
  std::vector<Waiter> waiters_;
  std::uint64_t next_token_ = 1;
  std::unique_ptr<RbLayer> rb_;
  /// Interned payload-free messages, keyed by concrete type. The
  /// vocabulary is a handful of types, so a linear scan wins.
  std::vector<std::pair<const std::type_info*, const Message*>> interned_;
  bool started_ = false;
};

}  // namespace saf::sim
