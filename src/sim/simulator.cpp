#include "sim/simulator.h"

#include <algorithm>

#include "sim/network.h"
#include "sim/process.h"
#include "util/check.h"

namespace saf::sim {

Simulator::Simulator(SimConfig cfg, CrashPlan plan,
                     std::unique_ptr<DelayPolicy> delays)
    : cfg_(cfg),
      plan_(std::move(plan)),
      pattern_(cfg.n, cfg.t, plan_),
      rng_(util::derive_seed(cfg.seed, "simulator")),
      crashed_(static_cast<std::size_t>(cfg.n), false),
      sends_by_(static_cast<std::size_t>(cfg.n), 0) {
  util::require(cfg.n >= 1 && cfg.n <= kMaxProcs, "SimConfig: n out of range");
  util::require(cfg.tick_period >= 1, "SimConfig: tick_period must be >= 1");
  util::require(cfg.horizon >= 1, "SimConfig: horizon must be >= 1");
  network_ = std::make_unique<Network>(
      *this, std::move(delays), util::Rng(util::derive_seed(cfg.seed, "network")));
  network_->set_batched_broadcasts(cfg.batched_broadcasts);
}

Simulator::~Simulator() = default;

const Network& Simulator::network() const { return *network_; }

Process& Simulator::add_process(std::unique_ptr<Process> p) {
  SAF_CHECK(p != nullptr);
  SAF_CHECK_MSG(!started_, "cannot add processes after the run started");
  SAF_CHECK_MSG(p->id() == static_cast<ProcessId>(processes_.size()),
                "processes must be added in id order");
  SAF_CHECK_MSG(static_cast<int>(processes_.size()) < cfg_.n,
                "more processes than SimConfig.n");
  p->attach(this);
  processes_.push_back(std::move(p));
  return *processes_.back();
}

bool Simulator::is_crashed(ProcessId pid) const {
  SAF_CHECK(pid >= 0 && pid < cfg_.n);
  return crashed_[static_cast<std::size_t>(pid)];
}

ProcSet Simulator::alive_set() const {
  ProcSet s;
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (!crashed_[static_cast<std::size_t>(p)]) s.insert(p);
  }
  return s;
}

void Simulator::schedule(Time at, std::function<void()> fn) {
  schedule_tagged(at, EventKind::kClosure, -1, std::move(fn));
}

void Simulator::schedule_tagged(Time at, EventKind kind, ProcessId owner,
                                std::function<void()> fn) {
  SAF_CHECK_MSG(at >= now_, "cannot schedule into the past");
  tracer_.event_post(at, next_seq_);
  queue_.push(Event{at, next_seq_++, -1, nullptr, std::move(fn), kind, owner});
}

void Simulator::schedule_deliver(Time at, ProcessId to, const Message* m) {
  SAF_CHECK_MSG(at >= now_, "cannot schedule into the past");
  tracer_.event_post(at, next_seq_);
  queue_.push(Event{at, next_seq_++, to, m, {}});
  ++pending_deliveries_;
}

void Simulator::schedule_broadcast_deliver(Time at, const Message* m) {
  SAF_CHECK_MSG(at >= now_, "cannot schedule into the past");
  tracer_.event_post(at, next_seq_);
  queue_.push(Event{at, next_seq_++, kBroadcastRecipient, m, {}});
  ++pending_deliveries_;
}

bool Simulator::recycle_arena() {
  if (pending_deliveries_ != 0) return false;
  for (const auto& p : processes_) {
    if (p->holds_arena_pointers()) return false;
  }
  arena_.reset();
  return true;
}

void Simulator::crash(ProcessId pid) {
  if (crashed_[static_cast<std::size_t>(pid)]) return;
  crashed_[static_cast<std::size_t>(pid)] = true;
  pattern_.record_crash(pid, now_);
  tracer_.crash(now_, pid);
}

void Simulator::note_sends(ProcessId sender, std::uint64_t count) {
  sends_by_[static_cast<std::size_t>(sender)] += count;
  for (const CrashEntry& e : plan_.entries()) {
    if (e.pid == sender && e.send_trigger &&
        sends_by_[static_cast<std::size_t>(sender)] >= *e.send_trigger) {
      crash(sender);
    }
  }
}

void Simulator::set_delivery_observer(DeliveryObserver obs) {
  delivery_observer_ = std::move(obs);
}

void Simulator::inject_crash_at(Time at, ProcessId pid) {
  SAF_CHECK(pid >= 0 && pid < cfg_.n);
  schedule_tagged(at, EventKind::kCrash, pid, [this, pid] { crash(pid); });
}

void Simulator::set_race_chooser(RaceChooser chooser) {
  race_chooser_ = std::move(chooser);
}

bool Simulator::pending_send_trigger(ProcessId pid) const {
  if (crashed_[static_cast<std::size_t>(pid)]) return false;
  for (const CrashEntry& e : plan_.entries()) {
    if (e.pid == pid && e.send_trigger &&
        sends_by_[static_cast<std::size_t>(pid)] < *e.send_trigger) {
      return true;
    }
  }
  return false;
}

void Simulator::state_digest(StateDigest& d) const {
  d.mix_i64(now_);
  ProcSet crashed;
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (crashed_[static_cast<std::size_t>(p)]) crashed.insert(p);
  }
  d.mix_set(crashed);
  // Send counters matter to the future only while an unfired
  // send-triggered crash watches them; otherwise they are accounting.
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (pending_send_trigger(p)) {
      d.mix_id(p);
      d.mix_u64(sends_by_[static_cast<std::size_t>(p)]);
    }
  }
  // Per-process state, folded in canonical (relabeled) id order so a
  // permuted run visits its processes in the matching sequence.
  for (ProcessId canon = 0; canon < cfg_.n; ++canon) {
    const ProcessId i =
        d.perm() != nullptr ? d.perm()->inverse(canon) : canon;
    d.mix_u64(0x70726F63ULL);  // per-process separator
    processes_[static_cast<std::size_t>(i)]->digest_generic(d);
    processes_[static_cast<std::size_t>(i)]->state_digest(d);
  }
  // Pending events as a multiset of per-event sub-digests: the seq
  // tie-break within an instant is exploration order, not state.
  std::vector<std::uint64_t> evs;
  evs.reserve(queue_.size());
  queue_.for_each_pending([&](const Event& e) {
    StateDigest ed(d.perm());
    ed.mix_i64(e.time);
    if (e.msg != nullptr) {
      ed.mix_u64(1);
      ed.mix_id(e.to);
      ed.mix_id(e.msg->sender);
      e.msg->digest_into(ed);
    } else {
      ed.mix_u64(2);
      ed.mix_u64(static_cast<std::uint64_t>(e.kind));
      ed.mix_id(e.owner);
    }
    evs.push_back(ed.value());
  });
  std::sort(evs.begin(), evs.end());
  d.mix_u64(evs.size());
  for (const std::uint64_t v : evs) d.mix_u64(v);
}

bool Simulator::over_budget() {
  if (cfg_.max_events > 0 && events_processed_ >= cfg_.max_events) {
    return true;
  }
  if (cfg_.wall_budget_ms > 0 && (events_processed_ & 0xFFF) == 0) {
    const auto elapsed = std::chrono::steady_clock::now() - wall_start_;
    if (std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
            .count() >= cfg_.wall_budget_ms) {
      return true;
    }
  }
  return false;
}

void Simulator::deliver(ProcessId to, const Message& m) {
  if (crashed_[static_cast<std::size_t>(to)]) {
    if (tracer_.active()) tracer_.drop(now_, to, m.sender, m.tag(), 1);
    return;
  }
  if (tracer_.active()) tracer_.deliver(now_, to, m.sender, m.tag());
  if (delivery_observer_) delivery_observer_(now_, to, m);
  processes_[static_cast<std::size_t>(to)]->handle_delivery(m);
}

void Simulator::deliver_all(const Message& m) {
  // One popped event fans out to every process in id order; deliver()
  // itself drops recipients that crashed before this instant. With a
  // per-link seam installed the fan-out unrolls through the network so
  // every (from, to) traversal is offered to the hooks.
  if (network_->has_link_hooks()) {
    network_->deliver_broadcast(m);
    return;
  }
  for (ProcessId to = 0; to < cfg_.n; ++to) deliver(to, m);
}

void Simulator::tick() {
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (crashed_[static_cast<std::size_t>(p)]) continue;
    auto& proc = *processes_[static_cast<std::size_t>(p)];
    proc.on_tick();
    if (crashed_[static_cast<std::size_t>(p)]) continue;
    proc.maybe_wake();
  }
  const Time next = now_ + cfg_.tick_period;
  if (next <= cfg_.horizon) {
    schedule_tagged(next, EventKind::kTick, -1, [this] { tick(); });
  }
}

void Simulator::start_if_needed() {
  if (started_) return;
  started_ = true;
  SAF_CHECK_MSG(static_cast<int>(processes_.size()) == cfg_.n,
                "SimConfig.n does not match the number of processes added");
  // Time-based crashes.
  for (const CrashEntry& e : plan_.entries()) {
    if (!e.send_trigger) {
      schedule_tagged(e.at_time, EventKind::kCrash, e.pid,
                      [this, pid = e.pid] { crash(pid); });
    }
  }
  // Start protocol coroutines at time 0. A process planned to crash at
  // time 0 must not take a step.
  for (auto& p : processes_) {
    ProcessId pid = p->id();
    schedule_tagged(0, EventKind::kStart, pid, [this, pid] {
      if (!crashed_[static_cast<std::size_t>(pid)]) {
        processes_[static_cast<std::size_t>(pid)]->start();
      }
    });
  }
  schedule_tagged(cfg_.tick_period, EventKind::kTick, -1, [this] { tick(); });
}

void Simulator::run() {
  run_until({});
}

void Simulator::dispatch(Event& e) {
  now_ = e.time;
  ++events_processed_;
  if (tracer_.active()) {
    tracer_.event_dispatch(e.time, e.seq);
    tracer_.event_processed();
  }
  if (e.msg != nullptr) {
    --pending_deliveries_;  // the caller popped it
    if (e.to == kBroadcastRecipient) {
      deliver_all(*e.msg);
    } else {
      deliver(e.to, *e.msg);
    }
  } else {
    e.fn();
  }
}

void Simulator::pump(Time upto) {
  SAF_CHECK_MSG(upto >= now_, "pump: cannot advance backwards");
  start_if_needed();
  while (!queue_.empty()) {
    const Event& head = queue_.peek();
    if (head.time > upto || head.time > cfg_.horizon) break;
    Event e = queue_.pop();
    dispatch(e);
  }
  now_ = upto;
}

Time Simulator::next_event_time() {
  if (queue_.empty()) return kNeverTime;
  return queue_.peek().time;
}

void Simulator::inject_deliver(ProcessId to, const Message* m) {
  SAF_CHECK(m != nullptr);
  SAF_CHECK(to >= 0 && to < cfg_.n);
  schedule_deliver(now_, to, m);
}

Event Simulator::pop_next_event() {
  if (!race_chooser_) return queue_.pop();
  // The race set: the maximal seq-order prefix of the minimum instant's
  // events consisting of unicast deliveries. A closure (start, tick,
  // crash, wake) or an aggregated broadcast ends the prefix and acts as
  // a barrier — everything behind it dispatches in seq order.
  const std::size_t ready = queue_.ready_count();
  race_scratch_.clear();
  for (std::size_t i = 0; i < ready; ++i) {
    const Event& ev = queue_.ready_at(i);
    if (ev.msg == nullptr || ev.to < 0) break;
    race_scratch_.push_back(&ev);
  }
  if (race_scratch_.size() < 2) return queue_.pop();
  const std::size_t idx = race_chooser_(race_scratch_);
  SAF_CHECK_MSG(idx < race_scratch_.size(),
                "race chooser returned an out-of-range index");
  return queue_.pop_ready(idx);
}

bool Simulator::run_until(const std::function<bool()>& stop) {
  start_if_needed();
  if (stop && stop()) return true;
  // The budget branch stays off the clean hot path: with both budgets
  // at their 0 default, over_budget() is never called.
  const bool budgeted = cfg_.max_events > 0 || cfg_.wall_budget_ms > 0;
  if (cfg_.wall_budget_ms > 0 &&
      wall_start_ == std::chrono::steady_clock::time_point{}) {
    wall_start_ = std::chrono::steady_clock::now();
  }
  while (!queue_.empty()) {
    if (queue_.peek().time > cfg_.horizon) break;
    if (budgeted && over_budget()) {
      timed_out_ = true;
      break;
    }
    // Move out before dispatch: the handler may push into the queue.
    Event e = pop_next_event();
    dispatch(e);
    if (stop && stop()) return true;
  }
  return false;
}

}  // namespace saf::sim
