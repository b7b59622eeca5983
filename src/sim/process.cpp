#include "sim/process.h"

#include <algorithm>

#include "sim/network.h"
#include "sim/reliable_broadcast.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace saf::sim {

Process::Process(ProcessId id, int n, int t) : id_(id), n_(n), t_(t) {
  SAF_CHECK(id >= 0 && id < n);
  rb_ = std::make_unique<RbLayer>(*this);
}

Process::~Process() = default;

ProtocolTask Process::run() {
  SAF_CHECK_MSG(false, "Process subclasses must override run() or boot()");
  return {};
}

bool Process::is_crashed() const {
  SAF_CHECK(sim_ != nullptr);
  return sim_->is_crashed(id_);
}

Time Process::now() const {
  SAF_CHECK(sim_ != nullptr);
  return sim_->now();
}

void Process::attach(Simulator* sim) {
  SAF_CHECK(sim_ == nullptr);
  sim_ = sim;
}

void Process::start() {
  SAF_CHECK(!started_);
  started_ = true;
  boot();
}

void Process::spawn(ProtocolTask task) {
  SAF_CHECK(task.valid());
  // Keep the raw handle: the resumed task may itself spawn, reallocating
  // tasks_, so no reference into the vector may live across resume().
  const auto h = task.handle();
  tasks_.push_back(std::move(task));
  h.resume();
  reap_tasks();
}

util::Arena& Process::arena() {
  SAF_CHECK(sim_ != nullptr);
  return sim_->arena();
}

trace::Tracer& Process::tracer() {
  SAF_CHECK(sim_ != nullptr);
  return sim_->tracer();
}

const Message* Process::interned_instance(
    const std::type_info& type, const std::function<const Message*()>& make) {
  for (const auto& [key, msg] : interned_) {
    if (*key == type) return msg;
  }
  const Message* msg = make();
  interned_.emplace_back(&type, msg);
  return msg;
}

void Process::handle_delivery(const Message& m) {
  if (!rb_->intercept(m)) {
    on_message(m);
  }
  maybe_wake();
}

void Process::maybe_wake() {
  // Resume every predicate-waiter whose predicate holds. Resuming can add
  // new waiters (and change other predicates), so loop to a fixed point.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      if (waiters_[i].pred && waiters_[i].pred()) {
        auto h = waiters_[i].handle;
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
        resume_handle(h);
        progressed = true;
        break;  // restart scan: waiters_ changed under us
      }
      if (is_crashed()) return;
    }
  }
}

void Process::resume_handle(std::coroutine_handle<> h) {
  h.resume();
  reap_tasks();
}

void Process::reap_tasks() {
  // A task that returned normally is finished for good: free its frame
  // so a process spawning one task per instance (svc's pipeline) keeps
  // tasks_ at the live count. A task that threw stays, so every later
  // resume rethrows its exception.
  std::erase_if(tasks_, [](const ProtocolTask& t) {
    return t.done() && !t.failed();
  });
  for (const ProtocolTask& t : tasks_) {
    t.rethrow_if_failed();
  }
}

void Process::wake_token(std::uint64_t token) {
  auto it = std::find_if(waiters_.begin(), waiters_.end(),
                         [token](const Waiter& w) { return w.token == token; });
  if (it == waiters_.end()) return;  // already resumed / superseded
  auto h = it->handle;
  waiters_.erase(it);
  resume_handle(h);
  // A timer wake can enable other predicates.
  if (!is_crashed()) maybe_wake();
}

void Process::UntilAwaiter::await_suspend(std::coroutine_handle<> h) {
  p->waiters_.push_back(Waiter{h, std::move(pred), 0});
}

void Process::SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  Process* proc = p;
  const std::uint64_t token = proc->next_token_++;
  proc->waiters_.push_back(Waiter{h, nullptr, token});
  proc->sim_->schedule_tagged(
      proc->now() + d, EventKind::kWake, proc->id_, [proc, token] {
        if (!proc->is_crashed()) proc->wake_token(token);
      });
}

void Process::digest_generic(StateDigest& d) const {
  d.mix_bool(started_);
  d.mix_u64(next_token_);
  // Waiters pin the coroutines' suspension points. Predicates are
  // opaque closures, so each waiter folds as sleep-vs-predicate plus
  // its token; tokens are allocated deterministically along a shared
  // choice prefix, so equal multisets mean equal suspension histories.
  std::vector<std::uint64_t> ws;
  ws.reserve(waiters_.size());
  for (const Waiter& w : waiters_) {
    ws.push_back((w.pred ? (std::uint64_t{1} << 63) : 0) | w.token);
  }
  std::sort(ws.begin(), ws.end());
  d.mix_u64(ws.size());
  for (const std::uint64_t v : ws) d.mix_u64(v);
  rb_->digest(d);
}

void Process::send_raw(ProcessId to, const Message* m) {
  SAF_CHECK(sim_ != nullptr);
  sim_->network().send(id_, to, m);
}

void Process::broadcast_raw(const Message* m) {
  SAF_CHECK(sim_ != nullptr);
  sim_->network().broadcast(id_, m);
}

void Process::rbroadcast_raw(const Message* m) {
  rb_->rbroadcast(m);
}

void Process::seed_rb_seq(std::uint64_t first) { rb_->set_next_seq(first); }

bool Process::holds_arena_pointers() const {
  return !interned_.empty() || rb_->holds_arena_pointers();
}

void Process::enable_rb_acks(Time backoff_base, int max_retries) {
  rb_->enable_acks(RbRetryParams{backoff_base, max_retries});
}

}  // namespace saf::sim
