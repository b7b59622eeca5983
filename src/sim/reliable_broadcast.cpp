#include "sim/reliable_broadcast.h"

#include <algorithm>

#include "sim/process.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace saf::sim {

namespace {
constexpr int kOriginShift = 40;

std::uint64_t key_of(ProcessId origin, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(origin) << kOriginShift) | seq;
}
}  // namespace

const Message* RbEnvelope::corrupted(util::Arena& arena,
                                     util::Rng& rng) const {
  const Message* bad_inner = inner->corrupted(arena, rng);
  if (bad_inner == nullptr) return nullptr;
  auto* env = arena.create<RbEnvelope>(*this);
  env->inner = bad_inner;
  return env;
}

void RbLayer::enable_acks(RbRetryParams params) {
  SAF_CHECK_MSG(params.backoff_base >= 1, "backoff_base must be >= 1");
  SAF_CHECK_MSG(params.max_retries >= 0, "max_retries must be >= 0");
  acks_enabled_ = true;
  params_ = params;
}

void RbLayer::set_next_seq(std::uint64_t first) {
  SAF_CHECK_MSG(first < (std::uint64_t{1} << kOriginShift),
                "RB origin seq must stay below the key's origin shift");
  next_seq_ = first;
}

void RbLayer::rbroadcast(const Message* m) {
  auto* env = owner_.arena().create<RbEnvelope>();
  env->sender = owner_.id();
  env->origin = owner_.id();
  env->origin_seq = next_seq_++;
  env->inner = m;
  owner_.broadcast_raw(env);
  if (acks_enabled_) track(env);
}

void RbLayer::track(const RbEnvelope* env) {
  const std::uint64_t key = key_of(env->origin, env->origin_seq);
  Pending& p = pending_[key];
  p.env = env;
  p.attempts = 0;
  for (ProcessId q = 0; q < static_cast<ProcessId>(owner_.n()); ++q) {
    p.unacked.insert(q);
  }
  schedule_retry(key);
}

void RbLayer::schedule_retry(std::uint64_t key) {
  const Pending& p = pending_.at(key);
  const int shift = std::min(p.attempts, 6);
  const Time delay = params_.backoff_base << shift;
  owner_.sim_->schedule(owner_.now() + delay, [this, key] { retry(key); });
}

void RbLayer::retry(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;  // fully acked — tracking retired
  if (owner_.is_crashed()) return;
  Pending& p = it->second;
  if (p.unacked.empty() || p.attempts >= params_.max_retries) {
    pending_.erase(it);
    return;
  }
  ++p.attempts;
  for (ProcessId q : p.unacked) {
    owner_.tracer().retransmit(owner_.now(), owner_.id(), q, p.env->tag(),
                               p.attempts);
    owner_.send_raw(q, p.env);
  }
  schedule_retry(key);
}

void RbLayer::digest(StateDigest& d) const {
  d.mix_u64(next_seq_);
  d.mix_bool(acks_enabled_);
  std::vector<std::uint64_t> keys;
  keys.reserve(seen_.size());
  for (const std::uint64_t k : seen_) {
    StateDigest kd(d.perm());
    kd.mix_id(static_cast<ProcessId>(k >> kOriginShift));
    kd.mix_u64(k & ((std::uint64_t{1} << kOriginShift) - 1));
    keys.push_back(kd.value());
  }
  std::sort(keys.begin(), keys.end());
  d.mix_u64(keys.size());
  for (const std::uint64_t v : keys) d.mix_u64(v);
}

bool RbLayer::intercept(const Message& m) {
  if (acks_enabled_) {
    if (const auto* ack = dynamic_cast<const RbAckMsg*>(&m)) {
      const std::uint64_t key = key_of(ack->origin, ack->origin_seq);
      auto it = pending_.find(key);
      if (it != pending_.end()) {
        it->second.unacked.erase(ack->sender);
        if (it->second.unacked.empty()) pending_.erase(it);
      }
      return true;
    }
  }
  const auto* env = dynamic_cast<const RbEnvelope*>(&m);
  if (env == nullptr) return false;
  if (acks_enabled_) {
    // Ack EVERY copy received (duplicates included): the copy's
    // transport-level sender is whoever would otherwise retransmit it.
    auto* ack = owner_.arena().create<RbAckMsg>();
    ack->sender = owner_.id();
    ack->origin = env->origin;
    ack->origin_seq = env->origin_seq;
    owner_.send_raw(env->sender, ack);
  }
  const std::uint64_t key = key_of(env->origin, env->origin_seq);
  if (!seen_.insert(key).second) {
    return true;  // duplicate — Integrity
  }
  // Forward before delivering: once any correct process delivers, every
  // correct process has the envelope in flight — Termination. The copy
  // re-stamps the forwarder as transport-level sender; inner is shared
  // (arena-owned, immutable).
  if (env->origin != owner_.id()) {
    auto* fwd = owner_.arena().create<RbEnvelope>(*env);
    fwd->sender = owner_.id();
    owner_.broadcast_raw(fwd);
    if (acks_enabled_) track(fwd);
  }
  owner_.on_rdeliver(*env->inner);
  return true;
}

}  // namespace saf::sim
