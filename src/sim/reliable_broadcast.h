// Reliable broadcast (Hadzilacos-Toueg) by echo-forwarding.
//
// R_broadcast(m): wrap m in an envelope stamped (origin, origin_seq) and
// send it to everyone (including self). On the first delivery of an
// envelope, a process forwards it to everyone and only then R_delivers
// the payload. Under reliable channels and crash failures this yields:
//   * Validity  — envelopes originate from a real R_broadcast;
//   * Integrity — the (origin, seq) dedup set delivers each m once;
//   * Termination — a correct process that delivers has already forwarded
//     to all, so every correct process eventually delivers.
//
// Over FAIR-LOSSY links (the fault layer's lossy profiles) the bare
// echo scheme loses Termination: every copy of an envelope can be
// dropped. enable_acks() reconstructs quasi-reliable delivery: every
// receipt of an envelope (including duplicates) is acknowledged to its
// transport-level sender, and each broadcaster retransmits
// point-to-point to unacked destinations with exponential backoff and a
// retry cap. The (origin, seq) dedup set keeps delivery exactly-once no
// matter how many copies arrive. With acks disabled — the default —
// the layer is bit-identical to the clean echo scheme.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "sim/message.h"
#include "util/types.h"

namespace saf::sim {

class Process;

struct RbEnvelope final : Message {
  /// Accounting uses the payload's tag: an x_move relayed by the RB layer
  /// still counts as x_move traffic (that is what the paper's quiescence
  /// argument is about).
  std::string_view tag() const override { return inner->tag(); }

  /// Corrupts the payload, keeping the (origin, seq) identity — the
  /// dedup set then treats the corrupted copy as the real one, which is
  /// exactly what in-flight corruption of a relayed message looks like.
  const Message* corrupted(util::Arena& arena, util::Rng& rng) const override;

  void digest_into(StateDigest& d) const override {
    d.mix_tag("rb_env");
    d.mix_id(origin);
    d.mix_u64(origin_seq);
    inner->digest_into(d);
  }

  ProcessId origin = -1;
  std::uint64_t origin_seq = 0;
  const Message* inner = nullptr;  ///< arena-owned, shared by every copy
};

/// Acknowledges receipt of one envelope copy to its transport-level
/// sender (origin or forwarder), naming the envelope by identity.
struct RbAckMsg final : Message {
  std::string_view tag() const override { return "rb_ack"; }

  void digest_into(StateDigest& d) const override {
    d.mix_tag("rb_ack");
    d.mix_id(origin);
    d.mix_u64(origin_seq);
  }

  ProcessId origin = -1;
  std::uint64_t origin_seq = 0;
};

/// Retransmission knobs for the quasi-reliable mode. Retry k (1-based)
/// fires backoff_base << min(k-1, 6) after the previous attempt.
struct RbRetryParams {
  Time backoff_base = 40;
  int max_retries = 8;
};

class RbLayer {
 public:
  explicit RbLayer(Process& owner) : owner_(owner) {}

  /// Switches the layer into quasi-reliable mode (see file comment).
  /// Call on every process of a run before it starts.
  void enable_acks(RbRetryParams params);
  bool acks_enabled() const { return acks_enabled_; }

  /// Starts the owner's origin sequence at `first`. A node that restarts
  /// under the same origin id must not reuse its earlier life's
  /// (origin, seq) keys, which peers' dedup sets still hold: seeding with
  /// incarnation << 32 keeps the lives disjoint. `first` must stay below
  /// 2^40, the key's origin shift. Sim runs never call this.
  void set_next_seq(std::uint64_t first);

  /// True while the ack-mode retransmission ledger holds envelopes
  /// (arena pointers kept across events).
  bool holds_arena_pointers() const { return !pending_.empty(); }

  /// Initiates R_broadcast of `m` from the owning process. `m` must be
  /// arena-owned with its sender already stamped.
  void rbroadcast(const Message* m);

  /// Returns true if the message was an RB-layer message (envelope or
  /// ack) and was consumed: deduplicated, acknowledged, or forwarded +
  /// delivered via on_rdeliver.
  bool intercept(const Message& m);

  /// Folds the dedup state into the DFS state fingerprint. The seen_
  /// keys are hashed as a multiset with origins relabeled, so the fold
  /// is insensitive to receipt order and symmetry-aware. The ack-mode
  /// retransmission ledger is NOT folded — the checker's protocols run
  /// with acks off (asserted via acks_enabled_).
  void digest(StateDigest& d) const;

 private:
  struct Pending {
    const RbEnvelope* env = nullptr;
    ProcSet unacked;
    int attempts = 0;  ///< retries already sent
  };

  /// Registers `env` (just broadcast by the owner) for ack tracking and
  /// schedules the first retry timer.
  void track(const RbEnvelope* env);
  void schedule_retry(std::uint64_t key);
  void retry(std::uint64_t key);

  Process& owner_;
  std::uint64_t next_seq_ = 0;
  std::unordered_set<std::uint64_t> seen_;  // key: origin << 40 | seq
  bool acks_enabled_ = false;
  RbRetryParams params_;
  std::unordered_map<std::uint64_t, Pending> pending_;
};

}  // namespace saf::sim
