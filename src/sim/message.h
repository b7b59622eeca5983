// Message base type for protocol payloads.
//
// Protocols define their own message structs derived from Message.
// Messages are immutable after sending and owned by the simulator's
// per-run arena: a send bump-allocates the payload once, every recipient
// of a broadcast shares the same object, and nothing is reference-counted
// on the delivery path. The arena frees all messages wholesale when the
// run's Simulator is destroyed, or when a long-lived runtime recycles it
// between pumps (Simulator::recycle_arena).
#pragma once

#include <string_view>

#include "sim/state_digest.h"
#include "util/types.h"

namespace saf::util {
class Arena;
class Rng;
}  // namespace saf::util

namespace saf::sim {

struct Message {
  virtual ~Message() = default;

  /// Short stable tag used for per-kind accounting (quiescence measures,
  /// message-count benches). E.g. "x_move", "phase1", "inquiry".
  virtual std::string_view tag() const = 0;

  /// Fault-injection seam: returns an arena-owned copy of this message
  /// with its payload ints perturbed by `rng` (bounded corruption — the
  /// copy must still be structurally valid so handlers don't crash), or
  /// nullptr if this message type has nothing corruptible. The default
  /// is nullptr: corruption is opt-in per message type.
  virtual const Message* corrupted(util::Arena& arena, util::Rng& rng) const {
    (void)arena;
    (void)rng;
    return nullptr;
  }

  /// State-fingerprint seam (check/dfs): folds the payload into `d`.
  /// The default mixes only the tag — exact for payload-free messages;
  /// types carrying behavior-relevant payloads override it. Ids and id
  /// sets must flow through d.mix_id / d.mix_set so symmetry relabeling
  /// sees them; the sender is mixed by the caller.
  virtual void digest_into(StateDigest& d) const { d.mix_tag(tag()); }

  /// Filled in at send time.
  ProcessId sender = -1;
};

}  // namespace saf::sim
