// Reliable asynchronous point-to-point network.
//
// Channels are reliable (no creation, alteration or loss) and *not* FIFO:
// each message gets an independent delay from the DelayPolicy. Messages
// from or to crashed processes are dropped, matching the model ("unless
// it fails"). The network also keeps per-tag accounting used by the
// quiescence benches.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "sim/message.h"
#include "util/rng.h"
#include "util/types.h"

namespace saf::sim {

class Simulator;
class DelayPolicy;

/// What a LinkFaultHook decided for one (from, to, message) traversal.
/// The default-constructed action is "deliver unchanged".
struct LinkFaultAction {
  bool drop = false;      ///< suppress the message entirely
  int drop_site = 2;      ///< trace site when dropped: 2 lossy, 3 partition
  bool duplicate = false;  ///< also schedule a second copy
  Time dup_extra_delay = 1;  ///< extra delay applied to the duplicate
  /// Corrupted payload to deliver instead of the original (must be
  /// arena-owned); nullptr delivers the original.
  const Message* replacement = nullptr;
};

/// Fault-injection seam of the network (src/fault/ implements it).
/// Consulted once per point-to-point send, after crash filtering and
/// before delay assignment. Implementations must be deterministic in
/// their own seeded state — the hook is part of the run identity. With
/// no hook installed, Network::send is bit-identical to the clean path.
class LinkFaultHook {
 public:
  virtual ~LinkFaultHook();
  virtual LinkFaultAction on_send(ProcessId from, ProcessId to, Time now,
                                  const Message& m) = 0;
};

/// Remote-transport seam of the network (src/rt implements it). In a
/// live run each OS process hosts ONE real protocol process; sends to
/// any other id are consumed by this hook and carried over a real
/// transport (UDP) instead of being scheduled locally. The inbound half
/// is Simulator::inject_deliver. With no hook installed — every
/// simulator-only workload — Network::send is unchanged.
class RemoteTransportHook {
 public:
  virtual ~RemoteTransportHook();
  /// Returns true iff the hook consumed the send (it will carry `m` to
  /// process `to` outside this simulator); false falls through to the
  /// local delivery path.
  virtual bool forward(ProcessId from, ProcessId to, Time now,
                       const Message& m) = 0;
};

class Network {
 public:
  Network(Simulator& sim, std::unique_ptr<DelayPolicy> policy,
          util::Rng rng);
  ~Network();

  /// Point-to-point send; no-op if `from` has crashed. `m` must be owned
  /// by the simulator's arena (it lives until the arena is reset).
  void send(ProcessId from, ProcessId to, const Message* m);

  /// Send to every process, including the sender itself. All recipients
  /// share the one arena object: a broadcast costs zero allocations
  /// beyond the payload itself. With batched broadcasts enabled, the
  /// whole fan-out is one queue event with one shared delay sample —
  /// O(1) queue traffic instead of O(n). Per-link hooks (fault, remote
  /// transport) still see every (from, to) traversal: they are consulted
  /// as the one event unrolls at delivery time (deliver_broadcast).
  void broadcast(ProcessId from, const Message* m);

  /// True iff a per-link seam (fault or remote hook) is installed — the
  /// batched-broadcast dispatch must then unroll through
  /// deliver_broadcast instead of the plain all-recipients loop.
  bool has_link_hooks() const {
    return fault_hook_ != nullptr || remote_hook_ != nullptr;
  }

  /// Dispatch half of a batched broadcast when a per-link hook is
  /// installed: unrolls the fan-out recipient by recipient at the
  /// delivery instant, giving the remote hook first claim on each link
  /// and the fault hook its drop/duplicate/replace decision, exactly as
  /// the per-recipient send path would have at send time. Called by
  /// Simulator::deliver_all; send-side accounting (total_sent_, tag
  /// stats, note_sends) already happened when the event was enqueued.
  void deliver_broadcast(const Message& m);

  /// Enables / disables the aggregated broadcast path (see
  /// SimConfig::batched_broadcasts for the semantics and caveats).
  void set_batched_broadcasts(bool on) { batched_ = on; }
  bool batched_broadcasts() const { return batched_; }

  std::uint64_t total_sent() const { return total_sent_; }
  std::uint64_t sent_with_tag(std::string_view tag) const;
  /// Time of the most recent send carrying `tag`; kNeverTime if none.
  Time last_send_time(std::string_view tag) const;

  /// Installs (or clears, with nullptr) the link fault hook. The hook
  /// is not owned and must outlive the run.
  void set_fault_hook(LinkFaultHook* hook) { fault_hook_ = hook; }
  LinkFaultHook* fault_hook() const { return fault_hook_; }

  /// Installs (or clears, with nullptr) the remote transport hook. Not
  /// owned; must outlive the run.
  void set_remote_hook(RemoteTransportHook* hook) { remote_hook_ = hook; }
  RemoteTransportHook* remote_hook() const { return remote_hook_; }

 private:
  struct TagStats {
    std::uint64_t count = 0;
    Time last_time = kNeverTime;
  };

  void broadcast_batched(ProcessId from, const Message* m);

  Simulator& sim_;
  std::unique_ptr<DelayPolicy> policy_;
  LinkFaultHook* fault_hook_ = nullptr;
  RemoteTransportHook* remote_hook_ = nullptr;
  bool batched_ = false;
  util::Rng rng_;
  std::uint64_t total_sent_ = 0;
  std::map<std::string, TagStats, std::less<>> by_tag_;
};

}  // namespace saf::sim
