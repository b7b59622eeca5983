// One live protocol node: a wall-clock process driving the unmodified
// core/ protocols over UDP.
//
// The trick that keeps core/ protocol sources untouched is an *embedded
// simulator*: each OS process hosts a Simulator with the full process
// table, but only its own id is a real protocol process — the other
// n-1 slots are inert RemoteStubs. Three seams splice the engine onto
// the real world:
//
//   * outbound — a sim::RemoteTransportHook on the embedded Network
//     intercepts every send addressed to a non-local id, flattens the
//     message through rt/codec and hands it to the UdpLink (exactly
//     once, end to end: the link retransmits and dedups); a send to
//     self re-enters the engine at the current instant instead of
//     paying the delay policy's 1 ms;
//   * inbound  — datagrams decode into the simulator's arena and enter
//     through Simulator::inject_deliver, so handlers, reliable-
//     broadcast interception and coroutine wakeups behave exactly as
//     in a simulated run;
//   * time     — the main loop calls Simulator::pump(now_ms) so virtual
//     time tracks the wall clock (1 virtual unit == 1 ms); ticks,
//     sleeps and wait predicates fire at their real-time instants.
//     Each wakeup runs poll -> pump -> maintain, so the frames a pump
//     produces are flushed on the same wakeup.
//
// The failure detectors the protocols consume are the heartbeat
// implementations (rt/heartbeat_fd.h) — the detector choice lives
// here, in the harness, not in the protocol.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/heartbeat_fd.h"
#include "rt/udp_link.h"
#include "util/types.h"

namespace saf::rt {

struct NodeConfig {
  ProcessId id = 0;
  int n = 5;
  int t = 2;
  int k = 2;  ///< agreement bound; the Ω oracle is built with z = k
  /// "kset" (Fig 3 over heartbeat-Ω_z) or "wheels" (the two-wheels
  /// construction over heartbeat-◇S_x + heartbeat-◇φ_y).
  std::string protocol = "kset";
  int x = 2;  ///< wheels: ◇S_x scope
  int y = 1;  ///< wheels: ◇φ_y class index
  std::uint16_t base_port = 47400;
  /// Value this node proposes (kset); kNoValue means "default 100+id".
  std::int64_t proposal = INT64_MIN;
  std::uint64_t seed = 1;
  Time run_for_ms = 15'000;  ///< wall budget; also the sim horizon
  /// After deciding, keep serving acks / RB forwards this long so
  /// slower peers can still finish (a decided node that exits at once
  /// would look crashed to everyone else).
  Time linger_ms = 750;
  Time tick_period = 5;
  /// Keep-alive rounds: consecutive protocol instances run in this OS
  /// process over one long-lived link + heartbeat monitor. Each round
  /// gets a fresh embedded simulator; the link's epoch tag keeps stale
  /// cross-round traffic out of the new instance. The linger wait
  /// applies only after the final round — between rounds the persistent
  /// link keeps serving acks and heartbeats, so a node advances as soon
  /// as it decided and its outgoing traffic to unsuspected peers is
  /// fully acknowledged.
  int rounds = 1;
  HeartbeatParams hb;
  UdpLinkParams link;
  std::string trace_path;    ///< jsonl trace file; empty = no trace
  std::string result_path;   ///< result JSON file; empty = stdout
  std::string metrics_path;  ///< rt.* metrics JSON file; empty = none
  /// Crash-recovery write-ahead record (rt/chaos.h), enabling
  /// kill/restart survival: on start the node loads it, bumps its
  /// incarnation, restores decided rounds, skips rounds whose messages
  /// already escaped, and rejoins the keep-alive stream via catch-up.
  /// Empty = no recovery (a restart would be a fresh incarnation-0
  /// node). kset only.
  std::string wal_path;
  /// fault::LinkFaultModel spec (profile name or inline grammar)
  /// installed on the real UDP link; empty = no injected link faults.
  std::string faults;
  std::uint64_t fault_seed = 0;  ///< 0: derive from `seed`
  /// Aggregated broadcasts inside the embedded simulator (see
  /// SimConfig::batched_broadcasts): the per-link seams still see every
  /// (from, to) traversal, so the transport bridge works unchanged.
  /// Changes the schedule — keep off when comparing against recorded
  /// traces.
  bool batched_broadcasts = false;
  // --- decision-service mode (svc/server.h; protocol == "svc") ---
  /// Link-id slots reserved for service clients above the n protocol
  /// ids: clients address the node as ids n .. n+slots-1. Bounded so
  /// n + slots <= kMaxProcs and ports stay within range.
  int svc_client_slots = 256;
  /// A node whose decided frontier trails the observed peer frontier by
  /// more than this many instances requests a decided-prefix snapshot
  /// instead of replaying instance by instance.
  int svc_jump_threshold = 8;
};

/// Outcome of one keep-alive round.
struct RoundResult {
  bool decided = false;  ///< kset only
  std::int64_t decision = INT64_MIN;
  Time decision_ms = kNeverTime;  ///< round-relative (wall == sim time)
  int decision_round = 0;         ///< protocol-internal round count
  Time start_ms = 0;  ///< wall offset of the round's start from node start
  Time elapsed_ms = 0;            ///< round wall duration
};

struct NodeResult {
  bool ok = false;       ///< socket bound and the run completed
  bool decided = false;  ///< kset: every round decided in budget
  std::int64_t decision = INT64_MIN;  ///< last round's decision
  Time decision_ms = kNeverTime;      ///< last round's, round-relative
  int decision_round = 0;
  ProcSet final_suspected;  ///< monitor output at shutdown
  ProcSet final_trusted;    ///< Ω view at shutdown (kset: heartbeat-Ω;
                            ///< wheels: the emulated store's output)
  std::uint64_t events_processed = 0;  ///< summed across rounds
  std::uint64_t heartbeats_sent = 0;
  Time total_elapsed_ms = 0;  ///< wall time over all rounds
  /// Always cfg.rounds entries: restored, executed, skipped and
  /// never-reached rounds alike (the latter stay undecided).
  std::vector<RoundResult> rounds;
  UdpLinkStats link_stats;  ///< cumulative over the link's lifetime
  // Crash-recovery bookkeeping (all zero without a WAL).
  std::uint32_t incarnation = 0;  ///< 0 first boot; +1 per restart
  int restored_rounds = 0;  ///< decided rounds replayed from the WAL
  int skipped_rounds = 0;   ///< tainted rounds never re-run (safety)
  int catchup_jumps = 0;    ///< rejoin jumps to the observed frontier
  bool gave_up = false;     ///< rejoin abandoned: every peer suspected
};

/// Runs one node to completion (decision + linger, or the wall budget).
NodeResult run_node(const NodeConfig& cfg);

/// Flat single-object JSON of a run's outcome — the contract between
/// rt_node and the rt_cluster launcher (parsed by
/// sweep::load_json_numbers on the other side).
std::string node_result_json(const NodeConfig& cfg, const NodeResult& res);

}  // namespace saf::rt
