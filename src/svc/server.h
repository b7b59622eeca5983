// Long-lived k-set decision service: one live node serving an unbounded
// stream of pipelined agreement instances over the rt transport.
//
// Where rt/node.h runs a fixed count of keep-alive *rounds*, each in a
// fresh embedded simulator fenced by the link epoch, the service runs
// ONE long-lived simulator hosting a lazily growing pipeline of
// KSetCores — instance m+1 starts once m decided and there is work for
// it: a queued submission here, or a peer's phase traffic for m+1 (the
// pipelining-by-decision design of core/repeated_kset, §3.2's repeated
// workload, driven by demand), messages are routed by their in-band
// instance tag, and the
// link runs with epoch gating OFF: the epoch field degrades into a pure
// *frontier signal* (each node stamps its decided-prefix length into
// every outgoing datagram header), which peers read to notice they have
// fallen behind.
//
// Three service-specific mechanisms sit on top:
//
//   * proposal batching — client submissions (svc/wire.h) queue between
//     decisions and fold into the NEXT instance's proposal via the
//     RepeatedKSetProcess::ProposalFn seam: one instance carries a whole
//     batch, so client load scales decisions/sec, not instances/client;
//   * snapshot catch-up — a node whose frontier trails the observed
//     peer frontier by more than NodeConfig::svc_jump_threshold (a
//     restarted node, or one that lost the race for a while) requests
//     the decided prefix wholesale (SnapReq/SnapResp) instead of
//     replaying instance by instance — the frontier-jump extension of
//     rt/node's epoch-frontier rejoin. Adopting a decided value is
//     always safe: decisions are final;
//   * restart recovery — the WAL (rt/chaos.h) appends the incarnation
//     and one participation record per instance this node runs, before
//     the instance's first send. A restarted life never runs an instance
//     a previous life took part in (it counts as crashed for it), and
//     re-fetches the decided prefix from peers via the snapshot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/cluster.h"
#include "rt/node.h"
#include "rt/udp_link.h"
#include "util/types.h"

namespace saf::svc {

/// Outcome of one service node's run (the svc analogue of NodeResult).
struct ServerResult {
  bool ok = false;           ///< socket bound and the run completed
  std::uint64_t frontier = 0;  ///< contiguous decided instances
  std::uint64_t locally_decided = 0;  ///< instances this node ran itself
  std::uint64_t snapshot_adopted = 0;  ///< decisions adopted from SnapResp
  std::uint64_t snap_requests = 0;     ///< SnapReqs sent (catch-up rounds)
  std::uint64_t snaps_served = 0;      ///< SnapResp chunks served to peers
  std::uint64_t proposals_received = 0;  ///< client submissions accepted
  std::uint64_t proposals_served = 0;    ///< replies sent after decisions
  std::uint64_t batches = 0;  ///< instances that carried >= 1 submission
  std::uint64_t instances_run = 0;  ///< KSetCores this life started
  /// Chunk capacity the embedded simulator's message arena reached (it
  /// is recycled every wakeup, so this tracks one wakeup's traffic).
  std::uint64_t arena_reserved_bytes = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t heartbeats_sent = 0;
  Time total_elapsed_ms = 0;
  std::uint32_t incarnation = 0;
  ProcSet final_suspected;
  ProcSet final_trusted;
  rt::UdpLinkStats link_stats;
  /// The decided prefix itself (log[i] = instance i's decision).
  std::vector<std::int64_t> log;
  /// Proposal this node used for each locally run instance, aligned
  /// with instance ids via `proposal_instances`.
  std::vector<std::uint64_t> proposal_instances;
  std::vector<std::int64_t> proposals;
};

/// Runs one service node to the wall budget. cfg.protocol must be
/// "svc"; cfg.svc_client_slots / svc_jump_threshold / wal_path / faults
/// are honored as documented in rt/node.h.
ServerResult run_service_node(const rt::NodeConfig& cfg);

/// Child entry point for rt::ClusterConfig::node_runner: runs the node,
/// writes the result JSON to cfg.result_path, returns the exit code.
int run_server(const rt::NodeConfig& cfg);

/// Flat JSON of a service run — a superset of the node-result keys the
/// cluster launcher parses (decided/decision/incarnation/link stats),
/// plus the svc.* section (frontier, decided log, proposal log).
std::string server_result_json(const rt::NodeConfig& cfg,
                               const ServerResult& res);

/// Service contract over a finished cluster run, for
/// rt::ClusterConfig::contract_checker. Re-reads each node's result
/// JSON (rt::cluster_node_result_path) and checks, per instance:
///   * agreement — at most k distinct decided values across nodes;
///   * prefix    — every node's decided log is a contiguous prefix
///                 (no holes below its frontier);
///   * validity  — on runs without link faults, every decided value was
///                 proposed by some node for that instance (killed
///                 lives' proposals are read from each node's WAL,
///                 rt::cluster_node_wal_path);
///   * progress  — some launched node decided at least one instance.
void check_service_contract(const rt::ClusterConfig& cfg,
                            rt::ClusterResult* res);

}  // namespace saf::svc
