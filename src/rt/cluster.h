// Loopback cluster launcher: fork n live nodes, wait, check the
// protocol contract.
//
// This is the rt counterpart of the run_* harnesses in core/: it
// launches one OS process per protocol node (each running rt/node.h
// over UDP on 127.0.0.1), collects the per-node result JSONs, and
// feeds a synthesized KSetRunResult through the same
// core::kset_invariants checker the simulator harnesses use — so "the
// live cluster reached k-set agreement" means exactly what it means
// for a simulated run. Crashes come in two flavors: *initial* — the
// lowest `crash` ids are simply never launched (the AS_{n,t} model's
// hardest-to-distinguish crash is the one that happened before the
// first step) — and *chaos* (rt/chaos.h) — live nodes SIGKILLed at
// scheduled mid-round wall offsets and re-forked with a bumped
// incarnation, recovering through their write-ahead record. Either
// way the survivors' heartbeat detectors, not any launcher-side
// ground truth, account for the missing processes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rt/chaos.h"
#include "rt/node.h"
#include "util/types.h"

namespace saf::rt {

struct ClusterResult;

struct ClusterConfig {
  int n = 5;
  int t = 2;
  int k = 2;
  std::string protocol = "kset";  ///< "kset" | "wheels" | "svc"
  int x = 2;                      ///< wheels: ◇S_x scope
  int y = 1;                      ///< wheels: ◇φ_y class index
  int crash = 0;  ///< initial crashes: ids 0..crash-1 are never launched
  std::uint16_t base_port = 47400;
  std::uint64_t seed = 1;
  Time run_for_ms = 15'000;  ///< per-node wall budget (per round)
  Time linger_ms = 750;
  /// Keep-alive rounds per node process (NodeConfig::rounds): > 1 runs
  /// that many consecutive protocol instances over one fork per node,
  /// so repetition measures the protocol, not fork/exec + detector
  /// convergence. The k-set contract is checked per round.
  int rounds = 1;
  HeartbeatParams hb;
  UdpLinkParams link;
  /// Directory for per-node result/trace files (created if missing).
  std::string out_dir = "rt_cluster_out";
  bool trace = false;  ///< per-node jsonl traces + a merged trace
  /// Chaos injection: scheduled SIGKILL/restart cycles and link fault
  /// profiles on the live links (rt/chaos.h). Disabled by default.
  ChaosConfig chaos;
  /// Cooperative stop (the CLI's SIGTERM/SIGINT flag): when set, the
  /// reap loop kills and reaps every child and returns `interrupted`.
  const std::atomic<bool>* stop = nullptr;
  /// Aggregated broadcasts inside each node's embedded simulator
  /// (NodeConfig::batched_broadcasts).
  bool batched_broadcasts = false;
  // --- decision-service plumbing (svc/, protocol == "svc") ---
  int svc_client_slots = 256;   ///< NodeConfig::svc_client_slots
  int svc_jump_threshold = 8;   ///< NodeConfig::svc_jump_threshold
  /// What each forked child runs. Null = rt::run_node. The decision
  /// service installs its own loop here (svc::run_server) so the
  /// launcher's fork/kill/restart/reap machinery is reused unchanged;
  /// returns the child's exit code (0 = ok).
  std::function<int(const NodeConfig&)> node_runner;
  /// Protocol-contract check over the collected outcomes. Null = the
  /// built-in kset/wheels checkers; the decision service supplies a
  /// per-instance agreement/validity/prefix checker that re-reads the
  /// node result files (cluster_node_result_path).
  std::function<void(const ClusterConfig&, ClusterResult*)> contract_checker;
};

struct ClusterNodeOutcome {
  ProcessId id = -1;
  bool launched = false;
  bool exited_ok = false;  ///< exit status 0 within the wall budget
  bool decided = false;    ///< every keep-alive round decided
  std::int64_t decision = INT64_MIN;  ///< last round's
  Time decision_ms = kNeverTime;      ///< last round's, round-relative
  std::uint64_t final_trusted_mask = 0;
  std::uint64_t final_suspected_mask = 0;
  /// Per keep-alive round (parsed from the node's result JSON).
  std::vector<RoundResult> rounds;
  // Chaos bookkeeping (zero without injection).
  int kills = 0;                  ///< SIGKILLs this node absorbed
  std::uint32_t incarnation = 0;  ///< final life's incarnation number
  bool gave_up = false;           ///< rejoin abandoned (peers all gone)
};

struct ClusterResult {
  bool ok = false;  ///< every launched node exited cleanly in budget
  /// Protocol-contract violations (empty = the contract held). kset:
  /// validity / agreement / termination via core::kset_invariants;
  /// wheels: final-output Ω_z axioms.
  std::vector<std::string> violations;
  std::vector<ClusterNodeOutcome> nodes;
  int distinct_decided = 0;
  Time max_decision_ms = kNeverTime;  ///< slowest decider (kset)
  std::string merged_trace_path;      ///< set when cfg.trace
  std::string detail;                 ///< human-readable failure context
  bool interrupted = false;  ///< cooperative stop fired mid-run
  std::vector<ChaosEvent> chaos_events;  ///< kills as they happened

  bool contract_ok() const { return ok && violations.empty(); }
};

ClusterResult run_cluster(const ClusterConfig& cfg);

/// Path of node `id`'s result JSON under cfg.out_dir — the same file
/// run_cluster parses; exported for contract checkers that need fields
/// beyond the common outcome (e.g. the service's per-instance logs).
std::string cluster_node_result_path(const ClusterConfig& cfg, ProcessId id);

/// Path of node `id`'s write-ahead log under cfg.out_dir (rt/chaos.h);
/// it holds every life of the node, so contract checkers read killed
/// lives' records from it.
std::string cluster_node_wal_path(const ClusterConfig& cfg, ProcessId id);

/// Flat JSON summary of a cluster run (the rt_cluster CLI's output).
std::string cluster_result_json(const ClusterConfig& cfg,
                                const ClusterResult& res);

}  // namespace saf::rt
