// rt_cluster: launch a loopback cluster of live nodes and check the
// protocol contract.
//
//   rt_cluster --protocol kset --n 5 --k 2 --crash 1
//
// forks n-1 rt nodes (the lowest `crash` ids are never launched —
// initial crashes), waits for them on a wall budget, and verifies
// k-set agreement / termination with the same core::kset_invariants
// checker the simulator harnesses use. Prints a JSON summary. Exit
// status: 0 contract held, 1 a node failed or an invariant was
// violated, 2 usage error.
#include <signal.h>

#include <atomic>
#include <iostream>
#include <string>

#include "fault/fault_spec.h"
#include "rt/cluster.h"
#include "svc/server.h"
#include "util/flags.h"

namespace {

/// SIGTERM/SIGINT: cooperative stop. run_cluster's reap loop sees the
/// flag, SIGKILLs and reaps every child, and returns `interrupted`;
/// main exits 130 — no orphaned node processes, ever.
std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  saf::rt::ClusterConfig cfg;
  int repeat = 1;
  bool keep_alive = false;
  saf::util::Flags flags(
      "rt_cluster",
      "\n"
      "--protocol svc runs the long-lived decision service (svc/):\n"
      "each node pipelines k-set instances for the whole wall budget,\n"
      "serves client submissions on link ids n..n+slots-1 (see\n"
      "svc_client), and catches up over decided-prefix snapshots; the\n"
      "contract check is per-instance agreement/validity/prefix.\n"
      "\n"
      "--repeat R re-runs the whole cluster R times (fork/exec per run);\n"
      "with --keep-alive the R repetitions run as keep-alive rounds\n"
      "inside one set of node processes (one fork per node total).\n"
      "\n"
      "--chaos-kills K schedules K SIGKILL/restart cycles at seeded\n"
      "mid-round wall offsets (victims recover through their WAL);\n"
      "--faults installs a fault::LinkFaultModel profile on every\n"
      "node's live UDP link. SIGTERM/SIGINT reaps all children and\n"
      "exits 130.\n");
  flags.choice("--protocol", {"kset", "wheels", "svc"}, &cfg.protocol)
      .integer("--n", "N", &cfg.n, 2)
      .integer("--t", "T", &cfg.t, 1)
      .integer("--k", "K", &cfg.k, 1)
      .integer("--x", "X", &cfg.x, 1)
      .integer("--y", "Y", &cfg.y, 0)
      .integer("--crash", "C", &cfg.crash, 0)
      .integer("--base-port", "P", &cfg.base_port, 1024)
      .integer("--seed", "S", &cfg.seed, 0)
      .integer("--run-for-ms", "MS", &cfg.run_for_ms, 1)
      .integer("--linger-ms", "MS", &cfg.linger_ms, 0)
      .integer("--hb-period", "MS", &cfg.hb.hb_period, 1)
      .integer("--hb-timeout", "MS", &cfg.hb.timeout_initial, 1)
      .text("--out-dir", "DIR", &cfg.out_dir)
      .toggle("--trace", &cfg.trace)
      .integer("--repeat", "R", &repeat, 1)
      .toggle("--keep-alive", &keep_alive)
      .toggle("--batched-broadcasts", &cfg.batched_broadcasts)
      .integer("--chaos-kills", "K", &cfg.chaos.kills, 0)
      .integer("--chaos-restart-ms", "MS", &cfg.chaos.restart_delay_ms, 0)
      .integer("--chaos-window-ms", "MS", &cfg.chaos.window_span_ms, 1)
      .integer("--chaos-seed", "S", &cfg.chaos.seed, 0)
      .text("--faults", "SPEC", &cfg.chaos.faults)
      .integer("--svc-client-slots", "N", &cfg.svc_client_slots, 0)
      .integer("--svc-jump-threshold", "N", &cfg.svc_jump_threshold, 1);
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  if (cfg.t >= cfg.n) return flags.fail("--t must be < --n");
  if (cfg.crash > cfg.t) return flags.fail("--crash must be <= --t");
  if (cfg.protocol == "svc") {
    // The launcher's fork/kill/restart/reap machinery is reused as-is;
    // only the per-child loop and the contract check are swapped.
    cfg.node_runner = saf::svc::run_server;
    cfg.contract_checker = saf::svc::check_service_contract;
  }
  if (keep_alive) {
    // The repetitions become rounds within one long-lived node process
    // per id; one cluster launch covers them all.
    cfg.rounds = repeat;
    repeat = 1;
  }
  if (!cfg.chaos.faults.empty()) {
    try {
      (void)saf::fault::parse_fault_spec(cfg.chaos.faults);
    } catch (const std::exception& e) {
      return flags.fail(std::string("--faults: ") + e.what());
    }
  }

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  cfg.stop = &g_stop;

  bool failed = false;
  for (int r = 0; r < repeat; ++r) {
    const saf::rt::ClusterResult res = saf::rt::run_cluster(cfg);
    if (res.interrupted) {
      std::cerr << "rt_cluster: interrupted; children reaped\n";
      return 130;
    }
    std::cout << saf::rt::cluster_result_json(cfg, res) << "\n";
    if (!res.contract_ok()) {
      std::cerr << "rt_cluster: run " << (r + 1) << "/" << repeat
                << " FAILED";
      if (!res.detail.empty()) std::cerr << " (" << res.detail << ")";
      for (const std::string& viol : res.violations) {
        std::cerr << "\n  violation: " << viol;
      }
      std::cerr << "\n";
      failed = true;
    } else if (repeat > 1) {
      std::cerr << "rt_cluster: run " << (r + 1) << "/" << repeat << " ok\n";
    }
  }
  return failed ? 1 : 0;
}
