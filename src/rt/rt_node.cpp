// rt_node: one live protocol process over UDP.
//
// Runs a single node of the live runtime (rt/node.h) — typically
// launched n times (once per id) against a shared --base-port, or
// indirectly through rt_cluster. Prints the node's result JSON to
// stdout (or --out FILE) when done. Exit status: 0 node ran and, for
// kset, decided; 1 run failed (socket, no decision); 2 usage error.
#include <cstdint>
#include <iostream>
#include <string>

#include "fault/fault_spec.h"
#include "rt/node.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  saf::rt::NodeConfig cfg;
  saf::util::Flags flags(
      "rt_node",
      "\n"
      "--wal FILE enables crash recovery (kset only): the node appends\n"
      "write-ahead records there and, restarted after a kill,\n"
      "bumps its incarnation, restores decided rounds and rejoins via\n"
      "catch-up. --faults installs a fault::LinkFaultModel profile on\n"
      "the live UDP link.\n");
  flags.integer("--id", "I", &cfg.id, 0).required()
      .integer("--n", "N", &cfg.n, 2)
      .integer("--t", "T", &cfg.t, 1)
      .integer("--k", "K", &cfg.k, 1)
      .choice("--protocol", {"kset", "wheels"}, &cfg.protocol)
      .integer("--x", "X", &cfg.x, 1)
      .integer("--y", "Y", &cfg.y, 0)
      .integer("--base-port", "P", &cfg.base_port, 1024)
      .integer("--proposal", "V", &cfg.proposal, INT64_MIN)
      .integer("--seed", "S", &cfg.seed, 0)
      .integer("--run-for-ms", "MS", &cfg.run_for_ms, 1)
      .integer("--linger-ms", "MS", &cfg.linger_ms, 0)
      .integer("--rounds", "R", &cfg.rounds, 1)
      .integer("--hb-period", "MS", &cfg.hb.hb_period, 1)
      .integer("--hb-timeout", "MS", &cfg.hb.timeout_initial, 1)
      .text("--trace", "FILE", &cfg.trace_path)
      .text("--out", "FILE", &cfg.result_path)
      .text("--metrics", "FILE", &cfg.metrics_path)
      .text("--wal", "FILE", &cfg.wal_path)
      .text("--faults", "SPEC", &cfg.faults)
      .integer("--fault-seed", "S", &cfg.fault_seed, 0);
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  if (cfg.id >= cfg.n) return flags.fail("--id must be < --n");
  if (cfg.t >= cfg.n) return flags.fail("--t must be < --n");
  if (!cfg.wal_path.empty() && cfg.protocol != "kset") {
    return flags.fail("--wal requires --protocol kset");
  }
  if (!cfg.faults.empty()) {
    try {
      (void)saf::fault::parse_fault_spec(cfg.faults);
    } catch (const std::exception& e) {
      return flags.fail(std::string("--faults: ") + e.what());
    }
  }

  const saf::rt::NodeResult res = saf::rt::run_node(cfg);
  const std::string json = saf::rt::node_result_json(cfg, res);
  if (cfg.result_path.empty()) std::cout << json << "\n";
  if (!res.ok) {
    std::cerr << "rt_node: run failed (socket bind on port "
              << cfg.base_port + cfg.id << "?)\n";
    return 1;
  }
  if (cfg.protocol == "kset" && !res.decided) {
    std::cerr << "rt_node: no decision within " << cfg.run_for_ms << " ms\n";
    return 1;
  }
  return 0;
}
