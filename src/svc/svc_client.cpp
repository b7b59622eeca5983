// svc_client: drive a tier of closed-loop decision-service clients
// against a running `rt_cluster --protocol svc` cluster.
//
//   svc_client --n 5 --clients 100 --run-for-ms 10000 --churn-ms 2000
//
// Each client submits one value at a time to server link ids (slot %
// n), waits for the decided-value Reply, records submit->decide
// latency, and immediately submits again; --churn-ms cycles client
// links through teardown/rebirth with bumped incarnations. Prints an
// aggregate JSON (throughput + latency percentiles). Exit status: 0
// every client link bound, 1 otherwise, 2 usage error.
#include <iostream>
#include <string>

#include "svc/client.h"
#include "sweep/bench_json.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  saf::svc::ClientTierConfig cfg;
  std::string out_path;
  saf::util::Flags flags(
      "svc_client",
      "\n"
      "Drives C closed-loop clients (link ids n+first-slot ..) against\n"
      "the svc servers on base-port. --total-slots must match the\n"
      "servers' --svc-client-slots; --churn-ms 0 disables churn.\n");
  flags.integer("--n", "N", &cfg.n, 1)
      .integer("--base-port", "P", &cfg.base_port, 1024)
      .integer("--clients", "C", &cfg.clients, 1)
      .integer("--first-slot", "S", &cfg.first_slot, 0)
      .integer("--total-slots", "T", &cfg.total_slots, 1)
      .integer("--run-for-ms", "MS", &cfg.run_for_ms, 1)
      .integer("--resubmit-ms", "MS", &cfg.resubmit_ms, 1)
      .integer("--churn-ms", "MS", &cfg.churn_lifetime_ms, 0)
      .integer("--seed", "S", &cfg.seed, 0)
      .text("--out", "FILE", &out_path);
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  if (cfg.clients > cfg.total_slots - cfg.first_slot) {
    return flags.fail("--first-slot + --clients must be <= --total-slots");
  }

  const saf::svc::ClientRunResult res = saf::svc::run_client_tier(cfg);
  const std::string json = saf::svc::client_result_json(cfg, res);
  if (out_path.empty()) {
    std::cout << json << "\n";
  } else {
    saf::sweep::write_file_atomic(out_path, json);
  }
  if (!res.ok) {
    std::cerr << "svc_client: some client links failed to bind\n";
    return 1;
  }
  return 0;
}
