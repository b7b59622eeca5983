// Live-runtime latency benchmark (docs/live_runtime.md).
//
// Forks real loopback clusters — the same path as `rt_cluster` — and
// measures wall-clock decision latency as seen by each node: the time
// from node start to its k-set decision, over UDP links and
// heartbeat-implemented failure detectors. Reports p50/p99 decision
// latency plus decision and run throughput, and writes the
// BENCH_rt.json baseline checked in at the repo root.
//
// This is deliberately not a google-benchmark binary: each "iteration"
// forks a five-process cluster and waits on real sockets, so it lives
// at the build root (not build/bench, which CI sweeps with
// --benchmark_list_tests).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "rt/cluster.h"
#include "sweep/bench_json.h"
#include "util/flags.h"

namespace {

using saf::rt::ClusterConfig;
using saf::rt::ClusterResult;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  ClusterConfig cfg;
  cfg.protocol = "kset";
  cfg.crash = 1;
  cfg.out_dir = "bench_rt_out";
  int rounds = 10;
  std::string out_path = "BENCH_rt.json";
  saf::util::Flags flags("bench_rt_latency");
  flags.integer("--rounds", "R", &rounds, 1)
      .integer("--n", "N", &cfg.n, 2)
      .integer("--t", "T", &cfg.t, 1)
      .integer("--k", "K", &cfg.k, 1)
      .integer("--crash", "C", &cfg.crash, 0)
      .integer("--base-port", "P", &cfg.base_port, 1024)
      .text("--out", "FILE", &out_path);
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  if (cfg.t >= cfg.n) return flags.fail("--t must be < --n");
  if (cfg.crash > cfg.t) return flags.fail("--crash must be <= --t");

  std::vector<double> latencies_ms;
  std::uint64_t decisions = 0;
  int failed_rounds = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    const ClusterResult res = saf::rt::run_cluster(cfg);
    if (!res.contract_ok()) {
      ++failed_rounds;
      std::cerr << "bench_rt_latency: round " << (r + 1) << " failed";
      if (!res.detail.empty()) std::cerr << " (" << res.detail << ")";
      std::cerr << "\n";
      continue;
    }
    for (const saf::rt::ClusterNodeOutcome& node : res.nodes) {
      if (node.launched && node.decided) {
        latencies_ms.push_back(static_cast<double>(node.decision_ms));
        ++decisions;
      }
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  saf::sweep::JsonWriter w;
  w.begin_object();
  w.key("schema").value("saf-bench-rt-v1");
  w.key("protocol").value(cfg.protocol);
  w.key("n").value(cfg.n);
  w.key("t").value(cfg.t);
  w.key("k").value(cfg.k);
  w.key("crash").value(cfg.crash);
  w.key("rounds").value(rounds);
  w.key("failed_rounds").value(failed_rounds);
  w.key("decisions").value(decisions);
  w.key("decision_p50_ms").value(percentile(latencies_ms, 0.50));
  w.key("decision_p99_ms").value(percentile(latencies_ms, 0.99));
  w.key("decisions_per_sec")
      .value(wall_s > 0 ? static_cast<double>(decisions) / wall_s : 0.0);
  w.key("runs_per_sec")
      .value(wall_s > 0 ? static_cast<double>(rounds - failed_rounds) / wall_s
                        : 0.0);
  w.end_object();
  saf::sweep::write_file(out_path, w.str() + "\n");
  std::cout << w.str() << "\n";
  return failed_rounds == 0 ? 0 : 1;
}
