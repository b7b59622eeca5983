// Live-runtime throughput benchmark (docs/live_runtime.md).
//
// Measures *sustained* k-set decision throughput over the wire-v2
// transport: each repetition forks one loopback cluster whose nodes run
// `--rounds` consecutive agreement instances in keep-alive mode (one
// long-lived UDP link + heartbeat monitor per node, a fresh protocol
// instance per round), so the number measures the protocol and the
// transport — not fork/exec or detector convergence. Reports sustained
// decisions/sec, rounds/sec, and the client-observed p50/p99 decision
// latency across every (node, round) sample, and writes the
// BENCH_rt.json baseline checked in at the repo root.
//
// A second pass re-measures under chaos — 30% datagram loss plus one
// scheduled SIGKILL/restart per repetition (rt/chaos.h) — and reports
// it as the nested "chaos" section, so the baseline also pins how much
// throughput survives adversity ("chaos.rounds_per_sec" is a *_per_sec
// key and gates like the rest). --chaos off skips that pass.
//
// With --baseline FILE [--tolerance F] the run additionally gates
// against a checked-in baseline via sweep::compare_benchmarks (every
// "*_per_sec" metric must hold within the tolerance) — the CI perf job
// runs exactly that.
//
// Like bench_rt_latency, this is deliberately not a google-benchmark
// binary (it forks real socket-bound processes); CI skips bench_rt_*
// in its --benchmark_list_tests sweep over build/bench.
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

struct Measured {
  std::vector<double> latencies_ms;
  std::uint64_t decisions = 0;
  std::uint64_t rounds_completed = 0;
  int failed_repeats = 0;
  double wall_s = 0.0;
};

Measured measure(const ClusterConfig& cfg, int repeat, const char* label) {
  Measured m;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < repeat; ++r) {
    ClusterConfig run_cfg = cfg;
    run_cfg.seed = cfg.seed + static_cast<std::uint64_t>(r);
    run_cfg.chaos.seed = cfg.chaos.seed + static_cast<std::uint64_t>(r);
    const ClusterResult res = saf::rt::run_cluster(run_cfg);
    if (!res.contract_ok()) {
      ++m.failed_repeats;
      std::cerr << "bench_rt_throughput: " << label << " repeat " << (r + 1)
                << " failed";
      if (!res.detail.empty()) std::cerr << " (" << res.detail << ")";
      for (const std::string& viol : res.violations) {
        std::cerr << "\n  violation: " << viol;
      }
      std::cerr << "\n";
      continue;
    }
    m.rounds_completed += static_cast<std::uint64_t>(cfg.rounds);
    for (const saf::rt::ClusterNodeOutcome& node : res.nodes) {
      if (!node.launched) continue;
      for (const saf::rt::RoundResult& rr : node.rounds) {
        if (!rr.decided) continue;
        m.latencies_ms.push_back(static_cast<double>(rr.decision_ms));
        ++m.decisions;
      }
    }
  }
  m.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  ClusterConfig cfg;
  cfg.protocol = "kset";
  cfg.crash = 1;
  cfg.rounds = 100;
  cfg.run_for_ms = 10'000;
  cfg.out_dir = "bench_rt_out";
  int repeat = 3;
  std::string out_path = "BENCH_rt.json";
  std::string baseline_path;
  double tolerance = 0.25;
  std::string chaos_mode = "on";
  saf::util::Flags flags("bench_rt_throughput");
  flags.integer("--rounds", "R", &cfg.rounds, 1)
      .integer("--repeat", "REP", &repeat, 1)
      .integer("--n", "N", &cfg.n, 2)
      .integer("--t", "T", &cfg.t, 1)
      .integer("--k", "K", &cfg.k, 1)
      .integer("--crash", "C", &cfg.crash, 0)
      .integer("--base-port", "P", &cfg.base_port, 1024)
      .integer("--run-for-ms", "MS", &cfg.run_for_ms, 1)
      .text("--out", "FILE", &out_path)
      .text("--baseline", "FILE", &baseline_path)
      .real("--tolerance", "F", &tolerance, 0)
      .choice("--chaos", {"on", "off"}, &chaos_mode);
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  const bool chaos_pass = chaos_mode == "on";
  if (cfg.t >= cfg.n) return flags.fail("--t must be < --n");
  if (cfg.crash > cfg.t) return flags.fail("--crash must be <= --t");

  const Measured clean = measure(cfg, repeat, "clean");

  Measured chaos;
  if (chaos_pass) {
    // Same workload under adversity: 30% datagram loss on every link
    // plus one SIGKILL/restart per repetition, kills spread across the
    // run so they land mid-round. crash=0 — the chaos kill *is* the
    // crash, and recovery (not absence) is what's being measured.
    ClusterConfig ccfg = cfg;
    ccfg.crash = 0;
    ccfg.chaos.kills = 1;
    ccfg.chaos.faults = "lossy30";
    ccfg.chaos.window_start_ms = 150;
    ccfg.chaos.window_span_ms = 400;
    ccfg.chaos.seed = 17;
    chaos = measure(ccfg, repeat, "chaos");
  }

  saf::sweep::JsonWriter w;
  w.begin_object();
  w.key("schema").value("saf-bench-rt-v2");
  w.key("protocol").value(cfg.protocol);
  w.key("n").value(cfg.n);
  w.key("t").value(cfg.t);
  w.key("k").value(cfg.k);
  w.key("crash").value(cfg.crash);
  w.key("rounds").value(cfg.rounds);
  w.key("repeat").value(repeat);
  w.key("failed_repeats").value(clean.failed_repeats);
  w.key("decisions").value(clean.decisions);
  w.key("decision_p50_ms").value(percentile(clean.latencies_ms, 0.50));
  w.key("decision_p99_ms").value(percentile(clean.latencies_ms, 0.99));
  w.key("decisions_per_sec")
      .value(clean.wall_s > 0
                 ? static_cast<double>(clean.decisions) / clean.wall_s
                 : 0.0);
  w.key("rounds_per_sec")
      .value(clean.wall_s > 0
                 ? static_cast<double>(clean.rounds_completed) / clean.wall_s
                 : 0.0);
  if (chaos_pass) {
    w.key("chaos").begin_object();
    w.key("faults").value("lossy30");
    w.key("kills_per_repeat").value(1);
    w.key("failed_repeats").value(chaos.failed_repeats);
    w.key("decisions").value(chaos.decisions);
    w.key("decision_p50_ms").value(percentile(chaos.latencies_ms, 0.50));
    w.key("decision_p99_ms").value(percentile(chaos.latencies_ms, 0.99));
    w.key("decisions_per_sec")
        .value(chaos.wall_s > 0
                   ? static_cast<double>(chaos.decisions) / chaos.wall_s
                   : 0.0);
    w.key("rounds_per_sec")
        .value(chaos.wall_s > 0
                   ? static_cast<double>(chaos.rounds_completed) /
                         chaos.wall_s
                   : 0.0);
    w.end_object();
  }
  w.end_object();
  saf::sweep::write_file_atomic(out_path, w.str() + "\n");
  std::cout << w.str() << "\n";
  if (clean.failed_repeats > 0 || chaos.failed_repeats > 0) return 1;

  if (!baseline_path.empty()) {
    try {
      saf::sweep::FlatJson base =
          saf::sweep::load_json_numbers(baseline_path);
      // BENCH_rt.json's "service" section belongs to bench_rt_service
      // (which splices it in and gates it separately); left in, its
      // *_per_sec keys would read as MISSING here.
      for (auto it = base.begin(); it != base.end();) {
        if (it->first.rfind("service.", 0) == 0) {
          it = base.erase(it);
        } else {
          ++it;
        }
      }
      const saf::sweep::FlatJson cur = saf::sweep::parse_json_numbers(w.str());
      const saf::sweep::RegressionReport rep =
          saf::sweep::compare_benchmarks(base, cur, tolerance);
      for (const std::string& line : rep.regressions) {
        std::cerr << "bench_rt_throughput: REGRESSION " << line << "\n";
      }
      for (const std::string& key : rep.missing) {
        std::cerr << "bench_rt_throughput: MISSING " << key << "\n";
      }
      if (!rep.ok()) return 1;
      std::cerr << "bench_rt_throughput: within " << tolerance
                << " of baseline " << baseline_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "bench_rt_throughput: baseline check failed: " << e.what()
                << "\n";
      return 1;
    }
  }
  return 0;
}
