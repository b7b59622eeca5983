// Decision-service benchmark (docs/live_runtime.md, "Decision
// service").
//
// Measures the long-lived svc pipeline end to end: each pass forks a
// real loopback cluster of svc servers (svc/server.h) and drives a tier
// of closed-loop, churning clients (svc/client.h) against it from a
// background thread — the exact rt_cluster + svc_client deployment, in
// one process. Reported metrics:
//
//   service.decisions_per_sec — max node decided-frontier over the
//       cluster wall clock (sustained pipelined instances/sec);
//   service.proposals_per_sec — client replies over the tier's wall
//       clock (served submissions/sec under batching);
//   service.client_p50_ms / client_p99_ms — submit->decide latency
//       across every answered request.
//
// A second pass re-measures with one scheduled SIGKILL/restart
// (rt/chaos.h) and additionally requires the restarted node to have
// caught up through the snapshot path — the pass fails unless some
// node adopted decisions from SnapResp (snapshot_adopted > 0), so the
// baseline pins not just chaos throughput but the catch-up mechanism
// itself. --chaos off skips it.
//
// The "service" object is spliced into the existing --out file:
// bench_rt_throughput owns the rest of BENCH_rt.json, so regenerate
// throughput first, then this. With --baseline FILE the
// "service."-prefixed *_per_sec keys gate at --tolerance (the
// throughput keys are bench_rt_throughput's to gate), mirroring the CI
// perf job.
//
// Like the other bench_rt_* binaries this forks socket-bound processes
// and is not a google-benchmark target.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rt/cluster.h"
#include "svc/client.h"
#include "svc/server.h"
#include "sweep/bench_json.h"
#include "util/flags.h"

namespace {

using saf::rt::ClusterConfig;
using saf::rt::ClusterResult;
using saf::svc::ClientTierConfig;

struct Measured {
  bool contract_ok = false;
  bool clients_ok = false;
  std::uint64_t frontier = 0;          ///< max across nodes
  std::uint64_t snapshot_adopted = 0;  ///< summed across nodes
  double cluster_wall_s = 0.0;
  saf::svc::ClientRunResult clients;
};

/// One pass: fork the svc cluster, run the client tier on a background
/// thread, then read each node's result JSON back for the svc_* fields
/// the common ClusterNodeOutcome doesn't carry.
Measured measure(ClusterConfig cfg, const ClientTierConfig& tier,
                 const char* label) {
  Measured m;
  cfg.node_runner = saf::svc::run_server;
  cfg.contract_checker = saf::svc::check_service_contract;

  std::thread clients([&m, &tier] {
    // Let the forked servers bind before the first submits; the tier's
    // resubmit path would survive a race anyway, but the latency
    // samples shouldn't include server startup.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    m.clients = saf::svc::run_client_tier(tier);
  });

  const auto t0 = std::chrono::steady_clock::now();
  const ClusterResult res = saf::rt::run_cluster(cfg);
  m.cluster_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  clients.join();

  m.contract_ok = res.contract_ok();
  if (!m.contract_ok) {
    std::cerr << "bench_rt_service: " << label << " pass failed";
    if (!res.detail.empty()) std::cerr << " (" << res.detail << ")";
    for (const std::string& viol : res.violations) {
      std::cerr << "\n  violation: " << viol;
    }
    std::cerr << "\n";
  }
  m.clients_ok = m.clients.ok;

  for (const saf::rt::ClusterNodeOutcome& node : res.nodes) {
    if (!node.launched) continue;
    try {
      const saf::sweep::FlatJson nj = saf::sweep::load_json_numbers(
          saf::rt::cluster_node_result_path(cfg, node.id));
      auto it = nj.find("svc_frontier");
      if (it != nj.end()) {
        m.frontier =
            std::max(m.frontier, static_cast<std::uint64_t>(it->second));
      }
      it = nj.find("svc_snapshot_adopted");
      if (it != nj.end()) {
        m.snapshot_adopted += static_cast<std::uint64_t>(it->second);
      }
    } catch (const std::exception&) {
      // A node killed and never restarted leaves no (or a stale) result
      // file; the contract checker already accounted for it.
    }
  }
  return m;
}

/// Splices `svc_obj` in as the "service" member of JSON document `doc`
/// (replacing an existing one). The checked-in BENCH_rt.json has no
/// braces inside string values, so brace counting is sufficient.
std::string splice_service(std::string doc, const std::string& svc_obj) {
  const std::string key = "\"service\":";
  const std::size_t kpos = doc.find(key);
  if (kpos != std::string::npos) {
    std::size_t end = doc.find('{', kpos);
    int depth = 0;
    for (; end < doc.size(); ++end) {
      if (doc[end] == '{') ++depth;
      if (doc[end] == '}' && --depth == 0) {
        ++end;
        break;
      }
    }
    std::size_t start = kpos;
    while (start > 0 &&
           std::isspace(static_cast<unsigned char>(doc[start - 1]))) {
      --start;
    }
    if (start > 0 && doc[start - 1] == ',') --start;
    doc.erase(start, end - start);
  }
  const std::size_t close = doc.rfind('}');
  if (close == std::string::npos) {
    throw std::runtime_error("out file is not a JSON object");
  }
  doc.insert(close, ",\"service\":" + svc_obj);
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  ClusterConfig cfg;
  cfg.protocol = "svc";
  cfg.run_for_ms = 8'000;
  cfg.out_dir = "bench_rt_svc_out";
  ClientTierConfig tier;
  tier.clients = 100;
  tier.churn_lifetime_ms = 1'500;
  std::string out_path = "BENCH_rt.json";
  std::string baseline_path;
  double tolerance = 0.25;
  std::string chaos_mode = "on";
  saf::util::Flags flags("bench_rt_service");
  flags.integer("--n", "N", &cfg.n, 2)
      .integer("--t", "T", &cfg.t, 1)
      .integer("--k", "K", &cfg.k, 1)
      .integer("--clients", "C", &tier.clients, 1)
      .integer("--total-slots", "S", &tier.total_slots, 1)
      .integer("--churn-ms", "MS", &tier.churn_lifetime_ms, 0)
      .integer("--resubmit-ms", "MS", &tier.resubmit_ms, 1)
      .integer("--run-for-ms", "MS", &cfg.run_for_ms, 3000)
      .integer("--base-port", "P", &cfg.base_port, 1024)
      .integer("--seed", "S", &cfg.seed, 0)
      .text("--out", "FILE", &out_path)
      .text("--baseline", "FILE", &baseline_path)
      .real("--tolerance", "F", &tolerance, 0)
      .choice("--chaos", {"on", "off"}, &chaos_mode);
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  const bool chaos_pass = chaos_mode == "on";
  if (cfg.t >= cfg.n) return flags.fail("--t must be < --n");
  if (tier.clients > tier.total_slots) {
    return flags.fail("--clients must be <= --total-slots");
  }

  cfg.svc_client_slots = tier.total_slots;
  tier.n = cfg.n;
  tier.base_port = cfg.base_port;
  tier.seed = cfg.seed;
  // The tier ends 2 s (startup grace + resubmit slack) before the
  // servers do, so every answered request's reply lands in-budget.
  tier.run_for_ms = std::max<saf::Time>(1'000, cfg.run_for_ms - 2'000);

  const Measured clean = measure(cfg, tier, "clean");

  Measured chaos;
  if (chaos_pass) {
    // One SIGKILL/restart landing mid-stream: the victim recovers via
    // WAL + snapshot catch-up while the tier keeps submitting (its
    // resubmit path rides out the dead server).
    ClusterConfig ccfg = cfg;
    ccfg.out_dir = "bench_rt_svc_chaos_out";
    ccfg.chaos.kills = 1;
    ccfg.chaos.window_start_ms = 1'500;
    ccfg.chaos.window_span_ms = 2'000;
    ccfg.chaos.restart_delay_ms = 400;
    ccfg.chaos.seed = 17;
    chaos = measure(ccfg, tier, "chaos");
    if (chaos.contract_ok && chaos.snapshot_adopted == 0) {
      std::cerr << "bench_rt_service: chaos pass adopted no snapshot "
                   "decisions — catch-up path untested\n";
    }
  }

  saf::sweep::JsonWriter w;
  w.begin_object();
  w.key("n").value(cfg.n);
  w.key("clients").value(tier.clients);
  w.key("churn_ms").value(tier.churn_lifetime_ms);
  w.key("run_for_ms").value(cfg.run_for_ms);
  w.key("frontier").value(clean.frontier);
  w.key("submitted").value(clean.clients.submitted);
  w.key("replies").value(clean.clients.replies);
  w.key("resubmits").value(clean.clients.resubmits);
  w.key("churns").value(clean.clients.churns);
  w.key("client_p50_ms")
      .value(saf::svc::latency_percentile(clean.clients.latencies_ms, 50));
  w.key("client_p99_ms")
      .value(saf::svc::latency_percentile(clean.clients.latencies_ms, 99));
  w.key("decisions_per_sec")
      .value(clean.cluster_wall_s > 0
                 ? static_cast<double>(clean.frontier) / clean.cluster_wall_s
                 : 0.0);
  const double client_s =
      static_cast<double>(clean.clients.elapsed_ms) / 1'000.0;
  w.key("proposals_per_sec")
      .value(client_s > 0
                 ? static_cast<double>(clean.clients.replies) / client_s
                 : 0.0);
  if (chaos_pass) {
    w.key("chaos").begin_object();
    w.key("kills").value(1);
    w.key("frontier").value(chaos.frontier);
    w.key("snapshot_adopted").value(chaos.snapshot_adopted);
    w.key("replies").value(chaos.clients.replies);
    w.key("client_p99_ms")
        .value(saf::svc::latency_percentile(chaos.clients.latencies_ms, 99));
    w.key("decisions_per_sec")
        .value(chaos.cluster_wall_s > 0
                   ? static_cast<double>(chaos.frontier) / chaos.cluster_wall_s
                   : 0.0);
    w.end_object();
  }
  w.end_object();

  std::string doc;
  {
    std::ifstream in(out_path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      doc = ss.str();
    }
  }
  try {
    if (doc.find('}') == std::string::npos) {
      doc = "{\"schema\":\"saf-bench-rt-v2\",\"service\":" + w.str() + "}";
    } else {
      doc = splice_service(doc, w.str());
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_rt_service: cannot splice into " << out_path << ": "
              << e.what() << "\n";
    return 1;
  }
  while (!doc.empty() && doc.back() == '\n') doc.pop_back();
  saf::sweep::write_file_atomic(out_path, doc + "\n");
  std::cout << "{\"service\":" << w.str() << "}\n";

  bool failed = !clean.contract_ok || !clean.clients_ok;
  if (chaos_pass) {
    failed = failed || !chaos.contract_ok || !chaos.clients_ok ||
             chaos.snapshot_adopted == 0;
  }
  if (failed) return 1;

  if (!baseline_path.empty()) {
    try {
      saf::sweep::FlatJson base =
          saf::sweep::load_json_numbers(baseline_path);
      // Only the service section is this bench's to gate — the
      // throughput keys belong to bench_rt_throughput's invocation.
      for (auto it = base.begin(); it != base.end();) {
        if (it->first.rfind("service.", 0) == 0) {
          ++it;
        } else {
          it = base.erase(it);
        }
      }
      const saf::sweep::FlatJson cur =
          saf::sweep::parse_json_numbers("{\"service\":" + w.str() + "}");
      const saf::sweep::RegressionReport rep =
          saf::sweep::compare_benchmarks(base, cur, tolerance);
      for (const std::string& line : rep.regressions) {
        std::cerr << "bench_rt_service: REGRESSION " << line << "\n";
      }
      for (const std::string& key : rep.missing) {
        std::cerr << "bench_rt_service: MISSING " << key << "\n";
      }
      if (!rep.ok()) return 1;
      std::cerr << "bench_rt_service: within " << tolerance
                << " of baseline " << baseline_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "bench_rt_service: baseline check failed: " << e.what()
                << "\n";
      return 1;
    }
  }
  return 0;
}
