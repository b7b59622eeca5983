// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Runs one workload for about S seconds, checks its outputs, and prints
// as the last stdout line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced part, a traced part on the same inputs
// and an untraced part without the vCPU pollers, and the metrics are the
// per-layer ones, the traced-minus-untraced overhead and the unspun
// latency. Progress and failure reasons go to stderr. Exit code 0 = a
// result was printed.
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

struct Spec {
  const char* name;
  const char* unit;
};

// Every workload prints every metric below (README.md defines each
// per workload). A per-layer metric a workload does not exercise is 0.
constexpr Spec kEndToEnd[] = {
    {"op_p50_ms", "ms"},       {"op_tail_ms", "ms"},
    {"goodput_per_s", "1/s"},  {"ok_share", "ratio"},
    {"decisions_per_s", "1/s"}, {"setup_s", "s"},
    {"mem_peak_mb", "MB"},
};

constexpr Spec kPerLayer[] = {
    // CPU time per operation moved with the host by up to a third between
    // hours on identical code, so it is reported here, ungated.
    {"cpu_ms_per_op", "ms"},
    {"svc.server.proposals_per_batch", "count"},
    {"svc.server.batched_instance_share", "ratio"},
    {"svc.server.served_per_received", "ratio"},
    {"core.pipeline.decisions_per_s", "1/s"},
    {"core.pipeline.events_per_decision", "count"},
    {"svc.server.cpu_ms_per_decision", "ms"},
    {"rt.node.events_per_round", "count"},
    {"rt.node.cpu_ms_per_round", "ms"},
    {"rt.link.frames_per_datagram", "count"},
    {"rt.link.datagrams_per_decision", "count"},
    {"rt.link.syscalls_per_decision", "count"},
    {"rt.link.retransmit_share", "ratio"},
    {"rt.link.window_stalls_per_s", "1/s"},
    {"rt.link.stale_dropped", "count"},
    {"rt.link.peer_restarts", "count"},
    {"rt.hb.heartbeats_per_s", "1/s"},
    {"svc.wire.encode_ns", "ns"},
    {"svc.wire.decode_ns", "ns"},
    {"svc.snap.requests", "count"},
    {"svc.snap.served", "count"},
    {"svc.snap.adopted", "count"},
    {"gen.failovers", "count"},
    {"gen.resubmits", "count"},
    {"rt.cluster.ready_s", "s"},
    {"rt.cluster.contract_ms", "ms"},
    {"svc.client.latency_p99_ms", "ms"},
    {"gen.late_ms_p99", "ms"},
    {"gen.cpu_ms", "ms"},
    {"trace.overhead_cpu_ms_per_op", "ms"},
    {"trace.overhead_op_p50_ms", "ms"},
    // op_p50_ms with the vCPU pollers off: wakeup cost the pollers hide.
    {"unspun.op_p50_ms", "ms"},
};

int usage(const std::string& err) {
  std::cerr << "perfbench: " << err << "\n"
            << "usage: perfbench --workload svc-steady|svc-kill|rt-rounds "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || s[0] == '-') return false;
  *out = v;
  return true;
}

Outcome run_workload(const std::string& w, const RunOptions& opt) {
  if (w == "svc-steady") return perfbench::run_svc(opt, /*kill=*/false);
  if (w == "svc-kill") return perfbench::run_svc(opt, /*kill=*/true);
  return perfbench::run_rt_rounds(opt);
}

double get(const std::map<std::string, double>& m, const char* k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  RunOptions opt;
  opt.out_dir = ".bench_build/out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(arg + " needs a value");
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      if (!parse_u64(v, &seed)) return usage("--seed expects an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(v, &seconds) || seconds < 1) {
        return usage("--seconds expects a positive integer");
      }
    } else if (arg == "--trace") {
      if (!parse_u64(v, &trace) || trace > 1) {
        return usage("--trace expects 0 or 1");
      }
    } else if (arg == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage("unknown flag " + arg);
    }
  }
  if (workload != "svc-steady" && workload != "svc-kill" &&
      workload != "rt-rounds") {
    return usage("unknown workload '" + workload + "'");
  }
  if (!have_seed || seconds == 0 || trace > 1) {
    return usage("--seed, --seconds and --trace are required");
  }
  opt.seed = seed;
  opt.out_dir += "/" + workload;
  for (std::size_t p = opt.out_dir.find('/');;
       p = opt.out_dir.find('/', p + 1)) {
    ::mkdir(opt.out_dir.substr(0, p).c_str(), 0755);  // EEXIST is fine
    if (p == std::string::npos) break;
  }

  Outcome out;
  std::map<std::string, double> metrics;
  const Spec* specs = kEndToEnd;
  std::size_t nspecs = std::size(kEndToEnd);
  if (trace == 0) {
    opt.seconds = static_cast<double>(seconds);
    out = run_workload(workload, opt);
    metrics = out.end_to_end;
  } else {
    // Same inputs three times: untraced, traced, and untraced without the
    // pollers. The first two differ by what the spans and counting sinks
    // cost; the third shows the wakeup latency the pollers hide.
    opt.seconds = static_cast<double>(seconds) * 0.4;
    opt.measure_setup = false;
    const Outcome plain = run_workload(workload, opt);
    opt.traced = true;
    out = run_workload(workload, opt);
    opt.traced = false;
    opt.spin = false;
    opt.seconds = static_cast<double>(seconds) * 0.2;
    const Outcome unspun = run_workload(workload, opt);
    metrics = out.per_layer;
    metrics["unspun.op_p50_ms"] = get(unspun.end_to_end, "op_p50_ms");
    metrics["trace.overhead_cpu_ms_per_op"] =
        get(out.per_layer, "cpu_ms_per_op") -
        get(plain.per_layer, "cpu_ms_per_op");
    metrics["trace.overhead_op_p50_ms"] =
        get(out.end_to_end, "op_p50_ms") - get(plain.end_to_end, "op_p50_ms");
    for (const Outcome* o : {&plain, &unspun}) {
      out.attempted += o->attempted;
      out.failed += o->failed;
      if (!o->correct) {
        out.correct = false;
        out.problems.insert(out.problems.end(), o->problems.begin(),
                            o->problems.end());
      }
    }
    specs = kPerLayer;
    nspecs = std::size(kPerLayer);
  }

  for (const std::string& p : out.problems) {
    std::cerr << "perfbench: " << workload << ": CHECK FAILED: " << p << "\n";
  }
  // One line, every digit: %.17g round-trips a double exactly.
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < nspecs; ++i) {
    const double v = get(metrics, specs[i].name);
    std::cerr << "  " << specs[i].name << " = " << v << " " << specs[i].unit
              << "\n";
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(v) ? v : 0.0);
    if (i > 0) line += ", ";
    line += std::string("\"") + specs[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
