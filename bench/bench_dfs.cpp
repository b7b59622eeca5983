// Reduced-DFS state-space benchmark (docs/exhaustive_checking.md).
//
// Measures what the three reductions of check/dfs buy on the canonical
// kset-small instance in dispatch-order mode, two ways:
//
//   * equal depth: brute force vs hash+symmetry+POR at --depth, giving
//     the state-reduction factor and both searches' runs/sec;
//   * depth reach: the deepest race depth each variant exhausts within
//     --budget-ms of wall clock.
//
// Writes the BENCH_dfs.json baseline checked in at the repo root; with
// --baseline FILE [--tolerance F] it additionally gates the *_per_sec
// metrics via sweep::compare_benchmarks, exactly like the other perf
// baselines (the CI perf job runs that). Counts (runs, depths, the
// reduction factor) are machine-independent diagnostics and are
// reported but not gated.
//
// Like bench_rt_*, this is deliberately not a google-benchmark binary
// (one "iteration" is an entire exhaustive search); CI's
// --benchmark_list_tests sweep over build/bench skips it by name.
#include <iostream>
#include <string>

#include "check/dfs.h"
#include "check/protocols.h"
#include "sweep/bench_json.h"
#include "util/flags.h"

namespace {

using saf::check::DfsMode;
using saf::check::DfsOptions;
using saf::check::DfsReport;
using saf::check::explore_interleavings;
using saf::check::Protocol;

DfsOptions race_opt(int depth, bool reduced) {
  DfsOptions opt;
  opt.depth = depth;
  opt.mode = DfsMode::kDispatchOrder;
  opt.state_hash = reduced;
  opt.symmetry = reduced;
  opt.por = reduced;
  opt.max_runs = 1u << 22;
  return opt;
}

/// The deepest depth whose search exhausts within `budget_ms`; each
/// depth gets the full budget (searches are independent).
int max_exhausted_depth(const Protocol& p, bool reduced, int max_depth,
                        std::int64_t budget_ms) {
  int reached = 0;
  for (int depth = 1; depth <= max_depth; ++depth) {
    DfsOptions opt = race_opt(depth, reduced);
    opt.wall_budget_ms = budget_ms;
    const DfsReport r = explore_interleavings(p, {}, opt);
    if (!r.exhausted) break;
    reached = depth;
  }
  return reached;
}

}  // namespace

int main(int argc, char** argv) {
  std::string protocol = "kset-small";
  int depth = 3;
  int max_reach_depth = 24;
  std::int64_t budget_ms = 2'000;
  std::string out_path = "BENCH_dfs.json";
  std::string baseline_path;
  double tolerance = 0.25;
  saf::util::Flags flags("bench_dfs");
  flags.text("--protocol", "NAME", &protocol)
      .integer("--depth", "D", &depth, 1)
      .integer("--budget-ms", "MS", &budget_ms, 1)
      .integer("--max-reach-depth", "D", &max_reach_depth, 1)
      .text("--out", "FILE", &out_path)
      .text("--baseline", "FILE", &baseline_path)
      .real("--tolerance", "F", &tolerance, 0);
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  const Protocol* p = saf::check::find_protocol(protocol);
  if (p == nullptr) return flags.fail("unknown protocol '" + protocol + "'");

  // Equal depth: the headline states-explored comparison.
  const DfsReport brute = explore_interleavings(*p, {}, race_opt(depth, false));
  const DfsReport reduced =
      explore_interleavings(*p, {}, race_opt(depth, true));
  if (!brute.exhausted || !reduced.exhausted) {
    std::cerr << "bench_dfs: --depth " << depth
              << " did not exhaust; lower it or raise max_runs\n";
    return 1;
  }
  if (brute.clean() != reduced.clean() ||
      brute.decision_sets != reduced.decision_sets) {
    // The bench doubles as a cheap differential check: a divergence
    // here is a soundness bug, not a perf regression.
    std::cerr << "bench_dfs: reduced search diverged from brute force\n";
    return 1;
  }
  const double reduction_x = static_cast<double>(brute.runs) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 reduced.runs, 1));

  // Depth reach: how much deeper the same wall budget goes.
  const int brute_reach =
      max_exhausted_depth(*p, false, max_reach_depth, budget_ms);
  const int reduced_reach =
      max_exhausted_depth(*p, true, max_reach_depth, budget_ms);

  saf::sweep::JsonWriter w;
  w.begin_object();
  w.key("schema").value("saf-bench-dfs-v1");
  w.key("protocol").value(protocol);
  w.key("mode").value("race");
  w.key("equal_depth");
  w.begin_object();
  w.key("depth").value(depth);
  w.key("brute_runs").value(brute.runs);
  w.key("reduced_runs").value(reduced.runs);
  w.key("state_reduction_x").value(reduction_x);
  w.key("brute_runs_per_sec").value(brute.stats.runs_per_sec);
  w.key("reduced_runs_per_sec").value(reduced.stats.runs_per_sec);
  w.end_object();
  w.key("depth_reach");
  w.begin_object();
  w.key("budget_ms").value(budget_ms);
  w.key("brute_max_depth").value(brute_reach);
  w.key("reduced_max_depth").value(reduced_reach);
  w.end_object();
  w.end_object();
  saf::sweep::write_file(out_path, w.str() + "\n");
  std::cout << w.str() << "\n";

  if (!baseline_path.empty()) {
    try {
      const saf::sweep::FlatJson base =
          saf::sweep::load_json_numbers(baseline_path);
      const saf::sweep::FlatJson cur = saf::sweep::parse_json_numbers(w.str());
      const saf::sweep::RegressionReport rep =
          saf::sweep::compare_benchmarks(base, cur, tolerance);
      for (const std::string& line : rep.regressions) {
        std::cerr << "bench_dfs: REGRESSION " << line << "\n";
      }
      for (const std::string& key : rep.missing) {
        std::cerr << "bench_dfs: MISSING " << key << "\n";
      }
      if (!rep.ok()) return 1;
      std::cerr << "bench_dfs: within " << tolerance << " of baseline "
                << baseline_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "bench_dfs: baseline check failed: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
