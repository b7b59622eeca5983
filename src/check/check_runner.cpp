// check_runner — the schedule-exploration CLI (docs/checking.md).
//
//   check_runner --seeds 1000                          # sweep all protocols
//   check_runner --protocol kset,two-wheels --seeds 500 --jobs 4
//   check_runner --protocol kset --seeds 1000 --shrink --record out
//   check_runner --protocol kset-small --dfs --dfs-depth 10
//   check_runner --replay out-kset-42.trace
//   check_runner --seeds 200 --trace bug         # structured trace per violation
//   check_runner --seeds 50 --metrics m.json     # per-protocol run metrics
//   check_runner --seeds 200 --faults lossy30    # fault-injected sweep
//   check_runner --faults "drop=0.3,flap@400/60" --max-events 2000000
//
// Under --faults every run carries a model-compliance verdict
// (docs/fault_injection.md) and the per-protocol verdict histogram is
// printed; only VIOLATION_IN_MODEL / WORKER_ERROR fail the sweep.
//
// Exit status: 0 clean (or replay matched), 1 violations found (or
// replay mismatched), 2 usage error.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/dfs.h"
#include "check/explorer.h"
#include "check/replay.h"
#include "check/shrinker.h"
#include "fault/fault_spec.h"
#include "sweep/bench_json.h"
#include "sweep/thread_pool.h"
#include "trace/trace.h"
#include "util/flags.h"

namespace {

using namespace saf;
using namespace saf::check;

struct Args {
  std::vector<std::string> protocols;  // empty = the three paper pillars
  std::uint64_t first_seed = 1;
  int seeds = 100;
  int jobs = 0;  // 0 = hardware concurrency; report is jobs-invariant
  bool shrink = false;
  bool dfs = false;
  int dfs_depth = 10;
  std::string dfs_mode = "menu";  // menu | race
  bool dfs_hash = false;
  bool dfs_symmetry = false;
  bool dfs_por = false;
  std::string dfs_stats_path;  // write per-protocol search stats as JSON
  std::string record_prefix;  // write a trace per violation when set
  std::string replay_path;
  std::string trace_prefix;   // write a structured JSONL trace per violation
  std::string metrics_path;   // write per-protocol run metrics as JSON
  std::string faults;         // named profile or inline fault spec
  std::uint64_t max_events = 0;      // per-run event watchdog (0 = off)
  std::int64_t wall_budget_ms = 0;   // per-run wall-clock watchdog (0 = off)
  bool list = false;
};

/// The flag table, bound to `a`; the usage ends with the fault profiles.
saf::util::Flags make_flags(Args* a) {
  std::string notes = "fault profiles:";
  for (const auto name : saf::fault::profile_names()) {
    notes += " " + std::string(name);
  }
  notes += "\n(or an inline spec, e.g. \"drop=0.3,dup=0.1,flap@400/60\")\n";
  saf::util::Flags flags("check_runner", notes);
  flags.names("--protocol", "a,b,...", &a->protocols)
      .integer("--seeds", "N", &a->seeds, 1)
      .integer("--first-seed", "S", &a->first_seed, 0)
      .integer("--jobs", "N", &a->jobs, 1)
      .toggle("--shrink", &a->shrink)
      .text("--record", "PREFIX", &a->record_prefix)
      .toggle("--dfs", &a->dfs)
      .integer("--dfs-depth", "D", &a->dfs_depth, 1)
      .choice("--dfs-mode", {"menu", "race"}, &a->dfs_mode)
      .toggle("--dfs-hash", &a->dfs_hash)
      .toggle("--dfs-symmetry", &a->dfs_symmetry)
      .toggle("--dfs-por", &a->dfs_por)
      .text("--dfs-stats", "FILE", &a->dfs_stats_path)
      .text("--trace", "PREFIX", &a->trace_prefix)
      .text("--metrics", "FILE", &a->metrics_path)
      .text("--faults", "PROFILE|SPEC", &a->faults)
      .integer("--max-events", "N", &a->max_events, 1)
      .integer("--wall-budget-ms", "N", &a->wall_budget_ms, 1)
      .text("--replay", "FILE", &a->replay_path)
      .toggle("--list", &a->list);
  return flags;
}

void print_violation(const Protocol& p, const Violation& v) {
  std::cout << "  " << saf::fault::verdict_name(v.outcome.verdict) << " ["
            << p.name << "] " << describe_case(v.c) << "\n";
  if (!v.outcome.first_broken.empty()) {
    std::cout << "    first broken assumption: " << v.outcome.first_broken
              << " at t=" << v.outcome.first_broken_at << "\n";
  }
  for (const auto& iv : v.outcome.violations) {
    std::cout << "    " << iv.invariant << ": " << iv.detail << "\n";
  }
}

void print_verdicts(const ExploreReport& report) {
  std::cout << "  verdicts:";
  for (int i = 0; i < saf::fault::kVerdictCount; ++i) {
    const auto v = static_cast<saf::fault::Verdict>(i);
    if (report.verdict_count(v) == 0) continue;
    std::cout << " " << saf::fault::verdict_name(v) << "="
              << report.verdict_count(v);
  }
  std::cout << "\n";
}

/// Shrinks (optionally) and records (optionally) one violation;
/// verifies the recorded trace replays to the identical failure.
void postprocess_violation(const Args& args, const Protocol& p,
                           const Violation& v) {
  ScheduleCase repro = v.c;
  if (args.shrink) {
    const ShrinkResult s = shrink(p, v.c);
    repro = s.minimized;
    std::cout << "    shrunk in " << s.runs << " runs: "
              << describe_case(s.minimized)
              << " (dropped " << s.removed_crashes << " crash events"
              << (s.adversary_simplified ? ", simplified adversary" : "")
              << ")\n";
  }
  if (!args.record_prefix.empty()) {
    TraceFile trace;
    record_case(p, repro, &trace);
    const std::string path = args.record_prefix + "-" + p.name + "-" +
                             std::to_string(repro.seed) + ".trace";
    write_trace(trace, path);
    const ReplayResult r = replay_trace(trace);
    std::cout << "    recorded " << path << " (" << trace.delays.size()
              << " delays); replay: " << r.detail << "\n";
  }
  if (!args.trace_prefix.empty()) {
    // Deterministic re-run of the (possibly shrunk) failing case with
    // the structured trace on: same seed, same crash plan, same
    // adversary — the JSONL file IS the failing schedule.
    const std::string path = args.trace_prefix + "-" + p.name + "-" +
                             std::to_string(repro.seed) + ".trace.jsonl";
    std::ofstream os(path);
    if (!os) {
      std::cout << "    cannot write " << path << "\n";
      return;
    }
    os << "# " << p.name << " " << describe_case(repro) << "\n";
    saf::trace::JsonlSink sink(os);
    RunContext ctx;
    ctx.trace_sink = &sink;
    p.run(repro, ctx);
    std::cout << "    structured trace " << path << "\n";
  }
}

/// One protocol's search result in the --dfs-stats JSON
/// (schema saf-dfs-stats-v1; see docs/exhaustive_checking.md).
void dfs_stats_json(saf::sweep::JsonWriter& w, const Args& args,
                    const DfsOptions& opt, const DfsReport& r) {
  w.begin_object();
  w.key("mode").value(args.dfs_mode);
  w.key("depth").value(opt.depth);
  w.key("hash").value(opt.state_hash);
  w.key("symmetry").value(opt.symmetry);
  w.key("por").value(opt.por);
  w.key("runs").value(r.runs);
  w.key("exhausted").value(r.exhausted);
  w.key("violations").value(static_cast<std::uint64_t>(r.violations.size()));
  w.key("distinct_delivery_orders").value(r.distinct_digests);
  w.key("decision_sets")
      .value(static_cast<std::uint64_t>(r.decision_sets.size()));
  w.key("choice_points").value(r.stats.choice_points);
  w.key("race_points").value(r.stats.race_points);
  w.key("states_hashed").value(r.stats.states_hashed);
  w.key("distinct_states").value(r.stats.distinct_states);
  w.key("hash_prunes").value(r.stats.hash_prunes);
  w.key("sym_canonical_hits").value(r.stats.sym_canonical_hits);
  w.key("por_points").value(r.stats.por_points);
  w.key("por_branches_saved").value(r.stats.por_branches_saved);
  w.key("group_size").value(static_cast<std::uint64_t>(r.stats.group_size));
  w.key("max_depth_used").value(r.stats.max_depth_used);
  w.key("wall_ms").value(r.stats.wall_ms);
  w.key("runs_per_sec").value(r.stats.runs_per_sec);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const saf::util::Flags flags = make_flags(&args);
  if (const auto rc = flags.parse(argc, argv)) return *rc;

  if (args.list) {
    for (const std::string& name : protocol_names()) {
      const Protocol* p = find_protocol(name);
      std::cout << name << " (n=" << p->n << ", t=" << p->t
                << ", horizon=" << p->horizon << ")\n";
    }
    return 0;
  }

  if (!args.replay_path.empty()) {
    try {
      const TraceFile trace = read_trace(args.replay_path);
      const ReplayResult r = replay_trace(trace);
      std::cout << "replay " << args.replay_path << " [" << trace.protocol
                << "] " << describe_case(trace.c) << "\n  " << r.detail
                << "\n";
      return r.matched ? 0 : 1;
    } catch (const std::exception& e) {
      return flags.fail(e.what());
    }
  }

  if (args.protocols.empty()) {
    args.protocols = {"kset", "two-wheels", "phibar"};
  }

  saf::fault::FaultSpec fault_spec;
  const bool faulted = !args.faults.empty();
  if (faulted) {
    try {
      fault_spec = saf::fault::parse_fault_spec(args.faults);
    } catch (const std::exception& e) {
      return flags.fail(e.what());
    }
    std::cout << "fault spec: " << fault_spec.name << "\n";
  }

  bool any_violation = false;
  saf::sweep::JsonWriter stats_json;
  if (args.dfs && !args.dfs_stats_path.empty()) {
    stats_json.begin_object();
    stats_json.key("schema").value("saf-dfs-stats-v1");
    stats_json.key("protocols").begin_object();
  }
  for (const std::string& name : args.protocols) {
    const Protocol* p = find_protocol(name);
    if (p == nullptr) return flags.fail("unknown protocol '" + name + "'");

    if (args.dfs) {
      DfsOptions opt;
      opt.depth = args.dfs_depth;
      opt.mode = args.dfs_mode == "race" ? DfsMode::kDispatchOrder
                                         : DfsMode::kDelayMenu;
      opt.state_hash = args.dfs_hash;
      opt.symmetry = args.dfs_symmetry;
      opt.por = args.dfs_por;
      opt.wall_budget_ms = args.wall_budget_ms;
      const DfsReport report = explore_interleavings(*p, ScheduleCase{}, opt);
      std::cout << "[" << name << "] dfs depth=" << args.dfs_depth << ": "
                << report.runs << " runs"
                << (report.exhausted ? " (exhausted)" : " (capped)") << ", "
                << report.distinct_digests << " distinct delivery orders, "
                << report.violations.size() << " violations\n";
      if (args.dfs_hash || args.dfs_symmetry || args.dfs_por) {
        std::cout << "  reductions: " << report.stats.distinct_states
                  << " distinct states, " << report.stats.hash_prunes
                  << " hash prunes, " << report.stats.sym_canonical_hits
                  << " symmetry hits (group=" << report.stats.group_size
                  << "), " << report.stats.por_branches_saved
                  << " race branches deferred, " << report.stats.wall_ms
                  << " ms\n";
      }
      if (!args.dfs_stats_path.empty()) {
        stats_json.key(name);
        dfs_stats_json(stats_json, args, opt, report);
      }
      for (const Violation& v : report.violations) print_violation(*p, v);
      any_violation |= !report.clean();
      continue;
    }

    ExploreOptions opt;
    opt.first_seed = args.first_seed;
    opt.seeds = args.seeds;
    opt.jobs = args.jobs > 0 ? args.jobs : sweep::ThreadPool::default_jobs();
    opt.faults = faulted ? &fault_spec : nullptr;
    opt.max_events = args.max_events;
    opt.wall_budget_ms = args.wall_budget_ms;
    const ExploreReport report = explore(*p, opt);
    std::cout << "[" << name << "] " << report.runs << " runs (seeds "
              << args.first_seed << ".."
              << args.first_seed + static_cast<std::uint64_t>(args.seeds) - 1
              << "): " << report.violations.size() << " failures\n";
    if (faulted || args.max_events > 0 || args.wall_budget_ms > 0) {
      print_verdicts(report);
    }
    for (const Violation& v : report.violations) {
      print_violation(*p, v);
      try {
        postprocess_violation(args, *p, v);
      } catch (const std::exception& e) {
        std::cout << "    postprocess failed: " << e.what() << "\n";
      }
    }
    any_violation |= !report.clean();
  }

  if (args.dfs && !args.dfs_stats_path.empty()) {
    stats_json.end_object();  // protocols
    stats_json.end_object();
    saf::sweep::write_file(args.dfs_stats_path, stats_json.str());
    std::cout << "dfs stats written to " << args.dfs_stats_path << "\n";
  }

  if (!args.metrics_path.empty()) {
    // One canonical serial run per protocol with the metrics registry
    // installed (metering every sweep run would perturb the parallel
    // hot path; one deterministic run per protocol is the health probe).
    std::ofstream os(args.metrics_path);
    if (!os) return flags.fail("cannot write " + args.metrics_path);
    os << "{\"schema\":\"saf-metrics-v1\",\"protocols\":{";
    bool first = true;
    for (const std::string& name : args.protocols) {
      const Protocol* p = find_protocol(name);
      saf::trace::MetricsRegistry registry;
      RunContext ctx;
      ctx.metrics = &registry;
      p->run(generate_case(*p, args.first_seed), ctx);
      if (!first) os << ",";
      first = false;
      os << "\"" << name << "\":" << registry.to_json();
    }
    os << "}}\n";
    std::cout << "metrics written to " << args.metrics_path << "\n";
  }
  return any_violation ? 1 : 0;
}
