// sweep_runner — the parallel sweep engine CLI (docs/performance.md).
//
// Measures the repo's two headline performance numbers and writes them
// as machine-readable baselines:
//
//   BENCH_sim.json    single-core simulator throughput (events/sec,
//                     messages) per registered protocol, serial runs;
//   BENCH_sweep.json  parallel sweep throughput: runs/sec serial vs
//                     parallel, p50/p99 wall time per run, scaling
//                     efficiency, and the digest checksum that pins
//                     determinism.
//
//   sweep_runner --seeds 500 --jobs 4 --grid --out-dir .
//   sweep_runner --seeds 500 --baseline-sweep BENCH_sweep.json
//                --baseline-sim BENCH_sim.json --tolerance 0.25
//
// Fault-injection mode (docs/fault_injection.md): with --faults set the
// runner executes the self-healing fault sweep instead of the benches —
// per-run verdicts, watchdog budgets, worker quarantine, and
// checkpoint/resume:
//
//   sweep_runner --faults lossy30 --protocol kset,two-wheels --seeds 500
//   sweep_runner --faults lossy30 --checkpoint ck --max-events 2000000
//   sweep_runner --faults lossy30 --checkpoint ck --resume
//
// SIGTERM/SIGINT stop the fault sweep cooperatively: the current chunk
// finishes, the checkpoint is written, and the runner exits 130; a
// --resume then continues to the byte-identical final digest.
//
// The parallel sweep re-runs the same seed set serially and fails (exit
// 1) unless the two verdict/digest sequences are byte-identical — the
// determinism guarantee is enforced on every invocation by default and
// always in CI. --verify-digest off skips the serial re-run (roughly
// halving sweep wall time for local iteration); the serial-vs-parallel
// keys are then absent from BENCH_sweep.json, so a run with the check
// off cannot be gated against a baseline that has them (the gate
// reports them missing). Exit status: 0 ok, 1 violations / determinism
// mismatch / baseline regression, 2 usage error, 130 interrupted
// (checkpointed).
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/explorer.h"
#include "check/fault_sweep.h"
#include "check/protocols.h"
#include "core/invariants.h"
#include "core/kset_agreement.h"
#include "core/two_wheels.h"
#include "fault/fault_spec.h"
#include "rt/chaos.h"
#include "sweep/bench_json.h"
#include "sweep/sweep.h"
#include "sweep/thread_pool.h"
#include "trace/trace.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace saf;
using namespace saf::sweep;

struct Args {
  std::vector<std::string> protocols;  // empty = the three paper pillars
  int seeds = 200;
  std::uint64_t master_seed = 1;
  int jobs = 0;  // 0 = hardware concurrency
  int sim_runs = 12;
  bool grid = false;
  std::string out_dir = ".";
  std::string baseline_sim;
  std::string baseline_sweep;
  std::string trace_prefix;  // canonical traced run per protocol
  std::string metrics_path;  // per-protocol run metrics as JSON
  double tolerance = 0.25;
  std::string verify_digest = "on";  // serial re-run + digest comparison
  // Fault-injection mode.
  std::string faults;         // named profile or inline spec; enables the mode
  std::string checkpoint;     // checkpoint file (fault mode)
  bool resume = false;        // resume from --checkpoint
  int checkpoint_every = 64;  // persist cadence, in completed runs
  std::uint64_t max_events = 0;     // per-run event watchdog (0 = off)
  std::int64_t wall_budget_ms = 0;  // per-run wall-clock watchdog (0 = off)
  std::string scale = "off";        // n-scaling grid: off|smoke|full
  // Live-runtime chaos sweep mode (--rt): grids of rt_cluster runs with
  // scheduled SIGKILL/restart cycles and link faults, classified per
  // round with the six-way verdicts (rt/chaos.h). Reuses --faults (a
  // comma list of profiles here), --checkpoint/--resume/
  // --checkpoint-every, --seeds is ignored (use --rt-runs) and --out-dir.
  bool rt = false;
  int rt_runs = 10;
  int rt_rounds = 20;
  std::vector<int> rt_kills = {0};  // kills-per-run grid values
  int rt_n = 5;
  int rt_t = 2;
  int rt_k = 2;
  std::uint16_t rt_base_port = 47700;
  std::int64_t rt_run_for_ms = 5000;
  std::string rt_hb;       // comma list of PERIOD/TIMEOUT heartbeat pairs
  bool rt_trace = false;   // per-node traces + merged trace artifact
};

/// The flag table, bound to `a`; the usage ends with the --rt notes and
/// the fault profiles.
saf::util::Flags make_flags(Args* a) {
  std::string notes =
      "\n"
      "--rt runs the live-runtime chaos sweep: grids of rt_cluster\n"
      "invocations over (fault profiles x kills x heartbeat params),\n"
      "SIGKILL/restart mid-round, six-way verdicts per keep-alive round,\n"
      "checkpoint/resume via --checkpoint. --faults is then a comma list\n"
      "of profiles ('' entries = clean).\n"
      "fault profiles:";
  for (const auto name : saf::fault::profile_names()) {
    notes += " " + std::string(name);
  }
  notes += "\n";
  saf::util::Flags flags("sweep_runner", notes);
  flags.names("--protocol", "a,b,...", &a->protocols)
      .integer("--seeds", "N", &a->seeds, 1)
      .integer("--master-seed", "S", &a->master_seed, 0)
      .integer("--jobs", "N", &a->jobs, 1)
      .integer("--sim-runs", "N", &a->sim_runs, 1)
      .toggle("--grid", &a->grid)
      .text("--out-dir", "DIR", &a->out_dir)
      .text("--baseline-sim", "FILE", &a->baseline_sim)
      .text("--baseline-sweep", "FILE", &a->baseline_sweep)
      .text("--trace", "PREFIX", &a->trace_prefix)
      .text("--metrics", "FILE", &a->metrics_path)
      .real("--tolerance", "FRACTION", &a->tolerance, 0)
      .choice("--verify-digest", {"on", "off"}, &a->verify_digest)
      .text("--faults", "PROFILE|SPEC", &a->faults)
      .text("--checkpoint", "FILE", &a->checkpoint)
      .toggle("--resume", &a->resume)
      .integer("--checkpoint-every", "N", &a->checkpoint_every, 1)
      .integer("--max-events", "N", &a->max_events, 1)
      .integer("--wall-budget-ms", "N", &a->wall_budget_ms, 1)
      .choice("--scale", {"off", "smoke", "full"}, &a->scale)
      .toggle("--rt", &a->rt)
      .integer("--rt-runs", "N", &a->rt_runs, 1)
      .integer("--rt-rounds", "N", &a->rt_rounds, 1)
      .integers("--rt-kills", "K1,K2,...", &a->rt_kills, 0)
      .integer("--rt-n", "N", &a->rt_n, 2)
      .integer("--rt-t", "T", &a->rt_t, 1)
      .integer("--rt-k", "K", &a->rt_k, 1)
      .integer("--rt-base-port", "P", &a->rt_base_port, 1024)
      .integer("--rt-run-for-ms", "MS", &a->rt_run_for_ms, 1)
      .text("--rt-hb", "P/T,P/T,...", &a->rt_hb)
      .toggle("--rt-trace", &a->rt_trace);
  return flags;
}

/// Adapter: one schedule-exploration case as a sweep run.
RunStats run_protocol_case(const check::Protocol& p, std::uint64_t seed) {
  const check::ScheduleCase c = check::generate_case(p, seed);
  const check::RunOutcome out = check::run_case(p, c);
  RunStats s;
  s.ok = out.ok;
  s.events = out.events_processed;
  s.messages = out.total_messages;
  s.digest = out.digest;
  return s;
}

void emit_sweep_aggregates(JsonWriter& w, const SweepResult& r) {
  w.key("runs").value(static_cast<std::uint64_t>(r.count()));
  w.key("violations").value(r.failures());
  w.key("total_events").value(r.total_events());
  w.key("total_messages").value(r.total_messages());
  w.key("digest_checksum").value(r.digest_checksum());
  w.key("p50_ms").value(r.wall_ms_percentile(0.50));
  w.key("p99_ms").value(r.wall_ms_percentile(0.99));
}

// --- fig 2 grid: two-wheels additivity sweep ---------------------------

struct Fig2Point {
  int n, t, x, y;
};

std::vector<Fig2Point> fig2_points() {
  std::vector<Fig2Point> pts;
  const struct { int n, t; } shapes[] = {{6, 3}, {7, 3}};
  for (const auto& s : shapes) {
    for (int x = 1; x <= s.t + 1; ++x) {
      for (int y = 0; y <= s.t; ++y) {
        const int z = s.t + 2 - x - y;
        if (z < 1 || z > s.t - y + 1) continue;
        pts.push_back({s.n, s.t, x, y});
      }
    }
  }
  return pts;
}

RunStats run_fig2_point(const Fig2Point& pt, std::uint64_t seed) {
  core::TwoWheelsConfig cfg;
  cfg.n = pt.n;
  cfg.t = pt.t;
  cfg.x = pt.x;
  cfg.y = pt.y;
  cfg.seed = seed;
  cfg.sx_noise = 0.25;
  cfg.horizon = 30'000;
  cfg.crashes.crash_at(1, 120);
  const core::TwoWheelsResult res = core::run_two_wheels(cfg);
  RunStats s;
  s.ok = res.omega_check.pass;
  s.events = res.events_processed;
  s.messages = res.total_messages;
  s.digest = res.final_trusted.mask();
  return s;
}

// --- fig 3 grid: k-set agreement sweep ---------------------------------

struct Fig3Point {
  int k, z;
};

std::vector<Fig3Point> fig3_points() {
  std::vector<Fig3Point> pts;
  for (int k = 1; k <= 3; ++k) {
    for (int z = 1; z <= k; ++z) pts.push_back({k, z});
  }
  return pts;
}

RunStats run_fig3_point(const Fig3Point& pt, std::uint64_t seed) {
  core::KSetRunConfig cfg;
  cfg.n = 7;
  cfg.t = 3;
  cfg.k = pt.k;
  cfg.z = pt.z;
  cfg.seed = seed;
  cfg.horizon = 60'000;
  cfg.crashes.crash_at(2, 150);
  const core::KSetRunResult res = core::run_kset_agreement(cfg);
  RunStats s;
  s.ok = res.all_correct_decided && res.validity && res.agreement_k;
  s.events = res.events_processed;
  s.messages = res.total_messages;
  s.digest = static_cast<std::uint64_t>(res.finish_time);
  return s;
}

// --- n-scaling grid ----------------------------------------------------
//
// The large-n scaling curve (see docs/performance.md, "Scaling to
// n=1024"): full kset runs at n ∈ {8, 64, 128, 512, 1024}, each with a
// perfect Ω_2 oracle and aggregated broadcasts, reporting events/sec
// and decision latency per point into BENCH_sim.json under "scale".
// Every run is invariant-checked; a violation fails the whole runner.
// "smoke" runs the n=128 point alone over 50 seeds (the CI gate that
// large-n stays correct without paying for the full curve).

struct ScalePoint {
  int n;
  int reps;  ///< seeded repetitions; fixed so the digest is deterministic
};

std::vector<ScalePoint> scale_points(const std::string& mode) {
  if (mode == "smoke") return {{128, 50}};
  return {{8, 200}, {64, 50}, {128, 20}, {512, 4}, {1024, 2}};
}

core::KSetRunConfig scale_config(int n, std::uint64_t seed) {
  core::KSetRunConfig cfg;
  cfg.n = n;
  cfg.t = 3;
  cfg.k = cfg.z = 2;
  cfg.seed = seed;
  cfg.perfect_oracle = true;      // measure decisions, not stabilization
  cfg.batched_broadcasts = true;  // O(n) queue events per all-to-all step
  cfg.horizon = 20'000;
  cfg.crashes.crash_at(n - 1, 0).crash_at(n / 2, 30);
  return cfg;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

/// Runs the scaling grid, one JSON object per point ("n8", "n64", ...).
/// Returns false if any run broke a kset invariant.
bool run_scale_grid(JsonWriter& w, std::uint64_t master_seed,
                    const std::vector<ScalePoint>& points) {
  bool ok = true;
  for (const ScalePoint& pt : points) {
    std::vector<double> wall_ms;
    std::vector<double> decision_ticks;
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    std::uint64_t violations = 0;
    std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
    const std::uint64_t point_seed = util::derive_seed(
        util::derive_seed(master_seed, "scale"),
        static_cast<std::uint64_t>(pt.n));
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < pt.reps; ++rep) {
      const core::KSetRunConfig cfg = scale_config(
          pt.n, util::derive_seed(point_seed,
                                  static_cast<std::uint64_t>(rep)));
      const auto r0 = std::chrono::steady_clock::now();
      const core::KSetRunResult res = core::run_kset_agreement(cfg);
      const auto r1 = std::chrono::steady_clock::now();
      wall_ms.push_back(
          std::chrono::duration<double, std::milli>(r1 - r0).count());
      decision_ticks.push_back(static_cast<double>(res.finish_time));
      events += res.events_processed;
      messages += res.total_messages;
      violations += core::kset_invariants(cfg, res).size();
      // Wall-clock-free digest: the scaling runs stay bit-deterministic.
      for (const std::uint64_t v :
           {static_cast<std::uint64_t>(res.finish_time),
            res.events_processed, res.total_messages}) {
        digest = (digest ^ v) * 1099511628211ULL;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double events_per_sec =
        secs > 0 ? static_cast<double>(events) / secs : 0;
    std::cout << "[scale n=" << pt.n << "] " << pt.reps << " runs, "
              << static_cast<std::uint64_t>(events_per_sec)
              << " events/sec, decision p50 "
              << percentile(decision_ticks, 0.50) << " ticks / "
              << percentile(wall_ms, 0.50) << " ms, " << violations
              << " violations\n";
    ok &= violations == 0;
    w.key("n" + std::to_string(pt.n)).begin_object();
    w.key("runs").value(static_cast<std::uint64_t>(pt.reps));
    w.key("violations").value(violations);
    w.key("total_events").value(events);
    w.key("total_messages").value(messages);
    w.key("digest_checksum").value(digest);
    w.key("events_per_sec").value(events_per_sec);
    w.key("decision_p50_ticks").value(percentile(decision_ticks, 0.50));
    w.key("decision_p50_wall_ms").value(percentile(wall_ms, 0.50));
    w.end_object();
  }
  return ok;
}

// --- fault-injection mode ----------------------------------------------

/// Cooperative stop flag for the fault sweep (SIGTERM / SIGINT).
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

int run_fault_mode(const Args& args, const saf::util::Flags& flags,
                   const std::vector<const check::Protocol*>& protocols) {
  saf::fault::FaultSpec spec;
  try {
    spec = saf::fault::parse_fault_spec(args.faults.empty() ? "none"
                                                            : args.faults);
  } catch (const std::exception& e) {
    return flags.fail(e.what());
  }
  if (args.checkpoint.empty() && args.resume) {
    return flags.fail("--resume needs --checkpoint FILE");
  }
  if (!args.checkpoint.empty() && protocols.size() != 1) {
    return flags.fail("--checkpoint tracks one sweep; use --protocol NAME");
  }
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  std::cout << "fault sweep: spec=" << spec.name << " seeds=" << args.seeds
            << " max-events=" << args.max_events << "\n";
  bool failed = false;
  bool interrupted = false;
  for (const check::Protocol* p : protocols) {
    check::FaultSweepOptions opt;
    opt.first_seed = args.master_seed;
    opt.seeds = args.seeds;
    opt.jobs = args.jobs;
    opt.faults = spec.enabled() ? &spec : nullptr;
    opt.faults_text = args.faults;
    opt.max_events = args.max_events;
    opt.wall_budget_ms = args.wall_budget_ms;
    opt.checkpoint_path = args.checkpoint;
    opt.resume = args.resume;
    opt.checkpoint_every = args.checkpoint_every;
    opt.stop = &g_stop;
    check::FaultSweepReport report;
    try {
      report = check::fault_sweep(*p, opt);
    } catch (const std::exception& e) {
      return flags.fail(e.what());
    }
    std::cout << "[" << p->name << "] " << report.completed << "/"
              << report.total << " runs";
    if (report.resumed > 0) std::cout << " (" << report.resumed << " resumed)";
    if (report.interrupted) std::cout << " INTERRUPTED";
    std::cout << ", digest " << report.final_digest() << "\n  verdicts:";
    for (int i = 0; i < saf::fault::kVerdictCount; ++i) {
      const auto v = static_cast<saf::fault::Verdict>(i);
      if (report.verdict_count(v) == 0) continue;
      std::cout << " " << saf::fault::verdict_name(v) << "="
                << report.verdict_count(v);
    }
    std::cout << "\n";
    for (const check::FaultRunRecord& rec : report.records) {
      if (!rec.done || !saf::fault::verdict_is_failure(rec.verdict)) continue;
      std::cout << "  " << saf::fault::verdict_name(rec.verdict) << " seed="
                << rec.seed
                << (rec.first_broken.empty()
                        ? std::string()
                        : " first-broken=" + rec.first_broken) << "\n";
    }
    failed |= report.failed();
    interrupted |= report.interrupted;
  }
  if (interrupted) {
    std::cout << "interrupted; checkpoint "
              << (args.checkpoint.empty() ? "not configured"
                                          : "written to " + args.checkpoint)
              << "\n";
    return 130;
  }
  return failed ? 1 : 0;
}

// --- live-runtime chaos sweep mode (--rt) ------------------------------

int run_rt_mode(const Args& args, const saf::util::Flags& flags) {
  saf::rt::RtSweepOptions opts;
  ::mkdir((args.out_dir == "." ? "rt_sweep_out" : args.out_dir).c_str(),
          0755);  // EEXIST is fine
  opts.n = args.rt_n;
  opts.t = args.rt_t;
  opts.k = args.rt_k;
  opts.base_port = args.rt_base_port;
  opts.runs = args.rt_runs;
  opts.rounds_per_run = args.rt_rounds;
  opts.run_for_ms = args.rt_run_for_ms;
  opts.seed = args.master_seed;
  opts.out_dir = args.out_dir == "." ? "rt_sweep_out" : args.out_dir;
  opts.trace = args.rt_trace;
  opts.checkpoint_path = args.checkpoint;
  opts.resume = args.resume;
  opts.checkpoint_every = args.checkpoint_every;
  opts.stop = &g_stop;

  if (!args.faults.empty()) {
    opts.fault_profiles.clear();
    for (const std::string& f : saf::util::split_list(args.faults)) {
      if (!f.empty() && f != "none") {
        try {
          (void)saf::fault::parse_fault_spec(f);
        } catch (const std::exception& e) {
          return flags.fail(std::string("--faults: ") + e.what());
        }
      }
      opts.fault_profiles.push_back(f == "none" ? "" : f);
    }
  }
  opts.kills = args.rt_kills;
  if (!args.rt_hb.empty()) {
    opts.hb_grid.clear();
    for (const std::string& pair : saf::util::split_list(args.rt_hb)) {
      const std::string_view text = pair;
      const std::size_t slash = text.find('/');
      saf::rt::HeartbeatParams hb;
      if (slash == std::string_view::npos ||
          !saf::util::parse_int(text.substr(0, slash), std::int64_t{1},
                                &hb.hb_period) ||
          !saf::util::parse_int(text.substr(slash + 1), std::int64_t{1},
                                &hb.timeout_initial)) {
        return flags.fail("--rt-hb expects PERIOD/TIMEOUT pairs of "
                          "integers >= 1, got '" + pair + "'");
      }
      opts.hb_grid.push_back(hb);
    }
  }
  if (args.resume && args.checkpoint.empty()) {
    return flags.fail("--resume needs --checkpoint FILE");
  }
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  std::cout << "rt chaos sweep: n=" << opts.n << " runs=" << opts.runs
            << " rounds/run=" << opts.rounds_per_run << " grid="
            << opts.fault_profiles.size() * opts.kills.size() *
                   opts.hb_grid.size()
            << " points\n";
  saf::rt::RtSweepReport rep;
  try {
    rep = saf::rt::rt_sweep(opts);
  } catch (const std::exception& e) {
    return flags.fail(e.what());
  }

  std::cout << "[rt] " << rep.completed << "/" << opts.runs << " runs";
  if (rep.interrupted) std::cout << " INTERRUPTED";
  std::cout << ", " << rep.rounds_per_sec << " rounds/sec, decision p50 "
            << rep.decision_p50_ms << " ms / p99 " << rep.decision_p99_ms
            << " ms\n  verdicts:";
  for (int i = 0; i < saf::fault::kVerdictCount; ++i) {
    const auto v = static_cast<saf::fault::Verdict>(i);
    if (rep.count(v) == 0) continue;
    std::cout << " " << saf::fault::verdict_name(v) << "=" << rep.count(v);
  }
  std::cout << "\n";
  if (!rep.merged_trace_path.empty()) {
    std::cout << "merged trace: " << rep.merged_trace_path << "\n";
  }

  const std::string report_path = opts.out_dir + "/rt_sweep.json";
  try {
    write_file_atomic(report_path, rt_sweep_report_json(opts, rep));
    std::cout << "wrote " << report_path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "sweep_runner: " << e.what() << "\n";
    return 1;
  }

  if (rep.interrupted) {
    std::cout << "interrupted; checkpoint "
              << (args.checkpoint.empty() ? "not configured"
                                          : "written to " + args.checkpoint)
              << "\n";
    return 130;
  }
  return rep.failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const saf::util::Flags flags = make_flags(&args);
  if (const auto rc = flags.parse(argc, argv)) return *rc;
  if (args.protocols.empty()) {
    args.protocols = {"kset", "two-wheels", "phibar"};
  }
  std::vector<const check::Protocol*> protocols;
  for (const std::string& name : args.protocols) {
    const check::Protocol* p = check::find_protocol(name);
    if (p == nullptr) return flags.fail("unknown protocol '" + name + "'");
    protocols.push_back(p);
  }

  if (args.rt) {
    return run_rt_mode(args, flags);
  }
  if (!args.faults.empty() || !args.checkpoint.empty() || args.resume) {
    return run_fault_mode(args, flags, protocols);
  }

  ThreadPool serial(1);
  ThreadPool pool(args.jobs);
  bool failed = false;

  // --- BENCH_sim.json: single-core simulator throughput ----------------
  JsonWriter sim_json;
  sim_json.begin_object();
  sim_json.key("schema").value("saf-bench-sim-v1");
  sim_json.key("master_seed").value(args.master_seed);
  sim_json.key("sim_runs").value(args.sim_runs);
  sim_json.key("protocols").begin_object();
  for (const check::Protocol* p : protocols) {
    const SweepResult r = run_sweep(
        serial, util::derive_seed(args.master_seed, "bench_sim"),
        static_cast<std::size_t>(args.sim_runs),
        [p](std::uint64_t seed, std::size_t) {
          return run_protocol_case(*p, seed);
        });
    std::cout << "[sim " << p->name << "] " << r.count() << " runs, "
              << static_cast<std::uint64_t>(r.events_per_sec())
              << " events/sec, " << r.failures() << " violations\n";
    failed |= r.failures() != 0;
    sim_json.key(p->name).begin_object();
    emit_sweep_aggregates(sim_json, r);
    sim_json.key("events_per_sec").value(r.events_per_sec());
    sim_json.key("runs_per_sec").value(r.runs_per_sec());
    sim_json.end_object();
  }
  sim_json.end_object();  // protocols
  if (args.scale != "off") {
    sim_json.key("scale").begin_object();
    if (!run_scale_grid(sim_json, args.master_seed,
                        scale_points(args.scale))) {
      std::cerr << "[scale] INVARIANT VIOLATIONS in the n-scaling grid\n";
      failed = true;
    }
    sim_json.end_object();
  }
  sim_json.end_object();

  // --- BENCH_sweep.json: parallel sweep engine -------------------------
  JsonWriter sweep_json;
  sweep_json.begin_object();
  sweep_json.key("schema").value("saf-bench-sweep-v1");
  sweep_json.key("master_seed").value(args.master_seed);
  sweep_json.key("seeds").value(args.seeds);
  sweep_json.key("jobs").value(pool.jobs());
  sweep_json.key("sweeps").begin_object();
  for (const check::Protocol* p : protocols) {
    const auto fn = [p](std::uint64_t seed, std::size_t) {
      return run_protocol_case(*p, seed);
    };
    const auto count = static_cast<std::size_t>(args.seeds);
    const SweepResult par = run_sweep(pool, args.master_seed, count, fn);
    failed |= par.failures() != 0;

    sweep_json.key(p->name).begin_object();
    emit_sweep_aggregates(sweep_json, par);

    if (args.verify_digest == "off") {
      // --verify-digest off: no serial reference run, so no
      // serial/scaling/identity keys either — absence is the honest
      // signal that this sweep was not determinism-checked.
      std::cout << "[sweep " << p->name << "] " << par.count() << " seeds: "
                << static_cast<std::uint64_t>(par.runs_per_sec())
                << " runs/sec at jobs=" << pool.jobs() << ", "
                << par.failures()
                << " violations, digest check SKIPPED (--verify-digest off)\n";
      sweep_json.key("parallel_runs_per_sec").value(par.runs_per_sec());
      sweep_json.key("parallel_events_per_sec").value(par.events_per_sec());
      sweep_json.end_object();
      continue;
    }

    // The determinism guarantee: verdicts and digests of the parallel
    // sweep are byte-identical to the serial sweep, run for run.
    const SweepResult ser = run_sweep(serial, args.master_seed, count, fn);
    bool identical = ser.count() == par.count();
    for (std::size_t i = 0; identical && i < ser.count(); ++i) {
      identical = ser.runs[i].digest == par.runs[i].digest &&
                  ser.runs[i].ok == par.runs[i].ok &&
                  ser.runs[i].events == par.runs[i].events;
    }
    if (!identical) {
      std::cerr << "[sweep " << p->name
                << "] DETERMINISM VIOLATION: parallel sweep diverged from "
                   "serial sweep\n";
      failed = true;
    }
    const double scaling =
        ser.runs_per_sec() > 0
            ? par.runs_per_sec() / ser.runs_per_sec() / pool.jobs()
            : 0;
    std::cout << "[sweep " << p->name << "] " << par.count() << " seeds: "
              << static_cast<std::uint64_t>(ser.runs_per_sec())
              << " runs/sec serial, "
              << static_cast<std::uint64_t>(par.runs_per_sec())
              << " runs/sec at jobs=" << pool.jobs() << " ("
              << static_cast<int>(scaling * 100) << "% linear), "
              << par.failures() << " violations, digests "
              << (identical ? "identical" : "DIVERGED") << "\n";

    sweep_json.key("serial_runs_per_sec").value(ser.runs_per_sec());
    sweep_json.key("parallel_runs_per_sec").value(par.runs_per_sec());
    sweep_json.key("parallel_events_per_sec").value(par.events_per_sec());
    sweep_json.key("scaling_efficiency").value(scaling);
    sweep_json.key("digests_match_serial").value(identical);
    sweep_json.end_object();
  }
  sweep_json.end_object();

  if (args.grid) {
    sweep_json.key("grids").begin_object();
    {
      const std::vector<Fig2Point> pts = fig2_points();
      const SweepResult r = run_sweep(
          pool, util::derive_seed(args.master_seed, "fig2"), pts.size(),
          [&pts](std::uint64_t seed, std::size_t i) {
            return run_fig2_point(pts[i], seed);
          });
      std::cout << "[grid fig2] " << r.count() << " points, "
                << r.failures() << " omega failures\n";
      failed |= r.failures() != 0;
      sweep_json.key("fig2").begin_object();
      emit_sweep_aggregates(sweep_json, r);
      sweep_json.key("runs_per_sec").value(r.runs_per_sec());
      sweep_json.end_object();
    }
    {
      const std::vector<Fig3Point> pts = fig3_points();
      const SweepResult r = run_sweep(
          pool, util::derive_seed(args.master_seed, "fig3"), pts.size(),
          [&pts](std::uint64_t seed, std::size_t i) {
            return run_fig3_point(pts[i], seed);
          });
      std::cout << "[grid fig3] " << r.count() << " points, "
                << r.failures() << " failures\n";
      failed |= r.failures() != 0;
      sweep_json.key("fig3").begin_object();
      emit_sweep_aggregates(sweep_json, r);
      sweep_json.key("runs_per_sec").value(r.runs_per_sec());
      sweep_json.end_object();
    }
    sweep_json.end_object();
  }
  sweep_json.end_object();

  const std::string sim_path = args.out_dir + "/BENCH_sim.json";
  const std::string sweep_path = args.out_dir + "/BENCH_sweep.json";
  try {
    write_file(sim_path, sim_json.str());
    write_file(sweep_path, sweep_json.str());
  } catch (const std::exception& e) {
    std::cerr << "sweep_runner: " << e.what() << "\n";
    return 1;
  }
  std::cout << "wrote " << sim_path << " and " << sweep_path << "\n";

  // --- regression gate -------------------------------------------------
  const auto gate = [&](const std::string& baseline_path,
                        const std::string& current_text,
                        const char* label) {
    if (baseline_path.empty()) return;
    try {
      const FlatJson base = load_json_numbers(baseline_path);
      const FlatJson cur = parse_json_numbers(current_text);
      const RegressionReport rep =
          compare_benchmarks(base, cur, args.tolerance);
      for (const std::string& line : rep.regressions) {
        std::cerr << "[" << label << "] REGRESSION " << line << "\n";
      }
      for (const std::string& key : rep.missing) {
        std::cerr << "[" << label << "] MISSING METRIC " << key << "\n";
      }
      if (!rep.ok()) {
        failed = true;
      } else {
        std::cout << "[" << label << "] no throughput regression vs "
                  << baseline_path << " (tolerance "
                  << static_cast<int>(args.tolerance * 100) << "%)\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "[" << label << "] baseline check failed: " << e.what()
                << "\n";
      failed = true;
    }
  };
  gate(args.baseline_sim, sim_json.str(), "sim");
  gate(args.baseline_sweep, sweep_json.str(), "sweep");

  // --- optional observability outputs ----------------------------------
  // One canonical traced / metered serial run per protocol, on a seed
  // derived from the master seed. The sweeps above stay untraced, so
  // the throughput numbers measure the engine the benches gate.
  if (!args.trace_prefix.empty() || !args.metrics_path.empty()) {
    std::ofstream metrics_os;
    if (!args.metrics_path.empty()) {
      metrics_os.open(args.metrics_path);
      if (!metrics_os) return flags.fail("cannot write " + args.metrics_path);
      metrics_os << "{\"schema\":\"saf-metrics-v1\",\"protocols\":{";
    }
    bool first = true;
    for (const check::Protocol* p : protocols) {
      const check::ScheduleCase c =
          check::generate_case(*p, util::derive_seed(args.master_seed, "trace"));
      saf::trace::MetricsRegistry registry;
      check::RunContext ctx;
      if (!args.metrics_path.empty()) ctx.metrics = &registry;
      std::ofstream trace_os;
      std::unique_ptr<saf::trace::JsonlSink> sink;
      if (!args.trace_prefix.empty()) {
        const std::string path =
            args.trace_prefix + "-" + p->name + ".trace.jsonl";
        trace_os.open(path);
        if (!trace_os) return flags.fail("cannot write " + path);
        trace_os << "# " << p->name << " " << check::describe_case(c) << "\n";
        sink = std::make_unique<saf::trace::JsonlSink>(trace_os);
        ctx.trace_sink = sink.get();
        std::cout << "[trace " << p->name << "] " << path << "\n";
      }
      p->run(c, ctx);
      if (!args.metrics_path.empty()) {
        if (!first) metrics_os << ",";
        first = false;
        metrics_os << "\"" << p->name << "\":" << registry.to_json();
      }
    }
    if (!args.metrics_path.empty()) {
      metrics_os << "}}\n";
      std::cout << "metrics written to " << args.metrics_path << "\n";
    }
  }

  return failed ? 1 : 0;
}
