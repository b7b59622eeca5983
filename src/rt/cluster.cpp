#include "rt/cluster.h"

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "core/invariants.h"
#include "sweep/bench_json.h"
#include "util/check.h"

namespace saf::rt {

namespace {

std::string node_result_path(const ClusterConfig& cfg, ProcessId id) {
  return cluster_node_result_path(cfg, id);
}

std::string node_trace_path(const ClusterConfig& cfg, ProcessId id) {
  return cfg.out_dir + "/node_" + std::to_string(id) + ".jsonl";
}

NodeConfig node_config(const ClusterConfig& cfg, ProcessId id) {
  NodeConfig nc;
  nc.id = id;
  nc.n = cfg.n;
  nc.t = cfg.t;
  nc.k = cfg.k;
  nc.protocol = cfg.protocol;
  nc.x = cfg.x;
  nc.y = cfg.y;
  nc.base_port = cfg.base_port;
  nc.seed = cfg.seed + static_cast<std::uint64_t>(id);
  nc.run_for_ms = cfg.run_for_ms;
  nc.linger_ms = cfg.linger_ms;
  nc.rounds = cfg.rounds;
  nc.hb = cfg.hb;
  nc.link = cfg.link;
  nc.batched_broadcasts = cfg.batched_broadcasts;
  nc.svc_client_slots = cfg.svc_client_slots;
  nc.svc_jump_threshold = cfg.svc_jump_threshold;
  nc.result_path = node_result_path(cfg, id);
  if (cfg.trace) nc.trace_path = node_trace_path(cfg, id);
  if (cfg.chaos.enabled()) {
    // WAL recovery needs per-round or per-instance records: kset rounds
    // or the service's participation records. A killed wheels node
    // would restart as a fresh incarnation-0 process (and the schedule
    // never targets it unless explicitly configured).
    if (cfg.chaos.kills > 0 &&
        (cfg.protocol == "kset" || cfg.protocol == "svc")) {
      nc.wal_path = cluster_node_wal_path(cfg, id);
    }
    nc.faults = cfg.chaos.faults;
    nc.fault_seed =
        cfg.chaos.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id);
    if (nc.fault_seed == 0) nc.fault_seed = 1;
  }
  return nc;
}

/// A pidfd for child `pid`, or -1 where the kernel (before Linux 5.3)
/// or the headers have none.
int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

/// Extracts the integer value of `"t":` from a canonical trace line
/// (format_event always puts it first); -1 if absent.
std::int64_t line_time(const std::string& line) {
  const auto pos = line.find("\"t\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(line.c_str() + pos + 4);
}

/// Merges per-node jsonl traces into one file ordered by timestamp
/// (ties: node id), each line annotated with its node of origin.
void merge_traces(const ClusterConfig& cfg, ClusterResult* res) {
  struct Line {
    std::int64_t t;
    ProcessId node;
    std::string text;
  };
  std::vector<Line> all;
  for (ProcessId id = cfg.crash; id < cfg.n; ++id) {
    std::ifstream in(node_trace_path(cfg, id));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (!jsonl_line_complete(line)) {
        // A SIGKILLed node leaves a torn final line (or, after an
        // append-mode restart, a torn middle line). Skip it: the merge
        // must survive exactly the crashes the harness injects.
        std::fprintf(stderr,
                     "merge_traces: node %d: skipping truncated trace "
                     "line (%zu bytes)\n",
                     id, line.size());
        continue;
      }
      // {"t":...}  ->  {"node":<id>,"t":...}
      std::string tagged =
          "{\"node\":" + std::to_string(id) + "," + line.substr(1);
      all.push_back({line_time(line), id, std::move(tagged)});
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Line& a, const Line& b) {
    return a.t != b.t ? a.t < b.t : a.node < b.node;
  });
  const std::string path = cfg.out_dir + "/trace_merged.jsonl";
  std::ofstream out(path);
  for (const Line& l : all) out << l.text << "\n";
  res->merged_trace_path = path;
}

void check_kset_contract(const ClusterConfig& cfg, ClusterResult* res) {
  // Synthesize the KSetRunResult fields kset_invariants reads from the
  // per-node outcomes; the checker is then byte-for-byte the one the
  // simulator harness uses. With keep-alive rounds, each round is an
  // independent agreement instance and is checked separately.
  core::KSetRunConfig kcfg;
  kcfg.n = cfg.n;
  kcfg.t = cfg.t;
  kcfg.k = cfg.k;
  std::set<std::int64_t> proposed;
  for (ProcessId id = cfg.crash; id < cfg.n; ++id) {
    proposed.insert(100 + id);  // run_node's default proposal
  }
  for (int round = 0; round < cfg.rounds; ++round) {
    core::KSetRunResult kres;
    std::set<std::int64_t> decided_values;
    kres.validity = true;
    kres.all_correct_decided = true;
    for (const ClusterNodeOutcome& node : res->nodes) {
      if (!node.launched) continue;
      const std::size_t r = static_cast<std::size_t>(round);
      if (r >= node.rounds.size() || !node.rounds[r].decided) {
        // A SIGKILLed node is a crashed process in the model: its own
        // missing decisions are excused (termination quantifies over
        // correct processes only). Decisions it *did* make still count
        // toward agreement and validity below.
        if (node.kills == 0) kres.all_correct_decided = false;
        continue;
      }
      decided_values.insert(node.rounds[r].decision);
      if (proposed.count(node.rounds[r].decision) == 0) {
        kres.validity = false;
      }
      if (res->max_decision_ms == kNeverTime ||
          node.rounds[r].decision_ms > res->max_decision_ms) {
        res->max_decision_ms = node.rounds[r].decision_ms;
      }
    }
    const int distinct = static_cast<int>(decided_values.size());
    res->distinct_decided = std::max(res->distinct_decided, distinct);
    kres.distinct_decided = distinct;
    kres.agreement_k = distinct <= cfg.k;
    for (const core::InvariantViolation& v :
         core::kset_invariants(kcfg, kres)) {
      res->violations.push_back(
          (cfg.rounds > 1 ? "round " + std::to_string(round) + ": " : "") +
          v.invariant + ": " + v.detail);
    }
  }
}

void check_wheels_contract(const ClusterConfig& cfg, ClusterResult* res) {
  // End-state slice of the Ω_z axioms: all launched nodes share a final
  // trusted set of size in [1, z] containing a launched (correct) id.
  // (The full eventual axioms over histories are checked deterministically
  // in tests/test_rt_fd.cpp; a live run can only witness the end state.)
  const int z = cfg.t + 2 - cfg.x - cfg.y;
  std::set<std::uint64_t> masks;
  for (const ClusterNodeOutcome& node : res->nodes) {
    if (node.launched) masks.insert(node.final_trusted_mask);
  }
  if (masks.size() != 1) {
    res->violations.push_back("wheels/omega: nodes disagree on trusted set");
    return;
  }
  const ProcSet trusted(*masks.begin());
  if (trusted.empty() || trusted.size() > z) {
    res->violations.push_back("wheels/omega: |trusted| outside [1, z]");
  }
  bool has_correct = false;
  for (ProcessId id = cfg.crash; id < cfg.n; ++id) {
    if (trusted.contains(id)) has_correct = true;
  }
  if (!has_correct) {
    res->violations.push_back("wheels/omega: trusted set has no correct id");
  }
}

}  // namespace

ClusterResult run_cluster(const ClusterConfig& cfg) {
  SAF_CHECK(cfg.n >= 2 && cfg.n <= kMaxProcs);
  SAF_CHECK(cfg.crash >= 0 && cfg.crash <= cfg.t);
  ClusterResult res;
  ::mkdir(cfg.out_dir.c_str(), 0755);  // EEXIST is fine

  res.nodes.assign(static_cast<std::size_t>(cfg.n), {});
  for (ProcessId id = 0; id < cfg.n; ++id) res.nodes[id].id = id;

  // One pidfd per child (-1 where the kernel has none): the reap loop
  // sleeps in ppoll(2) on them, so an exit ends the wait at once.
  struct Child {
    ProcessId id;
    pid_t pid;
    int pidfd;
  };
  std::vector<Child> children;
  const auto spawn = [&](ProcessId id) -> bool {
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      const NodeConfig nc = node_config(cfg, id);
      if (cfg.node_runner) ::_exit(cfg.node_runner(nc));
      const NodeResult nres = run_node(nc);
      ::_exit(nres.ok ? 0 : 3);
    }
    children.push_back({id, pid, open_pidfd(pid)});
    return true;
  };
  const auto forget = [&](std::size_t i) {
    if (children[i].pidfd >= 0) ::close(children[i].pidfd);
    children.erase(children.begin() + static_cast<std::ptrdiff_t>(i));
  };
  const auto kill_child = [&](std::size_t i) {
    ::kill(children[i].pid, SIGKILL);
    ::waitpid(children[i].pid, nullptr, 0);
    forget(i);
  };
  const auto kill_all = [&] {
    while (!children.empty()) kill_child(children.size() - 1);
  };

  for (ProcessId id = cfg.crash; id < cfg.n; ++id) {
    // Stale artifacts from a previous run must not be readable as this
    // run's results — including a previous run's recovery record, which
    // would make a fresh node boot as a later incarnation. (Restarts
    // below deliberately do NOT unlink: recovery depends on both.)
    ::unlink(node_result_path(cfg, id).c_str());
    ::unlink(cluster_node_wal_path(cfg, id).c_str());
    if (!spawn(id)) {
      res.detail = "fork failed";
      kill_all();
      return res;
    }
    res.nodes[id].launched = true;
  }

  // Chaos schedule: kills fire at wall offsets from this instant (after
  // the launch forks, so "150 ms in" means 150 ms into the actual run).
  using Clock = std::chrono::steady_clock;
  const auto launch = Clock::now();
  std::vector<ChaosKill> kills = make_kill_schedule(cfg.chaos, cfg.n, cfg.crash);
  struct PendingRestart {
    ProcessId id;
    Time at_ms;
    std::size_t event;  ///< index into res.chaos_events
  };
  std::vector<PendingRestart> restarts;
  std::size_t next_kill = 0;
  const auto now_ms = [&]() -> Time {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - launch)
        .count();
  };
  const auto at = [&](Time ms) {
    return launch + std::chrono::milliseconds(ms);
  };

  // Reap with a wall deadline: per-round budget x rounds + slack for
  // fork/teardown, stretched for every scheduled restart cycle.
  const auto deadline =
      at(cfg.run_for_ms * cfg.rounds + 5000 +
         static_cast<Time>(kills.size()) *
             (cfg.chaos.restart_delay_ms + 3000));
  // Longest sleep while something is only observable by looking: the
  // stop flag, or a child the kernel gave no pidfd.
  constexpr auto kCheckEvery = std::chrono::milliseconds(5);
  std::vector<pollfd> fds;
  bool all_ok = true;
  while (!children.empty() || !restarts.empty() ||
         next_kill < kills.size()) {
    if (cfg.stop != nullptr && cfg.stop->load()) {
      kill_all();
      res.interrupted = true;
      res.detail = "interrupted";
      res.ok = false;
      return res;
    }

    const Time now = now_ms();

    // Fire due kills. A victim that already exited is skipped — the
    // schedule is advisory, the protocol run is the ground truth.
    while (next_kill < kills.size() && kills[next_kill].at_ms <= now) {
      const ChaosKill& k = kills[next_kill++];
      const auto it =
          std::find_if(children.begin(), children.end(),
                       [&](const Child& c) { return c.id == k.victim; });
      if (it == children.end()) continue;
      kill_child(static_cast<std::size_t>(it - children.begin()));
      ++res.nodes[k.victim].kills;
      res.chaos_events.push_back({k.victim, now, kNeverTime});
      restarts.push_back(
          {k.victim, now + k.restart_after_ms, res.chaos_events.size() - 1});
    }

    // Fire due restarts: re-fork with result/WAL files intact, so the
    // new incarnation recovers instead of starting fresh.
    for (std::size_t i = 0; i < restarts.size();) {
      if (restarts[i].at_ms <= now) {
        if (spawn(restarts[i].id)) {
          res.chaos_events[restarts[i].event].restarted_at_ms = now_ms();
        } else {
          res.detail = "restart fork failed";
          all_ok = false;
        }
        restarts.erase(restarts.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    for (std::size_t i = 0; i < children.size();) {
      int status = 0;
      if (::waitpid(children[i].pid, &status, WNOHANG) == children[i].pid) {
        const ProcessId id = children[i].id;
        forget(i);
        res.nodes[id].exited_ok =
            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        all_ok = all_ok && res.nodes[id].exited_ok;
      } else {
        ++i;
      }
    }
    if (children.empty() && restarts.empty()) {
      // Remaining scheduled kills can never fire (all victims exited).
      break;
    }
    if (Clock::now() >= deadline) {
      std::ostringstream os;
      os << "wall budget exceeded; killed nodes:";
      for (const Child& c : children) os << " " << c.id;
      kill_all();
      res.detail = os.str();
      all_ok = false;
      break;
    }

    // Sleep until a child exits or the next kill, restart or deadline
    // falls due, whichever is first.
    auto wake = deadline;
    if (next_kill < kills.size()) {
      wake = std::min(wake, at(kills[next_kill].at_ms));
    }
    for (const PendingRestart& r : restarts) {
      wake = std::min(wake, at(r.at_ms));
    }
    fds.clear();
    bool blind = cfg.stop != nullptr;
    for (const Child& c : children) {
      if (c.pidfd >= 0) {
        fds.push_back({c.pidfd, POLLIN, 0});
      } else {
        blind = true;
      }
    }
    const auto start = Clock::now();
    if (blind) wake = std::min(wake, start + kCheckEvery);
    const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::max(wake - start, Clock::duration::zero()));
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ns.count() / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait_ns.count() % 1'000'000'000);
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  }
  res.ok = all_ok;

  for (ProcessId id = cfg.crash; id < cfg.n; ++id) {
    ClusterNodeOutcome& node = res.nodes[id];
    try {
      const sweep::FlatJson j =
          sweep::load_json_numbers(node_result_path(cfg, id));
      auto get = [&](const char* key) {
        const auto it = j.find(key);
        return it == j.end() ? 0.0 : it->second;
      };
      node.decided = get("decided") != 0.0;
      node.decision = static_cast<std::int64_t>(get("decision"));
      node.decision_ms = static_cast<Time>(get("decision_ms"));
      node.final_trusted_mask =
          static_cast<std::uint64_t>(get("final_trusted_mask"));
      node.final_suspected_mask =
          static_cast<std::uint64_t>(get("final_suspected_mask"));
      node.incarnation = static_cast<std::uint32_t>(get("incarnation"));
      node.gave_up = get("gave_up") != 0.0;
      // Keep-alive rounds flatten as "rounds.<i>.<field>": one walk
      // slots them by index, and the rounds kept are those before the
      // first without elapsed_ms (a budget cut short).
      std::vector<RoundResult> rounds(
          static_cast<std::size_t>(std::max(0, cfg.rounds)),
          RoundResult{false, 0, 0, 0, 0, 0});
      std::vector<bool> ended(rounds.size(), false);
      sweep::for_each_element(
          j, "rounds.",
          [&](std::size_t r, std::string_view field, double v) {
            if (r >= rounds.size()) return;
            RoundResult& rr = rounds[r];
            if (field == "decided") {
              rr.decided = v != 0.0;
            } else if (field == "decision") {
              rr.decision = static_cast<std::int64_t>(v);
            } else if (field == "decision_ms") {
              rr.decision_ms = static_cast<Time>(v);
            } else if (field == "decision_round") {
              rr.decision_round = static_cast<int>(v);
            } else if (field == "start_ms") {
              rr.start_ms = static_cast<Time>(v);
            } else if (field == "elapsed_ms") {
              rr.elapsed_ms = static_cast<Time>(v);
              ended[r] = true;
            }
          });
      rounds.resize(static_cast<std::size_t>(
          std::find(ended.begin(), ended.end(), false) - ended.begin()));
      node.rounds = std::move(rounds);
    } catch (const std::exception& e) {
      res.ok = false;
      if (res.detail.empty()) {
        res.detail = "node " + std::to_string(id) + " result: " + e.what();
      }
    }
  }

  if (cfg.contract_checker) {
    cfg.contract_checker(cfg, &res);
  } else if (cfg.protocol == "kset") {
    check_kset_contract(cfg, &res);
  } else {
    check_wheels_contract(cfg, &res);
  }
  if (cfg.trace) merge_traces(cfg, &res);
  return res;
}

std::string cluster_node_result_path(const ClusterConfig& cfg, ProcessId id) {
  return cfg.out_dir + "/node_" + std::to_string(id) + ".json";
}

std::string cluster_node_wal_path(const ClusterConfig& cfg, ProcessId id) {
  return cfg.out_dir + "/node_" + std::to_string(id) + ".wal";
}

std::string cluster_result_json(const ClusterConfig& cfg,
                                const ClusterResult& res) {
  sweep::JsonWriter w;
  w.begin_object();
  w.key("protocol").value(cfg.protocol);
  w.key("n").value(cfg.n);
  w.key("t").value(cfg.t);
  w.key("k").value(cfg.k);
  w.key("crash").value(cfg.crash);
  w.key("rounds").value(cfg.rounds);
  w.key("ok").value(res.ok);
  w.key("contract_ok").value(res.contract_ok());
  w.key("distinct_decided").value(res.distinct_decided);
  w.key("max_decision_ms")
      .value(static_cast<std::int64_t>(res.max_decision_ms));
  w.key("violations").begin_array();
  for (const std::string& v : res.violations) w.value(v);
  w.end_array();
  w.key("nodes").begin_array();
  for (const ClusterNodeOutcome& node : res.nodes) {
    w.begin_object();
    w.key("id").value(static_cast<std::int64_t>(node.id));
    w.key("launched").value(node.launched);
    w.key("exited_ok").value(node.exited_ok);
    w.key("decided").value(node.decided);
    w.key("decision").value(node.decision);
    w.key("decision_ms").value(static_cast<std::int64_t>(node.decision_ms));
    std::uint64_t rounds_decided = 0;
    for (const RoundResult& rr : node.rounds) {
      if (rr.decided) ++rounds_decided;
    }
    w.key("rounds_decided").value(rounds_decided);
    // Wall-clock offsets of each keep-alive round's start within the
    // node's life — lets a latency consumer attribute per-round spikes
    // to kill/restart windows (chaos_events below) without re-reading
    // the node files.
    w.key("round_start_ms").begin_array();
    for (const RoundResult& rr : node.rounds) {
      w.value(static_cast<std::int64_t>(rr.start_ms));
    }
    w.end_array();
    w.key("final_trusted_mask").value(node.final_trusted_mask);
    w.key("final_suspected_mask").value(node.final_suspected_mask);
    w.key("kills").value(node.kills);
    w.key("incarnation").value(static_cast<std::uint64_t>(node.incarnation));
    w.key("gave_up").value(node.gave_up);
    w.end_object();
  }
  w.end_array();
  w.key("interrupted").value(res.interrupted);
  w.key("chaos_events").begin_array();
  for (const ChaosEvent& e : res.chaos_events) {
    w.begin_object();
    w.key("victim").value(static_cast<std::int64_t>(e.victim));
    w.key("killed_at_ms").value(static_cast<std::int64_t>(e.killed_at_ms));
    w.key("restarted_at_ms")
        .value(static_cast<std::int64_t>(e.restarted_at_ms));
    w.end_object();
  }
  w.end_array();
  if (!res.merged_trace_path.empty()) {
    w.key("merged_trace").value(res.merged_trace_path);
  }
  if (!res.detail.empty()) w.key("detail").value(res.detail);
  w.end_object();
  return w.str();
}

}  // namespace saf::rt
