// Chaos harness tests (src/rt/chaos).
//
// The pure pieces — WAL records and their torn-tail load, kill-schedule
// determinism, the six-way round classifier, torn-line detection — are
// pinned without sockets. The headline properties run live: a real
// loopback cluster absorbs a mid-round SIGKILL, the victim restarts with
// a bumped incarnation, recovers through its write-ahead log and decides
// the remaining rounds with zero in-model violations; an rt sweep
// checkpoint survives an interrupt and resumes to identical aggregates;
// and a SIGTERM against a live rt_cluster subprocess exits 130 with
// every child reaped. The launcher itself is pinned with stand-in
// children: it collects rounds in index order (its wall-clock timing
// tests live in test_rt_launcher_timing.cpp).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/verdict.h"
#include "rt/chaos.h"
#include "rt/cluster.h"

namespace saf::rt {
namespace {

using fault::Verdict;

/// Self-deleting temp path (file or directory contents are the test's
/// business; the name is unique per process).
std::string temp_path(const char* stem) {
  return "/tmp/saf_chaos_" + std::string(stem) + "_" +
         std::to_string(::getpid());
}

// --- write-ahead log ---------------------------------------------------

/// Appends `recs` to the log at `path` through a fresh writer.
void append_all(const std::string& path, const std::vector<WalRecord>& recs) {
  WalWriter log(path);
  for (const WalRecord& r : recs) log.append(r);
}

std::size_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::size_t>(in.tellg()) : 0;
}

TEST(NodeWal, EveryRecordKindRoundTrips) {
  const std::string path = temp_path("wal");
  std::remove(path.c_str());
  append_all(path, {WalRecord::incarnation(0),
                    WalRecord::taint(3),
                    WalRecord::delivered(3),
                    WalRecord::decided(3, -104, 42, 2, 40),
                    WalRecord::decided(3, -104, 42, 2, 55),
                    WalRecord::delivered(5),
                    WalRecord::taint(7),
                    WalRecord::proposed(9, 7),
                    WalRecord::proposed(4, INT64_MIN),
                    WalRecord::incarnation(2)});
  EXPECT_EQ(file_size(path), 10 * kWalRecordBytes);

  NodeWal back;
  ASSERT_TRUE(load_node_wal(path, &back));
  EXPECT_EQ(back.incarnation, 2u);
  EXPECT_EQ(back.tainted_max, 9);
  ASSERT_EQ(back.rounds.size(), 3u);
  const WalRound* b3 = back.find(3);
  ASSERT_NE(b3, nullptr);
  EXPECT_TRUE(b3->externalized);
  EXPECT_TRUE(b3->delivered);
  EXPECT_TRUE(b3->decided);
  EXPECT_EQ(b3->decision, -104);
  EXPECT_EQ(b3->decision_ms, 42);
  EXPECT_EQ(b3->decision_round, 2);
  EXPECT_EQ(b3->elapsed_ms, 55) << "the later decided record supersedes";
  const WalRound* b5 = back.find(5);
  ASSERT_NE(b5, nullptr);
  EXPECT_TRUE(b5->delivered);
  EXPECT_FALSE(b5->externalized);
  const WalRound* b7 = back.find(7);
  ASSERT_NE(b7, nullptr);
  EXPECT_TRUE(b7->externalized);  // tainted, undecided: skipped forever
  EXPECT_FALSE(b7->decided);
  EXPECT_EQ(back.find(4), nullptr);

  // The boot step bumps past the newest life and logs the new one.
  NodeWal again;
  { WalWriter log = recover_node_wal(path, &again); }
  EXPECT_EQ(again.incarnation, 3u);
  NodeWal third;
  ASSERT_TRUE(load_node_wal(path, &third));
  EXPECT_EQ(third.incarnation, 3u);

  // The contract checker's read-only scan sees every proposal.
  std::vector<std::pair<std::uint32_t, std::int64_t>> proposals;
  scan_wal(path, [&](const WalRecord& r) {
    if (r.kind == WalKind::kProposed) proposals.emplace_back(r.m, r.v);
  });
  ASSERT_EQ(proposals.size(), 2u);
  EXPECT_EQ(proposals[0], std::make_pair(9u, std::int64_t{7}));
  EXPECT_EQ(proposals[1], std::make_pair(4u, std::int64_t{INT64_MIN}));
  std::remove(path.c_str());
}

TEST(NodeWal, TornTailAndBadChecksumLoadAsTheValidPrefix) {
  const std::string path = temp_path("wal_torn");
  for (const bool flip : {false, true}) {
    std::remove(path.c_str());
    append_all(path, {WalRecord::incarnation(0), WalRecord::proposed(1, 11),
                      WalRecord::proposed(2, 12)});
    if (flip) {
      // One flipped checksum byte in the last record.
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(3 * kWalRecordBytes - 1));
      f.put('\x5a');
    } else {
      // A record cut off mid-append.
      std::ofstream f(path, std::ios::app | std::ios::binary);
      f.write("\x05\0\0\0\x03\0\0\0\x0d", 9);
    }
    NodeWal wal;
    ASSERT_TRUE(load_node_wal(path, &wal)) << flip;
    EXPECT_EQ(wal.tainted_max, flip ? 1 : 2) << flip;
    EXPECT_EQ(file_size(path), (flip ? 2 : 3) * kWalRecordBytes)
        << "the load truncates after the valid prefix";

    // A later life's appends stay readable behind the cut.
    append_all(path, {WalRecord::incarnation(1), WalRecord::proposed(6, 16)});
    NodeWal later;
    ASSERT_TRUE(load_node_wal(path, &later)) << flip;
    EXPECT_EQ(later.incarnation, 1u) << flip;
    EXPECT_EQ(later.tainted_max, 6) << flip;
  }
  std::remove(path.c_str());
}

TEST(NodeWal, AbsentOrGarbledFileReadsAsFirstBoot) {
  NodeWal wal;
  wal.incarnation = 99;  // must be untouched on a failed load
  const std::string absent = temp_path("wal_absent");
  std::remove(absent.c_str());
  EXPECT_FALSE(load_node_wal(absent, &wal));
  EXPECT_EQ(wal.incarnation, 99u);
  EXPECT_EQ(scan_wal(absent, [](const WalRecord&) {}), 0u);

  const std::string path = temp_path("wal_garbled");
  {
    std::ofstream os(path);
    os << "{\"incarnation\": this is not a binary log record at all";
  }
  EXPECT_FALSE(load_node_wal(path, &wal));
  EXPECT_EQ(wal.incarnation, 99u);
  EXPECT_EQ(file_size(path), 0u) << "garbage is cut before the next append";
  std::remove(path.c_str());
}

TEST(NodeWal, SigkilledAppenderLeavesALoadableLog) {
  const std::string path = temp_path("wal_kill");
  std::remove(path.c_str());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    WalWriter log(path);
    log.append(WalRecord::incarnation(0));
    for (int i = 0;; ++i) log.append(WalRecord::proposed(i, 1000 + i));
  }
  // Let it append for a while, then kill it mid-loop.
  for (int waited_ms = 0;
       file_size(path) < 2000 * kWalRecordBytes && waited_ms < 10'000;
       ++waited_ms) {
    ::usleep(1000);
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  NodeWal wal;
  ASSERT_TRUE(load_node_wal(path, &wal));
  EXPECT_EQ(wal.incarnation, 0u);
  EXPECT_GE(wal.tainted_max, 1998);
  // Every record up to the cut is the one the child appended, in order.
  std::int64_t next = 0;
  bool in_order = true;
  scan_wal(path, [&](const WalRecord& r) {
    if (r.kind != WalKind::kProposed) return;
    in_order = in_order && r.m == next && r.v == 1000 + next;
    ++next;
  });
  EXPECT_TRUE(in_order);
  EXPECT_EQ(next - 1, wal.tainted_max);
  EXPECT_EQ(file_size(path),
            static_cast<std::size_t>(next + 1) * kWalRecordBytes);
  std::remove(path.c_str());
}

// --- kill schedule -----------------------------------------------------

TEST(KillSchedule, DeterministicSortedAndInBounds) {
  ChaosConfig cfg;
  cfg.kills = 4;
  cfg.window_start_ms = 100;
  cfg.window_span_ms = 800;
  cfg.restart_delay_ms = 250;
  cfg.seed = 7;

  const std::vector<ChaosKill> a = make_kill_schedule(cfg, 5, 1);
  const std::vector<ChaosKill> b = make_kill_schedule(cfg, 5, 1);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_ms, b[i].at_ms) << i;
    EXPECT_EQ(a[i].victim, b[i].victim) << i;
    EXPECT_EQ(a[i].restart_after_ms, b[i].restart_after_ms) << i;
    // Victims are launched ids only: never an initial crash.
    EXPECT_GE(a[i].victim, 1) << i;
    EXPECT_LT(a[i].victim, 5) << i;
    EXPECT_GE(a[i].at_ms, 100) << i;
    EXPECT_LT(a[i].at_ms, 900) << i;
    if (i > 0) {
      EXPECT_GE(a[i].at_ms, a[i - 1].at_ms) << i;
    }
  }

  cfg.seed = 8;
  const std::vector<ChaosKill> c = make_kill_schedule(cfg, 5, 1);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    differs = differs || c[i].at_ms != a[i].at_ms || c[i].victim != a[i].victim;
  }
  EXPECT_TRUE(differs) << "seed must perturb the schedule";

  cfg.kills = 0;
  EXPECT_TRUE(make_kill_schedule(cfg, 5, 1).empty());
}

// --- round classifier --------------------------------------------------

ClusterConfig classify_cfg(int rounds, bool chaos) {
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.t = 1;
  cfg.k = 1;
  cfg.crash = 0;
  cfg.rounds = rounds;
  if (chaos) cfg.chaos.kills = 1;
  return cfg;
}

/// A launched node outcome deciding `decisions[r]` per round;
/// INT64_MIN marks an undecided round.
ClusterNodeOutcome make_node(ProcessId id,
                             const std::vector<std::int64_t>& decisions,
                             int kills = 0) {
  ClusterNodeOutcome node;
  node.id = id;
  node.launched = true;
  node.exited_ok = true;
  node.kills = kills;
  for (const std::int64_t d : decisions) {
    RoundResult rr;
    rr.decided = d != INT64_MIN;
    rr.decision = d;
    rr.decision_ms = rr.decided ? 10 : kNeverTime;
    node.rounds.push_back(rr);
  }
  return node;
}

TEST(ClassifyRtRounds, CleanDecidedRoundsAreSafeInModel) {
  const ClusterConfig cfg = classify_cfg(2, false);
  ClusterResult res;
  res.ok = true;
  res.nodes = {make_node(0, {100, 100}), make_node(1, {100, 100}),
               make_node(2, {100, 100})};
  const std::vector<RtRoundVerdict> v = classify_rt_rounds(cfg, res);
  ASSERT_EQ(v.size(), 2u);
  for (const RtRoundVerdict& rv : v) {
    EXPECT_EQ(rv.verdict, Verdict::kSafeInModel) << rv.detail;
  }
}

TEST(ClassifyRtRounds, ChaosDemotesSafeToOutOfModel) {
  const ClusterConfig cfg = classify_cfg(1, true);
  ClusterResult res;
  res.ok = true;
  res.nodes = {make_node(0, {101}), make_node(1, {101}),
               make_node(2, {101})};
  const std::vector<RtRoundVerdict> v = classify_rt_rounds(cfg, res);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].verdict, Verdict::kSafeOutOfModel);
}

TEST(ClassifyRtRounds, AgreementBreakIsInModelOnlyWhenClean) {
  // k = 1 but two distinct decided values: an agreement violation.
  ClusterResult res;
  res.ok = true;
  res.nodes = {make_node(0, {100}), make_node(1, {101}),
               make_node(2, {100})};

  const std::vector<RtRoundVerdict> clean =
      classify_rt_rounds(classify_cfg(1, false), res);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_EQ(clean[0].verdict, Verdict::kViolationInModel);
  EXPECT_NE(clean[0].detail.find("agreement"), std::string::npos);

  // Kills are inside the recovery model: they explain no safety break.
  const std::vector<RtRoundVerdict> killed =
      classify_rt_rounds(classify_cfg(1, true), res);
  EXPECT_EQ(killed[0].verdict, Verdict::kViolationInModel);

  // Nor does loss the link retransmits through (the nightly sweep's
  // --rt-kills 1 --faults lossy30 grid point).
  ClusterConfig lossy = classify_cfg(1, true);
  lossy.chaos.faults = "lossy30";
  EXPECT_EQ(classify_rt_rounds(lossy, res)[0].verdict,
            Verdict::kViolationInModel);
}

TEST(ClassifyRtRounds, OnlyPayloadCorruptionExplainsASafetyBreak) {
  ClusterResult res;
  res.ok = true;
  res.nodes = {make_node(0, {100}), make_node(1, {101}),
               make_node(2, {100})};
  ClusterConfig corrupt = classify_cfg(1, true);
  corrupt.chaos.faults = "corrupt";
  EXPECT_EQ(classify_rt_rounds(corrupt, res)[0].verdict,
            Verdict::kViolationExplained);
  // Inline grammar, no kills: the corruption alone explains it.
  ClusterConfig inline_spec = classify_cfg(1, false);
  inline_spec.chaos.faults = "corrupt=0.1";
  EXPECT_EQ(classify_rt_rounds(inline_spec, res)[0].verdict,
            Verdict::kViolationExplained);

  // A never-proposed value is a validity break, explained the same way.
  res.nodes = {make_node(0, {999}), make_node(1, {999}),
               make_node(2, {999})};
  const RtRoundVerdict v = classify_rt_rounds(corrupt, res)[0];
  EXPECT_EQ(v.verdict, Verdict::kViolationExplained);
  EXPECT_NE(v.detail.find("validity"), std::string::npos);
}

TEST(ClassifyRtRounds, NeverProposedValueIsAValidityBreak) {
  ClusterResult res;
  res.ok = true;
  // 999 is outside run_node's 100+id proposal set.
  res.nodes = {make_node(0, {999}), make_node(1, {999}),
               make_node(2, {999})};
  const std::vector<RtRoundVerdict> v =
      classify_rt_rounds(classify_cfg(1, false), res);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].verdict, Verdict::kViolationInModel);
  EXPECT_NE(v[0].detail.find("validity"), std::string::npos);
}

TEST(ClassifyRtRounds, TerminationMissTimesOutCleanExplainsUnderChaos) {
  ClusterResult res;
  res.ok = true;
  res.nodes = {make_node(0, {100}), make_node(1, {INT64_MIN}),
               make_node(2, {100})};

  const std::vector<RtRoundVerdict> clean =
      classify_rt_rounds(classify_cfg(1, false), res);
  EXPECT_EQ(clean[0].verdict, Verdict::kTimedOut);

  const std::vector<RtRoundVerdict> chaos =
      classify_rt_rounds(classify_cfg(1, true), res);
  EXPECT_EQ(chaos[0].verdict, Verdict::kViolationExplained);
}

TEST(ClassifyRtRounds, KilledNodesMissingRoundsAreExcused) {
  // The undecided node absorbed a SIGKILL: its gap is the crash the
  // model already prices in, not a termination miss — but the round is
  // no longer an in-model sample either.
  ClusterResult res;
  res.ok = true;
  res.nodes = {make_node(0, {100}), make_node(1, {INT64_MIN}, /*kills=*/1),
               make_node(2, {100})};
  const std::vector<RtRoundVerdict> v =
      classify_rt_rounds(classify_cfg(1, true), res);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].verdict, Verdict::kSafeOutOfModel) << v[0].detail;
}

TEST(ClassifyRtRounds, ClusterFailureMapsWholeRun) {
  ClusterResult res;
  res.ok = false;
  res.detail = "wall budget exhausted";
  std::vector<RtRoundVerdict> v =
      classify_rt_rounds(classify_cfg(3, false), res);
  ASSERT_EQ(v.size(), 3u);
  for (const RtRoundVerdict& rv : v) {
    EXPECT_EQ(rv.verdict, Verdict::kTimedOut);
  }

  res.detail = "fork failed";
  v = classify_rt_rounds(classify_cfg(3, false), res);
  for (const RtRoundVerdict& rv : v) {
    EXPECT_EQ(rv.verdict, Verdict::kWorkerError);
  }
}

// --- torn-line detection -----------------------------------------------

TEST(JsonlLineComplete, AcceptsRecordsRejectsFragments) {
  EXPECT_TRUE(jsonl_line_complete("{}"));
  EXPECT_TRUE(jsonl_line_complete("{\"t\":1,\"k\":\"decide\"}"));
  EXPECT_FALSE(jsonl_line_complete(""));
  EXPECT_FALSE(jsonl_line_complete("{"));
  EXPECT_FALSE(jsonl_line_complete("{\"t\":1,\"k\":\"dec"));  // torn tail
  EXPECT_FALSE(jsonl_line_complete("\"t\":1}"));
  EXPECT_FALSE(jsonl_line_complete("# comment"));
}

// --- live cluster under chaos ------------------------------------------

TEST(LiveChaos, KilledNodeRecoversRejoinsAndDecides) {
  ClusterConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.k = 2;
  cfg.base_port = 48600;
  cfg.rounds = 12;
  cfg.seed = 11;
  cfg.trace = true;
  cfg.out_dir = temp_path("live");
  cfg.chaos.kills = 1;
  cfg.chaos.window_start_ms = 150;
  cfg.chaos.window_span_ms = 120;  // tight: lands mid-round, not post-run
  cfg.chaos.restart_delay_ms = 200;
  cfg.chaos.seed = 5;

  const ClusterResult res = run_cluster(cfg);
  ASSERT_TRUE(res.ok) << res.detail;
  EXPECT_TRUE(res.contract_ok()) << (res.violations.empty()
                                         ? res.detail
                                         : res.violations.front());

  // The kill actually happened and the victim came back.
  ASSERT_EQ(res.chaos_events.size(), 1u);
  const ChaosEvent& ev = res.chaos_events.front();
  ASSERT_GE(ev.victim, 0);
  EXPECT_NE(ev.restarted_at_ms, kNeverTime);

  const ClusterNodeOutcome& victim =
      res.nodes[static_cast<std::size_t>(ev.victim)];
  EXPECT_EQ(victim.kills, 1);
  EXPECT_GE(victim.incarnation, 1u) << "restart must bump the incarnation";
  EXPECT_FALSE(victim.gave_up);

  // Rejoined and decided: the final keep-alive round — far past the
  // restart — is decided by the recovered life, and the crash cost at
  // most a few rounds (the tainted one plus catch-up jumps).
  ASSERT_EQ(victim.rounds.size(), static_cast<std::size_t>(cfg.rounds));
  EXPECT_TRUE(victim.rounds.back().decided);
  int victim_decided = 0;
  for (const RoundResult& rr : victim.rounds) victim_decided += rr.decided;
  EXPECT_GE(victim_decided, cfg.rounds - 4);

  // Zero in-model violations: every round is safe, or explained by the
  // injected kill.
  for (const RtRoundVerdict& rv : classify_rt_rounds(cfg, res)) {
    EXPECT_NE(rv.verdict, Verdict::kViolationInModel)
        << "round " << rv.round << ": " << rv.detail;
    EXPECT_NE(rv.verdict, Verdict::kWorkerError)
        << "round " << rv.round << ": " << rv.detail;
  }

  // The merged trace survived the SIGKILL's torn lines and carries the
  // victim's decide events.
  ASSERT_FALSE(res.merged_trace_path.empty());
  std::ifstream in(res.merged_trace_path);
  ASSERT_TRUE(in.good()) << res.merged_trace_path;
  const std::string victim_tag =
      "{\"node\":" + std::to_string(ev.victim) + ",";
  int victim_decides = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(victim_tag, 0) == 0 &&
        line.find("\"k\":\"decide\"") != std::string::npos) {
      ++victim_decides;
    }
  }
  EXPECT_GE(victim_decides, 1)
      << "merged trace must show the victim deciding";
}

// --- launcher wait and result collection ------------------------------

/// A three-node config whose children run `runner` instead of a node.
ClusterConfig runner_cfg(const char* stem,
                         std::function<int(const NodeConfig&)> runner) {
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.t = 1;
  cfg.k = 1;
  cfg.out_dir = temp_path(stem);
  cfg.node_runner = std::move(runner);
  return cfg;
}

TEST(RunCluster, RoundsAreCollectedInIndexOrderUpToTheFirstCutShort) {
  // Twelve rounds, so "rounds.10.*" sorts before "rounds.2.*"; node 1's
  // round 7 has no elapsed_ms, which ends its collection there.
  ClusterConfig cfg = runner_cfg("rounds", [](const NodeConfig& nc) {
    std::ofstream out(nc.result_path);
    out << "{\"ok\": true, \"decided\": true, \"rounds\": [";
    for (int r = 0; r < 12; ++r) {
      out << (r > 0 ? ", " : "") << "{\"decided\": true, \"decision\": "
          << 1000 + r << ", \"decision_ms\": " << r + 1
          << ", \"decision_round\": 2, \"start_ms\": " << 10 * r;
      if (nc.id != 1 || r != 7) out << ", \"elapsed_ms\": 4";
      out << "}";
    }
    out << "]}\n";
    return out ? 0 : 1;
  });
  cfg.rounds = 12;
  const ClusterResult res = run_cluster(cfg);
  ASSERT_TRUE(res.ok) << res.detail;

  for (const ProcessId id : {0, 2}) {
    const std::vector<RoundResult>& rounds =
        res.nodes[static_cast<std::size_t>(id)].rounds;
    ASSERT_EQ(rounds.size(), 12u) << id;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      const auto ri = static_cast<std::int64_t>(r);
      EXPECT_TRUE(rounds[r].decided) << r;
      EXPECT_EQ(rounds[r].decision, 1000 + ri) << r;
      EXPECT_EQ(rounds[r].decision_ms, ri + 1) << r;
      EXPECT_EQ(rounds[r].decision_round, 2) << r;
      EXPECT_EQ(rounds[r].start_ms, 10 * ri) << r;
      EXPECT_EQ(rounds[r].elapsed_ms, 4) << r;
    }
  }
  const std::vector<RoundResult>& cut = res.nodes[1].rounds;
  ASSERT_EQ(cut.size(), 7u) << "collection stops at the round cut short";
  for (std::size_t r = 0; r < cut.size(); ++r) {
    EXPECT_EQ(cut[r].decision, 1000 + static_cast<std::int64_t>(r)) << r;
  }
}

// --- sweep checkpoint/resume ------------------------------------------

TEST(RtSweep, ResumeReproducesAggregatesAndRejectsMismatch) {
  RtSweepOptions opts;
  opts.n = 4;
  opts.t = 1;
  opts.k = 1;
  opts.base_port = 48640;
  opts.runs = 2;
  opts.rounds_per_run = 3;
  opts.seed = 21;
  opts.out_dir = temp_path("sweep");
  opts.checkpoint_path = temp_path("sweep_ckpt");
  opts.checkpoint_every = 1;

  const RtSweepReport first = rt_sweep(opts);
  EXPECT_EQ(first.completed, 2);
  EXPECT_FALSE(first.failed());
  ASSERT_TRUE(std::ifstream(opts.checkpoint_path).good());

  // Resume over a complete checkpoint: every record replays from disk,
  // no cluster is re-run, aggregates match.
  opts.resume = true;
  const RtSweepReport second = rt_sweep(opts);
  EXPECT_EQ(second.completed, 2);
  for (int i = 0; i < fault::kVerdictCount; ++i) {
    EXPECT_EQ(second.verdict_histogram[i], first.verdict_histogram[i]) << i;
  }

  // A fingerprint mismatch (different grid) must refuse the checkpoint
  // rather than silently mix two sweeps.
  RtSweepOptions other = opts;
  other.rounds_per_run = 4;
  EXPECT_THROW((void)rt_sweep(other), std::invalid_argument);
  std::remove(opts.checkpoint_path.c_str());
}

// --- SIGTERM against a live rt_cluster ---------------------------------

#ifdef SAF_RT_CLUSTER

int run_shell(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(Sigterm, RtClusterReapsChildrenAndExits130) {
  const std::string cluster = SAF_RT_CLUSTER;
  // Enough keep-alive rounds that the run is still going when the
  // signal lands; the race where it finishes first exits 0, which the
  // assertion tolerates (same discipline as the sweep_runner pin).
  const std::string base = cluster +
      " --n 4 --t 1 --k 1 --keep-alive --repeat 500 --base-port 48680"
      " --out-dir " + temp_path("sigterm");
  const std::string cmd = "sh -c '" + base +
      " >/dev/null 2>&1 & pid=$!; sleep 1; kill -TERM $pid 2>/dev/null; "
      "wait $pid'";
  const int rc = run_shell(cmd);
  EXPECT_TRUE(rc == 130 || rc == 0) << "unexpected exit " << rc;
}

#endif  // SAF_RT_CLUSTER

}  // namespace
}  // namespace saf::rt
