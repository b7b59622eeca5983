// Chaos harness for the live runtime: crash/restart injection, node
// recovery state, and live fault sweeps.
//
// The simulator side has had adversarial machinery for a while — fault
// profiles, contract monitors, six-way verdicts, checkpointed sweeps —
// while the live rt cluster only ever saw *pre-declared* crashes (ids
// that are simply never launched). This header closes that gap with
// three pieces:
//
//   * a seeded, deterministic **kill schedule**: rt/cluster SIGKILLs
//     live nodes at scheduled wall offsets (mid-round, not at launch)
//     and re-forks them after a delay with a bumped incarnation;
//   * a **write-ahead log** (NodeWal) each node appends to: fixed-size
//     binary records (incarnation, per-round taint, delivery and
//     decision for keep-alive rounds; per-instance participation for the
//     decision service), so a restarted node restores its history, never
//     re-runs a round or instance whose messages already escaped (no
//     double decide, no double RB seqs), and rejoins via catch-up;
//   * **round verdicts**: every keep-alive round of a cluster run is
//     classified with the same six-way vocabulary the simulator sweeps
//     use (fault/verdict.h) — a kill or a lossy profile explains a
//     violation, a clean agreement break stays VIOLATION_IN_MODEL —
//     and rt_sweep() drives grids of repeated cluster runs over
//     (fault profiles x kill counts x heartbeat params) with the same
//     checkpoint/resume discipline as check/fault_sweep.
//
// Safety argument for recovery, in one paragraph: a round (or service
// instance) is *tainted* once the node externalized anything for it —
// the record is appended *before* the first reliable send leaves (see
// RtBridge's on-first-send hook; the service appends its `proposed`
// record before the instance's core starts). A restarted node never
// runs a tainted round or instance again: it counts as crashed for it,
// in the paper's crash-stop model. A keep-alive node skips such a round;
// the service learns the instance's value from the cluster (reliable
// broadcast or a snapshot). So a node can never produce a second,
// different decision for something the cluster may already have heard
// about from its previous life. Decided rounds are restored verbatim;
// untainted rounds and instances run from scratch. The wire-level
// incarnation field (rt/wire.h) keeps the two lives' seq streams apart.
//
// Durability: each record is one write(2) on an O_APPEND descriptor,
// with no fsync. A SIGKILL does not lose writes already in the page
// cache, and this model has no power loss, so a record whose write
// returned is on the log for every later life. A kill can still land
// mid-append; the load stops at the first short or bad-checksum record
// and truncates the file there, so a torn tail never hides later
// appends.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/verdict.h"
#include "rt/heartbeat_fd.h"
#include "util/types.h"

namespace saf::rt {

struct ClusterConfig;  // rt/cluster.h
struct ClusterResult;

// ---------------------------------------------------------------------
// Node write-ahead log.

/// Record kinds. `m` is the incarnation, round or instance the record
/// is about; `v` and the timing fields are used only where noted.
enum class WalKind : std::uint8_t {
  kIncarnation = 1,  ///< a life began as incarnation m
  kTaint = 2,        ///< round m's first reliable send is about to leave
  kDelivered = 3,    ///< round m consumed a peer's reliable payload
  kDecided = 4,      ///< round m decided v (plus the timing fields)
  kProposed = 5,     ///< svc instance m is about to run, proposing v
};

/// One log record. On disk it is kWalRecordBytes little-endian bytes:
/// kind, three zero bytes, m, v, decision_ms, decision_round,
/// elapsed_ms, then an FNV-1a checksum over everything before it.
struct WalRecord {
  WalKind kind = WalKind::kIncarnation;
  std::uint32_t m = 0;
  std::int64_t v = 0;
  std::int32_t decision_ms = 0;  ///< round-relative decision instant
  std::int32_t decision_round = 0;
  std::int32_t elapsed_ms = 0;  ///< round wall duration so far

  static WalRecord incarnation(std::uint32_t inc);
  static WalRecord taint(int round);
  static WalRecord delivered(int round);
  static WalRecord decided(int round, std::int64_t value, Time decision_ms,
                           int decision_round, Time elapsed_ms);
  static WalRecord proposed(int instance, std::int64_t value);
};

inline constexpr std::size_t kWalRecordBytes = 32;

/// Per-round recovery state of a keep-alive node, folded from the log.
/// `externalized` is the safety-bearing bit: its record is appended
/// *before* the round's first reliable send, so "the cluster may have
/// heard from this round" implies "the log says so".
struct WalRound {
  int round = -1;
  bool externalized = false;  ///< a reliable send left for this round
  bool delivered = false;     ///< a peer's reliable payload was consumed
  bool decided = false;
  std::int64_t decision = INT64_MIN;
  Time decision_ms = kNeverTime;  ///< round-relative decision instant
  int decision_round = 0;         ///< protocol-internal round count
  Time elapsed_ms = 0;
};

/// The in-memory fold of a node's log, read once at boot.
struct NodeWal {
  std::uint32_t incarnation = 0;  ///< newest life's incarnation
  std::vector<WalRound> rounds;   ///< keep-alive rounds, ordered by round
  /// Decision service: the highest instance any life proposed in, -1
  /// for none. This life never runs an instance at or below it.
  std::int64_t tainted_max = -1;

  WalRound* find(int round);
  const WalRound* find(int round) const;
  /// Record for `round`, created in order if absent.
  WalRound& at(int round);
};

/// Calls `fn` for each record of the log at `path`, in order, up to the
/// first short or bad-checksum record. Returns the byte length of that
/// valid prefix (0 for an absent file). Read-only.
std::size_t scan_wal(const std::string& path,
                     const std::function<void(const WalRecord&)>& fn);

/// Folds the log at `path` into `*wal` and truncates the file after its
/// valid prefix. False, with `*wal` untouched, when no life left an
/// incarnation record: an absent or empty file is a first boot.
bool load_node_wal(const std::string& path, NodeWal* wal);

/// Append handle on a node's log: one write(2) per record on an
/// O_APPEND descriptor. A default-constructed writer has no log (the
/// node runs without recovery) and appends nothing. A failed open or a
/// failed or short write aborts the node: a crash is in the model, a
/// lost taint record is not.
class WalWriter {
 public:
  WalWriter() = default;
  explicit WalWriter(const std::string& path);
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  void append(const WalRecord& r);

 private:
  int fd_ = -1;
};

/// The boot step both node kinds share, before any socket or wire
/// activity: loads the log (a restart bumps the incarnation past the
/// previous life's) and appends this life's incarnation record, so a
/// life that dies during recovery still comes back as a newer one.
WalWriter recover_node_wal(const std::string& path, NodeWal* wal);

// ---------------------------------------------------------------------
// Kill schedule.

/// One scheduled SIGKILL: `victim` dies at `at_ms` (wall offset from
/// cluster launch) and is re-forked `restart_after_ms` later.
struct ChaosKill {
  Time at_ms = 0;
  ProcessId victim = -1;
  Time restart_after_ms = 0;
};

struct ChaosConfig {
  /// SIGKILL/restart cycles scheduled across the run (victims drawn
  /// uniformly from the launched ids, offsets spread over the window).
  int kills = 0;
  /// Wall window [start, start + span) the kill offsets are spread
  /// over. Keep the span inside the expected run duration so kills land
  /// mid-round; a kill whose victim already exited is skipped.
  Time window_start_ms = 150;
  Time window_span_ms = 1000;
  Time restart_delay_ms = 250;
  /// fault::LinkFaultModel spec (profile name or inline grammar)
  /// installed on every node's real UDP link — drop/dup/burst plus
  /// timed one-way partitions, at frame-attempt granularity. Partition
  /// windows are in node-lifetime milliseconds.
  std::string faults;
  std::uint64_t seed = 1;  ///< schedule + per-node fault streams

  bool enabled() const { return kills > 0 || !faults.empty(); }
};

/// Deterministic schedule: same config + same (n, crash) => same kills,
/// sorted by offset. Victims lie in [crash, n).
std::vector<ChaosKill> make_kill_schedule(const ChaosConfig& cfg, int n,
                                          int crash);

/// One kill/restart as it actually happened (rt/cluster records these).
struct ChaosEvent {
  ProcessId victim = -1;
  Time killed_at_ms = 0;
  Time restarted_at_ms = kNeverTime;  ///< kNeverTime: never restarted
};

// ---------------------------------------------------------------------
// Round verdicts.

/// Verdict for one keep-alive round of a cluster run, using the sweep
/// vocabulary (fault/verdict.h):
///   * agreement/validity break, link faults corrupt payloads
///                                             => VIOLATION_EXPLAINED
///   * agreement/validity break otherwise      => VIOLATION_IN_MODEL
///     (kills are inside the WAL recovery model, and retransmission
///     hides drop, dup, burst loss and partitions)
///   * termination miss, chaos active          => VIOLATION_EXPLAINED
///     (a kill within the budget explains the missing decision); a
///     killed node's own undecided rounds are excused entirely — the
///     model owes nothing for crashed processes;
///   * termination miss, clean run             => TIMED_OUT
///   * all held, chaos active                  => SAFE_OUT_OF_MODEL
///   * all held, clean run                     => SAFE_IN_MODEL
/// Cluster-level failures map whole-run: wall-budget kill => TIMED_OUT,
/// anything else (fork/parse errors) => WORKER_ERROR.
struct RtRoundVerdict {
  int round = -1;
  fault::Verdict verdict = fault::Verdict::kSafeInModel;
  std::string detail;  ///< first broken expectation, empty when safe
};

std::vector<RtRoundVerdict> classify_rt_rounds(const ClusterConfig& cfg,
                                               const ClusterResult& res);

// ---------------------------------------------------------------------
// Live sweep driver (sweep_runner --rt).

struct RtSweepOptions {
  std::string protocol = "kset";
  int n = 5;
  int t = 2;
  int k = 2;
  std::uint16_t base_port = 47700;
  int runs = 10;            ///< cluster invocations (grid points cycle)
  int rounds_per_run = 20;  ///< keep-alive rounds per invocation
  Time run_for_ms = 5000;
  Time linger_ms = 250;
  /// Grid axes: fault profiles ("" = clean) x kills per run x
  /// heartbeat parameter sets. Run i uses point i % |grid|.
  std::vector<std::string> fault_profiles{""};
  std::vector<int> kills{0};
  std::vector<HeartbeatParams> hb_grid{HeartbeatParams{}};
  Time restart_delay_ms = 250;
  Time kill_window_start_ms = 150;
  Time kill_window_span_ms = 600;
  std::uint64_t seed = 1;
  std::string out_dir = "rt_sweep_out";
  bool trace = false;  ///< per-run node traces + merged trace artifact
  /// Checkpoint/resume, same discipline as check/fault_sweep: records
  /// are index-addressed, the file is written atomically every
  /// `checkpoint_every` runs, and --resume skips completed records
  /// after a config-fingerprint match.
  std::string checkpoint_path;
  bool resume = false;
  int checkpoint_every = 1;
  /// Cooperative stop (SIGTERM/SIGINT): checked between runs; a set
  /// flag checkpoints and returns with `interrupted`.
  const std::atomic<bool>* stop = nullptr;
};

struct RtSweepRunRecord {
  bool done = false;
  int run = -1;
  std::string faults;  ///< grid point: fault profile ("" = clean)
  int kills = 0;       ///< grid point: scheduled kill/restart cycles
  Time hb_period = 0;  ///< grid point: heartbeat period
  int verdict_counts[fault::kVerdictCount] = {};
  int rounds = 0;
  Time wall_ms = 0;
  double rounds_per_sec = 0.0;
  /// Cluster-level decision latency per decided round (max across
  /// nodes) — the sweep's p50/p99 source.
  std::vector<double> decision_ms;
};

struct RtSweepReport {
  std::vector<RtSweepRunRecord> records;
  int verdict_histogram[fault::kVerdictCount] = {};
  int completed = 0;
  bool interrupted = false;
  double rounds_per_sec = 0.0;  ///< aggregate over completed runs
  double decision_p50_ms = 0.0;
  double decision_p99_ms = 0.0;
  std::string merged_trace_path;  ///< last traced run's merged trace

  int count(fault::Verdict v) const {
    return verdict_histogram[static_cast<int>(v)];
  }
  /// True iff any round earned a failing verdict (VIOLATION_IN_MODEL /
  /// WORKER_ERROR) — the CI gate.
  bool failed() const {
    return count(fault::Verdict::kViolationInModel) > 0 ||
           count(fault::Verdict::kWorkerError) > 0;
  }
};

/// Runs the grid; throws std::invalid_argument on a checkpoint that
/// does not match the options fingerprint.
RtSweepReport rt_sweep(const RtSweepOptions& opts);

/// Flat JSON of a sweep report (sweep_runner --rt's --out-dir output).
std::string rt_sweep_report_json(const RtSweepOptions& opts,
                                 const RtSweepReport& rep);

// ---------------------------------------------------------------------
// Shared helpers.

/// True iff `line` looks like one complete JSONL record ("{...}"). The
/// cluster trace merge and trace_tool use this to skip — with a stderr
/// warning — the torn line a SIGKILLed node leaves at the end (or,
/// after an append-mode restart, the middle) of its trace file.
bool jsonl_line_complete(const std::string& line);

}  // namespace saf::rt
