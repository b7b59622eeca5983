#include "rt/chaos.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <stdexcept>

#include "fault/fault_spec.h"
#include "rt/cluster.h"
#include "sweep/bench_json.h"
#include "util/check.h"
#include "util/rng.h"

namespace saf::rt {

namespace {

double flat_get(const sweep::FlatJson& j, const std::string& key,
                double fallback = 0.0) {
  const auto it = j.find(key);
  return it == j.end() ? fallback : it->second;
}

/// FNV-1a over a string — the checkpoint config fingerprint.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

// ---------------------------------------------------------------------
// Node write-ahead log.

namespace {

constexpr std::size_t kWalBodyBytes = kWalRecordBytes - 4;

void put_le(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t get_le(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

/// FNV-1a (32-bit) over a record's body. An all-zero body does not hash
/// to 0, so a zero-filled block (a file extended but never written)
/// fails the check.
std::uint32_t wal_checksum(const std::uint8_t* p) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < kWalBodyBytes; ++i) {
    h ^= p[i];
    h *= 16777619u;
  }
  return h;
}

void encode_wal_record(const WalRecord& r, std::uint8_t* out) {
  std::memset(out, 0, kWalRecordBytes);
  out[0] = static_cast<std::uint8_t>(r.kind);
  put_le(out + 4, r.m, 4);
  put_le(out + 8, static_cast<std::uint64_t>(r.v), 8);
  put_le(out + 16, static_cast<std::uint32_t>(r.decision_ms), 4);
  put_le(out + 20, static_cast<std::uint32_t>(r.decision_round), 4);
  put_le(out + 24, static_cast<std::uint32_t>(r.elapsed_ms), 4);
  put_le(out + kWalBodyBytes, wal_checksum(out), 4);
}

bool decode_wal_record(const std::uint8_t* in, WalRecord* r) {
  if (get_le(in + kWalBodyBytes, 4) != wal_checksum(in)) return false;
  if (in[0] < static_cast<std::uint8_t>(WalKind::kIncarnation) ||
      in[0] > static_cast<std::uint8_t>(WalKind::kProposed) || in[1] != 0 ||
      in[2] != 0 || in[3] != 0) {
    return false;
  }
  r->kind = static_cast<WalKind>(in[0]);
  r->m = static_cast<std::uint32_t>(get_le(in + 4, 4));
  r->v = static_cast<std::int64_t>(get_le(in + 8, 8));
  r->decision_ms = static_cast<std::int32_t>(get_le(in + 16, 4));
  r->decision_round = static_cast<std::int32_t>(get_le(in + 20, 4));
  r->elapsed_ms = static_cast<std::int32_t>(get_le(in + 24, 4));
  return true;
}

}  // namespace

WalRecord WalRecord::incarnation(std::uint32_t inc) {
  WalRecord r;
  r.kind = WalKind::kIncarnation;
  r.m = inc;
  return r;
}

WalRecord WalRecord::taint(int round) {
  WalRecord r;
  r.kind = WalKind::kTaint;
  r.m = static_cast<std::uint32_t>(round);
  return r;
}

WalRecord WalRecord::delivered(int round) {
  WalRecord r;
  r.kind = WalKind::kDelivered;
  r.m = static_cast<std::uint32_t>(round);
  return r;
}

WalRecord WalRecord::decided(int round, std::int64_t value, Time decision_ms,
                             int decision_round, Time elapsed_ms) {
  WalRecord r;
  r.kind = WalKind::kDecided;
  r.m = static_cast<std::uint32_t>(round);
  r.v = value;
  r.decision_ms = static_cast<std::int32_t>(decision_ms);
  r.decision_round = decision_round;
  r.elapsed_ms = static_cast<std::int32_t>(elapsed_ms);
  return r;
}

WalRecord WalRecord::proposed(int instance, std::int64_t value) {
  WalRecord r;
  r.kind = WalKind::kProposed;
  r.m = static_cast<std::uint32_t>(instance);
  r.v = value;
  return r;
}

WalRound* NodeWal::find(int round) {
  for (WalRound& r : rounds) {
    if (r.round == round) return &r;
  }
  return nullptr;
}

const WalRound* NodeWal::find(int round) const {
  for (const WalRound& r : rounds) {
    if (r.round == round) return &r;
  }
  return nullptr;
}

WalRound& NodeWal::at(int round) {
  // Records arrive in round order, so the newest round is the usual hit.
  if (!rounds.empty() && rounds.back().round == round) return rounds.back();
  if (WalRound* r = find(round)) return *r;
  rounds.push_back({});
  rounds.back().round = round;
  return rounds.back();
}

std::size_t scan_wal(const std::string& path,
                     const std::function<void(const WalRecord&)>& fn) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  std::size_t valid = 0;
  std::vector<std::uint8_t> buf(kWalRecordBytes * 2048);
  std::size_t have = 0;  // bytes buffered, not yet decoded
  for (;;) {
    const ssize_t got = ::read(fd, buf.data() + have, buf.size() - have);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // end of file (a short tail stays undecoded)
    have += static_cast<std::size_t>(got);
    std::size_t at = 0;
    bool bad = false;
    for (; at + kWalRecordBytes <= have; at += kWalRecordBytes) {
      WalRecord r;
      if (!decode_wal_record(buf.data() + at, &r)) {
        bad = true;
        break;
      }
      fn(r);
      valid += kWalRecordBytes;
    }
    if (bad) break;
    std::memmove(buf.data(), buf.data() + at, have - at);
    have -= at;
  }
  ::close(fd);
  return valid;
}

bool load_node_wal(const std::string& path, NodeWal* wal) {
  NodeWal folded;
  bool any_life = false;
  const std::size_t valid = scan_wal(path, [&](const WalRecord& r) {
    switch (r.kind) {
      case WalKind::kIncarnation:
        folded.incarnation = r.m;
        any_life = true;
        break;
      case WalKind::kTaint:
        folded.at(static_cast<int>(r.m)).externalized = true;
        break;
      case WalKind::kDelivered:
        folded.at(static_cast<int>(r.m)).delivered = true;
        break;
      case WalKind::kDecided: {
        WalRound& wr = folded.at(static_cast<int>(r.m));
        wr.decided = true;
        wr.decision = r.v;
        wr.decision_ms = r.decision_ms;
        wr.decision_round = r.decision_round;
        wr.elapsed_ms = r.elapsed_ms;
        break;
      }
      case WalKind::kProposed:
        folded.tainted_max =
            std::max<std::int64_t>(folded.tainted_max, r.m);
        break;
    }
  });
  // Cut a torn or garbled tail, so the next append lands right after
  // the last good record instead of behind bytes no load gets past.
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 &&
      static_cast<std::size_t>(st.st_size) > valid) {
    SAF_CHECK_MSG(::truncate(path.c_str(), static_cast<off_t>(valid)) == 0,
                  "load_node_wal: cannot truncate the torn tail");
  }
  if (!any_life) return false;
  *wal = std::move(folded);
  return true;
}

WalWriter::WalWriter(const std::string& path)
    : fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644)) {
  SAF_CHECK_MSG(fd_ >= 0, "WalWriter: cannot open the log");
}

WalWriter::WalWriter(WalWriter&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void WalWriter::append(const WalRecord& r) {
  if (fd_ < 0) return;
  std::uint8_t rec[kWalRecordBytes];
  encode_wal_record(r, rec);
  ssize_t put = -1;
  do {
    put = ::write(fd_, rec, sizeof rec);
  } while (put < 0 && errno == EINTR);
  SAF_CHECK_MSG(put == static_cast<ssize_t>(sizeof rec),
                "WalWriter: short or failed append");
}

WalWriter recover_node_wal(const std::string& path, NodeWal* wal) {
  if (load_node_wal(path, wal)) wal->incarnation += 1;
  WalWriter log(path);
  log.append(WalRecord::incarnation(wal->incarnation));
  return log;
}

// ---------------------------------------------------------------------
// Kill schedule.

std::vector<ChaosKill> make_kill_schedule(const ChaosConfig& cfg, int n,
                                          int crash) {
  SAF_CHECK(n >= 2 && crash >= 0 && crash < n);
  std::vector<ChaosKill> kills;
  if (cfg.kills <= 0) return kills;
  util::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
  const Time span = cfg.window_span_ms > 0 ? cfg.window_span_ms : 1;
  const Time slice = span / cfg.kills > 0 ? span / cfg.kills : 1;
  for (int i = 0; i < cfg.kills; ++i) {
    ChaosKill k;
    // Stratified offsets: one kill per slice of the window, jittered
    // inside it, so repeated kills spread across the run instead of
    // clustering (and never land at launch — window_start_ms > 0).
    k.at_ms = cfg.window_start_ms + static_cast<Time>(i) * slice +
              rng.uniform(0, slice - 1);
    k.victim = static_cast<ProcessId>(rng.uniform(crash, n - 1));
    k.restart_after_ms = cfg.restart_delay_ms;
    kills.push_back(k);
  }
  std::sort(kills.begin(), kills.end(),
            [](const ChaosKill& a, const ChaosKill& b) {
              return a.at_ms != b.at_ms ? a.at_ms < b.at_ms
                                        : a.victim < b.victim;
            });
  return kills;
}

// ---------------------------------------------------------------------
// Round verdicts.

std::vector<RtRoundVerdict> classify_rt_rounds(const ClusterConfig& cfg,
                                               const ClusterResult& res) {
  const bool chaos_active = cfg.chaos.enabled();
  std::vector<RtRoundVerdict> out;
  out.reserve(static_cast<std::size_t>(cfg.rounds));

  if (!res.ok) {
    // Cluster-level failure: nothing finer than whole-run is knowable.
    const bool timed_out = res.detail.rfind("wall budget", 0) == 0;
    for (int r = 0; r < cfg.rounds; ++r) {
      out.push_back({r,
                     timed_out ? fault::Verdict::kTimedOut
                               : fault::Verdict::kWorkerError,
                     res.detail});
    }
    return out;
  }

  if (cfg.protocol != "kset") {
    // wheels has no per-round decisions; classify the run's end-state
    // contract as one verdict replicated per round.
    const bool broke = !res.violations.empty();
    fault::Verdict v;
    if (broke) {
      v = chaos_active ? fault::Verdict::kViolationExplained
                       : fault::Verdict::kViolationInModel;
    } else {
      v = chaos_active ? fault::Verdict::kSafeOutOfModel
                       : fault::Verdict::kSafeInModel;
    }
    for (int r = 0; r < cfg.rounds; ++r) {
      out.push_back({r, v, broke ? res.violations.front() : ""});
    }
    return out;
  }

  // Only payload corruption explains a safety break. Kills are inside
  // the recovery model (the WAL taint), and the link's retransmission
  // and dedup hide drop, dup, burst loss and partitions.
  const bool corrupting =
      !cfg.chaos.faults.empty() &&
      fault::parse_fault_spec(cfg.chaos.faults).link.corrupt > 0;

  std::set<std::int64_t> proposed;
  for (ProcessId id = cfg.crash; id < cfg.n; ++id) {
    proposed.insert(100 + id);  // run_node's default proposal
  }

  for (int round = 0; round < cfg.rounds; ++round) {
    RtRoundVerdict rv;
    rv.round = round;
    std::set<std::int64_t> decided_values;
    bool validity = true;
    bool termination = true;
    bool kill_excused = false;
    for (const ClusterNodeOutcome& node : res.nodes) {
      if (!node.launched) continue;
      const std::size_t r = static_cast<std::size_t>(round);
      if (r >= node.rounds.size() || !node.rounds[r].decided) {
        // A killed node's missing decisions are the crash the model
        // already prices in; everyone else's are a termination miss.
        if (node.kills > 0) {
          kill_excused = true;
        } else {
          termination = false;
        }
        continue;
      }
      decided_values.insert(node.rounds[r].decision);
      if (proposed.count(node.rounds[r].decision) == 0) validity = false;
    }
    const bool agreement =
        static_cast<int>(decided_values.size()) <= cfg.k;
    if (!agreement || !validity) {
      rv.detail = !agreement
                      ? "agreement: " +
                            std::to_string(decided_values.size()) +
                            " distinct decisions > k"
                      : "validity: decided a never-proposed value";
      rv.verdict = corrupting ? fault::Verdict::kViolationExplained
                              : fault::Verdict::kViolationInModel;
    } else if (!termination) {
      if (chaos_active) {
        rv.detail = "termination: missed under chaos (kills/link faults)";
        rv.verdict = fault::Verdict::kViolationExplained;
      } else {
        rv.detail = "termination: round budget exhausted";
        rv.verdict = fault::Verdict::kTimedOut;
      }
    } else if (chaos_active || kill_excused) {
      rv.verdict = fault::Verdict::kSafeOutOfModel;
    } else {
      rv.verdict = fault::Verdict::kSafeInModel;
    }
    out.push_back(std::move(rv));
  }
  return out;
}

// ---------------------------------------------------------------------
// Live sweep driver.

namespace {

struct GridPoint {
  std::string faults;
  int kills = 0;
  HeartbeatParams hb;
};

std::vector<GridPoint> build_grid(const RtSweepOptions& opts) {
  std::vector<GridPoint> grid;
  for (const std::string& f : opts.fault_profiles) {
    for (const int kills : opts.kills) {
      for (const HeartbeatParams& hb : opts.hb_grid) {
        grid.push_back({f, kills, hb});
      }
    }
  }
  return grid;
}

std::uint64_t sweep_fingerprint(const RtSweepOptions& opts) {
  std::string s = "saf-rt-sweep-v1|" + opts.protocol + "|" +
                  std::to_string(opts.n) + "|" + std::to_string(opts.t) +
                  "|" + std::to_string(opts.k) + "|" +
                  std::to_string(opts.runs) + "|" +
                  std::to_string(opts.rounds_per_run) + "|" +
                  std::to_string(opts.run_for_ms) + "|" +
                  std::to_string(opts.seed) + "|";
  for (const std::string& f : opts.fault_profiles) s += f + ",";
  s += "|";
  for (const int k : opts.kills) s += std::to_string(k) + ",";
  s += "|";
  for (const HeartbeatParams& hb : opts.hb_grid) {
    s += std::to_string(hb.hb_period) + "/" +
         std::to_string(hb.timeout_initial) + ",";
  }
  return fnv1a(s);
}

std::string checkpoint_json(const RtSweepOptions& opts,
                            const std::vector<RtSweepRunRecord>& records) {
  sweep::JsonWriter w;
  w.begin_object();
  w.key("schema_v").value(1);
  w.key("fingerprint").value(sweep_fingerprint(opts));
  w.key("records").begin_array();
  for (const RtSweepRunRecord& r : records) {
    w.begin_object();
    w.key("run").value(r.run);
    w.key("done").value(r.done);
    w.key("rounds").value(r.rounds);
    w.key("wall_ms").value(static_cast<std::int64_t>(r.wall_ms));
    w.key("rounds_per_sec").value(r.rounds_per_sec);
    w.key("verdicts").begin_array();
    for (int i = 0; i < fault::kVerdictCount; ++i) {
      w.value(r.verdict_counts[i]);
    }
    w.end_array();
    w.key("decisions").begin_array();
    for (const double d : r.decision_ms) w.value(d);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// Restores completed records from a checkpoint; throws
/// std::invalid_argument on a fingerprint/shape mismatch.
void load_checkpoint(const RtSweepOptions& opts,
                     std::vector<RtSweepRunRecord>* records) {
  sweep::FlatJson j;
  try {
    j = sweep::load_json_numbers(opts.checkpoint_path);
  } catch (const std::exception& e) {
    throw std::invalid_argument("rt_sweep checkpoint unreadable: " +
                                std::string(e.what()));
  }
  const auto fp = j.find("fingerprint");
  if (fp == j.end() ||
      static_cast<std::uint64_t>(fp->second) !=
          static_cast<std::uint64_t>(
              static_cast<double>(sweep_fingerprint(opts)))) {
    throw std::invalid_argument(
        "rt_sweep checkpoint does not match the sweep configuration "
        "(different grid/seed/budget?): " +
        opts.checkpoint_path);
  }
  for (std::size_t i = 0; i < records->size(); ++i) {
    const std::string p = "records." + std::to_string(i) + ".";
    if (flat_get(j, p + "done") == 0.0) continue;
    RtSweepRunRecord& r = (*records)[i];
    r.done = true;
    r.rounds = static_cast<int>(flat_get(j, p + "rounds"));
    r.wall_ms = static_cast<Time>(flat_get(j, p + "wall_ms"));
    r.rounds_per_sec = flat_get(j, p + "rounds_per_sec");
    for (int v = 0; v < fault::kVerdictCount; ++v) {
      r.verdict_counts[v] = static_cast<int>(
          flat_get(j, p + "verdicts." + std::to_string(v)));
    }
    r.decision_ms.clear();
    for (int d = 0;; ++d) {
      const auto it = j.find(p + "decisions." + std::to_string(d));
      if (it == j.end()) break;
      r.decision_ms.push_back(it->second);
    }
  }
}

}  // namespace

RtSweepReport rt_sweep(const RtSweepOptions& opts) {
  SAF_CHECK(opts.runs >= 1);
  SAF_CHECK(opts.rounds_per_run >= 1);
  SAF_CHECK(!opts.fault_profiles.empty() && !opts.kills.empty() &&
            !opts.hb_grid.empty());
  const std::vector<GridPoint> grid = build_grid(opts);

  RtSweepReport rep;
  rep.records.resize(static_cast<std::size_t>(opts.runs));
  for (int i = 0; i < opts.runs; ++i) {
    RtSweepRunRecord& r = rep.records[static_cast<std::size_t>(i)];
    const GridPoint& pt = grid[static_cast<std::size_t>(i) % grid.size()];
    r.run = i;
    r.faults = pt.faults;
    r.kills = pt.kills;
    r.hb_period = pt.hb.hb_period;
  }

  const bool checkpointing = !opts.checkpoint_path.empty();
  if (checkpointing && opts.resume) {
    load_checkpoint(opts, &rep.records);
  }

  int since_checkpoint = 0;
  const auto maybe_checkpoint = [&](bool force) {
    if (!checkpointing) return;
    if (!force && ++since_checkpoint < opts.checkpoint_every) return;
    since_checkpoint = 0;
    sweep::write_file_atomic(opts.checkpoint_path,
                             checkpoint_json(opts, rep.records));
  };

  for (int i = 0; i < opts.runs; ++i) {
    RtSweepRunRecord& rec = rep.records[static_cast<std::size_t>(i)];
    if (rec.done) continue;
    if (opts.stop != nullptr && opts.stop->load()) {
      rep.interrupted = true;
      break;
    }
    const GridPoint& pt = grid[static_cast<std::size_t>(i) % grid.size()];

    ClusterConfig ccfg;
    ccfg.protocol = opts.protocol;
    ccfg.n = opts.n;
    ccfg.t = opts.t;
    ccfg.k = opts.k;
    ccfg.crash = 0;  // chaos crashes mid-run instead of at launch
    ccfg.base_port = opts.base_port;
    ccfg.seed = opts.seed + static_cast<std::uint64_t>(i);
    ccfg.run_for_ms = opts.run_for_ms;
    ccfg.linger_ms = opts.linger_ms;
    ccfg.rounds = opts.rounds_per_run;
    ccfg.hb = pt.hb;
    ccfg.out_dir = opts.out_dir;
    ccfg.trace = opts.trace;
    ccfg.stop = opts.stop;
    ccfg.chaos.kills = pt.kills;
    ccfg.chaos.faults = pt.faults;
    ccfg.chaos.restart_delay_ms = opts.restart_delay_ms;
    ccfg.chaos.window_start_ms = opts.kill_window_start_ms;
    ccfg.chaos.window_span_ms = opts.kill_window_span_ms;
    ccfg.chaos.seed = opts.seed * 0x100000001b3ULL +
                      static_cast<std::uint64_t>(i);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<RtRoundVerdict> verdicts;
    try {
      const ClusterResult res = run_cluster(ccfg);
      if (res.interrupted) {
        rep.interrupted = true;
        break;
      }
      verdicts = classify_rt_rounds(ccfg, res);
      for (int round = 0; round < ccfg.rounds; ++round) {
        Time slowest = kNeverTime;
        for (const ClusterNodeOutcome& node : res.nodes) {
          const std::size_t r = static_cast<std::size_t>(round);
          if (!node.launched || r >= node.rounds.size() ||
              !node.rounds[r].decided) {
            continue;
          }
          slowest = std::max(slowest, node.rounds[r].decision_ms);
        }
        if (slowest != kNeverTime) {
          rec.decision_ms.push_back(static_cast<double>(slowest));
        }
      }
      if (!res.merged_trace_path.empty()) {
        rep.merged_trace_path = res.merged_trace_path;
      }
    } catch (const std::exception&) {
      verdicts.assign(static_cast<std::size_t>(ccfg.rounds),
                      {0, fault::Verdict::kWorkerError, "run_cluster threw"});
    }
    const auto t1 = std::chrono::steady_clock::now();
    rec.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      t1 - t0)
                      .count();
    rec.rounds = static_cast<int>(verdicts.size());
    for (const RtRoundVerdict& v : verdicts) {
      ++rec.verdict_counts[static_cast<int>(v.verdict)];
    }
    rec.rounds_per_sec =
        rec.wall_ms > 0
            ? static_cast<double>(rec.rounds) * 1000.0 /
                  static_cast<double>(rec.wall_ms)
            : 0.0;
    rec.done = true;
    maybe_checkpoint(false);
  }

  // Aggregates over completed runs.
  std::vector<double> all_decisions;
  Time total_wall = 0;
  int total_rounds = 0;
  for (const RtSweepRunRecord& r : rep.records) {
    if (!r.done) continue;
    ++rep.completed;
    for (int v = 0; v < fault::kVerdictCount; ++v) {
      rep.verdict_histogram[v] += r.verdict_counts[v];
    }
    total_wall += r.wall_ms;
    total_rounds += r.rounds;
    all_decisions.insert(all_decisions.end(), r.decision_ms.begin(),
                         r.decision_ms.end());
  }
  rep.rounds_per_sec =
      total_wall > 0 ? static_cast<double>(total_rounds) * 1000.0 /
                           static_cast<double>(total_wall)
                     : 0.0;
  rep.decision_p50_ms = percentile(all_decisions, 0.50);
  rep.decision_p99_ms = percentile(all_decisions, 0.99);

  maybe_checkpoint(true);
  return rep;
}

std::string rt_sweep_report_json(const RtSweepOptions& opts,
                                 const RtSweepReport& rep) {
  sweep::JsonWriter w;
  w.begin_object();
  w.key("schema").value("saf-rt-sweep-v1");
  w.key("protocol").value(opts.protocol);
  w.key("n").value(opts.n);
  w.key("runs").value(opts.runs);
  w.key("rounds_per_run").value(opts.rounds_per_run);
  w.key("completed").value(rep.completed);
  w.key("interrupted").value(rep.interrupted);
  w.key("failed").value(rep.failed());
  w.key("rounds_per_sec").value(rep.rounds_per_sec);
  w.key("decision_p50_ms").value(rep.decision_p50_ms);
  w.key("decision_p99_ms").value(rep.decision_p99_ms);
  w.key("verdicts").begin_object();
  for (int v = 0; v < fault::kVerdictCount; ++v) {
    w.key(fault::verdict_name(static_cast<fault::Verdict>(v)))
        .value(rep.verdict_histogram[v]);
  }
  w.end_object();
  if (!rep.merged_trace_path.empty()) {
    w.key("merged_trace").value(rep.merged_trace_path);
  }
  w.end_object();
  return w.str();
}

// ---------------------------------------------------------------------
// Shared helpers.

bool jsonl_line_complete(const std::string& line) {
  return line.size() >= 2 && line.front() == '{' && line.back() == '}';
}

}  // namespace saf::rt
