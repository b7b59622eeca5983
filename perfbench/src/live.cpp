// Live workloads: the svc decision service under an open-loop load
// (svc-steady, svc-kill) and keep-alive k-set rounds (rt-rounds), both
// on forked loopback clusters launched through rt::run_cluster.
//
// A run first times set-up on many short clusters, then runs several
// measured cluster lifetimes. Each lifetime forks a fresh cluster, so a
// run's figures pool lifetimes rather than resting on one.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen.h"
#include "measure.h"
#include "report.h"
#include "rt/clock.h"
#include "rt/cluster.h"
#include "rt/udp_link.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "sweep/bench_json.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using saf::ProcessId;
using saf::rt::ClusterConfig;
using saf::rt::ClusterResult;
using saf::sweep::FlatJson;

// Cluster shape shared by every live workload: the largest cluster with
// t < n/2 that leaves one of four cores for the generator.
constexpr int kN = 3;
constexpr int kT = 1;
constexpr int kK = 1;

// svc load model (README.md, "Load model").
constexpr int kEndpoints = 3;          ///< one client endpoint per server
/// Client slots per endpoint: each failover moves to a fresh one; the
/// servers reserve kEndpoints * kSlotsPerEndpoint slots.
constexpr int kSlotsPerEndpoint = 16;
constexpr double kRatePerS = 4000;     ///< open-loop arrival rate
constexpr double kLimitMs = 50;        ///< latency limit
/// Failover after this long without an answer: three latency limits, so
/// a live but slow server is not abandoned, and short enough that a
/// killed server's requests stay a small share of a lifetime's load.
constexpr double kResubmitMs = 150;
/// Target load per lifetime. A cluster lifetime has a personality — the
/// phase of the three nodes' millisecond timers decides its pipeline
/// rate, and lifetimes of one seed differ by up to ~12% in decisions/s —
/// so a run holds several and reports medians over them. svc-kill's are
/// longer so that its kill stall stays well below the p90 tail.
constexpr double kSteadyLoadMs = 2000;
constexpr double kKillLoadMs = 3000;
constexpr double kReadyBudgetMs = 200;  ///< probe phase allowance
constexpr double kDrainMs = 250;       ///< wait for stragglers after load
constexpr saf::Time kLingerMs = 100;
/// Fresh probes per endpoint while the cluster starts. Probing every
/// 0.25 ms put 5-20% of set-ups into the link's 20 ms retransmission
/// mode, and that share, and with it the median, moved between runs;
/// every 1 ms it is 1-3%.
constexpr double kProbeEveryMs = 1.0;
constexpr int kMaxProbesInFlight = 32;
/// Set-up samples per run: clusters stopped at their first answer
/// (setup_cycle), about 14 ms each. Set-up is bimodal — most clusters
/// answer within 2-9 ms, a few after the link's 20 ms first
/// retransmission — and lumpy at the nodes' 1 ms tick, so a median
/// needs many samples: over 60 it moved by a tenth between runs.
constexpr int kSetupCycles = 400;
/// svc-kill: the follower's kill falls this far into the lifetime, and
/// it restarts after kRestartMs.
constexpr saf::Time kKillAtMs = 400;
constexpr saf::Time kRestartMs = 300;

// rt-rounds sizing.
/// Keep-alive rounds per lifetime. Lifetimes differ in rate (the phase
/// of the nodes' millisecond timers), and the tail of pooled round
/// blocks follows the mix of slow lifetimes in a run: with 1000 rounds
/// (about 20 lifetimes a run) its quartile spread read 0.05-0.11 over
/// sets of ten runs.
constexpr int kRounds = 500;
constexpr int kRoundBlock = 50;  ///< rounds per block-mean sample
/// One-round set-up clusters run before each lifetime (about 30 ms
/// each; some 250 per 40 s run), and their post-decision linger.
constexpr int kRoundsSetupBatch = 7;
constexpr saf::Time kSetupLingerMs = 20;

std::uint16_t base_port(std::uint64_t seed, const char* workload, int life) {
  const std::uint64_t h = saf::util::derive_seed(seed, workload);
  // Below the Linux ephemeral range; lifetimes alternate port blocks.
  return static_cast<std::uint16_t>(20000 + 20 * (h % 600) + 10 * (life % 2));
}

/// Sums of the numeric counters in every launched node's result JSON,
/// plus each node's decided log.
struct NodeTotals {
  std::map<std::string, double> sum;
  std::vector<std::vector<std::int64_t>> logs;  ///< svc only
  double max_frontier = 0;
  double frontier_elapsed_ms = 0;  ///< elapsed of the max-frontier node

  double operator[](const std::string& k) const {
    const auto it = sum.find(k);
    return it == sum.end() ? 0.0 : it->second;
  }
};

constexpr const char* kCounterKeys[] = {
    "events_processed",      "heartbeats_sent",     "total_elapsed_ms",
    "datagrams_sent",        "datagrams_received",  "frames_sent",
    "frames_received",       "syscalls_send",       "syscalls_recv",
    "retransmits",           "stale_dropped",       "window_stalls",
    "peer_restarts",         "svc_frontier",        "svc_locally_decided",
    "svc_snapshot_adopted",  "svc_snap_requests",   "svc_snaps_served",
    "svc_proposals_received", "svc_proposals_served", "svc_batches"};

NodeTotals read_nodes(const ClusterConfig& cfg, const ClusterResult& res,
                      bool want_logs, Outcome* out) {
  NodeTotals t;
  for (const saf::rt::ClusterNodeOutcome& node : res.nodes) {
    if (!node.launched) continue;
    FlatJson j;
    try {
      j = saf::sweep::load_json_numbers(
          saf::rt::cluster_node_result_path(cfg, node.id));
    } catch (const std::exception& e) {
      out->fail("node " + std::to_string(node.id) + " result: " + e.what());
      continue;
    }
    const auto get = [&](const std::string& k) {
      const auto it = j.find(k);
      return it == j.end() ? 0.0 : it->second;
    };
    for (const char* k : kCounterKeys) t.sum[k] += get(k);
    const double frontier = get("svc_frontier");
    if (frontier > t.max_frontier) {
      t.max_frontier = frontier;
      t.frontier_elapsed_ms = get("total_elapsed_ms");
    }
    if (want_logs) {
      std::vector<std::int64_t> log;
      const auto len = static_cast<std::size_t>(frontier);
      log.reserve(len);
      for (std::size_t i = 0; i < len; ++i) {
        const auto it = j.find("svc_decisions." + std::to_string(i));
        if (it == j.end()) break;  // the contract reports the hole
        log.push_back(static_cast<std::int64_t>(it->second));
      }
      t.logs.push_back(std::move(log));
    }
  }
  return t;
}

/// Adds `b`'s counters and max frontier into `a` (logs and the
/// frontier's elapsed time stay per lifetime).
void accumulate(NodeTotals* a, const NodeTotals& b) {
  for (const auto& [k, v] : b.sum) a->sum[k] += v;
  a->max_frontier += b.max_frontier;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One SCHED_IDLE polling thread per CPU for the duration of a live
/// run. A live node sleeps in epoll between messages, and on a virtual
/// machine an idle vCPU halts: each wakeup then waits for the hypervisor
/// to reschedule the vCPU, which made round and request latency follow
/// the host's load (back-to-back rt-rounds runs read 500-660 rounds/s).
/// Pollers keep every vCPU running, so a wakeup is a guest context
/// switch: SCHED_IDLE threads yield to any runnable node at once and
/// their own CPU is counted nowhere. The figures are therefore those of
/// a host whose vCPUs never halt; the traced run repeats the workload
/// without them (RunOptions::spin) and reports the unspun latency.
class Spinners {
 public:
  Spinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param sp{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~Spinners() {
    stop_ = true;
    for (auto& t : threads_) t.join();
  }
  Spinners(const Spinners&) = delete;
  Spinners& operator=(const Spinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// One stderr line on a run's set-up samples (none in a traced part).
void log_setup(const std::vector<double>& setup_s, double took_ms) {
  if (setup_s.empty()) return;
  std::fprintf(stderr,
               "perfbench: set-up: %zu clusters in %.0f ms, ready p25 %.2f "
               "p50 %.2f p75 %.2f ms\n",
               setup_s.size(), took_ms,
               tail_percentile(setup_s, 25).value_or(0) * 1e3,
               median(setup_s) * 1e3,
               tail_percentile(setup_s, 75).value_or(0) * 1e3);
}

/// Lifetimes fill a run: the first always starts, and another starts
/// while the time left still holds one more of the longest so far.
class LifetimeBudget {
 public:
  explicit LifetimeBudget(double seconds)
      : start_(mono_ms()), limit_ms_(seconds * 1e3) {}
  bool another() {
    const double now = mono_ms();
    if (last_ >= 0) longest_ = std::max(longest_, now - last_);
    last_ = now;
    return longest_ == 0 || now - start_ + longest_ <= limit_ms_;
  }

 private:
  double start_;
  double limit_ms_;
  double last_ = -1;
  double longest_ = 0;
};

/// Runs rt::run_cluster on its own thread (it blocks until every node
/// exits) with the contract check timed around the checker call.
class ClusterRun {
 public:
  explicit ClusterRun(ClusterConfig cfg) : cfg_(std::move(cfg)) {
    cfg_.stop = &stop_;
    // The built-in kset checker (an empty contract_checker) has no
    // public entry point to time, so only installed checkers are timed.
    if (auto inner = cfg_.contract_checker) {
      cfg_.contract_checker = [this, inner](const ClusterConfig& c,
                                            ClusterResult* r) {
        const double t0 = mono_ms();
        inner(c, r);
        contract_ms_ = mono_ms() - t0;
      };
    }
    // Forked nodes inherit this process's resident pages; hand freed
    // heap back first so their peak RSS is theirs, not the previous
    // lifetime's result parsing.
    malloc_trim(0);
    cpu0_ = children_cpu_ms();
    launch_ms_ = mono_ms();
    thread_ = std::thread([this] {
      res_ = saf::rt::run_cluster(cfg_);
      done_ = true;
    });
  }
  ~ClusterRun() {
    if (thread_.joinable()) thread_.join();
  }
  ClusterRun(const ClusterRun&) = delete;
  ClusterRun& operator=(const ClusterRun&) = delete;

  /// Kills every node at once (ClusterConfig::stop); the result then
  /// holds no node outcomes worth checking.
  void stop() { stop_ = true; }

  /// Waits for the cluster to finish; returns its result.
  const ClusterResult& join() {
    thread_.join();
    cpu_ms_ = children_cpu_ms() - cpu0_;
    return res_;
  }

  /// Launch-relative ms at which every launched node's result file
  /// exists (each node writes it with tmp+rename as it exits), polled
  /// every 0.2 ms; -1 if the launcher returned first. Call before join().
  double all_results_written_ms() const {
    for (;;) {
      int have = 0;
      for (ProcessId id = cfg_.crash; id < cfg_.n; ++id) {
        const std::string path = saf::rt::cluster_node_result_path(cfg_, id);
        if (::access(path.c_str(), F_OK) == 0) ++have;
      }
      if (have == cfg_.n - cfg_.crash) return mono_ms() - launch_ms_;
      if (done_) return -1;
      ::usleep(200);
    }
  }

  const ClusterConfig& cfg() const { return cfg_; }
  double launch_ms() const { return launch_ms_; }
  double cpu_ms() const { return cpu_ms_; }
  double contract_ms() const { return contract_ms_; }

 private:
  ClusterConfig cfg_;
  ClusterResult res_;
  double cpu0_ = 0;
  double launch_ms_ = 0;
  double cpu_ms_ = 0;
  double contract_ms_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::thread thread_;  // last: started after the members it uses
};

// ---------------------------------------------------------------------
// svc: open-loop generator against a forked service cluster.

struct Request {
  double due_ms = 0;  ///< launch-relative scheduled send
  int endpoint = 0;
  std::int64_t value = 0;
  bool probe = false;
  bool answered = false;
  double reply_ms = 0;
  std::uint64_t instance = 0;
  std::int64_t decision = 0;
};

/// Everything one svc lifetime measured.
struct SvcLife {
  double ready_ms = -1;  ///< launch -> every endpoint's probe answered
  std::vector<double> latency_ms;  ///< per scheduled request
  std::vector<double> late_ms;     ///< send time - scheduled time
  Tally tally;
  double load_ms = 0;
  double gen_cpu_ms = 0;
  double cluster_cpu_ms = 0;
  double contract_ms = 0;
  std::uint64_t failovers = 0;
  std::uint64_t resubmits = 0;
  std::uint64_t conflicts = 0;  ///< a req_seq answered with two values
  std::uint64_t wrong = 0;      ///< reply disagrees with a decided log
  double encode_ns = 0, decode_ns = 0;
  std::uint64_t encodes = 0, decodes = 0;
  NodeTotals nodes;
  double server_rss_mb = 0;
};

class Generator {
 public:
  Generator(std::uint16_t port, bool traced, Outcome* out)
      : port_(port), traced_(traced), out_(out) {
    ep_ = epoll_create1(0);
    tfd_ = timerfd_create(CLOCK_MONOTONIC, 0);
    if (ep_ < 0 || tfd_ < 0) {
      out_->fail("epoll/timerfd unavailable");
      ok_ = false;
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = kTimerTag;
    epoll_ctl(ep_, EPOLL_CTL_ADD, tfd_, &ev);
    for (int e = 0; e < kEndpoints; ++e) {
      eps_.emplace_back(e % kN, kN);
      seq_req_.emplace_back();
      life_.push_back(0);
      links_.emplace_back();
      make_link(e);
    }
  }
  ~Generator() {
    links_.clear();
    if (ep_ >= 0) close(ep_);
    if (tfd_ >= 0) close(tfd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool ok() const { return ok_; }

  /// Probes every endpoint's server until `wanted` endpoints have each
  /// had one Submit answered: the cluster is forked, bound and deciding.
  /// Returns the launch-relative ms of the wanted-th endpoint's first
  /// answer, or -1 when `budget_ms` passed first. Fresh probes leave
  /// every kProbeEveryMs, so the first one to reach a freshly bound
  /// server is not held back by the link's retransmission timer.
  double probe(double launch_ms, double budget_ms, int wanted) {
    launch_ = launch_ms;
    std::vector<int> probes_out(kEndpoints, 0);
    double next_probe = now();
    int ready = 0;
    std::vector<bool> ep_ready(kEndpoints, false);
    while (ok_ && ready < wanted && now() < budget_ms) {
      if (now() >= next_probe) {
        for (int e = 0; e < kEndpoints; ++e) {
          if (ep_ready[e] || probes_out[e] >= kMaxProbesInFlight) continue;
          Request r;
          r.probe = true;
          r.endpoint = e;
          r.due_ms = now();
          r.value = 900'000 + static_cast<std::int64_t>(reqs_.size());
          reqs_.push_back(r);
          send_new(reqs_.size() - 1);
          ++probes_out[e];
        }
        next_probe += kProbeEveryMs;
      }
      maintain_all();
      wait_until(next_probe, [&](std::size_t ri) {
        const int e = reqs_[ri].endpoint;
        if (reqs_[ri].probe && !ep_ready[e]) {
          ep_ready[e] = true;
          ++ready;
        }
      });
    }
    return ready >= wanted ? now() : -1;
  }

  /// Probe phase, then the open-loop schedule, then the drain.
  void run(const std::vector<Arrival>& schedule, double launch_ms,
           double stop_ms, SvcLife* life) {
    life->ready_ms = probe(launch_ms, kReadyBudgetMs, kEndpoints);
    if (life->ready_ms < 0) {
      out_->fail("cluster not ready within the probe budget");
      return;
    }
    // Probes answered or not leave the failover clock: only scheduled
    // requests are measured, and a straggling probe must not trigger a
    // spurious failover.
    for (int e = 0; e < kEndpoints; ++e) {
      for (std::uint64_t s = 1; s <= seq_req_[e].size(); ++s) {
        if (reqs_[seq_req_[e][s - 1]].probe) eps_[e].answer(s);
      }
    }

    const double base = now();
    const std::size_t first = reqs_.size();
    for (const Arrival& a : schedule) {
      Request r;
      r.due_ms = base + a.due_ms;
      r.endpoint = a.endpoint;
      r.value = a.value;
      reqs_.push_back(r);
    }
    const double last_due =
        schedule.empty() ? base : reqs_.back().due_ms;
    std::size_t next = first;
    std::size_t open = reqs_.size() - first;
    const auto on_answer = [&](std::size_t ri) {
      if (!reqs_[ri].probe) --open;
    };
    while (ok_) {
      const double t = now();
      while (next < reqs_.size() && reqs_[next].due_ms <= t) {
        life->late_ms.push_back(t - reqs_[next].due_ms);
        send_new(next++);
      }
      for (int e = 0; e < kEndpoints; ++e) {
        // An endpoint whose slots are used up stays where it is: reusing
        // a slot could let an abandoned server's answer through.
        if (life_[e] + 1 < kSlotsPerEndpoint &&
            eps_[e].overdue(t, kResubmitMs)) {
          fail_over(e, t, life);
        }
      }
      maintain_all();
      if (next == reqs_.size() &&
          (open == 0 || t > last_due + kDrainMs)) {
        break;
      }
      if (t > stop_ms) break;
      const double wake =
          next < reqs_.size() ? std::min(reqs_[next].due_ms, t + 2.0)
                              : t + 2.0;
      wait_until(wake, on_answer);
    }
    life->load_ms = last_due - base;
    const double stopped = now();
    for (std::size_t i = first; i < reqs_.size(); ++i) {
      const Request& r = reqs_[i];
      std::optional<double> lat;
      if (r.answered) lat = r.reply_ms - r.due_ms;
      life->tally.add(lat, kLimitMs);
      // An unanswered request enters the percentiles with its wait up
      // to the generator's stop: a lower bound on its latency.
      life->latency_ms.push_back(lat ? *lat
                                     : std::max(0.0, stopped - r.due_ms));
    }
    life->conflicts = conflicts_;
    life->encode_ns = encode_ns_;
    life->decode_ns = decode_ns_;
    life->encodes = encodes_;
    life->decodes = decodes_;
    links_.clear();  // close the client sockets before the servers exit
  }

  /// Every answered Submit (probes too) must carry the value its
  /// instance holds in every node log that reaches it.
  std::uint64_t wrong_replies(
      const std::vector<std::vector<std::int64_t>>& logs) const {
    std::uint64_t wrong = 0;
    for (const Request& r : reqs_) {
      if (!r.answered) continue;
      bool covered = false;
      for (const auto& log : logs) {
        if (r.instance >= log.size()) continue;
        covered = true;
        if (log[r.instance] != r.decision) ++wrong;
      }
      if (!covered) ++wrong;
    }
    return wrong;
  }

 private:
  static constexpr std::uint32_t kTimerTag = 0xffffffffu;

  double now() const { return mono_ms() - launch_; }

  void make_link(int e) {
    saf::rt::UdpLinkParams p;
    p.endpoints = kN + kEndpoints * kSlotsPerEndpoint;
    p.epoch_gating = false;
    const int slot = e + kEndpoints * static_cast<int>(life_[e]);
    auto link = std::make_unique<saf::rt::UdpLink>(
        static_cast<ProcessId>(kN + slot), kN, port_, clock_, p);
    if (!link->ok()) {
      out_->fail("client endpoint " + std::to_string(e) + " cannot bind");
      ok_ = false;
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(e);
    epoll_ctl(ep_, EPOLL_CTL_ADD, link->fd(), &ev);
    links_[e] = std::move(link);
  }

  void transmit(int e, std::uint64_t seq, std::int64_t value) {
    saf::svc::Submit sm;
    sm.req_seq = seq;
    sm.value = value;
    buf_.clear();
    if (traced_) {
      const double t0 = mono_ms();
      saf::svc::encode_submit(sm, &buf_);
      encode_ns_ += (mono_ms() - t0) * 1e6;
      ++encodes_;
    } else {
      saf::svc::encode_submit(sm, &buf_);
    }
    links_[e]->send(static_cast<ProcessId>(eps_[e].target()), buf_);
  }

  void send_new(std::size_t ri) {
    const int e = reqs_[ri].endpoint;
    const std::uint64_t seq = eps_[e].submit(ri, now());
    seq_req_[e].push_back(ri);  // seq_req_[e][seq - 1] == ri
    transmit(e, seq, reqs_[ri].value);
  }

  /// Moves endpoint `e` to the next server under its next client slot
  /// and resends its whole outstanding set in increasing req_seq order
  /// (the new server drops any Submit at or below the slot's newest
  /// accepted req_seq). The old slot's socket closes, so a late answer
  /// from the abandoned server — alive but stalled, or restarted with
  /// the old link's retransmissions — is never received: each request
  /// is answered by one server, and two different answers to one
  /// (slot, req_seq) are a service fault, not a failover artefact.
  void fail_over(int e, double t, SvcLife* life) {
    links_[e].reset();
    ++life_[e];
    make_link(e);
    if (!ok_) return;
    const auto resend = eps_[e].fail_over(t);
    for (const auto& [seq, ri] : resend) transmit(e, seq, reqs_[ri].value);
    ++life->failovers;
    life->resubmits += resend.size();
  }

  void maintain_all() {
    for (auto& l : links_) {
      if (l) l->maintain();
    }
  }

  /// Sleeps until `wake_ms` (launch-relative) or a datagram arrives,
  /// then drains every readable endpoint.
  template <typename OnAnswer>
  void wait_until(double wake_ms, const OnAnswer& on_answer) {
    const double abs_ns = (launch_ + std::max(wake_ms, now())) * 1e6;
    // steady_clock and CLOCK_MONOTONIC share an epoch on Linux.
    itimerspec its{};
    its.it_value.tv_sec = static_cast<time_t>(abs_ns / 1e9);
    its.it_value.tv_nsec = static_cast<long>(
        abs_ns - static_cast<double>(its.it_value.tv_sec) * 1e9);
    if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) {
      its.it_value.tv_nsec = 1;
    }
    timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
    epoll_event evs[8];
    const int nev = epoll_wait(ep_, evs, 8, 50);
    for (int i = 0; i < nev; ++i) {
      const std::uint32_t tag = evs[i].data.u32;
      if (tag == kTimerTag) {
        std::uint64_t exp = 0;
        (void)!read(tfd_, &exp, sizeof(exp));
        continue;
      }
      const int e = static_cast<int>(tag);
      if (!links_[e]) continue;
      links_[e]->poll([&](ProcessId, const std::uint8_t* data,
                          std::size_t len) {
        saf::svc::Reply rp;
        bool decoded = false;
        if (traced_) {
          const double t0 = mono_ms();
          decoded = saf::svc::decode_reply(data, len, &rp);
          decode_ns_ += (mono_ms() - t0) * 1e6;
          ++decodes_;
        } else {
          decoded = saf::svc::decode_reply(data, len, &rp);
        }
        if (!decoded || rp.req_seq == 0 ||
            rp.req_seq > seq_req_[e].size()) {
          return;
        }
        Request& r = reqs_[seq_req_[e][rp.req_seq - 1]];
        if (r.answered) {
          if (rp.decision != r.decision) ++conflicts_;
          return;
        }
        eps_[e].answer(rp.req_seq);
        r.answered = true;
        r.reply_ms = now();
        r.instance = rp.instance;
        r.decision = rp.decision;
        on_answer(seq_req_[e][rp.req_seq - 1]);
      });
    }
  }

  std::uint16_t port_;
  bool traced_;
  Outcome* out_;
  bool ok_ = true;
  saf::rt::WallClock clock_;
  int ep_ = -1;
  int tfd_ = -1;
  double launch_ = 0;
  std::vector<Endpoint> eps_;
  std::vector<std::vector<std::size_t>> seq_req_;  ///< [e][seq-1] -> req
  std::vector<std::uint32_t> life_;
  std::vector<std::unique_ptr<saf::rt::UdpLink>> links_;
  std::vector<Request> reqs_;
  std::vector<std::uint8_t> buf_;
  std::uint64_t conflicts_ = 0;
  double encode_ns_ = 0, decode_ns_ = 0;
  std::uint64_t encodes_ = 0, decodes_ = 0;
};

/// Forked-child entry of a service node. The child first drops every
/// descriptor it inherited from the benchmark process (client sockets,
/// epoll and timer fds): a server holding a client's socket would keep
/// that port bound after the generator closed it, so an abandoned
/// slot's port would still accept datagrams.
int serve(const saf::rt::NodeConfig& nc) {
  if (close_range(3, ~0U, 0) != 0) {
    for (int fd = 3; fd < 1024; ++fd) close(fd);
  }
  return saf::svc::run_server(nc);
}

ClusterConfig svc_config(const RunOptions& opt, std::uint64_t lseed,
                         std::uint16_t port) {
  ClusterConfig cfg;
  cfg.n = kN;
  cfg.t = kT;
  cfg.k = kK;
  cfg.protocol = "svc";
  cfg.base_port = port;
  cfg.seed = saf::util::derive_seed(lseed, "cluster");
  cfg.linger_ms = kLingerMs;
  cfg.svc_client_slots = kEndpoints * kSlotsPerEndpoint;
  cfg.out_dir = opt.out_dir;
  cfg.node_runner = serve;
  cfg.contract_checker = saf::svc::check_service_contract;
  return cfg;
}

/// One set-up sample: launch a service cluster, probe it from every
/// endpoint until the first answer, and stop it. Returns launch -> first
/// answered probe in seconds; a cluster not answering within the probe
/// budget counts as the budget, so slow set-ups raise the median
/// instead of vanishing.
double setup_cycle(const RunOptions& opt, bool kill, int index,
                   Outcome* out) {
  const std::uint64_t lseed = saf::util::derive_seed(
      saf::util::derive_seed(opt.seed, "svc-setup"),
      static_cast<std::uint64_t>(index));
  ClusterConfig cfg =
      svc_config(opt, lseed,
                 base_port(opt.seed, kill ? "svc-kill" : "svc-steady", index));
  cfg.run_for_ms = static_cast<saf::Time>(kReadyBudgetMs);
  double ready_ms = kReadyBudgetMs;
  {
    Generator gen(cfg.base_port, /*traced=*/false, out);
    if (!gen.ok()) return 0;
    ClusterRun run(cfg);
    const double at = gen.probe(run.launch_ms(), kReadyBudgetMs, 1);
    if (at >= 0) ready_ms = at;
    run.stop();
    run.join();
  }
  return ready_ms / 1e3;
}

SvcLife svc_lifetime(const RunOptions& opt, bool kill, int index,
                     double load_ms, Outcome* out) {
  SvcLife life;
  const std::uint64_t lseed =
      saf::util::derive_seed(saf::util::derive_seed(opt.seed, "svc"),
                             static_cast<std::uint64_t>(index));
  const std::vector<Arrival> schedule =
      make_schedule(lseed, kRatePerS, load_ms, kEndpoints);

  ClusterConfig cfg = svc_config(
      opt, lseed,
      base_port(opt.seed, kill ? "svc-kill" : "svc-steady", index));
  cfg.run_for_ms = static_cast<saf::Time>(kReadyBudgetMs + load_ms + kDrainMs);
  if (kill) {
    // One follower kill kKillAtMs into the lifetime, restart kRestartMs
    // later (WAL on). Only followers die: a kill of the Ω leader
    // (server 0) stalls the whole pipeline for 0.6-1.2 s while the
    // restarted leader catches up by snapshot, which would put every
    // endpoint's requests of that span into the tail. Victims alternate
    // — lifetime i kills server 1 + i mod 2 — using the first kill
    // schedule seed derived from the workload seed that picks that one.
    cfg.chaos.kills = 1;
    cfg.chaos.window_start_ms = kKillAtMs;
    cfg.chaos.window_span_ms = 100;
    cfg.chaos.restart_delay_ms = kRestartMs;
    const int victim = 1 + index % (kN - 1);
    for (std::uint64_t salt = 0;; ++salt) {
      cfg.chaos.seed = saf::util::derive_seed(
          saf::util::derive_seed(lseed, "chaos"), salt);
      if (saf::rt::make_kill_schedule(cfg.chaos, kN, 0).front().victim ==
          victim) {
        break;
      }
    }
  }

  Generator gen(cfg.base_port, opt.traced, out);
  if (!gen.ok()) return life;
  const double gen_cpu0 = thread_cpu_ms();
  ClusterRun run(cfg);
  // Stop generating well before the servers' wall budget runs out.
  gen.run(schedule, run.launch_ms(),
          static_cast<double>(cfg.run_for_ms) - 100.0, &life);
  life.gen_cpu_ms = thread_cpu_ms() - gen_cpu0;
  const ClusterResult& res = run.join();
  life.cluster_cpu_ms = run.cpu_ms();
  life.server_rss_mb = children_peak_rss_mb();
  life.contract_ms = run.contract_ms();
  if (!res.contract_ok()) {
    std::string why = "svc contract: " + res.detail;
    for (const std::string& v : res.violations) why += "; " + v;
    out->fail(why);
  }
  life.nodes = read_nodes(run.cfg(), res, /*want_logs=*/true, out);
  life.wrong = gen.wrong_replies(life.nodes.logs);
  if (life.wrong > 0) {
    out->fail(std::to_string(life.wrong) +
              " replies disagree with the decided logs");
  }
  // One line per lifetime, so a run's spread can be traced to the
  // lifetime that caused it.
  std::fprintf(stderr,
               "perfbench: lifetime %d: ready %.1f ms, p50 %.3f ms, "
               "p99 %.3f ms, late %llu, unanswered %llu, failovers %llu, "
               "frontier %.0f\n",
               index, life.ready_ms,
               tail_percentile(life.latency_ms, 50).value_or(0),
               tail_percentile(life.latency_ms, 99).value_or(0),
               static_cast<unsigned long long>(life.tally.late),
               static_cast<unsigned long long>(life.tally.unanswered),
               static_cast<unsigned long long>(life.failovers),
               life.nodes.max_frontier);
  if (life.conflicts > 0) {
    out->fail(std::to_string(life.conflicts) +
              " requests answered with two different values");
  }
  return life;
}

}  // namespace

Outcome run_svc(const RunOptions& opt, bool kill) {
  Outcome out;
  std::optional<Spinners> spinners;
  if (opt.spin) spinners.emplace();

  // Set-up first, kSetupCycles short clusters; the lifetimes fill what
  // is left of the run. A lifetime adds its set-up, drain and
  // shutdown to its load, and on svc-kill the restarted victim's life,
  // which serves a full budget of its own from its restart.
  const double start = mono_ms();
  std::vector<double> setup_s;
  const int cycles = opt.measure_setup ? kSetupCycles : 0;
  for (int i = 0; out.correct && i < cycles; ++i) {
    setup_s.push_back(setup_cycle(opt, kill, i, &out));
  }
  log_setup(setup_s, mono_ms() - start);
  const double left_ms = opt.seconds * 1e3 - (mono_ms() - start);
  const double overhead_ms =
      kReadyBudgetMs + kDrainMs + static_cast<double>(kLingerMs) + 100 +
      (kill ? static_cast<double>(kKillAtMs + kRestartMs) : 0);
  const double target_ms = kill ? kKillLoadMs : kSteadyLoadMs;
  const int lifetimes = std::max(
      3, static_cast<int>(std::lround(left_ms / (target_ms + overhead_ms))));
  const double load_ms =
      std::max(1000.0, left_ms / lifetimes - overhead_ms);

  std::vector<double> latency, late, ready_s, contract_ms;
  // Per-lifetime figures; a run reports their medians, so one lifetime
  // hit by a burst of host interference does not move the run.
  std::vector<double> p50_l, p90_l, goodput_l, cpu_l, decisions_l;
  Tally tally;
  NodeTotals nodes;
  double gen_cpu = 0, cluster_cpu = 0;
  std::uint64_t failovers = 0, resubmits = 0;
  double encode_ns = 0, decode_ns = 0;
  std::uint64_t encodes = 0, decodes = 0;
  double server_rss_mb = 0;
  for (int i = 0; out.correct && i < lifetimes; ++i) {
    const SvcLife life = svc_lifetime(opt, kill, i, load_ms, &out);
    server_rss_mb = std::max(server_rss_mb, life.server_rss_mb);
    if (life.ready_ms < 0) break;
    latency.insert(latency.end(), life.latency_ms.begin(),
                   life.latency_ms.end());
    late.insert(late.end(), life.late_ms.begin(), life.late_ms.end());
    ready_s.push_back(life.ready_ms / 1e3);
    contract_ms.push_back(life.contract_ms);
    p50_l.push_back(tail_percentile(life.latency_ms, 50).value_or(0));
    // The gated tail is p90: p99 moved with the host's interference
    // bursts (4.0-7.8 ms over nine runs of one build) while p90 repeated
    // within 3%. p99 stays visible as a per-layer figure.
    p90_l.push_back(tail_percentile(life.latency_ms, 90).value_or(0));
    goodput_l.push_back(ratio(static_cast<double>(life.tally.in_limit),
                              life.load_ms / 1e3));
    cpu_l.push_back(ratio(life.cluster_cpu_ms + life.gen_cpu_ms,
                          static_cast<double>(life.tally.attempted -
                                              life.tally.unanswered)));
    decisions_l.push_back(ratio(life.nodes.max_frontier,
                                life.nodes.frontier_elapsed_ms / 1e3));
    tally.attempted += life.tally.attempted;
    tally.in_limit += life.tally.in_limit;
    tally.late += life.tally.late;
    tally.unanswered += life.tally.unanswered;
    accumulate(&nodes, life.nodes);
    gen_cpu += life.gen_cpu_ms;
    cluster_cpu += life.cluster_cpu_ms;
    failovers += life.failovers;
    resubmits += life.resubmits;
    encode_ns += life.encode_ns;
    decode_ns += life.decode_ns;
    encodes += life.encodes;
    decodes += life.decodes;
  }

  out.attempted = std::max<std::uint64_t>(1, tally.attempted);
  out.failed = tally.unanswered;
  if (!out.correct) out.failed = out.attempted;
  if (tally.attempted == 0) out.fail("no request was attempted");

  out.end_to_end = {
      {"op_p50_ms", median(p50_l)},
      {"op_tail_ms", median(p90_l)},
      {"goodput_per_s", median(goodput_l)},
      {"ok_share", tally.ok_share()},
      {"decisions_per_s", median(decisions_l)},
      {"setup_s", median(setup_s)},
      {"mem_peak_mb", server_rss_mb},
  };

  const double node_s = nodes["total_elapsed_ms"] / 1e3;
  const double local = nodes["svc_locally_decided"];
  const double frontier = nodes.max_frontier;
  out.per_layer = {
      {"cpu_ms_per_op", median(cpu_l)},
      {"svc.server.proposals_per_batch",
       ratio(nodes["svc_proposals_received"], nodes["svc_batches"])},
      {"svc.server.batched_instance_share", ratio(nodes["svc_batches"], local)},
      {"svc.server.served_per_received",
       ratio(nodes["svc_proposals_served"], nodes["svc_proposals_received"])},
      {"core.pipeline.decisions_per_s", ratio(local, node_s)},
      {"core.pipeline.events_per_decision",
       ratio(nodes["events_processed"], local)},
      {"svc.server.cpu_ms_per_decision", ratio(cluster_cpu, local)},
      {"rt.link.frames_per_datagram",
       ratio(nodes["frames_sent"], nodes["datagrams_sent"])},
      {"rt.link.datagrams_per_decision",
       ratio(nodes["datagrams_sent"], frontier)},
      {"rt.link.syscalls_per_decision",
       ratio(nodes["syscalls_send"] + nodes["syscalls_recv"], frontier)},
      {"rt.link.retransmit_share",
       ratio(nodes["retransmits"], nodes["frames_sent"])},
      {"rt.link.window_stalls_per_s", ratio(nodes["window_stalls"], node_s)},
      {"rt.link.stale_dropped", nodes["stale_dropped"]},
      {"rt.link.peer_restarts", nodes["peer_restarts"]},
      {"rt.hb.heartbeats_per_s", ratio(nodes["heartbeats_sent"], node_s)},
      {"svc.wire.encode_ns", ratio(encode_ns, static_cast<double>(encodes))},
      {"svc.wire.decode_ns", ratio(decode_ns, static_cast<double>(decodes))},
      {"svc.snap.requests", nodes["svc_snap_requests"]},
      {"svc.snap.served", nodes["svc_snaps_served"]},
      {"svc.snap.adopted", nodes["svc_snapshot_adopted"]},
      {"gen.failovers", static_cast<double>(failovers)},
      {"gen.resubmits", static_cast<double>(resubmits)},
      {"rt.cluster.ready_s", median(ready_s)},
      {"rt.cluster.contract_ms", median(contract_ms)},
      {"svc.client.latency_p99_ms", tail_percentile(latency, 99).value_or(0)},
      {"gen.late_ms_p99", tail_percentile(late, 99).value_or(0)},
      {"gen.cpu_ms", gen_cpu},
  };
  return out;
}

// ---------------------------------------------------------------------
// rt-rounds: keep-alive k-set rounds, no clients.

namespace {

ClusterConfig rounds_config(const RunOptions& opt, const char* what,
                            int index) {
  ClusterConfig cfg;
  cfg.n = kN;
  cfg.t = kT;
  cfg.k = kK;
  cfg.protocol = "kset";
  cfg.rounds = kRounds;
  cfg.run_for_ms = 2000;  // per-round budget; rounds take milliseconds
  cfg.linger_ms = kLingerMs;
  cfg.base_port = base_port(opt.seed, "rt-rounds", index);
  cfg.seed = saf::util::derive_seed(saf::util::derive_seed(opt.seed, what),
                                    static_cast<std::uint64_t>(index));
  cfg.out_dir = opt.out_dir;
  // Stale result files would read as this cluster's exits.
  for (ProcessId id = 0; id < kN; ++id) {
    ::unlink(saf::rt::cluster_node_result_path(cfg, id).c_str());
  }
  return cfg;
}

/// One rt-rounds set-up sample: a one-round cluster, timed from launch
/// until every node's result file is written, minus the linger each node
/// waits after deciding — fork, bind, detector start, the first
/// agreement, exit and the result write, at the 0.2 ms resolution of
/// the benchmark's polling rather than the nodes' whole-ms stamps. The
/// round passes the kset contract like every other. Returns seconds.
double rounds_setup_cycle(const RunOptions& opt, int index, Outcome* out) {
  ClusterConfig cfg = rounds_config(opt, "rt-rounds-setup", index);
  cfg.rounds = 1;
  cfg.linger_ms = kSetupLingerMs;
  ClusterRun run(cfg);
  const double written_ms = run.all_results_written_ms();
  const ClusterResult& res = run.join();
  if (!res.contract_ok()) {
    std::string why = "kset contract (set-up cluster): " + res.detail;
    for (const std::string& v : res.violations) why += "; " + v;
    out->fail(why);
  }
  return std::max(0.0, written_ms - static_cast<double>(kSetupLingerMs)) /
         1e3;
}

}  // namespace

Outcome run_rt_rounds(const RunOptions& opt) {
  Outcome out;
  std::optional<Spinners> spinners;
  if (opt.spin) spinners.emplace();

  std::vector<double> setup_s;
  double setup_ms = 0;
  const int batch = opt.measure_setup ? kRoundsSetupBatch : 0;
  std::vector<double> block_ms, decide_ms, ready_s, contract_ms;
  NodeTotals nodes;
  double cpu_ms = 0;
  double serving_ms = 0;
  double wall_ms = 0;
  double server_rss_mb = 0;
  std::uint64_t attempted = 0, decided = 0;
  LifetimeBudget budget(opt.seconds);
  for (int i = 0; out.correct && budget.another(); ++i) {
    const double t0 = mono_ms();
    for (int j = 0; out.correct && j < batch; ++j) {
      setup_s.push_back(rounds_setup_cycle(opt, i * batch + j, &out));
    }
    setup_ms += mono_ms() - t0;
    const ClusterConfig cfg = rounds_config(opt, "rt-rounds", i);
    ClusterRun run(cfg);
    const double written_ms = run.all_results_written_ms();
    const ClusterResult& res = run.join();
    wall_ms += mono_ms() - run.launch_ms();
    attempted += kRounds;
    if (!res.contract_ok()) {
      std::string why = "kset contract: " + res.detail;
      for (const std::string& v : res.violations) why += "; " + v;
      out.fail(why);
      break;
    }
    contract_ms.push_back(run.contract_ms());
    accumulate(&nodes, read_nodes(cfg, res, /*want_logs=*/false, &out));
    cpu_ms += run.cpu_ms();
    server_rss_mb = std::max(server_rss_mb, children_peak_rss_mb());

    // Node-stamped (whole-ms) round boundaries. A block's duration is
    // averaged over the nodes and over kRoundBlock rounds, which brings
    // the resolution well below a millisecond.
    double first_decision_ms = 0;
    double life_span_ms = 0;
    std::vector<double> blocks;
    int nodes_seen = 0;
    for (const saf::rt::ClusterNodeOutcome& node : res.nodes) {
      if (!node.launched) continue;
      const auto& r = node.rounds;
      if (r.size() != static_cast<std::size_t>(kRounds)) {
        out.fail("node " + std::to_string(node.id) + " reported " +
                 std::to_string(r.size()) + " rounds");
        continue;
      }
      ++nodes_seen;
      first_decision_ms = std::max(
          first_decision_ms,
          static_cast<double>(r.front().start_ms + r.front().decision_ms));
      life_span_ms = std::max(
          life_span_ms,
          static_cast<double>(r.back().start_ms + r.back().elapsed_ms));
      for (const auto& round : r) {
        decide_ms.push_back(static_cast<double>(round.decision_ms));
      }
      blocks.resize(kRounds / kRoundBlock - 1, 0.0);
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const std::size_t i = b * kRoundBlock;
        blocks[b] += static_cast<double>(r[i + kRoundBlock].start_ms -
                                         r[i].start_ms);
      }
    }
    for (const double b : blocks) {
      block_ms.push_back(b / (kRoundBlock * std::max(1, nodes_seen)));
    }
    std::fprintf(stderr,
                 "perfbench: lifetime %d: %d rounds in %.0f ms (%.1f/s), "
                 "first decision %.0f ms, results written at %.1f ms\n",
                 i, kRounds, life_span_ms,
                 kRounds / std::max(1.0, life_span_ms) * 1e3,
                 first_decision_ms, written_ms);
    decided += kRounds;  // contract_ok: every launched node decided each
    serving_ms += life_span_ms;
    // The lifetime's own set-up estimate (per-layer only): launch to the
    // last result file, minus the node-stamped span after the first
    // decision, so whole-ms stamps limit it.
    if (written_ms >= 0) {
      ready_s.push_back(
          std::max(0.0, written_ms - (life_span_ms - first_decision_ms)) /
          1e3);
    }
  }

  log_setup(setup_s, setup_ms);
  out.attempted = std::max<std::uint64_t>(1, attempted);
  out.failed = out.correct ? attempted - decided : out.attempted;
  // Pooled over lifetimes, not medians of them: lifetime rates are
  // spread wide enough (450-770 rounds/s) that a median over ~25 of them
  // moved more between runs (spread 0.12) than the pooled rate (0.02).
  const double rounds = static_cast<double>(decided);
  double decide_sum = 0;
  for (const double d : decide_ms) decide_sum += d;
  out.end_to_end = {
      // The mean node-stamped round latency (round start -> decision),
      // pooled over rounds and nodes: whole-ms stamps give no per-round
      // distribution, so this figure is a mean, not a p50.
      {"op_p50_ms", ratio(decide_sum, static_cast<double>(decide_ms.size()))},
      {"op_tail_ms", tail_percentile(block_ms, 90).value_or(0)},
      // Rounds per second of whole lifetimes (launch to the launcher's
      // return), so each lifetime's fork, first round and teardown count.
      {"goodput_per_s", ratio(rounds, wall_ms / 1e3)},
      {"ok_share",
       ratio(static_cast<double>(decided), static_cast<double>(out.attempted))},
      // Rounds per second of round serving: the pipeline rate.
      {"decisions_per_s", ratio(rounds, serving_ms / 1e3)},
      {"setup_s", median(setup_s)},
      {"mem_peak_mb", server_rss_mb},
  };
  const double node_s = nodes["total_elapsed_ms"] / 1e3;
  out.per_layer = {
      {"cpu_ms_per_op", ratio(cpu_ms, rounds)},
      {"rt.node.events_per_round",
       ratio(nodes["events_processed"], rounds * kN)},
      {"rt.node.cpu_ms_per_round", ratio(cpu_ms, rounds)},
      {"rt.link.frames_per_datagram",
       ratio(nodes["frames_sent"], nodes["datagrams_sent"])},
      {"rt.link.datagrams_per_decision",
       ratio(nodes["datagrams_sent"], rounds)},
      {"rt.link.syscalls_per_decision",
       ratio(nodes["syscalls_send"] + nodes["syscalls_recv"], rounds)},
      {"rt.link.retransmit_share",
       ratio(nodes["retransmits"], nodes["frames_sent"])},
      {"rt.link.window_stalls_per_s", ratio(nodes["window_stalls"], node_s)},
      {"rt.link.stale_dropped", nodes["stale_dropped"]},
      {"rt.link.peer_restarts", nodes["peer_restarts"]},
      {"rt.hb.heartbeats_per_s", ratio(nodes["heartbeats_sent"], node_s)},
      {"rt.cluster.ready_s", median(ready_s)},
      {"rt.cluster.contract_ms", median(contract_ms)},
  };
  return out;
}

}  // namespace perfbench
