#include "svc/server.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/kset_agreement.h"
#include "fault/fault_spec.h"
#include "fault/link_faults.h"
#include "fd/oracle.h"
#include "rt/chaos.h"
#include "rt/clock.h"
#include "rt/codec.h"
#include "rt/heartbeat_fd.h"
#include "rt/node_loop.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "svc/wire.h"
#include "sweep/bench_json.h"
#include "trace/trace.h"
#include "util/check.h"

namespace saf::svc {

namespace {

/// Buffered-traffic horizon: phase messages for instances this far past
/// the pipeline head are dropped instead of buffered. Dropping is
/// live-safe — the instance's decision still arrives via reliable
/// broadcast, and a gap wider than the jump threshold is exactly what
/// snapshot catch-up exists for.
constexpr int kFutureWindow = 256;

/// SnapResp chunks answered per SnapReq. The requester re-requests from
/// its new frontier after adopting, so this bounds per-request burst
/// size (flow control), not total catch-up.
constexpr int kSnapChunksPerReq = 4;

/// Wall milliseconds between snapshot requests while behind.
constexpr Time kSnapRetryMs = 200;

/// The one real protocol process of a service node: a demand-driven
/// pipeline of KSetCores over a single embedded simulator.
///
/// Routing invariants:
///   * driver() runs instances strictly in order; when it sits at
///     instance m, every instance below m is decided (frontier_ == m).
///   * Instance m starts only when there is work for it: this node has
///     queued submissions, a peer's phase traffic for m arrived, or the
///     frontier passed m. An idle cluster runs no instances at all.
///   * Instance m never starts at or below `tainted_max`, the highest
///     instance a previous life of this node proposed in (its WAL's
///     participation records). That life may have sent phase messages
///     for m, so this one counts as crashed for m and waits until m is
///     decided by the others (reliable broadcast or snapshot).
///   * A decision can arrive for ANY instance at any point — from this
///     node's own core, a peer's reliable-broadcast DecisionMsg, or a
///     snapshot — and always lands in record(): out-of-order decisions
///     park in decided_map_ until the prefix below them fills in.
///   * Phase traffic for instances the driver has not reached yet is
///     buffered as copies and replayed into the core the moment it
///     exists — the per-instance buffering that makes pipelining-by-
///     decision safe under wire reordering (same design as
///     core/repeated_kset, which proves it in-simulator).
///   * A core is freed once the frontier passed its instance and its
///     main() returned, so memory follows the in-flight instances, not
///     the decided log.
///
/// Arena invariant: no arena pointer survives a pump. run_service_node
/// recycles the simulator's arena after every pump, which holds because
///   * the bridge encodes every remote send at once;
///   * self-sends and injected deliveries dispatch within the same pump;
///   * reliable broadcast keeps only (origin, seq) keys while acks are
///     off, as they are here;
///   * cores and future_ hold copies of the phase messages they keep.
/// Simulator::recycle_arena refuses on its own while a delivery is
/// queued or the engine holds pointers; what a protocol keeps is this
/// class's side of the bargain.
class ServiceProcess final : public sim::Process {
 public:
  /// Proposal source for instance m (the batching seam).
  using FoldFn = std::function<std::int64_t(int instance)>;
  /// Fired exactly once per instance, in log order, as the contiguous
  /// decided prefix extends past it.
  using DecideFn = std::function<void(int instance, std::int64_t value)>;
  /// True while this node holds submissions no instance carries yet.
  using DemandFn = std::function<bool()>;

  ServiceProcess(ProcessId id, int n, int t, const fd::LeaderOracle& omega,
                 FoldFn fold, DecideFn on_decide, DemandFn has_demand,
                 std::int64_t tainted_max, std::uint32_t incarnation)
      : Process(id, n, t),
        tainted_max_(tainted_max),
        omega_(omega),
        fold_(std::move(fold)),
        on_decide_(std::move(on_decide)),
        has_demand_(std::move(has_demand)) {
    // Peers' RB dedup sets still hold an earlier life's (origin, seq)
    // keys; a life starting again at seq 0 would see its decision
    // broadcasts discarded as duplicates, neither delivered nor relayed.
    seed_rb_seq(std::uint64_t{incarnation} << 32);
  }

  void boot() override { spawn(driver()); }

  void on_message(const sim::Message& m) override {
    const auto* p1 = dynamic_cast<const core::Phase1Msg*>(&m);
    const auto* p2 =
        p1 == nullptr ? dynamic_cast<const core::Phase2Msg*>(&m) : nullptr;
    if (p1 == nullptr && p2 == nullptr) return;
    const int inst = p1 != nullptr ? p1->instance : p2->instance;
    if (auto it = cores_.find(inst); it != cores_.end()) {
      it->second->on_message(m);
      return;
    }
    const int head = std::max(next_, frontier_);
    if (inst >= head && inst < head + kFutureWindow) {
      // A copy: the arena slot is reused after this pump.
      if (p1 != nullptr) {
        future_[inst].emplace_back(*p1);
      } else {
        future_[inst].emplace_back(*p2);
      }
    }
    // Below the head with no core: the instance was decided (or adopted)
    // and its core freed — drop the straggler.
  }

  void on_rdeliver(const sim::Message& m) override {
    const auto* d = dynamic_cast<const core::DecisionMsg*>(&m);
    if (d != nullptr && d->instance >= 0) {
      record(d->instance, d->value, /*from_snapshot=*/false);
    }
  }

  /// Snapshot adoption: decisions for instances [start, start+n), from
  /// a peer's SnapResp. Returns how many were news to this node. Safe
  /// at any point — decisions are final, so adopting over a still-
  /// running core just finishes it early.
  int adopt(std::uint64_t start, const std::vector<std::int64_t>& vals) {
    int fresh = 0;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      const auto inst = static_cast<int>(start + i);
      if (inst < frontier_ || decided_map_.count(inst) != 0) continue;
      record(inst, vals[i], /*from_snapshot=*/true);
      ++fresh;
    }
    return fresh;
  }

  /// Contiguous decided prefix length (== log().size()).
  int frontier() const { return frontier_; }
  const std::vector<std::int64_t>& log() const { return log_; }
  std::uint64_t locally_decided() const { return locally_decided_; }
  /// KSetCores this life started.
  std::uint64_t instances_run() const { return instances_run_; }

 private:
  using ParkedMsg = std::variant<core::Phase1Msg, core::Phase2Msg>;

  /// Task T1 of the pipeline: run instance m once everything below it
  /// is decided and someone wants it decided; skip instances that
  /// decided without us, and wait for the tainted ones to.
  sim::ProtocolTask driver() {
    for (;;) {
      const int m = next_;
      co_await until([this, m] {
        return frontier_ > m ||
               (m > tainted_max_ &&
                (has_demand_() || future_.count(m) != 0));
      });
      prune_cores();
      if (frontier_ > m) {
        next_ = frontier_;  // decided behind our back (RB or snapshot)
        continue;
      }
      auto owned = std::make_unique<core::KSetCore>(*this, omega_,
                                                    fold_(m), m);
      core::KSetCore* c = owned.get();
      cores_.emplace(m, std::move(owned));
      ++instances_run_;
      spawn(c->main());
      if (auto it = future_.find(m); it != future_.end()) {
        for (const ParkedMsg& pm : it->second) {
          std::visit([c](const auto& msg) { c->on_message(msg); }, pm);
        }
        future_.erase(it);
      }
      co_await until([this, m, c] { return frontier_ > m || c->decided(); });
      ++next_;
    }
  }

  /// Frees cores below the frontier whose main() has returned (a core
  /// decided by a peer's broadcast finishes on its next wakeup).
  void prune_cores() {
    for (auto it = cores_.begin();
         it != cores_.end() && it->first < frontier_;) {
      it = it->second->finished() ? cores_.erase(it) : std::next(it);
    }
  }

  void record(int inst, std::int64_t v, bool from_snapshot) {
    if (inst < frontier_ || decided_map_.count(inst) != 0) return;
    // A still-running core learns its decision as a synthesized
    // DecisionMsg — the exact message reliable broadcast would have
    // delivered — so its main() terminates instead of idling forever
    // in a phase wait for an instance the cluster already closed.
    if (auto it = cores_.find(inst);
        it != cores_.end() && !it->second->decided()) {
      const core::DecisionMsg dm(v, inst);
      it->second->on_rdeliver(dm);
    }
    decided_map_[inst] = v;
    if (from_snapshot) {
      ++adopted_;
    } else {
      ++locally_decided_;
    }
    advance_log();
  }

  void advance_log() {
    auto it = decided_map_.find(frontier_);
    while (it != decided_map_.end()) {
      const int inst = frontier_;
      log_.push_back(it->second);
      decided_map_.erase(it);
      future_.erase(inst);
      ++frontier_;
      if (on_decide_) on_decide_(inst, log_.back());
      it = decided_map_.find(frontier_);
    }
  }

  const std::int64_t tainted_max_;
  const fd::LeaderOracle& omega_;
  FoldFn fold_;
  DecideFn on_decide_;
  DemandFn has_demand_;
  std::map<int, std::unique_ptr<core::KSetCore>> cores_;
  int next_ = 0;      ///< next instance the driver will run
  int frontier_ = 0;  ///< contiguous decided prefix length
  std::vector<std::int64_t> log_;
  std::map<int, std::int64_t> decided_map_;  ///< decided above frontier_
  std::map<int, std::vector<ParkedMsg>> future_;
  std::uint64_t locally_decided_ = 0;
  std::uint64_t instances_run_ = 0;
  std::uint64_t adopted_ = 0;
};

/// The scalar elements 0, 1, ... of the flattened array `prefix` up to
/// the first missing one, gathered in one walk of its key range.
std::vector<double> leading_elements(const sweep::FlatJson& j,
                                     std::string_view prefix) {
  std::vector<double> values;
  std::vector<bool> present;
  sweep::for_each_element(
      j, prefix, [&](std::size_t i, std::string_view field, double v) {
        // An index past the key count cannot extend the leading run.
        if (!field.empty() || i >= j.size()) return;
        if (i >= values.size()) {
          values.resize(i + 1);
          present.resize(i + 1);
        }
        values[i] = v;
        present[i] = true;
      });
  values.resize(static_cast<std::size_t>(
      std::find(present.begin(), present.end(), false) - present.begin()));
  return values;
}

}  // namespace

ServerResult run_service_node(const rt::NodeConfig& cfg) {
  SAF_CHECK(cfg.id >= 0 && cfg.id < cfg.n);
  SAF_CHECK(cfg.protocol == "svc");
  SAF_CHECK(cfg.svc_client_slots >= 0);
  SAF_CHECK(cfg.svc_jump_threshold >= 1);
  ServerResult res;

  // Crash recovery, same discipline as rt/node: load the WAL and append
  // this life's incarnation before any wire activity. The service logs
  // one participation record per instance it runs; the decided log
  // itself comes back from peers via snapshot.
  rt::NodeWal wal;
  rt::WalWriter wal_log;
  if (!cfg.wal_path.empty()) {
    wal_log = rt::recover_node_wal(cfg.wal_path, &wal);
  }
  res.incarnation = wal.incarnation;

  rt::WallClock wall;
  rt::UdpLinkParams link_params = cfg.link;
  link_params.incarnation = wal.incarnation;
  link_params.endpoints = cfg.n + cfg.svc_client_slots;
  // Pipelined instances interleave on the wire, so the epoch field
  // cannot gate delivery; it is repurposed as the decided-frontier
  // signal (set_epoch(frontier) on every decision, read back through
  // max_peer_epoch on the far side).
  link_params.epoch_gating = false;
  rt::UdpLink link(cfg.id, cfg.n, cfg.base_port, wall, link_params);
  if (!link.ok()) return res;  // port collision: ok stays false

  // Chaos link faults on the real transport (same seam as rt/node).
  std::unique_ptr<util::Arena> fault_arena;
  std::unique_ptr<fault::LinkFaultModel> fault_model;
  if (!cfg.faults.empty()) {
    const fault::FaultSpec fspec = fault::parse_fault_spec(cfg.faults);
    if (fspec.link.any()) {
      fault_arena = std::make_unique<util::Arena>();
      fault_model = std::make_unique<fault::LinkFaultModel>(
          fspec.link, cfg.n,
          cfg.fault_seed != 0 ? cfg.fault_seed : cfg.seed, *fault_arena);
      link.set_fault_hook(fault_model.get());
    }
  }

  rt::HeartbeatMonitor monitor(cfg.id, cfg.n, wall, cfg.hb);
  rt::HeartbeatOmega omega(monitor, cfg.k);

  std::ofstream trace_out;
  std::unique_ptr<trace::JsonlSink> sink;
  trace::MetricsRegistry metrics;
  if (!cfg.trace_path.empty()) {
    if (wal.incarnation > 0) {
      trace_out.open(cfg.trace_path, std::ios::app);
      trace_out << "\n";
    } else {
      trace_out.open(cfg.trace_path);
    }
    sink = std::make_unique<trace::JsonlSink>(trace_out);
  }

  // ONE long-lived simulator for the whole run (rt/node builds one per
  // round; the service's rounds are instances inside this one).
  sim::SimConfig scfg;
  scfg.seed = cfg.seed;
  scfg.n = cfg.n;
  scfg.t = cfg.t;
  scfg.tick_period = cfg.tick_period;
  scfg.horizon = cfg.run_for_ms + cfg.linger_ms + 1000;
  scfg.batched_broadcasts = cfg.batched_broadcasts;
  sim::Simulator sim(scfg, sim::CrashPlan{},
                     std::make_unique<sim::FixedDelay>(1));
  if (sink != nullptr || !cfg.metrics_path.empty()) {
    sim.set_trace(sink.get(), &metrics);
  }

  // -------------------------------------------------------------------
  // Client bookkeeping (link ids n .. n+slots-1).
  struct PendingSubmit {
    ProcessId client = -1;
    std::uint64_t req_seq = 0;
    std::int64_t value = 0;
  };
  struct ClientSlot {
    std::uint64_t last_req = 0;  ///< newest req_seq accepted or served
    std::uint64_t served_req = 0;
    std::uint64_t served_instance = 0;
    std::int64_t served_value = 0;
    bool have_served = false;
  };
  std::vector<ClientSlot> slots(
      static_cast<std::size_t>(cfg.svc_client_slots));
  std::vector<PendingSubmit> pending;       ///< queued for the next fold
  std::map<int, std::vector<PendingSubmit>> batches;  ///< in-flight
  std::vector<std::uint8_t> buf;

  // Proposal batching: the whole queued backlog rides the next
  // instance (the proposal value is the head submission's; the rest of
  // the batch is answered by the same decision). The driver calls this
  // right before it starts the instance's core, so the participation
  // record is write-ahead of the first phase send.
  const auto fold = [&](int inst) -> std::int64_t {
    std::int64_t v = 0;
    if (pending.empty()) {
      v = 100 + cfg.id;  // idle default, same convention as rt/node
    } else {
      v = pending.front().value;
      batches[inst] = std::move(pending);
      pending.clear();
      ++res.batches;
    }
    wal_log.append(rt::WalRecord::proposed(inst, v));
    res.proposal_instances.push_back(static_cast<std::uint64_t>(inst));
    res.proposals.push_back(v);
    return v;
  };

  const auto on_decide = [&](int inst, std::int64_t value) {
    // Datagrams leaving from here on advertise the new frontier in
    // their header epoch (the link stamps it at transmit time).
    link.set_epoch(static_cast<std::uint32_t>(inst + 1));
    if (auto it = batches.find(inst); it != batches.end()) {
      for (const PendingSubmit& s : it->second) {
        Reply rp;
        rp.req_seq = s.req_seq;
        rp.instance = static_cast<std::uint64_t>(inst);
        rp.decision = value;
        buf.clear();
        encode_reply(rp, &buf);
        link.send(s.client, buf);
        ClientSlot& cs = slots[static_cast<std::size_t>(s.client - cfg.n)];
        cs.have_served = true;
        cs.served_req = s.req_seq;
        cs.served_instance = static_cast<std::uint64_t>(inst);
        cs.served_value = value;
        ++res.proposals_served;
      }
      batches.erase(it);
    }
  };

  ServiceProcess* proc = nullptr;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    if (pid != cfg.id) {
      sim.add_process(std::make_unique<rt::RemoteStub>(pid, cfg.n, cfg.t));
    } else {
      auto p = std::make_unique<ServiceProcess>(
          pid, cfg.n, cfg.t, omega, fold, on_decide,
          [&pending] { return !pending.empty(); }, wal.tainted_max,
          wal.incarnation);
      proc = p.get();
      sim.add_process(std::move(p));
    }
  }

  rt::RtBridge bridge(cfg.id, link, sim);
  sim.network().set_remote_hook(&bridge);

  // -------------------------------------------------------------------
  // svc payload dispatch (runs inside link.poll's deliver callback,
  // outside the simulator).
  /// A submission or an adoption changed state the sim can't see yet.
  bool poke = false;
  const auto handle_svc = [&](ProcessId from, const std::uint8_t* data,
                              std::size_t len) {
    Submit sm;
    if (decode_submit(data, len, &sm)) {
      if (from < cfg.n || from >= cfg.n + cfg.svc_client_slots) return;
      ClientSlot& cs = slots[static_cast<std::size_t>(from - cfg.n)];
      if (cs.have_served && sm.req_seq == cs.served_req) {
        // Resubmission of an answered request (the reply got lost):
        // answer from the cache, never re-propose.
        Reply rp;
        rp.req_seq = cs.served_req;
        rp.instance = cs.served_instance;
        rp.decision = cs.served_value;
        buf.clear();
        encode_reply(rp, &buf);
        link.send(from, buf);
        return;
      }
      if (sm.req_seq <= cs.last_req) return;  // in-flight duplicate
      cs.last_req = sm.req_seq;
      pending.push_back(PendingSubmit{from, sm.req_seq, sm.value});
      ++res.proposals_received;
      poke = true;  // an idle driver waits for demand
      return;
    }
    SnapReq rq;
    if (decode_snap_req(data, len, &rq)) {
      if (from < 0 || from >= cfg.n || from == cfg.id) return;
      const std::vector<std::int64_t>& log = proc->log();
      std::uint64_t at = rq.from_instance;
      int chunk = 0;
      while (at < log.size() && chunk < kSnapChunksPerReq) {
        SnapResp out;
        out.start = at;
        out.frontier = log.size();
        const auto cnt = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
            kSnapChunk, log.size() - at));
        const auto base = log.begin() + static_cast<std::ptrdiff_t>(at);
        out.decisions.assign(base, base + cnt);
        buf.clear();
        encode_snap_resp(out, &buf);
        link.send(from, buf);
        at += static_cast<std::uint64_t>(cnt);
        ++chunk;
        ++res.snaps_served;
      }
      return;
    }
    SnapResp sr;
    if (decode_snap_resp(data, len, &sr)) {
      if (from < 0 || from >= cfg.n) return;
      const int fresh = proc->adopt(sr.start, sr.decisions);
      if (fresh > 0) {
        res.snapshot_adopted += static_cast<std::uint64_t>(fresh);
        poke = true;
      }
      return;
    }
  };

  const rt::UdpLink::DeliverFn deliver = [&](ProcessId from,
                                             const std::uint8_t* data,
                                             std::size_t len) {
    std::uint64_t seq = 0;
    if (rt::decode_heartbeat(data, len, &seq)) {
      // Only protocol peers feed the detector (clients never send
      // heartbeats, but the monitor's table is sized n — guard anyway).
      if (from >= 0 && from < cfg.n) monitor.on_heartbeat(from);
      return;
    }
    if (is_svc_payload(data, len)) {
      handle_svc(from, data, len);
      return;
    }
    const sim::Message* m = rt::decode_message(data, len, sim.arena());
    if (m != nullptr) sim.inject_deliver(cfg.id, m);
  };

  rt::Waiter waiter(link.fd());

  std::uint64_t hb_seq = 0;
  const Time start = wall.now_ms();
  const Time end_at = start + cfg.run_for_ms + cfg.linger_ms;
  Time next_snap_at = 0;
  int snap_rotor = (cfg.id + 1) % cfg.n;  // next catch-up target

  for (;;) {
    const Time now = wall.now_ms();
    if (now >= end_at) break;
    if (monitor.heartbeat_due()) {
      const std::vector<std::uint8_t> hb = rt::encode_heartbeat(hb_seq++);
      for (ProcessId pid = 0; pid < cfg.n; ++pid) {
        if (pid != cfg.id) link.send_unreliable(pid, hb);
      }
      ++res.heartbeats_sent;
    }
    poke = false;
    link.poll(deliver);
    if (poke) {
      // A submission or a snapshot adoption changed the driver's wait
      // predicate outside the simulator; inject a no-op delivery
      // (instance -1 routes nowhere) so it re-checks this pump, not at
      // the next global tick.
      sim.inject_deliver(cfg.id,
                         sim.arena().create<core::DecisionMsg>(0, -1));
    }
    monitor.tick();
    sim.pump(now - start);
    // The arena is per-wakeup scratch: nothing points into it once the
    // pump returns (see ServiceProcess), so its chunks serve the next
    // wakeup and server memory follows the in-flight instances.
    sim.recycle_arena();

    // Snapshot catch-up trigger: the observed peer frontier (epoch
    // field of incoming datagrams) says the cluster has moved on.
    const auto my_frontier = static_cast<std::uint64_t>(proc->frontier());
    if (link.max_peer_epoch() >
            my_frontier + static_cast<std::uint64_t>(cfg.svc_jump_threshold) &&
        now >= next_snap_at) {
      const ProcSet suspected = monitor.suspected_now();
      ProcessId target = -1;
      ProcessId fallback = -1;
      for (int step = 0; step < cfg.n; ++step) {
        const auto cand = static_cast<ProcessId>(snap_rotor);
        snap_rotor = (snap_rotor + 1) % cfg.n;
        if (cand == cfg.id) continue;
        if (fallback < 0) fallback = cand;
        if (!suspected.contains(cand)) {
          target = cand;
          break;
        }
      }
      if (target < 0) target = fallback;
      if (target >= 0) {
        SnapReq rq;
        rq.from_instance = my_frontier;
        buf.clear();
        encode_snap_req(rq, &buf);
        link.send(target, buf);
        ++res.snap_requests;
        next_snap_at = now + kSnapRetryMs;
      }
    }
    // The wakeup's one flush, after the pump: the acks poll() staged
    // ride with the replies and phase frames it produced.
    link.maintain();

    Time deadline = end_at;
    const auto consider = [&deadline](Time at) {
      if (at != kNeverTime && at < deadline) deadline = at;
    };
    consider(monitor.next_heartbeat_at());
    consider(link.next_due());
    const Time sim_next = sim.next_event_time();
    if (sim_next != kNeverTime) consider(start + sim_next);
    if (next_snap_at > now) consider(next_snap_at);
    waiter.wait(link, deadline - wall.now_ms());
  }

  res.ok = true;
  res.frontier = static_cast<std::uint64_t>(proc->frontier());
  res.locally_decided = proc->locally_decided();
  res.instances_run = proc->instances_run();
  res.arena_reserved_bytes = sim.arena().bytes_reserved();
  res.log = proc->log();
  res.total_elapsed_ms = wall.now_ms() - start;
  res.final_suspected = monitor.suspected_now();
  res.final_trusted = omega.trusted(cfg.id, wall.now_ms());
  res.events_processed = sim.events_processed();
  res.link_stats = link.stats();
  if (!cfg.metrics_path.empty()) {
    sweep::write_file_atomic(cfg.metrics_path, metrics.to_json());
  }
  if (!cfg.result_path.empty()) {
    sweep::write_file_atomic(cfg.result_path,
                             server_result_json(cfg, res));
  }
  return res;
}

int run_server(const rt::NodeConfig& cfg) {
  const ServerResult res = run_service_node(cfg);
  return res.ok ? 0 : 1;
}

std::string server_result_json(const rt::NodeConfig& cfg,
                               const ServerResult& res) {
  sweep::JsonWriter w;
  w.begin_object();
  // Node-compatible prefix: what the cluster launcher's parser reads
  // (missing keys default to 0 on its side — rounds in particular).
  w.key("id").value(static_cast<std::int64_t>(cfg.id));
  w.key("protocol").value(cfg.protocol);
  w.key("ok").value(res.ok);
  w.key("decided").value(res.frontier > 0);
  w.key("decision").value(res.log.empty() ? INT64_MIN : res.log.back());
  w.key("final_suspected_mask")
      .value(static_cast<std::uint64_t>(res.final_suspected.mask()));
  w.key("final_trusted_mask")
      .value(static_cast<std::uint64_t>(res.final_trusted.mask()));
  w.key("incarnation").value(static_cast<std::uint64_t>(res.incarnation));
  w.key("events_processed").value(res.events_processed);
  w.key("heartbeats_sent").value(res.heartbeats_sent);
  w.key("total_elapsed_ms")
      .value(static_cast<std::int64_t>(res.total_elapsed_ms));
  // Service section.
  w.key("svc_frontier").value(res.frontier);
  w.key("svc_locally_decided").value(res.locally_decided);
  w.key("svc_snapshot_adopted").value(res.snapshot_adopted);
  w.key("svc_snap_requests").value(res.snap_requests);
  w.key("svc_snaps_served").value(res.snaps_served);
  w.key("svc_proposals_received").value(res.proposals_received);
  w.key("svc_proposals_served").value(res.proposals_served);
  w.key("svc_batches").value(res.batches);
  w.key("svc_instances_run").value(res.instances_run);
  w.key("sim_arena_reserved_bytes").value(res.arena_reserved_bytes);
  w.key("svc_decisions").begin_array();
  for (std::int64_t v : res.log) w.value(v);
  w.end_array();
  w.key("svc_proposal_instances").begin_array();
  for (std::uint64_t i : res.proposal_instances) w.value(i);
  w.end_array();
  w.key("svc_proposal_values").begin_array();
  for (std::int64_t v : res.proposals) w.value(v);
  w.end_array();
  // Link stats, same keys as node_result_json.
  w.key("datagrams_sent").value(res.link_stats.datagrams_sent);
  w.key("datagrams_received").value(res.link_stats.datagrams_received);
  w.key("frames_sent").value(res.link_stats.frames_sent);
  w.key("frames_received").value(res.link_stats.frames_received);
  w.key("syscalls_send").value(res.link_stats.syscalls_send);
  w.key("syscalls_recv").value(res.link_stats.syscalls_recv);
  w.key("retransmits").value(res.link_stats.retransmits);
  w.key("dups_dropped").value(res.link_stats.dups_dropped);
  w.key("stale_dropped").value(res.link_stats.stale_dropped);
  w.key("acks_sent").value(res.link_stats.acks_sent);
  w.key("window_stalls").value(res.link_stats.window_stalls);
  w.key("abandoned").value(res.link_stats.abandoned);
  w.key("stale_inc_dropped").value(res.link_stats.stale_inc_dropped);
  w.key("peer_restarts").value(res.link_stats.peer_restarts);
  w.end_object();
  return w.str();
}

void check_service_contract(const rt::ClusterConfig& cfg,
                            rt::ClusterResult* res) {
  constexpr std::size_t kMaxViolations = 8;
  const auto violation = [&](std::string msg) {
    if (res->violations.size() < kMaxViolations) {
      res->violations.push_back(std::move(msg));
    }
  };

  std::map<std::uint64_t, std::set<std::int64_t>> decided;
  std::map<std::uint64_t, std::set<std::int64_t>> proposed;
  std::uint64_t max_frontier = 0;
  bool any_demand = false;

  for (const rt::ClusterNodeOutcome& node : res->nodes) {
    if (!node.launched) continue;
    // Every life's proposals, killed ones included, from the WAL (absent
    // on kill-free runs; the result JSON below covers the last life).
    rt::scan_wal(rt::cluster_node_wal_path(cfg, node.id),
                 [&](const rt::WalRecord& r) {
                   if (r.kind == rt::WalKind::kProposed) {
                     proposed[r.m].insert(r.v);
                   }
                 });
    sweep::FlatJson j;
    try {
      j = sweep::load_json_numbers(
          rt::cluster_node_result_path(cfg, node.id));
    } catch (const std::exception&) {
      continue;  // a killed-and-never-restarted node leaves no result
    }
    const auto get = [&](const std::string& k) -> double {
      const auto it = j.find(k);
      return it == j.end() ? 0.0 : it->second;
    };
    any_demand = any_demand || get("svc_proposals_received") > 0;
    const auto frontier = static_cast<std::uint64_t>(get("svc_frontier"));
    max_frontier = std::max(max_frontier, frontier);
    const std::vector<double> log = leading_elements(j, "svc_decisions.");
    for (std::uint64_t i = 0; i < frontier; ++i) {
      if (i == log.size()) {
        violation("svc prefix: node " + std::to_string(node.id) +
                  " frontier " + std::to_string(frontier) +
                  " has a hole at instance " + std::to_string(i));
        break;
      }
      decided[i].insert(static_cast<std::int64_t>(log[i]));
    }
    const std::vector<double> insts =
        leading_elements(j, "svc_proposal_instances.");
    const std::vector<double> vals =
        leading_elements(j, "svc_proposal_values.");
    for (std::size_t i = 0; i < std::min(insts.size(), vals.size()); ++i) {
      proposed[static_cast<std::uint64_t>(insts[i])].insert(
          static_cast<std::int64_t>(vals[i]));
    }
  }

  int max_distinct = 0;
  for (const auto& [inst, vals] : decided) {
    max_distinct = std::max(max_distinct, static_cast<int>(vals.size()));
    if (static_cast<int>(vals.size()) > cfg.k) {
      violation("svc agreement: instance " + std::to_string(inst) +
                " decided " + std::to_string(vals.size()) +
                " distinct values (k=" + std::to_string(cfg.k) + ")");
    }
  }
  // Killed lives' proposals survive in the WAL, so validity holds on
  // every run without link faults; injected faults can strand a batch's
  // proposer.
  if (cfg.chaos.faults.empty()) {
    for (const auto& [inst, vals] : decided) {
      const auto pit = proposed.find(inst);
      for (const std::int64_t v : vals) {
        if (pit == proposed.end() || pit->second.count(v) == 0) {
          violation("svc validity: instance " + std::to_string(inst) +
                    " decided " + std::to_string(v) +
                    ", which no node proposed");
        }
      }
    }
  }
  // Instances run on demand: a cluster nobody submitted to decides
  // nothing, and that is progress enough.
  if (any_demand && max_frontier == 0) {
    violation("svc progress: proposals were received but no node decided "
              "any instance");
  }
  res->distinct_decided = max_distinct;
  if (!res->violations.empty() && res->detail.empty()) {
    res->detail = res->violations.front();
  }
}

}  // namespace saf::svc
