#include "rt/node.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>

#include "core/kset_agreement.h"
#include "core/two_wheels.h"
#include "fault/fault_spec.h"
#include "fault/link_faults.h"
#include "rt/chaos.h"
#include "rt/clock.h"
#include "rt/codec.h"
#include "rt/node_loop.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sweep/bench_json.h"
#include "trace/trace.h"
#include "util/check.h"

namespace saf::rt {

namespace {

void publish_metrics(const NodeConfig& cfg, const NodeResult& res,
                     trace::MetricsRegistry& metrics) {
  const UdpLinkStats& s = res.link_stats;
  metrics.counter("rt.datagrams_tx").add(s.datagrams_sent);
  metrics.counter("rt.datagrams_rx").add(s.datagrams_received);
  metrics.counter("rt.frames_tx").add(s.frames_sent);
  metrics.counter("rt.frames_rx").add(s.frames_received);
  metrics.counter("rt.syscalls_send").add(s.syscalls_send);
  metrics.counter("rt.syscalls_recv").add(s.syscalls_recv);
  metrics.counter("rt.window_stalls").add(s.window_stalls);
  metrics.counter("rt.retransmits").add(s.retransmits);
  metrics.counter("rt.stale_dropped").add(s.stale_dropped);
  // Packing ratio, visible per datagram in the histogram (the
  // before/after of wire v2: v1 was pinned at 1 frame per datagram).
  if (s.datagrams_sent > 0) {
    metrics.histogram("rt.frames_per_datagram")
        .record(static_cast<std::int64_t>(s.frames_sent /
                                          s.datagrams_sent));
  }
  if (!cfg.metrics_path.empty()) {
    // tmp+rename: a chaos SIGKILL mid-write must not leave a truncated
    // file for the collector to trip over.
    sweep::write_file_atomic(cfg.metrics_path, metrics.to_json());
  }
}

}  // namespace

NodeResult run_node(const NodeConfig& cfg) {
  SAF_CHECK(cfg.id >= 0 && cfg.id < cfg.n);
  SAF_CHECK(cfg.protocol == "kset" || cfg.protocol == "wheels");
  SAF_CHECK(cfg.rounds >= 1);
  NodeResult res;

  // Crash recovery: load the WAL and append this life's incarnation
  // before any socket or wire activity (rt/chaos.h).
  NodeWal wal;
  WalWriter wal_log;
  const bool wal_enabled = !cfg.wal_path.empty();
  if (wal_enabled) {
    SAF_CHECK_MSG(cfg.protocol == "kset",
                  "run_node: WAL recovery is kset-only");
    wal_log = recover_node_wal(cfg.wal_path, &wal);
  }
  res.incarnation = wal.incarnation;

  WallClock wall;
  UdpLinkParams link_params = cfg.link;
  link_params.incarnation = wal.incarnation;
  UdpLink link(cfg.id, cfg.n, cfg.base_port, wall, link_params);
  if (!link.ok()) return res;  // port collision: ok stays false

  // Chaos link faults on the real transport, through the same
  // sim::LinkFaultHook seam the simulator's Network uses. Partition
  // windows in the spec are relative to this process's start.
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

  HeartbeatMonitor monitor(cfg.id, cfg.n, wall, cfg.hb);
  HeartbeatSuspect sx(monitor);
  HeartbeatOmega omega(monitor, cfg.k);
  HeartbeatPhi phi(monitor, cfg.t, cfg.y);

  std::ofstream trace_out;
  std::unique_ptr<trace::JsonlSink> sink;
  trace::MetricsRegistry metrics;
  if (!cfg.trace_path.empty()) {
    // A restarted incarnation appends (the kill must not erase the
    // previous life's events) after a newline that terminates any line
    // the SIGKILL tore mid-write; the merge skips the torn fragment.
    if (wal.incarnation > 0) {
      trace_out.open(cfg.trace_path, std::ios::app);
      trace_out << "\n";
    } else {
      trace_out.open(cfg.trace_path);
    }
    sink = std::make_unique<trace::JsonlSink>(trace_out);
  }

  Waiter waiter(link.fd());

  const std::int64_t proposal =
      cfg.proposal == core::kNoValue ? 100 + cfg.id : cfg.proposal;

  std::uint64_t hb_seq = 0;
  const Time start = wall.now_ms();
  bool all_decided = true;

  res.rounds.assign(static_cast<std::size_t>(cfg.rounds), RoundResult{});

  // Restore history: completed rounds come back verbatim; a round whose
  // messages already escaped (externalized, or deliveries consumed and
  // acked) is *tainted* — re-running it could decide a second time or
  // replay RB seqs the cluster already absorbed, so it is skipped
  // forever. The first untainted unexecuted round is where this life
  // resumes.
  int round = 0;
  if (wal_enabled) {
    while (round < cfg.rounds) {
      const WalRound* wr = wal.find(round);
      if (wr == nullptr) break;
      if (wr->decided) {
        RoundResult rr;
        rr.decided = true;
        rr.decision = wr->decision;
        rr.decision_ms = wr->decision_ms;
        rr.decision_round = wr->decision_round;
        rr.elapsed_ms = wr->elapsed_ms;
        res.rounds[static_cast<std::size_t>(round)] = rr;
        res.decision = rr.decision;
        res.decision_ms = rr.decision_ms;
        res.decision_round = rr.decision_round;
        ++res.restored_rounds;
      } else if (wr->externalized || wr->delivered) {
        ++res.skipped_rounds;
        all_decided = false;
      } else {
        break;  // untainted and unexecuted: safe to run from scratch
      }
      ++round;
    }
  }

  // Rejoin barrier: a restarted node trusts the epoch tag in incoming
  // datagram headers (acks and heartbeats carry the sender's current
  // round) as the cluster's keep-alive frontier, and jumps forward to
  // it until it manages one post-restart decision. After that first
  // decision it is synchronized and the jump disarms — a slow but
  // healthy node must not leapfrog rounds it could still decide.
  bool catching_up = wal.incarnation > 0;
  const Time rejoin_grace_ms =
      std::max<Time>(1000, 4 * cfg.hb.timeout_initial);
  bool gave_up = false;

  while (round < cfg.rounds) {
    if (catching_up) {
      const int frontier = static_cast<int>(link.max_peer_epoch());
      if (frontier > round) {
        // Rounds leapfrogged here stay undecided (the cluster excuses
        // them for a killed node); land on the frontier itself.
        all_decided = false;
        ++res.catchup_jumps;
        round = frontier < cfg.rounds ? frontier : cfg.rounds - 1;
      }
    }
    // Reliable sends from here on carry this round's epoch; peers still
    // in an older round ignore them until they catch up (the frames sit
    // in the window and retransmit), and this node acks-but-drops
    // stragglers from rounds it already left.
    link.set_epoch(static_cast<std::uint32_t>(round));

    sim::SimConfig scfg;
    scfg.seed = cfg.seed + static_cast<std::uint64_t>(round);
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

    // Wheels plumbing (constructed even for kset — cheap, and keeps the
    // setup code straight-line).
    const int wheels_z = cfg.t + 2 - cfg.x - cfg.y;
    const int outer = cfg.t - cfg.y + 1;
    util::MemberRing xring(cfg.n, cfg.x);
    util::SubsetPairRing lring(cfg.n, outer, wheels_z >= 1 ? wheels_z : 1);
    fd::EmulatedReprStore repr_store(cfg.n);
    fd::EmulatedLeaderStore leader_store(cfg.n);

    core::KSetProcess* kproc = nullptr;
    for (ProcessId pid = 0; pid < cfg.n; ++pid) {
      if (pid != cfg.id) {
        sim.add_process(std::make_unique<RemoteStub>(pid, cfg.n, cfg.t));
      } else if (cfg.protocol == "kset") {
        auto p = std::make_unique<core::KSetProcess>(pid, cfg.n, cfg.t,
                                                     omega, proposal);
        kproc = p.get();
        sim.add_process(std::move(p));
      } else {
        sim.add_process(std::make_unique<core::TwoWheelsProcess>(
            pid, cfg.n, cfg.t, xring, lring, sx, phi, repr_store,
            leader_store));
      }
    }

    RtBridge bridge(cfg.id, link, sim);
    sim.network().set_remote_hook(&bridge);
    if (wal_enabled) {
      // The taint is strictly write-ahead: appended before the round's
      // first reliable send can reach any peer.
      bridge.set_on_first_send(
          [&wal_log, round] { wal_log.append(WalRecord::taint(round)); });
    }
    bool delivered_logged = false;

    const UdpLink::DeliverFn deliver = [&](ProcessId from,
                                           const std::uint8_t* data,
                                           std::size_t len) {
      std::uint64_t seq = 0;
      if (decode_heartbeat(data, len, &seq)) {
        monitor.on_heartbeat(from);
        return;
      }
      const sim::Message* m = decode_message(data, len, sim.arena());
      if (m != nullptr) {
        if (!delivered_logged) {
          // A consumed payload was acked and will never be resent, so
          // the round is tainted for liveness purposes: it must not
          // re-run and wait for messages that cannot come again.
          wal_log.append(WalRecord::delivered(round));
          delivered_logged = true;
        }
        sim.inject_deliver(cfg.id, m);
      }
    };

    const Time round_start = wall.now_ms();
    const bool last_round = round == cfg.rounds - 1;
    Time decided_at = kNeverTime;
    bool jumped = false;
    for (;;) {
      const Time now = wall.now_ms();
      const Time elapsed = now - round_start;
      if (elapsed >= cfg.run_for_ms) break;
      if (catching_up && decided_at == kNeverTime) {
        // Still rejoining: abandon this round the moment the cluster's
        // observed frontier moves past it (the outer loop jumps there),
        // and give up entirely if, after a grace period, every peer is
        // suspected — they all decided and exited before we came back.
        if (static_cast<int>(link.max_peer_epoch()) > round) {
          jumped = true;
          break;
        }
        if (now - start > rejoin_grace_ms &&
            static_cast<int>(monitor.suspected_now().size()) >= cfg.n - 1) {
          gave_up = true;
          break;
        }
      }
      if (monitor.heartbeat_due()) {
        const std::vector<std::uint8_t> hb = encode_heartbeat(hb_seq++);
        for (ProcessId pid = 0; pid < cfg.n; ++pid) {
          if (pid != cfg.id) link.send_unreliable(pid, hb);
        }
        ++res.heartbeats_sent;
      }
      link.poll(deliver);
      monitor.tick();
      sim.pump(elapsed);
      if (kproc != nullptr && decided_at == kNeverTime &&
          kproc->core().decided()) {
        decided_at = now;
        // Durable at the instant of decision, not at end-of-round: a
        // SIGKILL landing in the linger window must not demote this
        // round to tainted-undecided (skipped forever on recovery) when
        // the decision already exists.
        wal_log.append(WalRecord::decided(
            round, kproc->core().decision(), kproc->core().decision_time(),
            kproc->core().decision_round(), elapsed));
        catching_up = false;
      }
      // The wakeup's one flush, after the pump: the acks poll() staged
      // share each peer's datagram with the frames the pump produced.
      link.maintain();
      if (decided_at != kNeverTime &&
          link.pending_excluding(monitor.suspected_now()) == 0) {
        // Traffic owed to every unsuspected peer is acknowledged; the
        // linger (serving acks for stragglers) is only needed before
        // the process exits — between keep-alive rounds the persistent
        // link provides it for free.
        if (!last_round) break;
        if (now - decided_at >= cfg.linger_ms) break;
      }

      // Single timer horizon for everything the v1 loop polled at a
      // 1 ms quantum: heartbeat emission, retransmission deadlines, sim
      // timers/ticks, the linger expiry and the round budget.
      Time deadline = round_start + cfg.run_for_ms;
      const auto consider = [&deadline](Time at) {
        if (at != kNeverTime && at < deadline) deadline = at;
      };
      consider(monitor.next_heartbeat_at());
      consider(link.next_due());
      const Time sim_next = sim.next_event_time();
      if (sim_next != kNeverTime) consider(round_start + sim_next);
      if (decided_at != kNeverTime && last_round) {
        consider(decided_at + cfg.linger_ms);
      }
      waiter.wait(link, deadline - wall.now_ms());
    }

    RoundResult rr;
    rr.start_ms = round_start - start;
    rr.elapsed_ms = wall.now_ms() - round_start;
    if (kproc != nullptr) {
      rr.decided = kproc->core().decided();
      rr.decision = kproc->core().decision();
      rr.decision_ms = kproc->core().decision_time();
      rr.decision_round = kproc->core().decision_round();
      all_decided = all_decided && rr.decided;
      res.final_trusted = omega.trusted(cfg.id, wall.now_ms());
    } else {
      res.final_trusted = leader_store.trusted(cfg.id, wall.now_ms());
    }
    res.decided = kproc != nullptr && all_decided;
    res.decision = rr.decision;
    res.decision_ms = rr.decision_ms;
    res.decision_round = rr.decision_round;
    res.events_processed += sim.events_processed();
    res.rounds[static_cast<std::size_t>(round)] = rr;

    if (rr.decided) {
      // Supersedes the decision-instant record with the round's full
      // wall duration.
      wal_log.append(WalRecord::decided(round, rr.decision, rr.decision_ms,
                                        rr.decision_round, rr.elapsed_ms));
      catching_up = false;  // rejoined: jump disarms
    }

    if (gave_up) {
      all_decided = false;
      res.decided = false;
      res.gave_up = true;
      break;
    }
    if (jumped) continue;  // outer prologue lands on the frontier
    if (kproc != nullptr && !rr.decided) break;  // budget blown: stop
    ++round;
  }

  res.ok = true;
  res.total_elapsed_ms = wall.now_ms() - start;
  res.final_suspected = monitor.suspected_now();
  res.link_stats = link.stats();
  publish_metrics(cfg, res, metrics);

  if (!cfg.result_path.empty()) {
    // tmp+rename: the cluster parses this file the moment the child
    // exits; a kill racing the write must not leave a torn JSON.
    sweep::write_file_atomic(cfg.result_path, node_result_json(cfg, res));
  }
  return res;
}

std::string node_result_json(const NodeConfig& cfg, const NodeResult& res) {
  sweep::JsonWriter w;
  w.begin_object();
  w.key("id").value(static_cast<std::int64_t>(cfg.id));
  w.key("protocol").value(cfg.protocol);
  w.key("ok").value(res.ok);
  w.key("decided").value(res.decided);
  w.key("decision").value(res.decision);
  w.key("decision_ms").value(static_cast<std::int64_t>(res.decision_ms));
  w.key("decision_round").value(res.decision_round);
  w.key("final_suspected_mask")
      .value(static_cast<std::uint64_t>(res.final_suspected.mask()));
  w.key("final_trusted_mask")
      .value(static_cast<std::uint64_t>(res.final_trusted.mask()));
  w.key("incarnation").value(static_cast<std::uint64_t>(res.incarnation));
  w.key("restored_rounds").value(res.restored_rounds);
  w.key("skipped_rounds").value(res.skipped_rounds);
  w.key("catchup_jumps").value(res.catchup_jumps);
  w.key("gave_up").value(res.gave_up);
  w.key("events_processed").value(res.events_processed);
  w.key("heartbeats_sent").value(res.heartbeats_sent);
  w.key("total_elapsed_ms")
      .value(static_cast<std::int64_t>(res.total_elapsed_ms));
  w.key("rounds").begin_array();
  for (const RoundResult& rr : res.rounds) {
    w.begin_object();
    w.key("decided").value(rr.decided);
    w.key("decision").value(rr.decision);
    w.key("decision_ms").value(static_cast<std::int64_t>(rr.decision_ms));
    w.key("decision_round").value(rr.decision_round);
    w.key("start_ms").value(static_cast<std::int64_t>(rr.start_ms));
    w.key("elapsed_ms").value(static_cast<std::int64_t>(rr.elapsed_ms));
    w.end_object();
  }
  w.end_array();
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

}  // namespace saf::rt
