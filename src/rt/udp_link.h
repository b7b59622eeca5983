// UDP perfect links: exactly-once delivery over a fair-lossy datagram
// socket, at wire-throughput.
//
// The sim substrate gets reliable channels by fiat; the live runtime
// has to *implement* them (cf. the perfect-link layer every deployed
// FD-based system sits on). Each reliable send is stamped with a
// per-peer sequence number and retransmitted with exponential backoff
// until acknowledged; the receiver acks every copy and suppresses
// duplicates through a sliding per-sender window. The composition gives
// the AS_{n,t} channel contract over loopback/LAN UDP:
//
//   * no loss      — retransmission until ack (up to max_retries; a
//                    crashed peer's traffic is abandoned, which the
//                    model permits: channels to crashed processes owe
//                    nothing);
//   * no duplication — the DedupWindow delivers each (sender, seq) once;
//   * no creation  — a magic header + all-or-nothing frame validation
//                    reject stray or malformed datagrams.
//
// Wire format v3 (rt/wire.h) decouples messages from datagrams and
// datagrams from syscalls:
//
//   * frames     — protocol messages, acks and heartbeats are *frames*
//                  packed many-per-datagram; a round's whole fan-out to
//                  one peer rides one datagram, and the acks it provokes
//                  ride back batched (plus a cumulative ack in every
//                  datagram header, so data-bearing replies retire
//                  in-flight state for free);
//   * windows    — at most max_inflight unacked data frames per peer;
//                  further sends queue in a per-peer backlog (the
//                  window_stalls stat counts how often) and are
//                  promoted as acks arrive;
//   * syscalls   — transmission and reception go through fixed
//                  preallocated rings flushed with sendmmsg/recvmmsg,
//                  so one syscall moves up to a ring's worth of
//                  datagrams in each direction; poll() only stages
//                  acks and maintain() is the one flush, so a loop
//                  wakeup sends its acks and data in one sendmmsg;
//   * epochs     — keep-alive nodes (rt/node.h) run many protocol
//                  rounds over one long-lived link; data frames are
//                  tagged with the round epoch (stale-epoch data is
//                  acked but not delivered, future-epoch data is left
//                  for retransmission), while acks and heartbeats are
//                  epoch-independent.
//
// Heartbeats go through send_unreliable(): retransmitting a stale "I am
// alive" would be worse than losing it, and the heartbeat detectors are
// built to tolerate loss.
//
// Fault injection plugs in at the REAL transport through the same
// sim::LinkFaultHook seam the simulator's Network uses: the hook is
// consulted once per *frame* transmission attempt (first sends,
// retransmits, acks, heartbeats alike), so a fault::LinkFaultModel
// configured for 30% loss exercises the retransmission machinery
// itself — tests/test_rt_link.cpp pins exactly-once delivery under it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "rt/clock.h"
#include "rt/wire.h"
#include "sim/message.h"
#include "sim/network.h"
#include "util/types.h"

namespace saf::rt {

/// Backoff of retransmission attempt `attempt` (0-based): base << min(
/// attempt, 6) — the same curve as the simulator's quasi-reliable RB
/// layer, so both substrates degrade identically under loss.
inline Time retry_backoff(Time base, int attempt) {
  return base << (attempt < 6 ? attempt : 6);
}

/// Per-sender duplicate suppression over a sliding sequence window.
/// Pure state machine (no sockets), unit-tested directly.
class DedupWindow {
 public:
  explicit DedupWindow(std::size_t window = 1024);

  /// True iff `seq` was never accepted before. Overflow behavior: a seq
  /// more than `window` behind the newest accepted seq is *assumed
  /// already seen* and rejected — under the link's bounded retransmit
  /// lifetime (max_retries backoffs) a live datagram can never trail
  /// the sender's newest traffic by a full window, so the assumption
  /// only ever discards genuine stragglers of already-acked sends.
  bool fresh(std::uint64_t seq);

  std::uint64_t newest() const { return newest_; }

  /// Highest seq S such that every seq <= S was accepted (or aged out
  /// of the window and is therefore assumed seen). Piggybacked as the
  /// cumulative ack in every outgoing datagram header.
  std::uint64_t cumulative() const { return cum_; }

 private:
  std::size_t window_;
  std::uint64_t newest_ = 0;
  std::uint64_t cum_ = 0;
  bool any_ = false;
  std::vector<std::uint64_t> slot_seq_;  ///< seq held by ring slot, or kEmpty
};

struct UdpLinkParams {
  Time rto_base = 20;        ///< first retransmit after this many ms
  int max_retries = 10;      ///< retransmissions before abandoning a peer
  std::size_t dedup_window = 1024;
  std::size_t max_payload = 1200;  ///< codec payload bound per frame
  /// Sender-side sliding window: unacked data frames allowed in flight
  /// per peer before sends queue in the backlog.
  std::size_t max_inflight = 64;
  /// Datagram capacity (header + packed frames); under the MTU.
  std::size_t max_datagram = wire::kMaxDatagram;
  /// This process's incarnation, stamped into every datagram header: 0
  /// on first boot, +1 per kill/restart cycle (recovered from the WAL —
  /// rt/chaos.h). Receivers drop datagrams from incarnations older than
  /// the newest they have seen for a peer, and reset that peer's dedup
  /// and held-frame state when its incarnation advances.
  std::uint32_t incarnation = 0;
  /// Total addressable link ids, 0 = the protocol `n` passed to the
  /// constructor. The decision service (svc/) sets this to n + client
  /// slots: client endpoints bind as ids n..endpoints-1 (ports
  /// base_port + id) and ride the same reliable-link machinery as
  /// protocol peers. Bounded by kMaxProcs (abandoned_peers() is a
  /// ProcSet). Per-peer state is allocated lazily on first traffic, so
  /// unused slots cost one null pointer each.
  int endpoints = 0;
  /// Keep-alive epoch gating of received *data* frames. On (default):
  /// stale-epoch data is acked but not delivered and future-epoch data
  /// is held or left to retransmission — correct when each epoch is a
  /// fresh protocol instance whose simulator is discarded between
  /// rounds (rt/node.h). Off: data frames are delivered regardless of
  /// header epoch (still acked + deduped); the epoch keeps stamping
  /// outgoing datagrams and feeding max_peer_epoch(), degrading into a
  /// pure frontier signal. The decision service runs with gating off:
  /// its instances are pipelined inside one long-lived simulator and
  /// tagged in-band, so cross-epoch traffic is never stale.
  bool epoch_gating = true;
};

struct UdpLinkStats {
  std::uint64_t datagrams_sent = 0;      ///< datagrams that hit the wire
  std::uint64_t datagrams_received = 0;  ///< well-formed datagrams read
  std::uint64_t frames_sent = 0;         ///< frames packed into them
  std::uint64_t frames_received = 0;     ///< frames parsed out of them
  std::uint64_t syscalls_send = 0;       ///< sendmmsg invocations
  std::uint64_t syscalls_recv = 0;       ///< recvmmsg invocations
  std::uint64_t retransmits = 0;
  std::uint64_t dups_dropped = 0;   ///< receiver-side duplicate suppressions
  std::uint64_t stale_dropped = 0;  ///< acked-but-not-delivered old-epoch data
  std::uint64_t future_held = 0;    ///< next-epoch data buffered for replay
  std::uint64_t acks_sent = 0;      ///< ack frames queued
  std::uint64_t faults_dropped = 0;  ///< frame attempts eaten by the fault hook
  std::uint64_t window_stalls = 0;   ///< sends deferred by a full window
  std::uint64_t abandoned = 0;       ///< reliable sends given up on
  std::uint64_t stale_inc_dropped = 0;  ///< datagrams from dead incarnations
  std::uint64_t peer_restarts = 0;      ///< observed peer incarnation bumps
};

/// One node's UDP endpoint: process id `self` is bound to
/// 127.0.0.1:(base_port + self); peers are addressed by id the same
/// way. Ids beyond the protocol n (service clients) are addressable
/// when UdpLinkParams::endpoints widens the table.
class UdpLink {
 public:
  /// Payload delivery callback: `from` is the link-level sender. `data`
  /// points into the receive ring — valid for the duration of the call
  /// (decode into an arena, as rt/node.cpp does).
  using DeliverFn =
      std::function<void(ProcessId from, const std::uint8_t* data,
                         std::size_t len)>;

  UdpLink(ProcessId self, int n, std::uint16_t base_port, const Clock& clock,
          UdpLinkParams params = {});
  ~UdpLink();

  UdpLink(const UdpLink&) = delete;
  UdpLink& operator=(const UdpLink&) = delete;

  /// False if the socket could not be created/bound (port collision);
  /// every other call is then a no-op.
  bool ok() const { return fd_ >= 0; }

  /// The socket descriptor (for epoll registration); -1 when !ok().
  int fd() const { return fd_; }

  /// Reliable exactly-once send (sequenced, acked, retransmitted).
  /// Frames accumulate in per-peer datagrams until flush() — a loop
  /// wakeup's acks and fan-out leave together in maintain()'s flush.
  void send(ProcessId to, const std::uint8_t* data, std::size_t len);
  void send(ProcessId to, const std::vector<std::uint8_t>& payload) {
    send(to, payload.data(), payload.size());
  }

  /// Fire-and-forget frame (heartbeats). No seq, no ack, no dedup, no
  /// epoch check on the far side.
  void send_unreliable(ProcessId to, const std::vector<std::uint8_t>& payload);

  /// Transmits every buffered datagram (packed frames, piggybacked
  /// cumulative acks) in one sendmmsg per ring's worth; maintain() is
  /// its one caller on a live loop.
  void flush();

  /// Drains every readable datagram (recvmmsg into the preallocated
  /// ring): acks + dedups reliable traffic and hands fresh payloads to
  /// `deliver`. The acks are only staged, so they share a datagram with
  /// what the caller sends that peer before maintain(). Returns
  /// datagrams read.
  int poll(const DeliverFn& deliver);

  /// Retransmits overdue unacked sends, promotes backlogged sends into
  /// freed window space, abandons peers that exhausted max_retries, and
  /// flushes. Call once per loop wakeup, after poll() and whatever the
  /// wakeup sends: until then, staged acks do not leave.
  void maintain();

  /// Processes one already-received datagram (the guts of poll();
  /// public so framing behavior — packed duplicates, epoch skew,
  /// malformed batches — is unit-testable without a second socket).
  void process_datagram(const std::uint8_t* data, std::size_t len,
                        const DeliverFn& deliver);

  /// Blocks until the socket is readable or `timeout_ms` elapsed.
  void wait_readable(int timeout_ms);

  /// Installs (or clears) the per-frame fault hook (not owned). The
  /// hook's drop/duplicate decisions apply to every frame transmission
  /// attempt; corruption replacements are ignored (payloads are opaque
  /// bytes here — corruption belongs to the codec-level tests).
  void set_fault_hook(sim::LinkFaultHook* hook) { fault_hook_ = hook; }

  /// Keep-alive round tag stamped on subsequent reliable sends.
  /// Receivers ack-but-drop data from older epochs and leave data from
  /// newer epochs to retransmission. Transmits nothing: with gating on,
  /// a frame of the new epoch starts a new datagram, so buffered frames
  /// of the old one never share it; with gating off, every datagram
  /// leaves stamped with the epoch current at transmit time.
  void set_epoch(std::uint32_t epoch) { epoch_ = epoch; }
  std::uint32_t epoch() const { return epoch_; }
  std::uint32_t incarnation() const { return params_.incarnation; }

  /// Highest epoch seen in any valid datagram header (every header
  /// carries its sender's *current* epoch, acks and heartbeats
  /// included). A restarted node reads this as the cluster's keep-alive
  /// frontier and jumps its own round forward to rejoin (rt/node.cpp's
  /// catch-up barrier).
  std::uint32_t max_peer_epoch() const { return max_peer_epoch_; }

  /// Reliable sends not yet acknowledged (in flight + backlogged).
  std::size_t pending() const;
  /// Same, ignoring peers in `excluded` (a decided node need not wait
  /// on traffic owed to peers its detector already suspects).
  std::size_t pending_excluding(const ProcSet& excluded) const;

  /// Earliest retransmission deadline among in-flight sends, or
  /// kNeverTime — the epoll loop's timer horizon.
  Time next_due() const;

  /// Peers on which a reliable send was abandoned after max_retries.
  ProcSet abandoned_peers() const { return abandoned_peers_; }

  const UdpLinkStats& stats() const { return stats_; }
  std::uint16_t port_of(ProcessId id) const;
  /// Addressable link ids (protocol n, or UdpLinkParams::endpoints).
  int endpoints() const { return endpoints_; }

 private:
  struct Pending {
    std::uint64_t seq = 0;
    std::uint32_t epoch = 0;
    std::vector<std::uint8_t> payload;
    Time next_due = 0;
    int attempts = 0;  ///< retransmissions already performed
  };

  /// A data frame from the epoch right after ours, held until we
  /// advance (a peer one keep-alive round ahead would otherwise stall
  /// on its retransmission backoff before we see its first frames).
  struct Held {
    std::uint32_t epoch = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> payload;
  };

  struct Peer {
    std::uint64_t next_seq = 1;     ///< per-peer reliable seq stream
    std::deque<Pending> inflight;   ///< transmitted, unacked
    std::deque<Pending> backlog;    ///< waiting for window space
    std::deque<Held> held;          ///< future-epoch frames awaiting replay
    wire::DatagramBuilder builder;  ///< datagram under construction
    DedupWindow dedup;              ///< receive-side suppression
    std::uint32_t inc = 0;          ///< newest incarnation seen from this peer
    bool inc_known = false;         ///< any datagram received from it yet?

    Peer(std::size_t datagram_capacity, std::size_t dedup_window)
        : builder(datagram_capacity), dedup(dedup_window) {}
  };

  /// Appends one frame to `to`'s datagram under construction,
  /// consulting the fault hook; moves the datagram to the send ring
  /// first when the frame would not fit. `epoch` is the datagram epoch
  /// the frame requires (with gating on, builders never mix epochs).
  void append_frame(ProcessId to, wire::FrameKind kind, std::uint64_t seq,
                    const std::uint8_t* payload, std::size_t len,
                    std::uint32_t epoch);
  /// Moves `to`'s built datagram into the send ring (flushing the ring
  /// via sendmmsg when full) and re-begins the builder.
  void enqueue_builder(ProcessId to);
  /// sendmmsg for everything staged in the send ring.
  void flush_ring();
  /// Promotes backlogged sends into freed window space.
  void promote(ProcessId to);
  /// Lazily-created per-peer state for `id` (bounds-checked).
  Peer& peer_of(ProcessId id);
  /// Delivers (and acks) held frames whose epoch caught up with ours.
  void replay_held(const DeliverFn& deliver);
  void retire_upto(ProcessId from, std::uint64_t cum_ack);
  void retire_seq(ProcessId from, std::uint64_t seq);

  ProcessId self_;
  int n_;
  int endpoints_;  ///< addressable ids; peers_ slot count (>= n_)
  std::uint16_t base_port_;
  const Clock& clock_;
  UdpLinkParams params_;
  int fd_ = -1;
  std::uint32_t epoch_ = 0;
  std::uint32_t max_peer_epoch_ = 0;
  /// Lazily populated: a slot stays null until the first send to or
  /// datagram from that id (a 1024-endpoint service link would
  /// otherwise pay ~10 KB of builder+dedup per slot up front).
  std::vector<std::unique_ptr<Peer>> peers_;
  sim::LinkFaultHook* fault_hook_ = nullptr;
  ProcSet abandoned_peers_;
  UdpLinkStats stats_;

  // Fixed syscall-batching rings (sized at construction, reused
  // forever; no allocation on the hot path).
  struct Rings;
  std::unique_ptr<Rings> rings_;
};

}  // namespace saf::rt
