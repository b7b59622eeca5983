#include "rt/udp_link.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace saf::rt {

namespace {

constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

/// Ring depth for both syscall-batching directions: one sendmmsg /
/// recvmmsg moves up to this many datagrams.
constexpr std::size_t kRingDepth = 64;
/// Receive slot size; comfortably above any datagram the builder emits.
constexpr std::size_t kRecvSlot = 2048;

/// Per-peer cap on held future-epoch frames (bounds replay memory; a
/// peer a full window ahead is covered by retransmission instead).
constexpr std::size_t kMaxHeldFrames = 128;

/// Stand-in payload handed to the LinkFaultHook for each frame
/// transmission attempt: at this layer the content is opaque bytes, so
/// the hook sees one fixed tag and nothing corruptible.
struct RawDatagram final : sim::Message {
  std::string_view tag() const override { return "udp"; }
};
const RawDatagram kRawDatagram{};

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return a;
}

}  // namespace

DedupWindow::DedupWindow(std::size_t window)
    : window_(window), slot_seq_(window, kEmptySlot) {
  SAF_CHECK_MSG(window >= 1, "DedupWindow: window must be >= 1");
}

bool DedupWindow::fresh(std::uint64_t seq) {
  if (any_ && seq + window_ <= newest_) return false;  // aged out: assume seen
  const std::size_t slot = static_cast<std::size_t>(seq % window_);
  if (slot_seq_[slot] == seq) return false;
  slot_seq_[slot] = seq;
  if (!any_ || seq > newest_) newest_ = seq;
  any_ = true;
  // Advance the cumulative mark: a seq counts as received once accepted
  // into its slot, or once it aged out of the window entirely (assumed
  // seen — the same reject-biased assumption the overflow path makes).
  for (;;) {
    const std::uint64_t next = cum_ + 1;
    if (slot_seq_[static_cast<std::size_t>(next % window_)] == next ||
        next + window_ <= newest_) {
      cum_ = next;
      continue;
    }
    break;
  }
  return true;
}

struct UdpLink::Rings {
  // Send side: staged datagrams copied out of per-peer builders.
  std::vector<std::uint8_t> send_buf;
  std::vector<sockaddr_in> send_addr;
  std::vector<iovec> send_iov;
  std::vector<mmsghdr> send_msgs;
  std::size_t staged = 0;
  std::size_t slot_bytes = 0;

  // Receive side: fixed buffers recvmmsg scatters into.
  std::vector<std::uint8_t> recv_buf;
  std::vector<iovec> recv_iov;
  std::vector<mmsghdr> recv_msgs;

  explicit Rings(std::size_t max_datagram) : slot_bytes(max_datagram) {
    send_buf.resize(kRingDepth * max_datagram);
    send_addr.resize(kRingDepth);
    send_iov.resize(kRingDepth);
    send_msgs.resize(kRingDepth);
    recv_buf.resize(kRingDepth * kRecvSlot);
    recv_iov.resize(kRingDepth);
    recv_msgs.resize(kRingDepth);
    for (std::size_t i = 0; i < kRingDepth; ++i) {
      recv_iov[i] = {recv_buf.data() + i * kRecvSlot, kRecvSlot};
      std::memset(&recv_msgs[i], 0, sizeof(mmsghdr));
      recv_msgs[i].msg_hdr.msg_iov = &recv_iov[i];
      recv_msgs[i].msg_hdr.msg_iovlen = 1;
    }
  }
};

UdpLink::UdpLink(ProcessId self, int n, std::uint16_t base_port,
                 const Clock& clock, UdpLinkParams params)
    : self_(self),
      n_(n),
      endpoints_(params.endpoints > 0 ? params.endpoints : n),
      base_port_(base_port),
      clock_(clock),
      params_(params),
      rings_(std::make_unique<Rings>(params.max_datagram)) {
  SAF_CHECK(endpoints_ >= n);
  SAF_CHECK_MSG(endpoints_ <= kMaxProcs,
                "UdpLink: endpoints exceeds kMaxProcs (abandoned_peers is "
                "a ProcSet)");
  SAF_CHECK(self >= 0 && self < endpoints_);
  SAF_CHECK_MSG(params.max_datagram >=
                    wire::kDatagramHeader + wire::kFrameHeader +
                        params.max_payload,
                "UdpLink: max_datagram cannot hold one max_payload frame");
  peers_.resize(static_cast<std::size_t>(endpoints_));
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  // Bursty rounds land a whole cluster's fan-out at once; widen the
  // kernel buffers (best effort — EPERM/ENOBUFS just keep the default).
  const int bufsz = 1 << 20;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bufsz, sizeof(bufsz));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bufsz, sizeof(bufsz));
  sockaddr_in addr = loopback_addr(port_of(self));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UdpLink::~UdpLink() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint16_t UdpLink::port_of(ProcessId id) const {
  return static_cast<std::uint16_t>(base_port_ + id);
}

UdpLink::Peer& UdpLink::peer_of(ProcessId id) {
  auto& slot = peers_[static_cast<std::size_t>(id)];
  if (!slot) {
    slot = std::make_unique<Peer>(params_.max_datagram, params_.dedup_window);
    slot->builder.begin(self_, epoch_, params_.incarnation);
  }
  return *slot;
}

void UdpLink::flush_ring() {
  Rings& r = *rings_;
  if (r.staged == 0 || fd_ < 0) return;
  // Errors (full buffers, dead peer ports) are indistinguishable from
  // loss to the protocol; the retransmission layer absorbs them. A
  // short sendmmsg return drops the tail the same way.
  (void)::sendmmsg(fd_, r.send_msgs.data(), static_cast<unsigned>(r.staged),
                   0);
  ++stats_.syscalls_send;
  stats_.datagrams_sent += r.staged;
  r.staged = 0;
}

void UdpLink::enqueue_builder(ProcessId to) {
  Peer& peer = peer_of(to);
  if (peer.builder.empty()) return;
  peer.builder.set_cum_ack(peer.dedup.cumulative());
  peer.builder.set_dest_inc(peer.inc_known ? peer.inc : 0);
  // Ungated, the header epoch is only the frontier signal: advertise
  // the newest one, whatever epoch the datagram was begun under.
  if (!params_.epoch_gating) peer.builder.set_epoch(epoch_);
  Rings& r = *rings_;
  if (r.staged == kRingDepth) flush_ring();
  const std::size_t slot = r.staged++;
  std::uint8_t* dst = r.send_buf.data() + slot * r.slot_bytes;
  std::memcpy(dst, peer.builder.data(), peer.builder.size());
  r.send_addr[slot] = loopback_addr(port_of(to));
  r.send_iov[slot] = {dst, peer.builder.size()};
  std::memset(&r.send_msgs[slot], 0, sizeof(mmsghdr));
  r.send_msgs[slot].msg_hdr.msg_name = &r.send_addr[slot];
  r.send_msgs[slot].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  r.send_msgs[slot].msg_hdr.msg_iov = &r.send_iov[slot];
  r.send_msgs[slot].msg_hdr.msg_iovlen = 1;
  peer.builder.begin(self_, peer.builder.epoch(), params_.incarnation);
}

void UdpLink::append_frame(ProcessId to, wire::FrameKind kind,
                           std::uint64_t seq, const std::uint8_t* payload,
                           std::size_t len, std::uint32_t epoch) {
  if (fd_ < 0) return;
  int copies = 1;
  if (fault_hook_ != nullptr) {
    const sim::LinkFaultAction a =
        fault_hook_->on_send(self_, to, clock_.now_ms(), kRawDatagram);
    if (a.drop) {
      ++stats_.faults_dropped;
      return;
    }
    if (a.duplicate) copies = 2;
  }
  Peer& peer = peer_of(to);
  for (int c = 0; c < copies; ++c) {
    if ((params_.epoch_gating && peer.builder.epoch() != epoch) ||
        !peer.builder.fits(len)) {
      enqueue_builder(to);
      peer.builder.begin(self_, epoch, params_.incarnation);
    }
    peer.builder.add_frame(kind, seq, payload, len);
    ++stats_.frames_sent;
  }
}

void UdpLink::send(ProcessId to, const std::uint8_t* data, std::size_t len) {
  SAF_CHECK(to >= 0 && to < endpoints_);
  SAF_CHECK_MSG(len <= params_.max_payload,
                "UdpLink::send: payload exceeds max_payload");
  Peer& peer = peer_of(to);
  const std::uint64_t seq = peer.next_seq++;
  Pending p;
  p.seq = seq;
  p.epoch = epoch_;
  p.payload.assign(data, data + len);
  if (peer.inflight.size() < params_.max_inflight) {
    append_frame(to, wire::FrameKind::kData, seq, data, len, epoch_);
    p.next_due = clock_.now_ms() + retry_backoff(params_.rto_base, 0);
    peer.inflight.push_back(std::move(p));
  } else {
    ++stats_.window_stalls;
    peer.backlog.push_back(std::move(p));
  }
}

void UdpLink::send_unreliable(ProcessId to,
                              const std::vector<std::uint8_t>& payload) {
  SAF_CHECK(to >= 0 && to < endpoints_);
  SAF_CHECK_MSG(payload.size() <= params_.max_payload,
                "UdpLink::send_unreliable: payload exceeds max_payload");
  append_frame(to, wire::FrameKind::kUnreliable, 0, payload.data(),
               payload.size(), epoch_);
}

void UdpLink::flush() {
  if (fd_ < 0) return;
  for (ProcessId to = 0; to < endpoints_; ++to) {
    if (peers_[static_cast<std::size_t>(to)]) enqueue_builder(to);
  }
  flush_ring();
}

void UdpLink::promote(ProcessId to) {
  Peer& peer = peer_of(to);
  while (!peer.backlog.empty() &&
         peer.inflight.size() < params_.max_inflight) {
    Pending p = std::move(peer.backlog.front());
    peer.backlog.pop_front();
    append_frame(to, wire::FrameKind::kData, p.seq, p.payload.data(),
                 p.payload.size(), p.epoch);
    p.next_due = clock_.now_ms() + retry_backoff(params_.rto_base, 0);
    peer.inflight.push_back(std::move(p));
  }
}

void UdpLink::retire_upto(ProcessId from, std::uint64_t cum_ack) {
  // in-flight entries are seq-sorted (assigned and promoted in order),
  // so the cumulative ack retires a prefix.
  Peer& peer = peer_of(from);
  while (!peer.inflight.empty() && peer.inflight.front().seq <= cum_ack) {
    peer.inflight.pop_front();
  }
}

void UdpLink::retire_seq(ProcessId from, std::uint64_t seq) {
  Peer& peer = peer_of(from);
  for (auto it = peer.inflight.begin(); it != peer.inflight.end(); ++it) {
    if (it->seq == seq) {
      peer.inflight.erase(it);
      return;
    }
  }
}

void UdpLink::process_datagram(const std::uint8_t* data, std::size_t len,
                               const DeliverFn& deliver) {
  wire::DatagramReader reader;
  // no creation: stray or malformed datagrams are discarded whole (a
  // truncated frame mid-batch rejects every frame around it too).
  if (!reader.init(data, len)) return;
  const ProcessId from = reader.from();
  if (from < 0 || from >= endpoints_ || from == self_) return;
  Peer& peer = peer_of(from);
  // Incarnation fencing, before any state is touched: a datagram from a
  // dead incarnation is late traffic from a process that no longer
  // exists — its acks, cum_ack and data all refer to a conversation the
  // restarted peer cannot continue, so the whole datagram is dropped.
  // When the peer's incarnation *advances*, its fresh seq stream
  // restarts at 1; the receive-side window its previous life filled
  // would swallow it as duplicates, so dedup and held-frame state are
  // discarded (our own inflight/backlog toward the peer is kept — the
  // retransmission layer re-offers that data to the new incarnation,
  // which acks it like any first delivery).
  if (peer.inc_known && reader.incarnation() < peer.inc) {
    ++stats_.stale_inc_dropped;
    return;
  }
  if (!peer.inc_known || reader.incarnation() > peer.inc) {
    // First contact with this incarnation: it is listening now, so
    // whatever we sent before it bound its socket (or into its dead
    // predecessor) is re-offered on the next maintain() instead of
    // after the rto_base backoff.
    const Time now = clock_.now_ms();
    for (Pending& pd : peer.inflight) pd.next_due = std::min(pd.next_due, now);
    if (peer.inc_known) {
      ++stats_.peer_restarts;
      peer.dedup = DedupWindow(params_.dedup_window);
      peer.held.clear();
      // The builder may hold staged ack frames for the dead
      // incarnation's data; sent now they would carry the new
      // incarnation echo and retire fresh seqs they never acknowledged.
      // Discard it — first-attempt data frames lost with it are
      // re-offered by the retransmission layer.
      peer.builder.begin(self_, epoch_, params_.incarnation);
    }
    peer.inc = reader.incarnation();
    peer.inc_known = true;
  }
  // Ack validity fence: acks and the cumulative mark account for the
  // seq stream of the incarnation the sender last saw of *us*. After we
  // restart, a peer that has not yet seen our new incarnation still
  // acknowledges our previous life — applying that would retire fresh
  // in-flight sends that were never delivered.
  const bool acks_valid = reader.dest_inc() == params_.incarnation;
  ++stats_.datagrams_received;
  if (reader.epoch() > max_peer_epoch_) max_peer_epoch_ = reader.epoch();
  if (acks_valid) retire_upto(from, reader.cum_ack());
  wire::FrameView f;
  while (reader.next(&f)) {
    ++stats_.frames_received;
    switch (f.kind) {
      case wire::FrameKind::kAck:
        if (acks_valid) retire_seq(from, f.seq);
        break;
      case wire::FrameKind::kData: {
        if (params_.epoch_gating && reader.epoch() > epoch_) {
          // A peer already in a future round. Hold the immediate next
          // epoch's frames for replay when we advance (no ack yet — the
          // replay acks); anything further ahead is left to the peer's
          // retransmission.
          if (reader.epoch() == epoch_ + 1 &&
              peer.held.size() < kMaxHeldFrames) {
            peer.held.push_back(
                {reader.epoch(), f.seq,
                 std::vector<std::uint8_t>(f.payload, f.payload + f.len)});
            ++stats_.future_held;
          }
          break;
        }
        // Ack every copy: the sender keeps retransmitting until one ack
        // survives the link. Acks batch into the peer's next datagram.
        append_frame(from, wire::FrameKind::kAck, f.seq, nullptr, 0, epoch_);
        ++stats_.acks_sent;
        const bool is_fresh = peer.dedup.fresh(f.seq);
        if (params_.epoch_gating && reader.epoch() < epoch_) {
          // Stale round: the payload's simulator is gone. Acking (and
          // feeding the dedup window) silences the sender without
          // delivering.
          ++stats_.stale_dropped;
          break;
        }
        if (is_fresh) {
          deliver(from, f.payload, f.len);
        } else {
          ++stats_.dups_dropped;
        }
        break;
      }
      case wire::FrameKind::kUnreliable:
        deliver(from, f.payload, f.len);
        break;
    }
  }
  promote(from);  // acks may have opened window space
}

void UdpLink::replay_held(const DeliverFn& deliver) {
  for (ProcessId from = 0; from < endpoints_; ++from) {
    Peer* pp = peers_[static_cast<std::size_t>(from)].get();
    if (pp == nullptr) continue;
    Peer& peer = *pp;
    while (!peer.held.empty() && peer.held.front().epoch <= epoch_) {
      const Held h = std::move(peer.held.front());
      peer.held.pop_front();
      if (h.epoch != epoch_) continue;  // skipped past it: retransmission
      append_frame(from, wire::FrameKind::kAck, h.seq, nullptr, 0, epoch_);
      ++stats_.acks_sent;
      if (peer.dedup.fresh(h.seq)) {
        deliver(from, h.payload.data(), h.payload.size());
      } else {
        ++stats_.dups_dropped;
      }
    }
  }
}

int UdpLink::poll(const DeliverFn& deliver) {
  if (fd_ < 0) return 0;
  replay_held(deliver);
  Rings& r = *rings_;
  int read = 0;
  for (;;) {
    const int got = ::recvmmsg(fd_, r.recv_msgs.data(),
                               static_cast<unsigned>(kRingDepth),
                               MSG_DONTWAIT, nullptr);
    if (got <= 0) break;  // EWOULDBLOCK or a transient error: drained
    ++stats_.syscalls_recv;
    for (int i = 0; i < got; ++i) {
      process_datagram(r.recv_buf.data() + static_cast<std::size_t>(i) *
                                               kRecvSlot,
                       r.recv_msgs[static_cast<std::size_t>(i)].msg_len,
                       deliver);
    }
    read += got;
    if (static_cast<std::size_t>(got) < kRingDepth) break;
  }
  return read;
}

void UdpLink::maintain() {
  if (fd_ < 0) return;
  const Time now = clock_.now_ms();
  for (ProcessId to = 0; to < endpoints_; ++to) {
    if (to == self_) continue;
    Peer* pp = peers_[static_cast<std::size_t>(to)].get();
    if (pp == nullptr) continue;
    Peer& peer = *pp;
    promote(to);
    for (auto it = peer.inflight.begin(); it != peer.inflight.end();) {
      if (now < it->next_due) {
        ++it;
        continue;
      }
      if (it->attempts >= params_.max_retries) {
        // The peer is unresponsive past every backoff: abandon, as the
        // model allows for crashed destinations.
        abandoned_peers_.insert(to);
        ++stats_.abandoned;
        it = peer.inflight.erase(it);
        continue;
      }
      ++it->attempts;
      ++stats_.retransmits;
      append_frame(to, wire::FrameKind::kData, it->seq, it->payload.data(),
                   it->payload.size(), it->epoch);
      it->next_due = now + retry_backoff(params_.rto_base, it->attempts);
      ++it;
    }
  }
  flush();
}

std::size_t UdpLink::pending() const {
  std::size_t total = 0;
  for (const auto& p : peers_) {
    if (p) total += p->inflight.size() + p->backlog.size();
  }
  return total;
}

std::size_t UdpLink::pending_excluding(const ProcSet& excluded) const {
  std::size_t total = 0;
  for (ProcessId id = 0; id < endpoints_; ++id) {
    if (excluded.contains(id)) continue;
    const Peer* p = peers_[static_cast<std::size_t>(id)].get();
    if (p != nullptr) total += p->inflight.size() + p->backlog.size();
  }
  return total;
}

Time UdpLink::next_due() const {
  Time due = kNeverTime;
  for (const auto& p : peers_) {
    if (!p) continue;
    for (const Pending& pd : p->inflight) {
      if (due == kNeverTime || pd.next_due < due) due = pd.next_due;
    }
  }
  return due;
}

void UdpLink::wait_readable(int timeout_ms) {
  if (fd_ < 0) return;
  pollfd pfd{fd_, POLLIN, 0};
  (void)::poll(&pfd, 1, timeout_ms);
}

}  // namespace saf::rt
