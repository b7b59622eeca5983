// UDP perfect-link suite (src/rt/udp_link).
//
// The pure state machines (backoff curve, dedup window) are pinned
// exactly; the socket paths run over real loopback UDP with a
// TestClock, so retransmission timing is deterministic while delivery
// itself is the genuine kernel datagram path. The headline property —
// exactly-once delivery while a fault::LinkFaultModel eats 30% of every
// transmission attempt — is the live-runtime analogue of the channel
// contract the simulator grants by fiat.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "fault/link_faults.h"
#include "rt/clock.h"
#include "rt/codec.h"
#include "rt/node_loop.h"
#include "rt/udp_link.h"
#include "rt/wire.h"
#include "sim/delay_policy.h"
#include "sim/reliable_broadcast.h"
#include "sim/simulator.h"
#include "core/kset_agreement.h"
#include "core/lower_wheel.h"
#include "core/upper_wheel.h"
#include "util/arena.h"

namespace saf::rt {
namespace {

TEST(RetryBackoff, DoublesThenCaps) {
  EXPECT_EQ(retry_backoff(20, 0), 20);
  EXPECT_EQ(retry_backoff(20, 1), 40);
  EXPECT_EQ(retry_backoff(20, 2), 80);
  EXPECT_EQ(retry_backoff(20, 5), 640);
  EXPECT_EQ(retry_backoff(20, 6), 1280);
  // The cap: attempts beyond 6 reuse the 2^6 multiplier.
  EXPECT_EQ(retry_backoff(20, 7), 1280);
  EXPECT_EQ(retry_backoff(20, 100), 1280);
}

TEST(DedupWindow, SuppressesRepeats) {
  DedupWindow w(16);
  EXPECT_TRUE(w.fresh(1));
  EXPECT_FALSE(w.fresh(1));
  EXPECT_TRUE(w.fresh(2));
  EXPECT_TRUE(w.fresh(3));
  EXPECT_FALSE(w.fresh(2));
  EXPECT_EQ(w.newest(), 3u);
}

TEST(DedupWindow, OutOfOrderWithinWindowIsFresh) {
  DedupWindow w(8);
  EXPECT_TRUE(w.fresh(100));
  // 93..99 still fit the window (93 + 8 > 100) and were never seen.
  EXPECT_TRUE(w.fresh(93));
  EXPECT_TRUE(w.fresh(99));
  EXPECT_FALSE(w.fresh(93));
  EXPECT_FALSE(w.fresh(99));
}

TEST(DedupWindow, OverflowAssumesAgedSeqsSeen) {
  DedupWindow w(8);
  EXPECT_TRUE(w.fresh(100));
  // 92 + 8 <= 100: aged out of the window, assumed already delivered —
  // the documented overflow bias (reject, never double-deliver).
  EXPECT_FALSE(w.fresh(92));
  EXPECT_FALSE(w.fresh(1));
  // A slot collision with a newer seq must also reject the older one:
  // 101 and 93 share slot 5 (mod 8), and 93 has aged out by then.
  EXPECT_TRUE(w.fresh(101));
  EXPECT_FALSE(w.fresh(93));
  EXPECT_EQ(w.newest(), 101u);
}

// --- wire format v3: framed datagrams ----------------------------------

TEST(Wire, MultiFrameRoundTrip) {
  wire::DatagramBuilder b;
  b.begin(3, 7);
  const std::uint8_t d1[] = {0x11, 0x22, 0x33};
  const std::uint8_t d2[] = {0x44};
  b.add_frame(wire::FrameKind::kData, 10, d1, sizeof(d1));
  b.add_frame(wire::FrameKind::kAck, 99, nullptr, 0);
  b.add_frame(wire::FrameKind::kUnreliable, 0, d2, sizeof(d2));
  b.set_cum_ack(42);
  EXPECT_EQ(b.frames(), 3u);

  wire::DatagramReader r;
  ASSERT_TRUE(r.init(b.data(), b.size()));
  EXPECT_EQ(r.from(), 3);
  EXPECT_EQ(r.epoch(), 7u);
  EXPECT_EQ(r.cum_ack(), 42u);
  EXPECT_EQ(r.frames(), 3u);

  wire::FrameView f;
  ASSERT_TRUE(r.next(&f));
  EXPECT_EQ(f.kind, wire::FrameKind::kData);
  EXPECT_EQ(f.seq, 10u);
  ASSERT_EQ(f.len, sizeof(d1));
  EXPECT_EQ(std::memcmp(f.payload, d1, sizeof(d1)), 0);
  ASSERT_TRUE(r.next(&f));
  EXPECT_EQ(f.kind, wire::FrameKind::kAck);
  EXPECT_EQ(f.seq, 99u);
  EXPECT_EQ(f.len, 0u);
  ASSERT_TRUE(r.next(&f));
  EXPECT_EQ(f.kind, wire::FrameKind::kUnreliable);
  ASSERT_EQ(f.len, sizeof(d2));
  EXPECT_EQ(f.payload[0], 0x44);
  EXPECT_FALSE(r.next(&f));
}

TEST(Wire, FitsRespectsCapacityAndFrameCap) {
  wire::DatagramBuilder b(wire::kDatagramHeader + 2 * wire::kFrameHeader + 8);
  b.begin(0, 0);
  EXPECT_TRUE(b.fits(8));
  const std::uint8_t pay[8] = {};
  b.add_frame(wire::FrameKind::kData, 1, pay, 8);
  EXPECT_FALSE(b.fits(8));  // second 8-byte frame would overflow
  EXPECT_TRUE(b.fits(0));   // a bare ack still fits
}

TEST(Wire, RejectsMalformedDatagrams) {
  wire::DatagramBuilder b;
  b.begin(1, 0);
  const std::uint8_t pay[] = {0xAA, 0xBB};
  b.add_frame(wire::FrameKind::kData, 1, pay, sizeof(pay));
  b.add_frame(wire::FrameKind::kData, 2, pay, sizeof(pay));
  b.add_frame(wire::FrameKind::kAck, 3, nullptr, 0);
  std::vector<std::uint8_t> buf(b.data(), b.data() + b.size());
  wire::DatagramReader r;
  ASSERT_TRUE(r.init(buf.data(), buf.size()));

  // Every truncation is rejected whole — in particular the ones cutting
  // a frame mid-batch leave the earlier, intact frames undelivered too
  // (all-or-nothing validation).
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_FALSE(r.init(buf.data(), len)) << len;
  }

  // Wrong magic.
  std::vector<std::uint8_t> bad = buf;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(r.init(bad.data(), bad.size()));

  // Frame count disagreeing with the bytes: one more than present...
  bad = buf;
  bad[28] = 4;  // nframes lives at offset 28, little-endian
  EXPECT_FALSE(r.init(bad.data(), bad.size()));
  // ...or fewer, leaving trailing bytes.
  bad = buf;
  bad[28] = 2;
  EXPECT_FALSE(r.init(bad.data(), bad.size()));

  // A declared count beyond kMaxFrames is rejected before any walk.
  bad = buf;
  bad[28] = 0xFF;
  bad[29] = 0xFF;
  EXPECT_FALSE(r.init(bad.data(), bad.size()));

  // Unknown frame kind byte.
  bad = buf;
  bad[wire::kDatagramHeader] = 0x7E;
  EXPECT_FALSE(r.init(bad.data(), bad.size()));

  // Trailing garbage after a well-formed frame table.
  bad = buf;
  bad.push_back(0x00);
  EXPECT_FALSE(r.init(bad.data(), bad.size()));
}

// --- framed receive paths through the link (no second socket) ----------

TEST(UdpLinkFraming, PackedDuplicateSeqsDeliverOnce) {
  TestClock clock;
  UdpLink link(0, 2, 48540, clock);
  ASSERT_TRUE(link.ok());

  // One datagram carrying the same reliable seq twice (a duplicated
  // frame packed into a single batch, as the fault hook's duplicate
  // action produces): the dedup window must fire within the batch.
  wire::DatagramBuilder b;
  b.begin(1, 0);
  const std::uint8_t pay[] = {0x5A};
  b.add_frame(wire::FrameKind::kData, 1, pay, sizeof(pay));
  b.add_frame(wire::FrameKind::kData, 1, pay, sizeof(pay));

  int delivered = 0;
  const UdpLink::DeliverFn collect = [&](ProcessId from,
                                         const std::uint8_t* data,
                                         std::size_t len) {
    EXPECT_EQ(from, 1);
    ASSERT_EQ(len, 1u);
    EXPECT_EQ(data[0], 0x5A);
    ++delivered;
  };
  link.process_datagram(b.data(), b.size(), collect);

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.stats().dups_dropped, 1u);
  // Ack-every-copy: both frames are acked so the sender retires either
  // transmission attempt.
  EXPECT_EQ(link.stats().acks_sent, 2u);
  EXPECT_EQ(link.stats().frames_received, 2u);
  EXPECT_EQ(link.stats().datagrams_received, 1u);
}

TEST(UdpLinkFraming, CumulativeAckRetiresPrefixAndAckFramesTheRest) {
  TestClock clock;
  // Peer 1's port is never bound: nothing real comes back, so the acks
  // are fabricated datagrams fed through the receive path.
  UdpLink link(0, 2, 48544, clock);
  ASSERT_TRUE(link.ok());
  link.send(1, {0x01});
  link.send(1, {0x02});
  link.send(1, {0x03});
  EXPECT_EQ(link.pending(), 3u);

  const UdpLink::DeliverFn none = [](ProcessId, const std::uint8_t*,
                                     std::size_t) { FAIL(); };
  // A frameless datagram whose header cum_ack covers seqs 1..2.
  wire::DatagramBuilder b;
  b.begin(1, 0);
  b.set_cum_ack(2);
  link.process_datagram(b.data(), b.size(), none);
  EXPECT_EQ(link.pending(), 1u);

  // A selective ack frame retires the straggler.
  b.begin(1, 0);
  b.add_frame(wire::FrameKind::kAck, 3, nullptr, 0);
  link.process_datagram(b.data(), b.size(), none);
  EXPECT_EQ(link.pending(), 0u);
}

TEST(UdpLinkFraming, WindowStallsThenPromotesOnAck) {
  TestClock clock;
  UdpLinkParams params;
  params.max_inflight = 2;
  UdpLink link(0, 2, 48548, clock, params);
  ASSERT_TRUE(link.ok());

  for (int i = 0; i < 5; ++i) {
    link.send(1, {static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(link.pending(), 5u);  // 2 in flight + 3 backlogged
  EXPECT_EQ(link.stats().window_stalls, 3u);
  const std::uint64_t framed_before = link.stats().frames_sent;

  // Acking the in-flight prefix promotes backlog into the open window.
  const UdpLink::DeliverFn none = [](ProcessId, const std::uint8_t*,
                                     std::size_t) { FAIL(); };
  wire::DatagramBuilder b;
  b.begin(1, 0);
  b.set_cum_ack(2);
  link.process_datagram(b.data(), b.size(), none);
  EXPECT_EQ(link.pending(), 3u);
  EXPECT_EQ(link.stats().frames_sent, framed_before + 2);  // 2 promoted
}

TEST(UdpLinkFraming, EpochSkewAcksStaleHoldsFuture) {
  TestClock clock;
  UdpLink link(0, 2, 48552, clock);
  ASSERT_TRUE(link.ok());
  link.set_epoch(1);

  int delivered = 0;
  const UdpLink::DeliverFn count = [&](ProcessId, const std::uint8_t*,
                                       std::size_t) { ++delivered; };

  // Stale (epoch 0 < 1): acked — the sender must stop retransmitting —
  // but never delivered; the round it belonged to is gone.
  wire::DatagramBuilder b;
  b.begin(1, 0);
  const std::uint8_t pay[] = {0x01};
  b.add_frame(wire::FrameKind::kData, 1, pay, sizeof(pay));
  link.process_datagram(b.data(), b.size(), count);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().stale_dropped, 1u);
  EXPECT_EQ(link.stats().acks_sent, 1u);

  // Future (epoch 2 > 1): neither delivered nor acked yet — held for
  // replay so the frame is not hostage to the peer's retransmission
  // backoff once this node advances.
  b.begin(1, 2);
  const std::uint8_t pay2[] = {0x02};
  b.add_frame(wire::FrameKind::kData, 7, pay2, sizeof(pay2));
  link.process_datagram(b.data(), b.size(), count);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().future_held, 1u);
  EXPECT_EQ(link.stats().acks_sent, 1u);

  // Advancing replays the held frame through the normal path: exactly
  // one delivery, now acked.
  link.set_epoch(2);
  link.poll(count);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.stats().acks_sent, 2u);
  // The retransmitted copy that eventually arrives is a duplicate.
  link.process_datagram(b.data(), b.size(), count);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.stats().dups_dropped, 1u);
}

// --- incarnations: kill/restart survival at the link layer -------------

TEST(UdpLinkIncarnation, StaleIncarnationDatagramsDroppedWhole) {
  TestClock clock;
  UdpLink link(0, 2, 48560, clock);
  ASSERT_TRUE(link.ok());

  int delivered = 0;
  const UdpLink::DeliverFn count = [&](ProcessId, const std::uint8_t*,
                                       std::size_t) { ++delivered; };

  // Peer 1's restarted life (inc 1) is seen first.
  wire::DatagramBuilder b;
  b.begin(1, 0, 1);
  const std::uint8_t pay[] = {0x01};
  b.add_frame(wire::FrameKind::kData, 1, pay, sizeof(pay));
  link.process_datagram(b.data(), b.size(), count);
  EXPECT_EQ(delivered, 1);

  // A straggler from the dead incarnation (inc 0) — a datagram that sat
  // in a kernel buffer across the SIGKILL — is dropped whole: not
  // delivered, not acked, its cum_ack not believed.
  b.begin(1, 0, 0);
  b.set_cum_ack(99);
  const std::uint8_t pay2[] = {0x02};
  b.add_frame(wire::FrameKind::kData, 2, pay2, sizeof(pay2));
  const std::uint64_t acks_before = link.stats().acks_sent;
  link.process_datagram(b.data(), b.size(), count);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.stats().stale_inc_dropped, 1u);
  EXPECT_EQ(link.stats().acks_sent, acks_before);
}

TEST(UdpLinkIncarnation, PeerRestartResetsDedupWindow) {
  TestClock clock;
  UdpLink link(0, 2, 48564, clock);
  ASSERT_TRUE(link.ok());

  std::vector<int> seen;
  const UdpLink::DeliverFn collect = [&](ProcessId, const std::uint8_t* data,
                                         std::size_t len) {
    ASSERT_EQ(len, 1u);
    seen.push_back(data[0]);
  };

  // First life: seq 1 delivered, its duplicate suppressed.
  wire::DatagramBuilder b;
  b.begin(1, 0, 0);
  const std::uint8_t first[] = {0xA1};
  b.add_frame(wire::FrameKind::kData, 1, first, sizeof(first));
  link.process_datagram(b.data(), b.size(), collect);
  link.process_datagram(b.data(), b.size(), collect);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(link.stats().dups_dropped, 1u);

  // Restarted life re-uses seq 1 for *different* data. Without the
  // dedup reset the old window would swallow the new stream.
  b.begin(1, 0, 1);
  const std::uint8_t second[] = {0xB2};
  b.add_frame(wire::FrameKind::kData, 1, second, sizeof(second));
  link.process_datagram(b.data(), b.size(), collect);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], 0xB2);
  EXPECT_EQ(link.stats().peer_restarts, 1u);
}

TEST(UdpLinkIncarnation, AcksFencedOnDestIncarnationEcho) {
  TestClock clock;
  UdpLinkParams params;
  params.incarnation = 1;  // this process restarted once
  UdpLink link(0, 2, 48568, clock, params);
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(link.incarnation(), 1u);

  link.send(1, {0x11});
  link.send(1, {0x22});
  EXPECT_EQ(link.pending(), 2u);

  const UdpLink::DeliverFn none = [](ProcessId, const std::uint8_t*,
                                     std::size_t) { FAIL(); };

  // A peer that has not yet seen our restart echoes dinc 0: its acks
  // account for the previous life's seq stream and must not retire the
  // fresh sends — neither the cumulative mark nor an ack frame.
  wire::DatagramBuilder b;
  b.begin(1, 0, 0);
  b.set_dest_inc(0);
  b.set_cum_ack(1);
  b.add_frame(wire::FrameKind::kAck, 2, nullptr, 0);
  link.process_datagram(b.data(), b.size(), none);
  EXPECT_EQ(link.pending(), 2u);

  // Once the echo matches our incarnation the same acks retire.
  b.begin(1, 0, 0);
  b.set_dest_inc(1);
  b.set_cum_ack(1);
  b.add_frame(wire::FrameKind::kAck, 2, nullptr, 0);
  link.process_datagram(b.data(), b.size(), none);
  EXPECT_EQ(link.pending(), 0u);
}

TEST(UdpLinkIncarnation, RejoinSeesEpochFrontierAndReplaysNextRound) {
  TestClock clock;
  UdpLinkParams params;
  params.incarnation = 1;  // a restarted node catching up
  UdpLink link(0, 2, 48572, clock, params);
  ASSERT_TRUE(link.ok());

  int delivered = 0;
  const UdpLink::DeliverFn count = [&](ProcessId, const std::uint8_t*,
                                       std::size_t) { ++delivered; };

  // The cluster moved on while we were dead: any valid datagram header
  // carries its sender's current epoch, which feeds the rejoin barrier.
  wire::DatagramBuilder b;
  b.begin(1, 7, 0);
  link.process_datagram(b.data(), b.size(), count);
  EXPECT_EQ(link.max_peer_epoch(), 7u);
  EXPECT_EQ(delivered, 0);

  // Jump to the frontier (what rt/node's catch-up does). Data for the
  // epoch right after ours is held, then replayed — exactly once — when
  // we advance into it.
  link.set_epoch(7);
  b.begin(1, 8, 0);
  const std::uint8_t pay[] = {0x77};
  b.add_frame(wire::FrameKind::kData, 1, pay, sizeof(pay));
  link.process_datagram(b.data(), b.size(), count);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().future_held, 1u);
  EXPECT_EQ(link.max_peer_epoch(), 8u);

  link.set_epoch(8);
  link.poll(count);
  EXPECT_EQ(delivered, 1);
  // The retransmitted copy that eventually lands is a duplicate.
  link.process_datagram(b.data(), b.size(), count);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.stats().dups_dropped, 1u);
}

// --- widened endpoint table: service clients beyond the protocol n -----

TEST(UdpLinkEndpoints, ClientIdsBeyondProtocolNExchangeReliably) {
  TestClock clock;
  // A 2-node protocol whose link table is widened to 6 endpoints: ids
  // 2..5 are service-client slots. The client binds as one of them and
  // talks to node 0 over real loopback with the full reliable machinery.
  UdpLinkParams params;
  params.endpoints = 6;
  UdpLink server(0, 2, 48580, clock, params);
  UdpLink client(4, 2, 48580, clock, params);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(server.endpoints(), 6);

  client.send(0, {0xC4});
  client.flush();

  std::vector<ProcessId> server_from;
  const UdpLink::DeliverFn server_collect =
      [&](ProcessId from, const std::uint8_t* data, std::size_t len) {
        ASSERT_EQ(len, 1u);
        EXPECT_EQ(data[0], 0xC4);
        server_from.push_back(from);
      };
  int client_got = 0;
  const UdpLink::DeliverFn client_collect =
      [&](ProcessId from, const std::uint8_t* data, std::size_t len) {
        EXPECT_EQ(from, 0);
        ASSERT_EQ(len, 1u);
        EXPECT_EQ(data[0], 0x5E);
        ++client_got;
      };
  for (int step = 0; step < 100 && (server_from.empty() || client_got == 0 ||
                                    client.pending() + server.pending() > 0);
       ++step) {
    clock.advance(2);
    server.poll(server_collect);
    if (!server_from.empty() && server.stats().frames_sent < 2) {
      server.send(4, {0x5E});  // reply addressed to the client slot
      server.flush();
    }
    server.maintain();
    client.poll(client_collect);
    client.maintain();
  }
  ASSERT_EQ(server_from.size(), 1u);
  EXPECT_EQ(server_from[0], 4);
  EXPECT_EQ(client_got, 1);
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_EQ(server.pending(), 0u);
}

TEST(UdpLinkEndpoints, SendersBeyondTheTableAreDiscarded) {
  TestClock clock;
  UdpLink link(0, 2, 48588, clock);  // endpoints defaults to n = 2
  ASSERT_TRUE(link.ok());

  const UdpLink::DeliverFn none = [](ProcessId, const std::uint8_t*,
                                     std::size_t) { FAIL(); };
  wire::DatagramBuilder b;
  b.begin(3, 0);  // a sender id outside the endpoint table
  const std::uint8_t pay[] = {0x01};
  b.add_frame(wire::FrameKind::kData, 1, pay, sizeof(pay));
  link.process_datagram(b.data(), b.size(), none);
  EXPECT_EQ(link.stats().datagrams_received, 0u);
  EXPECT_EQ(link.stats().acks_sent, 0u);
}

// --- epoch gating off: epochs as a pure frontier signal ----------------

TEST(UdpLinkEpochGating, GatingOffDeliversDataAcrossAnyEpochSkew) {
  TestClock clock;
  UdpLinkParams params;
  params.epoch_gating = false;
  UdpLink link(0, 2, 48592, clock, params);
  ASSERT_TRUE(link.ok());
  link.set_epoch(5);

  std::vector<int> seen;
  const UdpLink::DeliverFn collect = [&](ProcessId, const std::uint8_t* data,
                                         std::size_t len) {
    ASSERT_EQ(len, 1u);
    seen.push_back(data[0]);
  };

  // Far-past epoch: delivered and acked — under pipelining the payload
  // itself names its instance, so no link-level round is ever stale.
  wire::DatagramBuilder b;
  b.begin(1, 0);
  const std::uint8_t old_pay[] = {0x0A};
  b.add_frame(wire::FrameKind::kData, 1, old_pay, sizeof(old_pay));
  link.process_datagram(b.data(), b.size(), collect);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 0x0A);
  EXPECT_EQ(link.stats().stale_dropped, 0u);
  EXPECT_EQ(link.stats().acks_sent, 1u);

  // Far-future epoch (not just +1): delivered immediately, never held.
  b.begin(1, 9);
  const std::uint8_t new_pay[] = {0x0B};
  b.add_frame(wire::FrameKind::kData, 2, new_pay, sizeof(new_pay));
  link.process_datagram(b.data(), b.size(), collect);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], 0x0B);
  EXPECT_EQ(link.stats().future_held, 0u);
  EXPECT_EQ(link.stats().acks_sent, 2u);

  // Dedup still applies, and the header epochs still feed the frontier
  // signal a lagging service node uses to trigger snapshot catch-up.
  link.process_datagram(b.data(), b.size(), collect);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(link.stats().dups_dropped, 1u);
  EXPECT_EQ(link.max_peer_epoch(), 9u);
}

// --- one flush per loop wakeup ----------------------------------------

namespace {

/// Records delivered one-byte payloads.
struct Collector {
  std::vector<int> seen;
  UdpLink::DeliverFn fn() {
    return [this](ProcessId, const std::uint8_t* data, std::size_t len) {
      ASSERT_EQ(len, 1u);
      seen.push_back(data[0]);
    };
  }
};

/// Polls `link` once its socket is readable (loopback datagrams are
/// queued by the sending syscall itself; the wait is a safety net).
int poll_ready(UdpLink& link, const UdpLink::DeliverFn& deliver) {
  link.wait_readable(1000);
  return link.poll(deliver);
}

}  // namespace

TEST(UdpLinkFlush, AcksRideTheWakeupsDataInOneSendmmsg) {
  TestClock clock;
  UdpLink a(0, 2, 48700, clock);
  UdpLink b(1, 2, 48700, clock);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Collector at_a, at_b;

  a.send(1, {0x11});
  a.maintain();
  ASSERT_EQ(a.pending(), 1u);

  // One wakeup of b: poll the data frame, reply to the same peer, then
  // the loop's one maintain().
  ASSERT_EQ(poll_ready(b, at_b.fn()), 1);
  ASSERT_EQ(at_b.seen, std::vector<int>{0x11});
  EXPECT_EQ(b.stats().acks_sent, 1u);
  EXPECT_EQ(b.stats().syscalls_send, 0u);  // poll() staged, sent nothing
  b.send(0, {0x22});
  b.maintain();
  EXPECT_EQ(b.stats().syscalls_send, 1u);
  EXPECT_EQ(b.stats().datagrams_sent, 1u);
  EXPECT_EQ(b.stats().frames_sent, 2u);  // the ack and the reply

  // That one datagram both delivers the reply and retires a's send.
  ASSERT_EQ(poll_ready(a, at_a.fn()), 1);
  EXPECT_EQ(a.stats().datagrams_received, 1u);
  EXPECT_EQ(a.stats().frames_received, 2u);
  EXPECT_EQ(at_a.seen, std::vector<int>{0x22});
  EXPECT_EQ(a.pending(), 0u);
}

TEST(UdpLinkFlush, SetEpochMakesNoSyscall) {
  TestClock clock;
  UdpLink link(0, 2, 48704, clock);
  ASSERT_TRUE(link.ok());
  link.send(1, {0x01});
  link.set_epoch(1);
  link.set_epoch(2);
  EXPECT_EQ(link.stats().syscalls_send, 0u);
  EXPECT_EQ(link.stats().datagrams_sent, 0u);
}

TEST(UdpLinkFlush, GatedEpochsNeverShareADatagram) {
  TestClock clock;
  UdpLink a(0, 2, 48708, clock);
  UdpLink b(1, 2, 48708, clock);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Collector at_b;

  a.send(1, {0x30});
  a.set_epoch(1);
  a.send(1, {0x31});
  a.maintain();
  // Both epochs leave in the one flush, as two datagrams.
  EXPECT_EQ(a.stats().syscalls_send, 1u);
  EXPECT_EQ(a.stats().datagrams_sent, 2u);

  // b, still in epoch 0, delivers the epoch-0 frame and holds the
  // epoch-1 one: each datagram carried a single epoch.
  b.wait_readable(1000);
  for (int i = 0; i < 100 && b.stats().datagrams_received < 2; ++i) {
    b.poll(at_b.fn());
  }
  EXPECT_EQ(b.stats().datagrams_received, 2u);
  EXPECT_EQ(at_b.seen, std::vector<int>{0x30});
  EXPECT_EQ(b.stats().future_held, 1u);
  EXPECT_EQ(b.max_peer_epoch(), 1u);
}

TEST(UdpLinkFlush, UngatedDatagramLeavesStampedWithTheCurrentEpoch) {
  TestClock clock;
  UdpLinkParams params;
  params.epoch_gating = false;
  UdpLink a(0, 2, 48712, clock, params);
  UdpLink b(1, 2, 48712, clock, params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Collector at_b;

  a.send(1, {0x40});  // staged under epoch 0
  a.set_epoch(5);
  a.send(1, {0x41});
  a.maintain();
  EXPECT_EQ(a.stats().syscalls_send, 1u);
  EXPECT_EQ(a.stats().datagrams_sent, 1u);  // no split at the epoch change

  ASSERT_EQ(poll_ready(b, at_b.fn()), 1);
  EXPECT_EQ(at_b.seen, (std::vector<int>{0x40, 0x41}));
  EXPECT_EQ(b.max_peer_epoch(), 5u);
}

// --- retransmission timing against a hand-advanced clock --------------

TEST(UdpLinkTiming, RetransmitsFollowBackoffAndAbandon) {
  TestClock clock;
  UdpLinkParams params;
  params.rto_base = 20;
  params.max_retries = 3;
  // Peer 1's port is never bound: every datagram vanishes, which is
  // indistinguishable from loss — exactly the abandonment scenario.
  UdpLink link(0, 2, 48530, clock, params);
  ASSERT_TRUE(link.ok());

  link.send(1, {0xAB});
  EXPECT_EQ(link.pending(), 1u);
  EXPECT_EQ(link.stats().retransmits, 0u);

  clock.set(19);  // first retransmit due at rto_base = 20
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 0u);

  clock.set(20);  // attempt 1, next due 20 + backoff(1) = 60
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 1u);

  clock.set(59);
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 1u);

  clock.set(60);  // attempt 2, next due 60 + backoff(2) = 140
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 2u);

  clock.set(140);  // attempt 3 (= max_retries), next due 140 + 160 = 300
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 3u);
  EXPECT_EQ(link.pending(), 1u);

  clock.set(300);  // retries exhausted: abandon the peer
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 3u);
  EXPECT_EQ(link.pending(), 0u);
  EXPECT_EQ(link.stats().abandoned, 1u);
  EXPECT_TRUE(link.abandoned_peers().contains(1));
}

TEST(UdpLinkTiming, UnreliableSendIsFireAndForget) {
  TestClock clock;
  UdpLink link(0, 2, 48534, clock);
  ASSERT_TRUE(link.ok());
  link.send_unreliable(1, {0x01});
  EXPECT_EQ(link.pending(), 0u);
  clock.set(10'000);
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 0u);
}

TEST(UdpLinkTiming, FirstContactReoffersInflightFramesAtOnce) {
  TestClock clock;
  UdpLinkParams params;
  params.rto_base = 20;
  // Peer 1's port is never bound, as when a peer has not started yet:
  // the first transmissions vanish.
  UdpLink link(0, 2, 48620, clock, params);
  ASSERT_TRUE(link.ok());
  link.send(1, {0x01});
  link.send(1, {0x02});
  clock.set(5);
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 0u);  // first retransmit due at 20

  const UdpLink::DeliverFn none = [](ProcessId, const std::uint8_t*,
                                     std::size_t) { FAIL(); };
  // The peer's first datagram (it is listening now, and acks nothing):
  // both in-flight frames become due at once.
  wire::DatagramBuilder b;
  b.begin(1, 0, 0);
  link.process_datagram(b.data(), b.size(), none);
  EXPECT_EQ(link.next_due(), 5);
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 2u);
  EXPECT_EQ(link.pending(), 2u);

  // Later datagrams from the same incarnation change nothing: the
  // backoff resumes (attempt 1 is next due at 5 + 40).
  clock.set(6);
  link.process_datagram(b.data(), b.size(), none);
  EXPECT_EQ(link.next_due(), 45);
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 2u);

  // A restarted peer is first contact again: its new incarnation never
  // saw the frames.
  b.begin(1, 0, 1);
  link.process_datagram(b.data(), b.size(), none);
  EXPECT_EQ(link.stats().peer_restarts, 1u);
  link.maintain();
  EXPECT_EQ(link.stats().retransmits, 4u);
}

// --- the embedded simulator's outbound seam ---------------------------

TEST(RtBridge, SelfAddressedSendIsDispatchedWithinTheSamePump) {
  // Process 0 sends to itself at t=3, then to the remote id 1 at t=4.
  class LocalHop final : public sim::Process {
   public:
    using Process::Process;
    sim::ProtocolTask run() override {
      co_await sleep_for(3);
      send_to(id(), core::Phase2Msg{1, 42});
      co_await sleep_for(1);
      send_to(1, core::Phase2Msg{1, 43});
    }
    void on_message(const sim::Message& m) override {
      if (dynamic_cast<const core::Phase2Msg*>(&m) != nullptr) {
        received_at.push_back(now());
      }
    }
    std::vector<Time> received_at;
  };

  TestClock clock;
  UdpLink link(0, 2, 48624, clock);
  ASSERT_TRUE(link.ok());
  sim::SimConfig sc;
  sc.n = 2;
  sc.t = 0;
  sim::Simulator sim(sc, sim::CrashPlan{},
                     std::make_unique<sim::FixedDelay>(1));
  auto& p = static_cast<LocalHop&>(
      sim.add_process(std::make_unique<LocalHop>(0, 2, 0)));
  sim.add_process(std::make_unique<RemoteStub>(1, 2, 0));
  RtBridge bridge(0, link, sim);
  sim.network().set_remote_hook(&bridge);
  int first_sends = 0;
  bridge.set_on_first_send([&] { ++first_sends; });

  sim.pump(3);
  // Delivered at t=3, not at t=3 + the delay policy's 1 ms.
  ASSERT_EQ(p.received_at.size(), 1u);
  EXPECT_EQ(p.received_at[0], 3);
  // The local hop never reached the link, nor the WAL's first-send
  // taint point.
  EXPECT_EQ(link.pending(), 0u);
  EXPECT_EQ(first_sends, 0);

  sim.pump(4);
  EXPECT_EQ(p.received_at.size(), 1u);
  EXPECT_EQ(link.pending(), 1u);
  EXPECT_EQ(first_sends, 1);
}

// --- exactly-once delivery under 30% loss + duplication ---------------

TEST(UdpLinkLoopback, ExactlyOnceUnderLossAndDuplication) {
  constexpr int kMsgs = 150;
  TestClock clock;
  UdpLinkParams params;
  params.rto_base = 5;
  params.max_retries = 20;
  UdpLink sender(0, 2, 48510, clock, params);
  UdpLink receiver(1, 2, 48510, clock, params);
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(receiver.ok());

  // 30% of every transmission attempt — first sends, retransmits, acks
  // alike — is eaten; 20% is duplicated. Deterministic per seed.
  util::Arena arena;
  fault::LinkFaults spec;
  spec.drop = 0.3;
  spec.dup = 0.2;
  fault::LinkFaultModel sender_faults(spec, 2, 7, arena);
  fault::LinkFaultModel receiver_faults(spec, 2, 8, arena);
  sender.set_fault_hook(&sender_faults);
  receiver.set_fault_hook(&receiver_faults);

  for (int i = 0; i < kMsgs; ++i) {
    sender.send(1, {static_cast<std::uint8_t>(i),
                    static_cast<std::uint8_t>(i >> 8)});
  }

  std::map<int, int> delivered;  // payload value -> delivery count
  const UdpLink::DeliverFn collect = [&](ProcessId from,
                                         const std::uint8_t* data,
                                         std::size_t len) {
    ASSERT_EQ(from, 0);
    ASSERT_EQ(len, 2u);
    ++delivered[data[0] | (data[1] << 8)];
  };
  const UdpLink::DeliverFn none = [](ProcessId, const std::uint8_t*,
                                     std::size_t) { FAIL(); };

  for (int step = 0;
       step < 20'000 && (delivered.size() < kMsgs || sender.pending() > 0);
       ++step) {
    clock.advance(2);
    sender.maintain();
    // Drain both directions a few times per step: loopback datagrams
    // are readable immediately, but one poll may interleave with acks
    // still in flight.
    for (int drain = 0; drain < 3; ++drain) {
      receiver.poll(collect);
      receiver.maintain();  // poll() only stages the acks; this sends them
      sender.poll(none);  // acks only; DATA never flows receiver->sender
    }
  }

  // Exactly-once: every payload delivered, none twice, nothing invented.
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kMsgs));
  for (const auto& [value, count] : delivered) {
    EXPECT_GE(value, 0);
    EXPECT_LT(value, kMsgs);
    EXPECT_EQ(count, 1) << "payload " << value << " delivered twice";
  }
  EXPECT_EQ(sender.pending(), 0u);
  EXPECT_TRUE(sender.abandoned_peers().empty());
  // The fault model demonstrably exercised the machinery.
  EXPECT_GT(sender.stats().faults_dropped, 0u);
  EXPECT_GT(sender.stats().retransmits, 0u);
  EXPECT_GT(receiver.stats().dups_dropped, 0u);
}

// --- codec round-trips -------------------------------------------------
//
// Regression pin for a real bug: ProcSet fields decoded with brace
// initialization picked the initializer_list constructor and turned
// mask 3 ({0,1}) into the set {3}. Every multi-member set below would
// catch that again.

TEST(Codec, ProcSetMasksSurviveRoundTrip) {
  util::Arena arena;
  std::vector<std::uint8_t> buf;

  core::Phase1Msg p1{4, ProcSet(0b1011), 107, 2};
  p1.sender = 3;
  ASSERT_TRUE(encode_message(p1, &buf));
  const auto* dp1 = dynamic_cast<const core::Phase1Msg*>(
      decode_message(buf.data(), buf.size(), arena));
  ASSERT_NE(dp1, nullptr);
  EXPECT_EQ(dp1->sender, 3);
  EXPECT_EQ(dp1->round, 4);
  EXPECT_EQ(dp1->leaders.mask(), 0b1011u);
  EXPECT_EQ(dp1->est, 107);
  EXPECT_EQ(dp1->instance, 2);

  buf.clear();
  core::XMoveMsg mv{1, ProcSet(0b0110)};
  mv.sender = 2;
  ASSERT_TRUE(encode_message(mv, &buf));
  const auto* dmv = dynamic_cast<const core::XMoveMsg*>(
      decode_message(buf.data(), buf.size(), arena));
  ASSERT_NE(dmv, nullptr);
  EXPECT_EQ(dmv->leader, 1);
  EXPECT_EQ(dmv->set.mask(), 0b0110u);

  buf.clear();
  core::LMoveMsg lm{ProcSet(0b0011), ProcSet(0b11100)};
  lm.sender = 0;
  ASSERT_TRUE(encode_message(lm, &buf));
  const auto* dlm = dynamic_cast<const core::LMoveMsg*>(
      decode_message(buf.data(), buf.size(), arena));
  ASSERT_NE(dlm, nullptr);
  EXPECT_EQ(dlm->inner.mask(), 0b0011u);
  EXPECT_EQ(dlm->outer.mask(), 0b11100u);
}

TEST(Codec, EnvelopeRoundTripAndRejects) {
  util::Arena arena;

  core::Phase2Msg p2{1, core::kNoValue, 0};
  p2.sender = 4;
  auto* env = arena.create<sim::RbEnvelope>();
  env->sender = 2;  // forwarder, not the origin
  env->origin = 4;
  env->origin_seq = 9;
  env->inner = arena.create<core::Phase2Msg>(p2);

  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(encode_message(*env, &buf));
  const auto* denv = dynamic_cast<const sim::RbEnvelope*>(
      decode_message(buf.data(), buf.size(), arena));
  ASSERT_NE(denv, nullptr);
  EXPECT_EQ(denv->sender, 2);
  EXPECT_EQ(denv->origin, 4);
  EXPECT_EQ(denv->origin_seq, 9u);
  const auto* dp2 = dynamic_cast<const core::Phase2Msg*>(denv->inner);
  ASSERT_NE(dp2, nullptr);
  EXPECT_EQ(dp2->aux, core::kNoValue);

  // Trailing garbage means the buffer is not one well-formed message.
  buf.push_back(0x00);
  EXPECT_EQ(decode_message(buf.data(), buf.size(), arena), nullptr);
  // Truncations must be rejected, never read out of bounds.
  for (std::size_t len = 0; len + 1 < buf.size(); ++len) {
    EXPECT_EQ(decode_message(buf.data(), len, arena), nullptr);
  }
  // Unknown type id.
  const std::uint8_t junk[] = {0xEE, 0, 0, 0, 0};
  EXPECT_EQ(decode_message(junk, sizeof(junk), arena), nullptr);
}

// ProcSet fields travel as a length-prefixed word array (one count byte
// + count little-endian u64 words, trailing zero words trimmed), so
// sets with members >= 64 — impossible under the old fixed 8-byte mask
// format — round-trip exactly.
TEST(Codec, ProcSetsWithHighBitsSurviveRoundTrip) {
  util::Arena arena;
  std::vector<std::uint8_t> buf;

  const ProcSet leaders{1, 63, 64, 129, 1023};
  core::Phase1Msg p1{7, leaders, 55, 1};
  p1.sender = 1023;
  ASSERT_TRUE(encode_message(p1, &buf));
  const auto* dp1 = dynamic_cast<const core::Phase1Msg*>(
      decode_message(buf.data(), buf.size(), arena));
  ASSERT_NE(dp1, nullptr);
  EXPECT_EQ(dp1->sender, 1023);
  EXPECT_EQ(dp1->leaders, leaders);
  EXPECT_EQ(dp1->est, 55);

  buf.clear();
  core::LMoveMsg lm{ProcSet{64, 65}, ProcSet{64, 65, 900}};
  lm.sender = 0;
  ASSERT_TRUE(encode_message(lm, &buf));
  const auto* dlm = dynamic_cast<const core::LMoveMsg*>(
      decode_message(buf.data(), buf.size(), arena));
  ASSERT_NE(dlm, nullptr);
  EXPECT_EQ(dlm->inner, (ProcSet{64, 65}));
  EXPECT_EQ(dlm->outer, (ProcSet{64, 65, 900}));

  // The empty set is the minimal encoding: count byte 0, no words.
  buf.clear();
  core::XMoveMsg mv{5, ProcSet()};
  mv.sender = 2;
  ASSERT_TRUE(encode_message(mv, &buf));
  const auto* dmv = dynamic_cast<const core::XMoveMsg*>(
      decode_message(buf.data(), buf.size(), arena));
  ASSERT_NE(dmv, nullptr);
  EXPECT_TRUE(dmv->set.empty());
}

TEST(Codec, ProcSetWordArrayRejectsTruncationAndOverflow) {
  util::Arena arena;
  std::vector<std::uint8_t> buf;

  core::Phase1Msg p1{7, ProcSet{2, 64, 500}, 55, 1};
  p1.sender = 3;
  ASSERT_TRUE(encode_message(p1, &buf));
  // Every truncation of the datagram is rejected — in particular the
  // ones that cut into the ProcSet word array.
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_EQ(decode_message(buf.data(), len, arena), nullptr) << len;
  }

  // A word count beyond ProcSet capacity is rejected even when enough
  // bytes follow. The count byte sits after type(1) + sender(4) +
  // round(4).
  std::vector<std::uint8_t> big = buf;
  big[9] = static_cast<std::uint8_t>(ProcSet::word_count() + 1);
  big.insert(big.end(), 64, 0xFF);  // plenty of trailing "words"
  EXPECT_EQ(decode_message(big.data(), big.size(), arena), nullptr);
}

}  // namespace
}  // namespace saf::rt
