// Wire format v3: framed datagrams for the live runtime.
//
// The v1 transport paid one datagram — and one sendto/recv syscall pair
// — per protocol message, ack and heartbeat. v2 packed many *frames*
// into each datagram behind a small header, so one wire round trip can
// carry a whole protocol round's fan-out plus the acks it provoked; v3
// adds the incarnation pair (inc/dinc) that keeps a killed-and-
// restarted process's two lives apart (rt/chaos.h):
//
//   datagram := magic u32 | from u32 | inc u32 | dinc u32 | epoch u32 |
//               cum_ack u64 | nframes u16 | frame*
//   frame    := kind u8 | seq u64 | len u16 | payload[len]
//
// * `cum_ack` piggybacks on every datagram: the sender of the datagram
//   has received every reliable seq <= cum_ack from the *destination*,
//   so a data-bearing reply retires in-flight state for free.
// * `inc` is the sender's incarnation: 0 for a first-boot process,
//   bumped by one each time the process is killed and restarted with
//   recovered state (rt/chaos.h). Receivers discard datagrams from a
//   dead incarnation and reset per-peer dedup state when a peer's
//   incarnation advances — a restarted peer's fresh seq stream must not
//   be swallowed by the window its previous life filled.
// * `dinc` echoes the *destination's* incarnation as last seen by the
//   sender. A restarted destination ignores cum_ack and ack frames
//   whose echo does not match its current incarnation: those acks
//   account for the previous life's seq stream and would otherwise
//   retire fresh in-flight sends that were never delivered.
// * `epoch` tags the keep-alive round the reliable frames belong to
//   (rt/node.h runs many protocol rounds over one long-lived link);
//   unreliable frames (heartbeats) are epoch-independent.
// * Frame kinds: kData (reliable, sequenced, acked), kAck (acks one
//   seq; batched — a drain's worth of acks rides one datagram), and
//   kUnreliable (heartbeats; no seq semantics).
//
// Validation is all-or-nothing: DatagramReader::init walks the whole
// frame table before the first frame is handed out, so a truncated
// frame mid-batch or a frame count that disagrees with the bytes
// rejects the entire datagram — no partially-believed input (the "no
// creation" clause of the perfect-link contract, now at frame
// granularity). Builder and reader are pure byte-array state machines,
// unit-tested in tests/test_rt_link.cpp without sockets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace saf::rt::wire {

inline constexpr std::uint32_t kMagic = 0x33464153;  // "SAF3" little-endian
inline constexpr std::size_t kDatagramHeader = 4 + 4 + 4 + 4 + 4 + 8 + 2;
inline constexpr std::size_t kFrameHeader = 1 + 8 + 2;
/// Hard cap on frames per datagram; a declared count above this is
/// rejected before any length arithmetic (bounds the validation walk).
inline constexpr std::size_t kMaxFrames = 512;
/// Default datagram capacity: under the loopback/LAN MTU, so a packed
/// datagram never fragments.
inline constexpr std::size_t kMaxDatagram = 1400;

enum class FrameKind : std::uint8_t {
  kData = 0,        ///< reliable: sequenced, acked, retransmitted
  kAck = 1,         ///< acknowledges one reliable seq
  kUnreliable = 2,  ///< fire-and-forget (heartbeats)
};

/// One parsed frame; `payload` points into the datagram buffer
/// (zero-copy — valid as long as the buffer is).
struct FrameView {
  FrameKind kind = FrameKind::kData;
  std::uint64_t seq = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t len = 0;
};

/// Accumulates frames into one datagram-shaped byte buffer. The buffer
/// is preallocated once (capacity bytes) and reused across begin()
/// cycles — no allocation per datagram on the hot path.
class DatagramBuilder {
 public:
  explicit DatagramBuilder(std::size_t capacity = kMaxDatagram);

  /// Resets to an empty datagram with the given header fields.
  void begin(ProcessId from, std::uint32_t epoch, std::uint32_t incarnation = 0);

  /// True iff a frame with `payload_len` bytes still fits.
  bool fits(std::size_t payload_len) const;

  /// Appends one frame. Requires fits(len) and a begun datagram.
  void add_frame(FrameKind kind, std::uint64_t seq, const std::uint8_t* payload,
                 std::size_t len);

  /// Updates the cumulative-ack header field (any time before the bytes
  /// are read; every add_frame keeps it in place).
  void set_cum_ack(std::uint64_t cum_ack);

  /// Updates the destination-incarnation echo header field (set at
  /// transmit time, like the cumulative ack — the last-seen value may
  /// advance while a datagram is under construction).
  void set_dest_inc(std::uint32_t dinc);

  /// Rewrites the epoch header field (and epoch()) of the datagram
  /// under construction.
  void set_epoch(std::uint32_t epoch);

  std::size_t frames() const { return frames_; }
  bool empty() const { return frames_ == 0; }
  std::uint32_t epoch() const { return epoch_; }

  const std::uint8_t* data() const { return buf_.data(); }
  std::size_t size() const { return size_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t size_ = 0;
  std::size_t frames_ = 0;
  std::uint32_t epoch_ = 0;
};

/// Validating reader over one received datagram. init() performs the
/// full structural check (magic, header length, frame table walk,
/// exact frame count, no trailing bytes); on success next() iterates
/// the frames zero-copy.
class DatagramReader {
 public:
  /// False on any malformed input — wrong magic, short header, a frame
  /// header or payload running past the end, a frame count above
  /// kMaxFrames or disagreeing with the actual bytes.
  bool init(const std::uint8_t* data, std::size_t len);

  ProcessId from() const { return from_; }
  std::uint32_t incarnation() const { return incarnation_; }
  std::uint32_t dest_inc() const { return dest_inc_; }
  std::uint32_t epoch() const { return epoch_; }
  std::uint64_t cum_ack() const { return cum_ack_; }
  std::size_t frames() const { return nframes_; }

  /// Fills `f` with the next frame; false when exhausted. Only valid
  /// after a successful init().
  bool next(FrameView* f);

 private:
  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  ProcessId from_ = -1;
  std::uint32_t incarnation_ = 0;
  std::uint32_t dest_inc_ = 0;
  std::uint32_t epoch_ = 0;
  std::uint64_t cum_ack_ = 0;
  std::size_t nframes_ = 0;
  std::size_t emitted_ = 0;
};

}  // namespace saf::rt::wire
