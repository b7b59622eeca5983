#include "rt/wire.h"

#include "util/check.h"

namespace saf::rt::wire {

namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Header field offsets.
constexpr std::size_t kOffFrom = 4;
constexpr std::size_t kOffInc = 8;
constexpr std::size_t kOffDestInc = 12;
constexpr std::size_t kOffEpoch = 16;
constexpr std::size_t kOffCumAck = 20;
constexpr std::size_t kOffNFrames = 28;

}  // namespace

DatagramBuilder::DatagramBuilder(std::size_t capacity) : buf_(capacity) {
  SAF_CHECK_MSG(capacity >= kDatagramHeader + kFrameHeader,
                "DatagramBuilder: capacity below one header + frame");
}

void DatagramBuilder::begin(ProcessId from, std::uint32_t epoch,
                            std::uint32_t incarnation) {
  size_ = kDatagramHeader;
  frames_ = 0;
  epoch_ = epoch;
  put_u32(buf_.data(), kMagic);
  put_u32(buf_.data() + kOffFrom, static_cast<std::uint32_t>(from));
  put_u32(buf_.data() + kOffInc, incarnation);
  put_u32(buf_.data() + kOffDestInc, 0);
  put_u32(buf_.data() + kOffEpoch, epoch);
  put_u64(buf_.data() + kOffCumAck, 0);
  put_u16(buf_.data() + kOffNFrames, 0);
}

bool DatagramBuilder::fits(std::size_t payload_len) const {
  return frames_ < kMaxFrames &&
         size_ + kFrameHeader + payload_len <= buf_.size();
}

void DatagramBuilder::add_frame(FrameKind kind, std::uint64_t seq,
                                const std::uint8_t* payload, std::size_t len) {
  SAF_CHECK_MSG(size_ >= kDatagramHeader, "DatagramBuilder: begin() first");
  SAF_CHECK_MSG(fits(len), "DatagramBuilder: frame does not fit");
  std::uint8_t* p = buf_.data() + size_;
  p[0] = static_cast<std::uint8_t>(kind);
  put_u64(p + 1, seq);
  put_u16(p + 9, static_cast<std::uint16_t>(len));
  if (len > 0) std::copy(payload, payload + len, p + kFrameHeader);
  size_ += kFrameHeader + len;
  ++frames_;
  put_u16(buf_.data() + kOffNFrames, static_cast<std::uint16_t>(frames_));
}

void DatagramBuilder::set_cum_ack(std::uint64_t cum_ack) {
  SAF_CHECK_MSG(size_ >= kDatagramHeader, "DatagramBuilder: begin() first");
  put_u64(buf_.data() + kOffCumAck, cum_ack);
}

void DatagramBuilder::set_dest_inc(std::uint32_t dinc) {
  SAF_CHECK_MSG(size_ >= kDatagramHeader, "DatagramBuilder: begin() first");
  put_u32(buf_.data() + kOffDestInc, dinc);
}

void DatagramBuilder::set_epoch(std::uint32_t epoch) {
  SAF_CHECK_MSG(size_ >= kDatagramHeader, "DatagramBuilder: begin() first");
  epoch_ = epoch;
  put_u32(buf_.data() + kOffEpoch, epoch);
}

bool DatagramReader::init(const std::uint8_t* data, std::size_t len) {
  emitted_ = 0;
  nframes_ = 0;
  p_ = end_ = nullptr;
  if (len < kDatagramHeader || get_u32(data) != kMagic) return false;
  from_ = static_cast<ProcessId>(get_u32(data + kOffFrom));
  incarnation_ = get_u32(data + kOffInc);
  dest_inc_ = get_u32(data + kOffDestInc);
  epoch_ = get_u32(data + kOffEpoch);
  cum_ack_ = get_u64(data + kOffCumAck);
  const std::size_t declared = get_u16(data + kOffNFrames);
  if (declared > kMaxFrames) return false;
  // Structural walk: every declared frame must lie fully inside the
  // buffer, and the buffer must contain nothing else. A truncated frame
  // mid-batch (or any trailing bytes) rejects the whole datagram.
  const std::uint8_t* p = data + kDatagramHeader;
  const std::uint8_t* end = data + len;
  for (std::size_t i = 0; i < declared; ++i) {
    if (static_cast<std::size_t>(end - p) < kFrameHeader) return false;
    if (p[0] > static_cast<std::uint8_t>(FrameKind::kUnreliable)) return false;
    const std::size_t flen = get_u16(p + 9);
    if (static_cast<std::size_t>(end - p) < kFrameHeader + flen) return false;
    p += kFrameHeader + flen;
  }
  if (p != end) return false;
  p_ = data + kDatagramHeader;
  end_ = end;
  nframes_ = declared;
  return true;
}

bool DatagramReader::next(FrameView* f) {
  if (emitted_ >= nframes_) return false;
  f->kind = static_cast<FrameKind>(p_[0]);
  f->seq = get_u64(p_ + 1);
  f->len = get_u16(p_ + 9);
  f->payload = p_ + kFrameHeader;
  p_ += kFrameHeader + f->len;
  ++emitted_;
  return true;
}

}  // namespace saf::rt::wire
