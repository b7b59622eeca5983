// Shared machinery of the live node loops (rt/node.cpp and the decision
// service in svc/server.cpp): the inert remote-process stub, the
// outbound transport bridge, and the epoll waiter.
//
// These are the embedded-simulator seams described in rt/node.h; they
// are kept header-only so both loops compile the same splice without a
// cross-library dependency beyond saf_rt.
#pragma once

#include <sys/epoll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "rt/codec.h"
#include "rt/udp_link.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "util/types.h"

namespace saf::rt {

/// Placeholder for a protocol process living in another OS process.
/// Never runs a task; traffic addressed to it leaves via the transport
/// hook before the local delivery path is reached.
class RemoteStub final : public sim::Process {
 public:
  using Process::Process;
  void boot() override {}
};

/// The outbound seam: sends addressed to non-local ids are encoded and
/// carried by the UdpLink; self-addressed sends are handed straight
/// back to the engine at the current instant, so a local hop costs no
/// virtual time (the simulator's delay policy would charge it 1 ms,
/// and the asynchronous model allows any delay).
class RtBridge final : public sim::RemoteTransportHook {
 public:
  RtBridge(ProcessId self, UdpLink& link, sim::Simulator& sim)
      : self_(self), link_(link), sim_(sim) {}

  /// Invoked once, synchronously, *before* this round's first reliable
  /// remote send hits the link — the write-ahead point where the node's
  /// WAL marks the round externalized (rt/chaos.h's taint bit). Local
  /// deliveries never leave the process and do not fire it.
  void set_on_first_send(std::function<void()> fn) {
    on_first_send_ = std::move(fn);
  }

  bool forward(ProcessId from, ProcessId to, Time now,
               const sim::Message& m) override {
    (void)from;
    (void)now;
    if (to == self_) {
      // Dispatched later within the same pump (inject_deliver queues
      // at now, behind everything already due at this instant).
      sim_.inject_deliver(to, &m);
      return true;
    }
    buf_.clear();
    if (!encode_message(m, &buf_)) {
      // Outside the rt vocabulary — nothing a stub could do with it
      // anyway; count and swallow.
      ++encode_failures_;
      return true;
    }
    if (on_first_send_) {
      on_first_send_();
      on_first_send_ = nullptr;
    }
    link_.send(to, buf_);
    return true;
  }

  std::uint64_t encode_failures() const { return encode_failures_; }

 private:
  ProcessId self_;
  UdpLink& link_;
  sim::Simulator& sim_;
  std::vector<std::uint8_t> buf_;
  std::uint64_t encode_failures_ = 0;
  std::function<void()> on_first_send_;
};

/// epoll wakeup: the loop sleeps until the socket is readable or the
/// deadline passes (epoll_wait's own millisecond timeout) — no fixed
/// pump quantum, one syscall per sleep. Degrades to a poll(2) wait if
/// the epoll instance cannot be created.
class Waiter {
 public:
  explicit Waiter(int socket_fd) {
    // epoll_wait pads its timeout by the thread's timer slack, 50 us by
    // default: a late wakeup on every timed sleep. At 1 ns the timeout
    // is as punctual as an armed timerfd for the loops' short sleeps.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    ep_ = ::epoll_create1(0);
    if (ep_ < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = socket_fd;
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, socket_fd, &ev) != 0) {
      ::close(ep_);
      ep_ = -1;
    }
  }

  ~Waiter() {
    if (ep_ >= 0) ::close(ep_);
  }

  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  /// Sleeps until the socket is readable or `delay_ms` elapsed.
  void wait(UdpLink& link, Time delay_ms) {
    if (delay_ms <= 0) return;
    if (ep_ < 0) {
      link.wait_readable(static_cast<int>(delay_ms));
      return;
    }
    epoll_event ev;
    (void)::epoll_wait(ep_, &ev, 1, static_cast<int>(delay_ms));
  }

 private:
  int ep_ = -1;
};

}  // namespace saf::rt
