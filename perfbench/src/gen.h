// Socket-free core of the benchmark's open-loop load generator: the
// seeded arrival schedule, per-endpoint request bookkeeping with
// failover, outcome accounting against the latency limit, and the
// percentile rule. The live workloads (live.cpp) drive real UdpLinks
// with it; tests/test_gen.cpp pins it without sockets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// One scheduled request: due `due_ms` after the load phase starts, sent
/// from client endpoint `endpoint`, proposing `value`.
struct Arrival {
  double due_ms = 0;
  int endpoint = 0;
  std::int64_t value = 0;
};

/// Poisson arrivals at `rate_per_s` over [0, duration_ms), each on an
/// endpoint drawn uniformly from [0, endpoints). A pure function of its
/// arguments. Values are distinct within a schedule and never collide
/// with a server's idle proposal (100 + id).
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double duration_ms, int endpoints);

/// Nearest-rank p-th percentile (0 < p < 100) of `values`, or nothing
/// when fewer than ten samples lie beyond it: a tail figure resting on a
/// handful of samples is not reported.
std::optional<double> tail_percentile(std::vector<double> values, double p);

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> values);

/// Outcome accounting against a latency limit. An unanswered request
/// and one answered after the limit both count as failed; only answered
/// in-limit requests count towards goodput.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t in_limit = 0;
  std::uint64_t late = 0;
  std::uint64_t unanswered = 0;

  /// `latency_ms` empty = never answered.
  void add(std::optional<double> latency_ms, double limit_ms);
  /// in_limit / attempted (1 when nothing was attempted).
  double ok_share() const;
};

/// One client endpoint's requests in flight.
///
/// The servers keep one dedup cursor per client slot and silently drop
/// any Submit whose req_seq is not above the newest one they accepted
/// from that slot. An endpoint may therefore have many requests
/// outstanding, but whenever it moves to another server it must resend
/// its whole outstanding set in increasing req_seq order — resending
/// only the newest would make the new server drop every older one.
class Endpoint {
 public:
  Endpoint(int first_target, int servers)
      : target_(first_target), servers_(servers) {}

  /// Records request `req` (an index into the caller's request table)
  /// as sent now; returns its req_seq (1, 2, ... per endpoint, never
  /// reused, monotone across failovers).
  std::uint64_t submit(std::size_t req, double now_ms);

  /// Retires `req_seq`. Returns its request index if it was outstanding,
  /// nothing for an unknown or already answered req_seq.
  std::optional<std::size_t> answer(std::uint64_t req_seq);

  /// True when the oldest outstanding request was last sent at least
  /// `timeout_ms` ago.
  bool overdue(double now_ms, double timeout_ms) const;

  /// Moves to the next server and returns every outstanding
  /// (req_seq, request) in increasing req_seq order, marked as resent
  /// now. The caller sends them in exactly that order.
  std::vector<std::pair<std::uint64_t, std::size_t>> fail_over(double now_ms);

  int target() const { return target_; }

 private:
  struct Out {
    std::size_t req = 0;
    double sent_ms = 0;
  };
  int target_;
  int servers_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, Out> out_;  ///< ordered by req_seq
};

}  // namespace perfbench
