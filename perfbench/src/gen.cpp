#include "gen.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace perfbench {

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double duration_ms, int endpoints) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0 || duration_ms <= 0 || endpoints < 1) return out;
  saf::util::Rng rng(saf::util::derive_seed(seed, "arrivals"));
  const double mean_gap_ms = 1000.0 / rate_per_s;
  double t = 0;
  for (;;) {
    // Exponential inter-arrival gaps; 1 - u lies in (0, 1].
    t += -std::log(1.0 - rng.uniform01()) * mean_gap_ms;
    if (t >= duration_ms) break;
    Arrival a;
    a.due_ms = t;
    a.endpoint =
        static_cast<int>(rng.index(static_cast<std::size_t>(endpoints)));
    a.value = 1'000'000 + static_cast<std::int64_t>(out.size());
    out.push_back(a);
  }
  return out;
}

std::optional<double> tail_percentile(std::vector<double> values, double p) {
  const std::size_t n = values.size();
  if (n == 0 || p <= 0 || p >= 100) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));  // 1-based
  if (rank < 1 || n - rank < 10) return std::nullopt;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m] : (values[m - 1] + values[m]) / 2;
}

void Tally::add(std::optional<double> latency_ms, double limit_ms) {
  ++attempted;
  if (!latency_ms) {
    ++unanswered;
  } else if (*latency_ms > limit_ms) {
    ++late;
  } else {
    ++in_limit;
  }
}

double Tally::ok_share() const {
  return attempted == 0 ? 1.0
                        : static_cast<double>(in_limit) /
                              static_cast<double>(attempted);
}

std::uint64_t Endpoint::submit(std::size_t req, double now_ms) {
  const std::uint64_t seq = next_seq_++;
  out_.emplace(seq, Out{req, now_ms});
  return seq;
}

std::optional<std::size_t> Endpoint::answer(std::uint64_t req_seq) {
  const auto it = out_.find(req_seq);
  if (it == out_.end()) return std::nullopt;
  const std::size_t req = it->second.req;
  out_.erase(it);
  return req;
}

bool Endpoint::overdue(double now_ms, double timeout_ms) const {
  // Send times rise with req_seq (a failover restamps them all), so the
  // lowest req_seq is the oldest send.
  return !out_.empty() && now_ms - out_.begin()->second.sent_ms >= timeout_ms;
}

std::vector<std::pair<std::uint64_t, std::size_t>> Endpoint::fail_over(
    double now_ms) {
  target_ = (target_ + 1) % servers_;
  std::vector<std::pair<std::uint64_t, std::size_t>> resend;
  resend.reserve(out_.size());
  for (auto& [seq, o] : out_) {
    o.sent_ms = now_ms;
    resend.emplace_back(seq, o.req);
  }
  return resend;
}

}  // namespace perfbench
