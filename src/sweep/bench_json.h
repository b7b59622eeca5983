// Machine-readable benchmark baselines (BENCH_sim.json / BENCH_sweep.json).
//
// The writer is a minimal streaming JSON builder (objects, arrays,
// numbers, strings) — enough to emit the bench schemas without a
// dependency. The reader flattens a JSON document into dotted-path
// numeric keys ("sweeps.kset.runs_per_sec" -> 1234.5), which is all the
// CI regression gate needs: compare every throughput/latency metric of
// the current run against the checked-in baseline and fail on
// regressions beyond a tolerance. Improvements never fail.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace saf::sweep {

/// Streaming JSON builder with correct comma/indent handling.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Keys apply inside objects, immediately before the value.
  JsonWriter& key(std::string_view k);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  /// Without this, string literals would convert to bool, not string_view.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  const std::string& str() const { return out_; }

 private:
  void comma_and_indent();
  std::string out_;
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
};

/// Numeric fields of a JSON document, keyed by dotted path (arrays use
/// the element index as a segment). Booleans map to 0/1; strings and
/// nulls are skipped. Throws std::runtime_error on malformed input.
using FlatJson = std::map<std::string, double>;
FlatJson parse_json_numbers(const std::string& text);
/// Reads and flattens a JSON file; throws on I/O or parse failure.
FlatJson load_json_numbers(const std::string& path);

/// Visits the elements of the flattened array `prefix` (which ends in
/// '.', e.g. "rounds.") in one walk of its key range:
/// `visit(index, field, value)` per key "<prefix><index>[.<field>]",
/// with `field` empty for a scalar element. Keys arrive in map order,
/// so index 10 comes before index 2; callers that need index order
/// slot the values by `index`. Keys whose next segment is not an
/// index are skipped.
template <typename Visit>
void for_each_element(const FlatJson& j, std::string_view prefix,
                      Visit&& visit) {
  for (auto it = j.lower_bound(std::string(prefix));
       it != j.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const char* first = it->first.data() + prefix.size();
    const char* last = it->first.data() + it->first.size();
    std::size_t index = 0;
    const auto conv = std::from_chars(first, last, index);
    if (conv.ec != std::errc()) continue;
    std::string_view field(conv.ptr,
                           static_cast<std::size_t>(last - conv.ptr));
    if (!field.empty()) {
      if (field.front() != '.') continue;
      field.remove_prefix(1);
    }
    visit(index, field, it->second);
  }
}

/// Writes `text` to `path` (atomically enough for our purposes).
void write_file(const std::string& path, const std::string& text);

/// Writes `text` to `path` via a same-directory temp file + rename, so
/// a reader (or a process killed mid-write — rt/chaos.h SIGKILLs nodes
/// on purpose) never observes a truncated file: the old content stays
/// until the new content is fully on disk.
void write_file_atomic(const std::string& path, const std::string& text);

struct RegressionReport {
  /// Human-readable "metric: baseline -> current (-37%)" lines.
  std::vector<std::string> regressions;
  /// Metrics present in the baseline but missing from the current run.
  std::vector<std::string> missing;
  bool ok() const { return regressions.empty() && missing.empty(); }
};

/// Gate used by CI: every baseline throughput metric ("*_per_sec") must
/// not fall below baseline by more than `tolerance` (a fraction, e.g.
/// 0.25); improvements never fail. Other keys — wall-time percentiles,
/// counts, digests, shape parameters — are machine- or run-local
/// diagnostics and are not compared.
RegressionReport compare_benchmarks(const FlatJson& baseline,
                                    const FlatJson& current,
                                    double tolerance);

}  // namespace saf::sweep
