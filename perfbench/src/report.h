// What one workload run hands back to main(): the correctness verdict,
// the operation counts and the named metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Operations that errored: unanswered, answered wrongly, undecided,
  /// or part of a run whose correctness check failed. Latency-limit
  /// misses are not errors; they show in ok_share and goodput_per_s.
  std::uint64_t failed = 0;
  /// Metric values by name; main.cpp owns the names and units, and
  /// reports a per-layer metric a workload leaves out as 0 (the layer
  /// did no such work on it).
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable reasons `correct` is false.
  std::vector<std::string> problems;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20;
  bool traced = false;
  /// Keep every vCPU running with SCHED_IDLE pollers (live.cpp,
  /// Spinners) while a live workload runs.
  bool spin = true;
  /// svc: sample set-up on kSetupCycles short clusters first (only
  /// setup_s, an end-to-end metric, reads them).
  bool measure_setup = true;
  std::string out_dir;  ///< scratch directory for cluster result files
};

Outcome run_svc(const RunOptions& opt, bool kill);
Outcome run_rt_rounds(const RunOptions& opt);

}  // namespace perfbench
