// Launcher wall-clock timing (src/rt/cluster): run_cluster returns as
// soon as its children exit, and chaos kills fire on their planned
// millisecond. Both bound the launcher's latency in absolute
// milliseconds, so a host with more runnable processes than CPUs
// charges its scheduling delay to them; this binary is registered
// RUN_SERIAL so ctest -jN never runs it beside other tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rt/chaos.h"
#include "rt/cluster.h"

namespace saf::rt {
namespace {

/// A three-node config whose children run `runner` instead of a node.
ClusterConfig runner_cfg(const char* stem,
                         std::function<int(const NodeConfig&)> runner) {
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.t = 1;
  cfg.k = 1;
  cfg.out_dir = "/tmp/saf_launch_" + std::string(stem) + "_" +
                std::to_string(::getpid());
  cfg.node_runner = std::move(runner);
  return cfg;
}

TEST(RunCluster, ReturnsAsSoonAsTheNodesExit) {
  // 31 ms is off a 5 ms polling grid, which would wake ~4 ms late.
  const ClusterConfig cfg = runner_cfg("exit", [](const NodeConfig&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(31));
    return 0;
  });
  std::vector<double> over_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const ClusterResult res = run_cluster(cfg);
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - t0;
    for (ProcessId id = 0; id < cfg.n; ++id) {
      EXPECT_TRUE(res.nodes[static_cast<std::size_t>(id)].exited_ok) << id;
    }
    over_ms.push_back(took.count() - 31.0);
  }
  std::sort(over_ms.begin(), over_ms.end());
  EXPECT_LT(over_ms[2], 2.0) << "median wall time past the nodes' 31 ms";
}

TEST(RunCluster, ChaosKillsFireOnSchedule) {
  ClusterConfig cfg = runner_cfg("kills", [](const NodeConfig&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return 0;
  });
  cfg.chaos.kills = 3;
  cfg.chaos.window_start_ms = 50;
  cfg.chaos.window_span_ms = 240;
  cfg.chaos.restart_delay_ms = 5;
  cfg.chaos.seed = 3;
  const std::vector<ChaosKill> plan =
      make_kill_schedule(cfg.chaos, cfg.n, cfg.crash);
  // Every kill finds its victim up: none falls in a restart gap.
  for (std::size_t i = 0; i < plan.size(); ++i) {
    for (std::size_t p = 0; p < i; ++p) {
      ASSERT_TRUE(plan[p].victim != plan[i].victim ||
                  plan[i].at_ms > plan[p].at_ms + 20)
          << "schedule kills node " << plan[i].victim << " while it restarts";
    }
  }

  const ClusterResult res = run_cluster(cfg);
  ASSERT_EQ(res.chaos_events.size(), plan.size()) << res.detail;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(res.chaos_events[i].victim, plan[i].victim) << i;
    EXPECT_GE(res.chaos_events[i].killed_at_ms, plan[i].at_ms) << i;
    EXPECT_LE(res.chaos_events[i].killed_at_ms, plan[i].at_ms + 1) << i;
    EXPECT_NE(res.chaos_events[i].restarted_at_ms, kNeverTime) << i;
  }
}

}  // namespace
}  // namespace saf::rt
