// Decision-service suites (src/svc): the client/catch-up wire codec's
// roundtrip + rejection contract, the tier-side percentile helper, and
// an end-to-end smoke — a real forked svc cluster with a live client
// tier, checked through the per-instance service contract.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "rt/chaos.h"
#include "rt/cluster.h"
#include "rt/node.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "sweep/bench_json.h"
#include "util/arena.h"

namespace {

using namespace saf;
using namespace saf::svc;

TEST(SvcWire, SubmitRoundtrip) {
  const Submit in{.req_seq = 712, .value = -123456789};
  std::vector<std::uint8_t> buf;
  encode_submit(in, &buf);
  ASSERT_FALSE(buf.empty());
  EXPECT_EQ(buf[0], kSvcSubmit);
  Submit out;
  ASSERT_TRUE(decode_submit(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.req_seq, in.req_seq);
  EXPECT_EQ(out.value, in.value);
}

TEST(SvcWire, ReplyRoundtrip) {
  const Reply in{.req_seq = 9, .instance = 41, .decision = INT64_MIN};
  std::vector<std::uint8_t> buf;
  encode_reply(in, &buf);
  Reply out;
  ASSERT_TRUE(decode_reply(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.req_seq, in.req_seq);
  EXPECT_EQ(out.instance, in.instance);
  EXPECT_EQ(out.decision, in.decision);
}

TEST(SvcWire, SnapReqRoundtrip) {
  const SnapReq in{.from_instance = 5000};
  std::vector<std::uint8_t> buf;
  encode_snap_req(in, &buf);
  SnapReq out;
  ASSERT_TRUE(decode_snap_req(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.from_instance, in.from_instance);
}

TEST(SvcWire, SnapRespRoundtripFullChunk) {
  SnapResp in;
  in.start = 300;
  in.frontier = 512;
  for (std::size_t i = 0; i < kSnapChunk; ++i) {
    in.decisions.push_back(static_cast<std::int64_t>(i) - 50);
  }
  std::vector<std::uint8_t> buf;
  encode_snap_resp(in, &buf);
  // The sizing contract behind kSnapChunk: a full chunk fits the
  // default link payload budget.
  EXPECT_LE(buf.size(), std::size_t{1200});
  SnapResp out;
  ASSERT_TRUE(decode_snap_resp(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.start, in.start);
  EXPECT_EQ(out.frontier, in.frontier);
  EXPECT_EQ(out.decisions, in.decisions);
}

TEST(SvcWire, SnapRespEmptyRoundtrip) {
  const SnapResp in{.start = 7, .frontier = 7, .decisions = {}};
  std::vector<std::uint8_t> buf;
  encode_snap_resp(in, &buf);
  SnapResp out;
  ASSERT_TRUE(decode_snap_resp(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.start, 7u);
  EXPECT_TRUE(out.decisions.empty());
}

TEST(SvcWire, MalformedBuffersRejected) {
  std::vector<std::uint8_t> buf;
  encode_submit(Submit{.req_seq = 1, .value = 2}, &buf);
  Submit s;
  // Truncated, extended, and retagged frames must all decode to nothing.
  EXPECT_FALSE(decode_submit(buf.data(), buf.size() - 1, &s));
  std::vector<std::uint8_t> longer = buf;
  longer.push_back(0);
  EXPECT_FALSE(decode_submit(longer.data(), longer.size(), &s));
  std::vector<std::uint8_t> retag = buf;
  retag[0] = kSvcReply;
  EXPECT_FALSE(decode_submit(retag.data(), retag.size(), &s));
  EXPECT_FALSE(decode_submit(nullptr, 0, &s));

  // A SnapResp whose count field promises more values than the buffer
  // carries is dropped, not over-read.
  SnapResp r{.start = 0, .frontier = 4, .decisions = {1, 2, 3, 4}};
  std::vector<std::uint8_t> rb;
  encode_snap_resp(r, &rb);
  SnapResp out;
  EXPECT_TRUE(decode_snap_resp(rb.data(), rb.size(), &out));
  EXPECT_FALSE(decode_snap_resp(rb.data(), rb.size() - 8, &out));
}

TEST(SvcWire, DispatchRange) {
  const std::uint8_t below[] = {31};
  const std::uint8_t lo[] = {kSvcSubmit};
  const std::uint8_t hi[] = {kSvcSnapResp};
  const std::uint8_t above[] = {36};
  EXPECT_FALSE(is_svc_payload(below, 1));
  EXPECT_TRUE(is_svc_payload(lo, 1));
  EXPECT_TRUE(is_svc_payload(hi, 1));
  EXPECT_FALSE(is_svc_payload(above, 1));
  EXPECT_FALSE(is_svc_payload(lo, 0));
}

TEST(SvcClient, LatencyPercentileNearestRank) {
  EXPECT_EQ(latency_percentile({}, 99), 0.0);
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_EQ(latency_percentile(v, 50), 3.0);
  EXPECT_EQ(latency_percentile(v, 100), 5.0);
  EXPECT_EQ(latency_percentile(v, 0), 1.0);
  EXPECT_EQ(latency_percentile({7.5}, 99), 7.5);
}

// A client tier running in a forked child process, so that the test
// holds no thread of its own when run_cluster forks the servers. A fork
// taken while another thread is inside malloc leaves the child holding
// that allocator lock forever: under ASan the tier thread's allocations
// left server 0 blocked on a size-class mutex of ASan's allocator and
// the cluster blew its wall budget. The result comes back over a pipe.
class ForkedTier {
 public:
  ForkedTier(const ClientTierConfig& tier, int delay_ms) {
    int fds[2];
    if (::pipe(fds) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(fds[0]);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      const ClientRunResult r = run_client_tier(tier);
      const std::uint64_t head[4] = {r.ok ? 1u : 0u, r.submitted, r.replies,
                                     r.churns};
      const std::uint64_t nlat = r.latencies_ms.size();
      put(fds[1], head, sizeof(head));
      put(fds[1], &nlat, sizeof(nlat));
      put(fds[1], r.latencies_ms.data(), nlat * sizeof(double));
      ::_exit(0);
    }
    ::close(fds[1]);
    fd_ = pid_ > 0 ? fds[0] : -1;
    if (fd_ < 0) ::close(fds[0]);
  }

  /// Waits for the child; a tier that could not run reports ok = false.
  ClientRunResult join() {
    ClientRunResult r;
    std::uint64_t head[4] = {};
    std::uint64_t nlat = 0;
    if (fd_ >= 0 && get(fd_, head, sizeof(head)) &&
        get(fd_, &nlat, sizeof(nlat))) {
      r.latencies_ms.resize(nlat);
      if (get(fd_, r.latencies_ms.data(), nlat * sizeof(double))) {
        r.ok = head[0] == 1;
        r.submitted = head[1];
        r.replies = head[2];
        r.churns = head[3];
      }
    }
    if (fd_ >= 0) ::close(fd_);
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
    return r;
  }

 private:
  static void put(int fd, const void* p, std::size_t len) {
    const auto* b = static_cast<const char*>(p);
    while (len > 0) {
      const ssize_t w = ::write(fd, b, len);
      if (w <= 0) return;
      b += w;
      len -= static_cast<std::size_t>(w);
    }
  }
  static bool get(int fd, void* p, std::size_t len) {
    auto* b = static_cast<char*>(p);
    while (len > 0) {
      const ssize_t got = ::read(fd, b, len);
      if (got <= 0) return false;
      b += got;
      len -= static_cast<std::size_t>(got);
    }
    return true;
  }

  pid_t pid_ = -1;
  int fd_ = -1;
};

// End-to-end: a five-node svc cluster pipelines instances for ~2s while
// a small client tier submits through churned links; the run must hold
// the per-instance service contract, advance the decided frontier on
// every node, and answer the clients.
TEST(SvcCluster, PipelinesAndServesClients) {
  rt::ClusterConfig cfg;
  cfg.protocol = "svc";
  cfg.n = 5;
  cfg.t = 2;
  cfg.k = 2;
  cfg.base_port = 48750;
  cfg.run_for_ms = 2'500;
  cfg.out_dir = "test_svc_out";
  cfg.svc_client_slots = 16;
  cfg.node_runner = svc::run_server;
  cfg.contract_checker = svc::check_service_contract;

  ClientTierConfig tier;
  tier.n = cfg.n;
  tier.base_port = cfg.base_port;
  tier.clients = 8;
  tier.total_slots = cfg.svc_client_slots;
  tier.run_for_ms = 1'200;
  tier.churn_lifetime_ms = 600;

  ForkedTier tier_proc(tier, 400);
  const rt::ClusterResult res = rt::run_cluster(cfg);
  const ClientRunResult clients = tier_proc.join();

  ASSERT_TRUE(res.contract_ok()) << res.detail;
  EXPECT_TRUE(clients.ok);
  EXPECT_GT(clients.submitted, 0u);
  EXPECT_GT(clients.replies, 0u);
  EXPECT_GT(clients.churns, 0u);
  EXPECT_EQ(clients.latencies_ms.size(), clients.replies);

  // Every node's result file reports a non-trivial decided frontier —
  // the pipeline ran on all of them, not just a quorum. The embedded
  // simulator's arena is recycled every wakeup, so it stays within two
  // chunks however many instances the node decided.
  for (const rt::ClusterNodeOutcome& node : res.nodes) {
    ASSERT_TRUE(node.launched);
    const sweep::FlatJson nj =
        sweep::load_json_numbers(rt::cluster_node_result_path(cfg, node.id));
    const auto it = nj.find("svc_frontier");
    ASSERT_NE(it, nj.end()) << "node " << node.id;
    EXPECT_GT(it->second, 0.0) << "node " << node.id;
    EXPECT_GT(nj.at("svc_instances_run"), 0.0) << "node " << node.id;
    EXPECT_LE(nj.at("sim_arena_reserved_bytes"),
              2.0 * static_cast<double>(util::Arena::kChunkSize))
        << "node " << node.id << " frontier " << it->second;
  }
}

// Instances run on demand: a cluster no client talks to starts no
// instance, decides nothing, and still holds the service contract. Its
// simulators dispatch only the start events and the global ticks.
TEST(SvcCluster, ClientlessClusterIdlesAndHoldsTheContract) {
  rt::ClusterConfig cfg;
  cfg.protocol = "svc";
  cfg.n = 3;
  cfg.t = 1;
  cfg.k = 1;
  cfg.base_port = 48800;
  cfg.run_for_ms = 600;
  cfg.linger_ms = 100;
  cfg.out_dir = "test_svc_idle_out";
  cfg.node_runner = svc::run_server;
  cfg.contract_checker = svc::check_service_contract;
  const rt::ClusterResult res = rt::run_cluster(cfg);
  ASSERT_TRUE(res.contract_ok()) << res.detail;

  const rt::NodeConfig defaults;
  for (const rt::ClusterNodeOutcome& node : res.nodes) {
    ASSERT_TRUE(node.launched);
    const sweep::FlatJson nj =
        sweep::load_json_numbers(rt::cluster_node_result_path(cfg, node.id));
    EXPECT_EQ(nj.at("svc_frontier"), 0.0) << "node " << node.id;
    EXPECT_EQ(nj.at("svc_proposals_received"), 0.0) << "node " << node.id;
    const double ticks =
        nj.at("total_elapsed_ms") / static_cast<double>(defaults.tick_period);
    EXPECT_LE(nj.at("events_processed"), cfg.n + ticks + 1)
        << "node " << node.id;
  }
}

// The same cluster with one closed-loop client decides, answers it, and
// advances every node's frontier. Only server 0 receives submissions;
// the other two start each instance on its phase traffic.
TEST(SvcCluster, OneClientDrivesDecisions) {
  rt::ClusterConfig cfg;
  cfg.protocol = "svc";
  cfg.n = 3;
  cfg.t = 1;
  cfg.k = 1;
  cfg.base_port = 48820;
  cfg.run_for_ms = 1'200;
  cfg.linger_ms = 200;
  cfg.out_dir = "test_svc_one_out";
  cfg.svc_client_slots = 1;
  cfg.node_runner = svc::run_server;
  cfg.contract_checker = svc::check_service_contract;

  ClientTierConfig tier;
  tier.n = cfg.n;
  tier.base_port = cfg.base_port;
  tier.clients = 1;
  tier.total_slots = cfg.svc_client_slots;
  tier.run_for_ms = 600;

  ForkedTier tier_proc(tier, 200);
  const rt::ClusterResult res = rt::run_cluster(cfg);
  const ClientRunResult clients = tier_proc.join();

  ASSERT_TRUE(res.contract_ok()) << res.detail;
  EXPECT_TRUE(clients.ok);
  EXPECT_GT(clients.replies, 0u);
  for (const rt::ClusterNodeOutcome& node : res.nodes) {
    ASSERT_TRUE(node.launched);
    const sweep::FlatJson nj =
        sweep::load_json_numbers(rt::cluster_node_result_path(cfg, node.id));
    EXPECT_GT(nj.at("svc_frontier"), 0.0) << "node " << node.id;
  }
}

// A restarted server never runs an instance a previous life took part
// in. Its WAL says an earlier life proposed in instances 0..9; alone (no
// peers up) with one client submitting, this life holds demand but
// starts none of them: it waits for the others to decide them. Without
// the log, the same set-up starts instance 0 at once.
TEST(SvcRecovery, TaintedInstancesAreNeverRunAgain) {
  const auto run = [](std::uint16_t port, const std::string& wal_path) {
    rt::NodeConfig cfg;
    cfg.id = 0;
    cfg.n = 3;
    cfg.t = 1;
    cfg.k = 1;
    cfg.protocol = "svc";
    cfg.base_port = port;
    cfg.run_for_ms = 600;
    cfg.linger_ms = 0;
    cfg.svc_client_slots = 1;
    cfg.wal_path = wal_path;

    ClientTierConfig tier;
    tier.n = cfg.n;
    tier.base_port = port;
    tier.clients = 1;
    tier.total_slots = cfg.svc_client_slots;
    tier.run_for_ms = 400;  // below resubmit_ms: every Submit goes to 0
    std::thread tier_thread([&tier] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      run_client_tier(tier);
    });
    const ServerResult res = run_service_node(cfg);
    tier_thread.join();
    return res;
  };

  const std::string wal_path =
      "test_svc_taint_" + std::to_string(::getpid()) + ".wal";
  std::remove(wal_path.c_str());
  {
    rt::WalWriter log(wal_path);
    log.append(rt::WalRecord::incarnation(0));
    for (int m = 0; m <= 9; ++m) log.append(rt::WalRecord::proposed(m, 7));
  }
  const ServerResult tainted = run(48840, wal_path);
  ASSERT_TRUE(tainted.ok);
  EXPECT_EQ(tainted.incarnation, 1u);
  EXPECT_GT(tainted.proposals_received, 0u);
  for (const std::uint64_t m : tainted.proposal_instances) {
    EXPECT_GT(m, 9u) << "ran tainted instance " << m;
  }
  std::remove(wal_path.c_str());

  const ServerResult fresh = run(48850, "");
  ASSERT_TRUE(fresh.ok);
  EXPECT_GT(fresh.proposals_received, 0u);
  EXPECT_EQ(fresh.proposal_instances, std::vector<std::uint64_t>{0});
}

}  // namespace
