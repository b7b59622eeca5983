// The parallel sweep engine: the thread pool's exactly-once and
// work-stealing behavior, splitmix seed derivation, deterministic
// (jobs-invariant) aggregation, byte-identical parallel-vs-serial
// exploration, and the BENCH_*.json writer/parser/regression gate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/explorer.h"
#include "check/protocols.h"
#include "sweep/bench_json.h"
#include "sweep/sweep.h"
#include "sweep/thread_pool.h"

namespace saf::sweep {
namespace {

// --- thread pool -------------------------------------------------------

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (int jobs : {1, 2, 4, 7}) {
    ThreadPool pool(jobs);
    EXPECT_EQ(pool.jobs(), jobs);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ThreadPool, UnevenWorkIsStolen) {
  // Index 0 is ~1000x the cost of the rest; with 4 participants the
  // remaining indices must still all run (stolen off the slow owner's
  // range) and the whole batch completes.
  ThreadPool pool(4);
  constexpr std::size_t kN = 400;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    volatile std::uint64_t spin = i == 0 ? 20'000'000 : 20'000;
    while (spin > 0) spin = spin - 1;
    hits[i]++;
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, FirstExceptionPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a throwing batch and runs the next one.
  std::atomic<int> ran{0};
  pool.parallel_for(10, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, ZeroIterationsIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "no indices exist"; });
}

// --- seed derivation ---------------------------------------------------

TEST(SweepSeeds, DerivationIsStableAndCollisionFreeInPractice) {
  // The derived seeds are the reproducibility contract of every sweep:
  // run i of master seed S is derive_seed(S, i), forever. Pin golden
  // values so an accidental change to the mix breaks loudly.
  EXPECT_EQ(run_seed(1, 0), run_seed(1, 0));
  EXPECT_NE(run_seed(1, 0), run_seed(1, 1));
  EXPECT_NE(run_seed(1, 0), run_seed(2, 0));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 10'000; ++i) seeds.push_back(run_seed(42, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
      << "derived seeds collide within one sweep";
}

// --- sweep aggregation -------------------------------------------------

/// Deterministic fake workload: digest and counts are functions of the
/// seed only.
RunStats fake_run(std::uint64_t seed, std::size_t index) {
  RunStats s;
  s.ok = index % 17 != 5;
  s.events = seed % 1000;
  s.messages = seed % 100;
  s.digest = seed * 0x9e3779b97f4a7c15ull;
  return s;
}

TEST(Sweep, AggregatesAreJobsInvariant) {
  ThreadPool serial(1);
  ThreadPool parallel(4);
  const SweepResult a = run_sweep(serial, 7, 333, fake_run);
  const SweepResult b = run_sweep(parallel, 7, 333, fake_run);
  ASSERT_EQ(a.count(), b.count());
  EXPECT_EQ(a.digest_checksum(), b.digest_checksum());
  EXPECT_EQ(a.total_events(), b.total_events());
  EXPECT_EQ(a.total_messages(), b.total_messages());
  EXPECT_EQ(a.failures(), b.failures());
  for (std::size_t i = 0; i < a.count(); ++i) {
    ASSERT_EQ(a.runs[i].seed, b.runs[i].seed);
    ASSERT_EQ(a.runs[i].digest, b.runs[i].digest);
  }
}

TEST(Sweep, PercentilesAreNearestRank) {
  SweepResult r;
  for (int i = 1; i <= 100; ++i) {
    RunStats s;
    s.wall_ms = i;
    r.runs.push_back(s);
  }
  EXPECT_DOUBLE_EQ(r.wall_ms_percentile(0.0), 1);
  EXPECT_DOUBLE_EQ(r.wall_ms_percentile(0.50), 51);
  EXPECT_DOUBLE_EQ(r.wall_ms_percentile(0.99), 99);
  EXPECT_DOUBLE_EQ(r.wall_ms_percentile(1.0), 100);
}

// --- parallel exploration is byte-identical ----------------------------

check::ExploreReport explore_with_jobs(const check::Protocol& p, int seeds,
                                       int jobs, int max_violations = 16) {
  check::ExploreOptions opt;
  opt.first_seed = 1;
  opt.seeds = seeds;
  opt.jobs = jobs;
  opt.max_violations = max_violations;
  return explore(p, opt);
}

void expect_identical(const check::ExploreReport& a,
                      const check::ExploreReport& b) {
  EXPECT_EQ(a.runs, b.runs);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].c.seed, b.violations[i].c.seed);
    EXPECT_EQ(a.violations[i].outcome.digest, b.violations[i].outcome.digest);
    EXPECT_EQ(a.violations[i].outcome.events_processed,
              b.violations[i].outcome.events_processed);
    EXPECT_EQ(describe_case(a.violations[i].c),
              describe_case(b.violations[i].c));
  }
}

TEST(ParallelExplore, CleanSweepMatchesSerialByteForByte) {
  const check::Protocol* p = check::find_protocol("kset-small");
  ASSERT_NE(p, nullptr);
  const check::ExploreReport serial = explore_with_jobs(*p, 60, 1);
  const check::ExploreReport par = explore_with_jobs(*p, 60, 4);
  EXPECT_TRUE(serial.clean());
  expect_identical(serial, par);
}

TEST(ParallelExplore, ViolationsAndEarlyStopMatchSerial) {
  // A deliberately broken protocol: the violation list AND the
  // max_violations early stop (report.runs) must match the serial sweep.
  check::Protocol buggy = *check::find_protocol("kset-small");
  buggy.name = "test-sweep-buggy";
  auto inner = buggy.run;
  buggy.run = [inner](const check::ScheduleCase& c,
                      const check::RunContext& ctx) {
    check::RunOutcome out = inner(c, ctx);
    if (c.seed % 3 == 0) {
      out.ok = false;
      out.violations.push_back({"test-bug", "seed divisible by three"});
    }
    return out;
  };
  check::register_protocol(buggy);
  const check::Protocol* p = check::find_protocol("test-sweep-buggy");
  ASSERT_NE(p, nullptr);
  const check::ExploreReport serial = explore_with_jobs(*p, 40, 1, 5);
  const check::ExploreReport par = explore_with_jobs(*p, 40, 3, 5);
  EXPECT_EQ(serial.violations.size(), 5u);
  EXPECT_LT(serial.runs, 40) << "early stop must cap runs";
  expect_identical(serial, par);
}

// --- BENCH json --------------------------------------------------------

TEST(BenchJson, WriterParserRoundTrip) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("saf-test-v1");
  w.key("nested").begin_object();
  w.key("runs_per_sec").value(1234.5);
  w.key("count").value(std::uint64_t{7});
  w.key("ok").value(true);
  w.end_object();
  w.key("list").begin_array();
  w.value(1).value(2.5);
  w.end_array();
  w.end_object();

  const FlatJson flat = parse_json_numbers(w.str());
  EXPECT_EQ(flat.count("schema"), 0u) << "strings are not numeric leaves";
  EXPECT_DOUBLE_EQ(flat.at("nested.runs_per_sec"), 1234.5);
  EXPECT_DOUBLE_EQ(flat.at("nested.count"), 7);
  EXPECT_DOUBLE_EQ(flat.at("nested.ok"), 1);
  EXPECT_DOUBLE_EQ(flat.at("list.0"), 1);
  EXPECT_DOUBLE_EQ(flat.at("list.1"), 2.5);
}

TEST(BenchJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json_numbers("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers("{\"a\": 1,"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers("{\"a\": 1} trailing"), std::runtime_error);
}

TEST(BenchJson, NumberTokensMustConvertInFull) {
  // A token that converts only in part is malformed, not its prefix.
  EXPECT_THROW(parse_json_numbers("{\"a\": 1.2.3}"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers("{\"a\": 5-}"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers("{\"a\": 1e}"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers("{\"a\": +-5}"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers("{\"a\": -}"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers("{\"a\": 1e999}"), std::runtime_error);

  // The accepted forms: signs, digits, '.', exponents, literals and
  // escaped strings.
  const FlatJson flat = parse_json_numbers(
      "{\"neg\": -12, \"pos\": +3.5, \"exp\": 2.5e3, \"EXP\": -1E-2,"
      " \"frac\": .5, \"t\": true, \"f\": false, \"n\": null,"
      " \"s\": \"a\\\"b\", \"k\\\"q\": 7, \"arr\": [0, [1]]}");
  EXPECT_DOUBLE_EQ(flat.at("neg"), -12);
  EXPECT_DOUBLE_EQ(flat.at("pos"), 3.5);
  EXPECT_DOUBLE_EQ(flat.at("exp"), 2500);
  EXPECT_DOUBLE_EQ(flat.at("EXP"), -0.01);
  EXPECT_DOUBLE_EQ(flat.at("frac"), 0.5);
  EXPECT_DOUBLE_EQ(flat.at("t"), 1);
  EXPECT_DOUBLE_EQ(flat.at("f"), 0);
  EXPECT_EQ(flat.count("n"), 0u);
  EXPECT_EQ(flat.count("s"), 0u);
  EXPECT_DOUBLE_EQ(flat.at("k\"q"), 7);
  EXPECT_DOUBLE_EQ(flat.at("arr.0"), 0);
  EXPECT_DOUBLE_EQ(flat.at("arr.1.0"), 1);
  EXPECT_EQ(flat.size(), 10u);
}

TEST(BenchJson, ElementWalkVisitsEachKeyOnceWithItsIndex) {
  const FlatJson flat = parse_json_numbers(
      "{\"r\": [{\"x\": 0}, {\"x\": 1}, {\"x\": 2}, {\"x\": 3},"
      " {\"x\": 4}, {\"x\": 5}, {\"x\": 6}, {\"x\": 7}, {\"x\": 8},"
      " {\"x\": 9}, {\"x\": 10, \"y\": 1}],"
      " \"r_other\": [5], \"rx\": 1, \"s\": [4, 5]}");
  std::vector<std::pair<std::size_t, std::string>> seen;
  for_each_element(flat, "r.",
                   [&](std::size_t i, std::string_view field, double v) {
                     EXPECT_DOUBLE_EQ(v, field == "y" ? 1.0 : double(i));
                     seen.emplace_back(i, std::string(field));
                   });
  ASSERT_EQ(seen.size(), 12u);
  // Map order: "r.10.*" sorts between "r.1.*" and "r.2.*".
  EXPECT_EQ(seen[1].first, 1u);
  EXPECT_EQ(seen[2], (std::pair<std::size_t, std::string>{10, "x"}));
  EXPECT_EQ(seen[3], (std::pair<std::size_t, std::string>{10, "y"}));
  EXPECT_EQ(seen[4].first, 2u);

  std::vector<double> scalars;
  for_each_element(flat, "s.",
                   [&](std::size_t i, std::string_view field, double v) {
                     EXPECT_TRUE(field.empty());
                     EXPECT_EQ(i, scalars.size());
                     scalars.push_back(v);
                   });
  EXPECT_EQ(scalars, (std::vector<double>{4, 5}));
}

TEST(BenchJson, RegressionGateFailsOnThroughputDropOnly) {
  FlatJson base{{"sweeps.kset.runs_per_sec", 1000.0},
                {"sweeps.kset.p99_ms", 10.0},
                {"sweeps.kset.total_events", 5000.0}};
  // 30% throughput drop, wall time doubled, counts changed: only the
  // throughput key gates.
  FlatJson bad{{"sweeps.kset.runs_per_sec", 700.0},
               {"sweeps.kset.p99_ms", 20.0},
               {"sweeps.kset.total_events", 9000.0}};
  const RegressionReport rep = compare_benchmarks(base, bad, 0.25);
  ASSERT_EQ(rep.regressions.size(), 1u);
  EXPECT_NE(rep.regressions[0].find("runs_per_sec"), std::string::npos);
  EXPECT_FALSE(rep.ok());

  // Within tolerance, and improvements never fail.
  FlatJson fine{{"sweeps.kset.runs_per_sec", 800.0},
                {"sweeps.kset.p99_ms", 500.0},
                {"sweeps.kset.total_events", 1.0}};
  EXPECT_TRUE(compare_benchmarks(base, fine, 0.25).ok());
  FlatJson better{{"sweeps.kset.runs_per_sec", 5000.0}};
  EXPECT_TRUE(compare_benchmarks(base, better, 0.25).ok());

  // A gated metric vanishing from the current run fails.
  FlatJson missing{{"sweeps.kset.p99_ms", 10.0}};
  const RegressionReport gone = compare_benchmarks(base, missing, 0.25);
  EXPECT_EQ(gone.missing.size(), 1u);
  EXPECT_FALSE(gone.ok());
}

}  // namespace
}  // namespace saf::sweep
