// Tests for the utility layer: ProcSet, RNG, combinatorics, scan rings,
// step traces, summary statistics and the command-line flag table.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/combinatorics.h"
#include "util/flags.h"
#include "util/ring.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/trace.h"
#include "util/types.h"

namespace saf {
namespace {

TEST(ProcSet, BasicSetAlgebra) {
  ProcSet a{0, 2, 5};
  ProcSet b{2, 3};
  EXPECT_EQ(a.size(), 3);
  EXPECT_TRUE(a.contains(5));
  EXPECT_FALSE(a.contains(1));
  EXPECT_EQ((a | b), ProcSet({0, 2, 3, 5}));
  EXPECT_EQ((a & b), ProcSet({2}));
  EXPECT_EQ((a - b), ProcSet({0, 5}));
  EXPECT_TRUE(ProcSet({2}).subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(ProcSet{}.min(), -1);
}

TEST(ProcSet, FullAndIteration) {
  const ProcSet f = ProcSet::full(5);
  EXPECT_EQ(f.size(), 5);
  std::vector<ProcessId> ids;
  for (ProcessId id : f) ids.push_back(id);
  EXPECT_EQ(ids, (std::vector<ProcessId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(f.to_vector(), ids);
  EXPECT_EQ(ProcSet({1, 3}).to_string(), "{1,3}");
}

TEST(ProcSet, EraseAndEmpty) {
  ProcSet s{4};
  s.erase(4);
  EXPECT_TRUE(s.empty());
  s.erase(4);  // idempotent
  EXPECT_TRUE(s.empty());
}

TEST(Rng, DeterministicPerSeed) {
  util::Rng a(7), b(7), c(8);
  const auto va = a.uniform(0, 1000);
  EXPECT_EQ(va, b.uniform(0, 1000));
  // Different seed almost surely differs; draw several to be safe.
  bool any_diff = false;
  util::Rng a2(7);
  for (int i = 0; i < 16; ++i) {
    any_diff |= (a2.uniform(0, 1 << 30) != c.uniform(0, 1 << 30));
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SubsetHasRequestedSizeAndStaysInUniverse) {
  util::Rng rng(13);
  const ProcSet universe{1, 3, 4, 6, 9};
  for (int k = 0; k <= universe.size(); ++k) {
    const ProcSet s = rng.subset(universe, k);
    EXPECT_EQ(s.size(), k);
    EXPECT_TRUE(s.subset_of(universe));
  }
}

TEST(Rng, DerivedSeedsDifferByLabel) {
  EXPECT_NE(util::derive_seed(1, "network"), util::derive_seed(1, "oracle"));
  EXPECT_NE(util::derive_seed(1, "x"), util::derive_seed(2, "x"));
}

TEST(Combinatorics, BinomialTable) {
  EXPECT_EQ(util::binomial(5, 0), 1u);
  EXPECT_EQ(util::binomial(5, 2), 10u);
  EXPECT_EQ(util::binomial(5, 5), 1u);
  EXPECT_EQ(util::binomial(5, 6), 0u);
  EXPECT_EQ(util::binomial(10, 3), 120u);
}

TEST(Combinatorics, EnumeratesAllSubsetsOnce) {
  const auto combos = util::combinations(6, 3);
  EXPECT_EQ(combos.size(), 20u);
  std::set<std::uint64_t> seen;
  for (const ProcSet& s : combos) {
    EXPECT_EQ(s.size(), 3);
    EXPECT_TRUE(seen.insert(s.mask()).second);
  }
}

TEST(Combinatorics, SubsetOfArbitraryUniverse) {
  const ProcSet universe{2, 5, 7};
  const auto combos = util::combinations_of(universe, 2);
  ASSERT_EQ(combos.size(), 3u);
  EXPECT_EQ(combos[0], ProcSet({2, 5}));
  EXPECT_EQ(combos[1], ProcSet({2, 7}));
  EXPECT_EQ(combos[2], ProcSet({5, 7}));
}

TEST(MemberRing, EnumeratesLeadersWithinEachSubset) {
  util::MemberRing ring(4, 2);
  // C(4,2)=6 subsets, 2 members each.
  EXPECT_EQ(ring.size(), 12u);
  // First subset {0,1}: positions (0,{0,1}), (1,{0,1}).
  EXPECT_EQ(ring.at(0).leader, 0);
  EXPECT_EQ(ring.at(0).set, ProcSet({0, 1}));
  EXPECT_EQ(ring.at(1).leader, 1);
  // Next wraps subsets then the whole ring.
  EXPECT_EQ(ring.next(1), 2u);
  EXPECT_EQ(ring.at(2).set, ProcSet({0, 2}));
  EXPECT_EQ(ring.next(ring.size() - 1), 0u);
  EXPECT_EQ(ring.find(1, ProcSet({0, 1})), 1u);
  EXPECT_EQ(ring.find(3, ProcSet({0, 1})), ring.size());
}

TEST(SubsetPairRing, EnumeratesInnerSubsetsWithinEachOuter) {
  util::SubsetPairRing ring(4, 3, 2);
  // C(4,3)=4 outers, C(3,2)=3 inners each.
  EXPECT_EQ(ring.size(), 12u);
  EXPECT_EQ(ring.at(0).outer, ProcSet({0, 1, 2}));
  EXPECT_EQ(ring.at(0).inner, ProcSet({0, 1}));
  EXPECT_EQ(ring.at(2).inner, ProcSet({1, 2}));
  EXPECT_EQ(ring.at(3).outer, ProcSet({0, 1, 3}));
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_TRUE(ring.at(i).inner.subset_of(ring.at(i).outer));
  }
  EXPECT_EQ(ring.next(ring.size() - 1), 0u);
}

TEST(Ring, RejectsOversizedRings) {
  EXPECT_THROW(util::MemberRing(30, 15, 1000), std::invalid_argument);
  EXPECT_THROW(util::SubsetPairRing(20, 10, 5, 1000), std::invalid_argument);
}

TEST(StepTrace, RecordsAndQueriesStepFunction) {
  util::StepTrace<int> tr(0);
  tr.record(10, 5);
  tr.record(20, 5);  // no-op: same value
  tr.record(30, 7);
  EXPECT_EQ(tr.at(0), 0);
  EXPECT_EQ(tr.at(9), 0);
  EXPECT_EQ(tr.at(10), 5);
  EXPECT_EQ(tr.at(29), 5);
  EXPECT_EQ(tr.at(30), 7);
  EXPECT_EQ(tr.final(), 7);
  EXPECT_EQ(tr.last_change(), 30);
  EXPECT_EQ(tr.steps().size(), 2u);
}

TEST(StepTrace, EqualTimeOverwritesAndCollapses) {
  util::StepTrace<int> tr(0);
  tr.record(10, 5);
  tr.record(10, 0);  // overwrite back to initial: collapses to no steps
  EXPECT_EQ(tr.steps().size(), 0u);
  EXPECT_EQ(tr.at(10), 0);
  tr.record(10, 3);
  tr.record(10, 4);
  EXPECT_EQ(tr.steps().size(), 1u);
  EXPECT_EQ(tr.at(10), 4);
}

TEST(StepTrace, StableSinceFindsEarliestWitness) {
  util::StepTrace<int> tr(1);
  tr.record(10, 2);
  tr.record(50, 3);
  tr.record(80, 4);
  // pred: value >= 3 holds from the step at 50 on.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v >= 3; }), 50);
  // pred on final value only.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v == 4; }), 80);
  // pred holds everywhere.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v >= 1; }), 0);
  // pred fails at the end.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v < 4; }), kNeverTime);
  // pred fails only on the initial value.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v >= 2; }), 10);
}

TEST(Summary, DescriptiveStatistics) {
  util::Summary s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
  EXPECT_GT(s.stddev(), 1.0);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_FALSE(s.to_string().empty());
}

// --- command-line flags ---------------------------------------------------

TEST(Flags, ParseIntIsStrictDecimal) {
  int v = 7;
  for (const char* bad : {"10x", "", "-1", " 5", "+5", "0x10", "1e3"}) {
    EXPECT_FALSE(util::parse_int(bad, 0, &v)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 7) << "a refused value leaves the field untouched";
  EXPECT_TRUE(util::parse_int("0", 0, &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(util::parse_int("-5", -10, &v));
  EXPECT_EQ(v, -5);
}

TEST(Flags, ParseIntIsBoundedByTheFieldType) {
  std::uint16_t port = 0;
  EXPECT_FALSE(util::parse_int("70000", std::uint16_t{1024}, &port));
  EXPECT_FALSE(util::parse_int("1023", std::uint16_t{1024}, &port));
  EXPECT_TRUE(util::parse_int("65535", std::uint16_t{1024}, &port));
  EXPECT_EQ(port, 65535);

  int n = 0;
  EXPECT_FALSE(util::parse_int("4294967298", 2, &n));
  EXPECT_FALSE(util::parse_int("2147483648", 2, &n));
  EXPECT_TRUE(util::parse_int("2147483647", 2, &n));

  std::int64_t big = 0;
  EXPECT_TRUE(util::parse_int("9223372036854775807", std::int64_t{0}, &big));
  EXPECT_EQ(big, INT64_MAX);
  EXPECT_FALSE(util::parse_int("9223372036854775808", std::int64_t{0}, &big));

  std::uint64_t seed = 0;
  EXPECT_TRUE(
      util::parse_int("18446744073709551615", std::uint64_t{0}, &seed));
  EXPECT_EQ(seed, UINT64_MAX);
  EXPECT_FALSE(util::parse_int("-1", std::uint64_t{0}, &seed));
}

TEST(Flags, SplitListKeepsEmptyItems) {
  EXPECT_EQ(util::split_list("a,,b"),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(util::split_list(""), (std::vector<std::string>{""}));
  EXPECT_EQ(util::split_list("x,"), (std::vector<std::string>{"x", ""}));
}

/// One parse of `args` (argv[0] supplied), with both streams captured.
struct Parsed {
  std::optional<int> rc;
  std::string out;
  std::string err;
};

Parsed parse(const util::Flags& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  std::ostringstream out;
  std::ostringstream err;
  Parsed p;
  p.rc = flags.parse(static_cast<int>(args.size()), args.data(), out, err);
  p.out = out.str();
  p.err = err.str();
  return p;
}

struct Fields {
  int n = 5;
  std::uint16_t port = 47400;
  std::string out;
  bool trace = false;
  double tolerance = 0.25;
  std::string mode = "menu";
  std::vector<std::string> protocols;
  std::vector<int> kills = {0};
};

util::Flags table(Fields* f) {
  util::Flags flags("tool", "notes after the synopsis\n");
  flags.integer("--n", "N", &f->n, 2)
      .integer("--base-port", "P", &f->port, 1024)
      .text("--out", "FILE", &f->out)
      .toggle("--trace", &f->trace)
      .real("--tolerance", "F", &f->tolerance, 0)
      .choice("--mode", {"menu", "race"}, &f->mode)
      .names("--protocol", "a,b,...", &f->protocols)
      .integers("--kills", "K1,K2,...", &f->kills, 0);
  return flags;
}

TEST(Flags, EveryKindSetsItsField) {
  Fields f;
  const Parsed p = parse(table(&f), {"--n", "7", "--base-port", "65535",
                                     "--out", "x.json", "--trace",
                                     "--tolerance", "0.5", "--mode", "race",
                                     "--protocol", "kset,,phibar",
                                     "--kills", "0,2,5"});
  EXPECT_FALSE(p.rc.has_value()) << p.err;
  EXPECT_EQ(f.n, 7);
  EXPECT_EQ(f.port, 65535);
  EXPECT_EQ(f.out, "x.json");
  EXPECT_TRUE(f.trace);
  EXPECT_DOUBLE_EQ(f.tolerance, 0.5);
  EXPECT_EQ(f.mode, "race");
  EXPECT_EQ(f.protocols, (std::vector<std::string>{"kset", "phibar"}));
  EXPECT_EQ(f.kills, (std::vector<int>{0, 2, 5}));
  EXPECT_TRUE(p.out.empty());
  EXPECT_TRUE(p.err.empty());
}

TEST(Flags, NoArgumentsKeepsTheDefaults) {
  Fields f;
  EXPECT_FALSE(parse(table(&f), {}).rc.has_value());
  EXPECT_EQ(f.n, 5);
  EXPECT_EQ(f.port, 47400);
  EXPECT_EQ(f.kills, (std::vector<int>{0}));
}

TEST(Flags, OutOfRangeExitsTwoWithUsageBeforeHelp) {
  Fields f;
  const Parsed p = parse(table(&f), {"--base-port", "70000", "--help"});
  EXPECT_EQ(p.rc, 2);
  EXPECT_EQ(f.port, 47400);
  EXPECT_NE(p.err.find("tool: --base-port expects an integer in "
                       "[1024, 65535], got '70000'"),
            std::string::npos)
      << p.err;
  EXPECT_NE(p.err.find("usage: tool"), std::string::npos);
  EXPECT_TRUE(p.out.empty()) << "help must not run after an error";

  EXPECT_EQ(parse(table(&f), {"--n", "4294967298"}).rc, 2);
  EXPECT_EQ(f.n, 5);
  EXPECT_EQ(parse(table(&f), {"--tolerance", "-0.1"}).rc, 2);
  EXPECT_EQ(parse(table(&f), {"--tolerance", "nan"}).rc, 2);
  EXPECT_EQ(parse(table(&f), {"--tolerance", "0.5x"}).rc, 2);
}

TEST(Flags, MissingValueAndUnknownFlagExitTwoWithUsage) {
  Fields f;
  Parsed p = parse(table(&f), {"--n"});
  EXPECT_EQ(p.rc, 2);
  EXPECT_EQ(p.err.rfind("tool: --n needs a value\nusage: tool ", 0), 0u)
      << p.err;

  p = parse(table(&f), {"--definitely-not-a-flag"});
  EXPECT_EQ(p.rc, 2);
  EXPECT_EQ(p.err.rfind("tool: unknown flag --definitely-not-a-flag\n", 0),
            0u)
      << p.err;
  EXPECT_NE(p.err.find("usage: tool"), std::string::npos);

  p = parse(table(&f), {"stray"});
  EXPECT_EQ(p.rc, 2) << "operands are refused unless the table takes them";
}

TEST(Flags, HelpPrintsUsageOnStdoutAndExitsZero) {
  for (const char* help : {"-h", "--help"}) {
    Fields f;
    const Parsed p = parse(table(&f), {"--n", "3", help, "--bogus"});
    EXPECT_EQ(p.rc, 0) << help;
    EXPECT_EQ(p.out.rfind("usage: tool ", 0), 0u) << p.out;
    EXPECT_TRUE(p.err.empty()) << p.err;
  }
}

TEST(Flags, BadChoiceExitsTwo) {
  Fields f;
  const Parsed p = parse(table(&f), {"--mode", "banana"});
  EXPECT_EQ(p.rc, 2);
  EXPECT_EQ(f.mode, "menu");
  EXPECT_NE(p.err.find("tool: --mode expects menu|race, got 'banana'"),
            std::string::npos)
      << p.err;
}

TEST(Flags, IntegerListRefusesEmptyAndNonIntegerItems) {
  for (const char* bad : {"1,,2", "1,", "", "1,x", "1,-1", "2,3x"}) {
    Fields f;
    EXPECT_EQ(parse(table(&f), {"--kills", bad}).rc, 2) << "'" << bad << "'";
    EXPECT_EQ(f.kills, (std::vector<int>{0})) << "'" << bad << "'";
  }
}

TEST(Flags, RequiredFlagsAndOperands) {
  int id = 0;
  int context = 3;
  std::vector<std::string> files;
  util::Flags flags("tool");
  flags.operands("<a> <b>", &files)
      .integer("--id", "I", &id, 0)
      .required()
      .integer("--context", "N", &context, 0);

  Parsed p = parse(flags, {"a.jsonl"});
  EXPECT_EQ(p.rc, 2);
  EXPECT_NE(p.err.find("tool: --id is required"), std::string::npos) << p.err;

  files.clear();
  p = parse(flags, {"a.jsonl", "--id", "4", "b.jsonl", "--context", "0"});
  EXPECT_FALSE(p.rc.has_value()) << p.err;
  EXPECT_EQ(id, 4);
  EXPECT_EQ(context, 0);
  EXPECT_EQ(files, (std::vector<std::string>{"a.jsonl", "b.jsonl"}));
  EXPECT_EQ(parse(flags, {"--id", "1", "-x"}).rc, 2);
}

TEST(Flags, SynopsisNamesEachFlagOnceWithinTheWidth) {
  Fields f;
  std::ostringstream os;
  table(&f).print_usage(os);
  const std::string usage = os.str();
  EXPECT_EQ(usage.rfind("usage: tool [--n N] [--base-port P]", 0), 0u)
      << usage;
  for (const char* item :
       {"[--n N]", "[--trace]", "[--mode menu|race]", "[--kills K1,K2,...]",
        "[--help]"}) {
    const std::size_t at = usage.find(item);
    EXPECT_NE(at, std::string::npos) << item;
    EXPECT_EQ(usage.find(item, at + 1), std::string::npos) << item;
  }
  std::istringstream lines(usage);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_LE(line.size(), 78u) << line;
  }
  EXPECT_EQ(usage.substr(usage.size() - 25), "notes after the synopsis\n");
}

}  // namespace
}  // namespace saf
