// Unit tests for jf_common: RNG determinism, statistics, table output, CLI
// integer flags.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace jf {
namespace {

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(check(false, "boom"), std::invalid_argument);
  EXPECT_THROW(ensure(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_NO_THROW(ensure(true, "fine"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng base(7);
  Rng c1 = base.fork(1), c2 = base.fork(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (c1.uniform_int(0, 1 << 30) == c2.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(99), b(99);
  Rng fa = a.fork(42), fb = b.fork(42);
  EXPECT_EQ(fa.uniform_int(0, 1 << 30), fb.uniform_int(0, 1 << 30));
}

TEST(Rng, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(6);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 500; ++i) ++seen[rng.uniform_index(5)];
  for (int count : seen) EXPECT_GT(count, 0);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(8);
  auto s = rng.sample_without_replacement(10, 4);
  EXPECT_EQ(s.size(), 4u);
  std::sort(s.begin(), s.end());
  EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Stats, SummarizeBasics) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  auto s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummarizeEmpty) {
  auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
}

TEST(Stats, JainFairness) {
  std::vector<double> equal{2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(jain_fairness(equal), 1.0);
  std::vector<double> onehog{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(onehog), 0.25);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(zeros), 1.0);
}

TEST(Stats, IntHistogramAndCdf) {
  std::vector<int> xs{2, 3, 3, 5};
  auto h = int_histogram(xs);
  EXPECT_EQ(h[2], 1u);
  EXPECT_EQ(h[3], 2u);
  EXPECT_EQ(h[5], 1u);
  auto c = int_cdf(xs);
  EXPECT_DOUBLE_EQ(c[2], 0.25);
  EXPECT_DOUBLE_EQ(c[3], 0.75);
  EXPECT_DOUBLE_EQ(c[5], 1.0);
}

TEST(Table, PrintsAlignedAndCsv) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("a"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("CSV,a,bb"), std::string::npos);
  EXPECT_NE(csv.str().find("CSV,1,2"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(42), "42");
}

TEST(Cli, ParseIntAcceptsWholeDecimalInts) {
  EXPECT_EQ(cli::parse_int("0"), 0);
  EXPECT_EQ(cli::parse_int("8"), 8);
  EXPECT_EQ(cli::parse_int("-3"), -3);
  EXPECT_EQ(cli::parse_int("2147483647"), 2147483647);
  EXPECT_EQ(cli::parse_int("-2147483648"), -2147483647 - 1);
}

TEST(Cli, ParseIntRejectsJunkAndOverflow) {
  for (const char* bad : {"", "abc", "4x", "x4", " 4", "4 ", "+4", "4.0", "0x10", "-",
                          "2147483648", "-2147483649", "99999999999999999999"}) {
    EXPECT_EQ(cli::parse_int(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(Cli, IntFlagNamesTheFlagAndExitsTwo) {
  EXPECT_EQ(cli::int_flag("prog", "--threads", "4"), 4);
  EXPECT_EXIT(cli::int_flag("prog", "--threads", "abc"), ::testing::ExitedWithCode(2),
              "prog: error: --threads needs an integer, got 'abc'");
  EXPECT_EXIT(cli::int_flag("prog", "--sim-shards", "4x"), ::testing::ExitedWithCode(2),
              "--sim-shards");
}

}  // namespace
}  // namespace jf
