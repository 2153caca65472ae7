#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"

namespace optimus {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform(0, 1) == b.Uniform(0, 1)) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, SplitIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng c1 = parent.Split(1);
  Rng c1_again = Rng(7).Split(1);
  EXPECT_DOUBLE_EQ(c1.Uniform(0, 1), c1_again.Uniform(0, 1));
  // Children of different streams should diverge.
  Rng c1b = Rng(7).Split(1);
  Rng c2b = Rng(7).Split(2);
  EXPECT_NE(c1b.Uniform(0, 1), c2b.Uniform(0, 1));
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBoundsAndCoverage) {
  Rng rng(4);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(0, 4);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, LogNormalFactorIsPositiveWithMedianNearOne) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const double f = rng.LogNormalFactor(0.1);
    EXPECT_GT(f, 0.0);
    samples.push_back(f);
  }
  EXPECT_NEAR(Median(samples), 1.0, 0.02);
}

TEST(RngTest, LogNormalFactorSigmaZeroIsIdentity) {
  Rng rng(6);
  EXPECT_DOUBLE_EQ(rng.LogNormalFactor(0.0), 1.0);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(7);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, PoissonMeanRoughlyCorrect) {
  Rng rng(8);
  RunningStat stat;
  for (int i = 0; i < 5000; ++i) {
    stat.Add(static_cast<double>(rng.Poisson(3.0)));
  }
  EXPECT_NEAR(stat.mean(), 3.0, 0.15);
}

TEST(RunningStatTest, MatchesBatchStatistics) {
  RunningStat stat;
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (double v : values) {
    stat.Add(v);
  }
  EXPECT_EQ(stat.count(), 5u);
  EXPECT_DOUBLE_EQ(stat.mean(), Mean(values));
  EXPECT_NEAR(stat.stddev(), StdDev(values), 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 10.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 20.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 5.0);
}

TEST(StatsTest, EmptyVectorsAreSafe) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Sum({}), 0.0);
}

TEST(TablePrinterTest, AlignsColumnsAndCountsRows) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "2.5"});
  EXPECT_EQ(table.num_rows(), 2u);
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, FormatDouble) {
  EXPECT_EQ(TablePrinter::FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FormatDouble(2.0, 3), "2.000");
}

std::string PrintfG17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Double17(double v) {
  std::string out;
  AppendDouble17(v, &out);
  return out;
}

// AppendDouble17 is every export's number formatter; the goldens and the
// bitwise determinism contract were recorded with printf's %.17g, so the two
// must agree byte for byte on every double.
TEST(JsonWriterTest, AppendDouble17MatchesPrintfG17) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edges = {
      0.0, -0.0, inf, -inf, nan, -nan,
      std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
      DBL_MIN, DBL_MAX, -DBL_MAX, 42.0, -42.0, 1.0, 1e16, 1e17, 123456789012345678.0,
      0.1, 1.0 / 3.0, 0.7, 1e-5, 1e-4, 2.5e-308, 600.0};
  for (double v : edges) {
    EXPECT_EQ(Double17(v), PrintfG17(v)) << "bits of " << PrintfG17(v);
  }
  EXPECT_EQ(Double17(42.0), "42");
  EXPECT_EQ(Double17(-0.0), "-0");

  std::mt19937_64 gen(0x0917u);
  int mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const uint64_t bits = gen();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    const std::string got = Double17(v);
    const std::string want = PrintfG17(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": " << got << " vs " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonWriterTest, NonFiniteJsonNumbersAreNull) {
  EXPECT_EQ(EncodeJsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(EncodeJsonDouble(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(EncodeJsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(EncodeJsonDouble(0.5), "0.5");
}

// Runs of plain bytes are copied in bulk; every escape lands between them.
TEST(JsonWriterTest, EncodeJsonStringEscapesBetweenRuns) {
  EXPECT_EQ(EncodeJsonString(""), "\"\"");
  EXPECT_EQ(EncodeJsonString("plain"), "\"plain\"");
  EXPECT_EQ(EncodeJsonString("a\"b\\c\nd\te\x01" "f\r"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001f\\u000d\"");
  EXPECT_EQ(EncodeJsonString("\n\n"), "\"\\n\\n\"");
  EXPECT_EQ(EncodeJsonString("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
}

// An encoded string value passes ToCompactString verbatim (whitespace inside
// a string is data); other values are compacted.
TEST(JsonWriterTest, ToCompactStringKeepsStringValuesVerbatim) {
  JsonObject inner;
  inner.Set("x", 1);
  JsonObject o;
  o.Set("payload", std::string("{\n  \"a\": [1, 2]\n}\n"));
  o.Set("inner", inner);
  o.Set("v", std::vector<double>{1.5, 2.0});
  EXPECT_EQ(o.ToCompactString(),
            "{\"payload\":\"{\\n  \\\"a\\\": [1, 2]\\n}\\n\","
            "\"inner\":{\"x\":1},\"v\":[1.5,2]}");
}

}  // namespace
}  // namespace optimus
