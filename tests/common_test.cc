// Unit and property tests for src/common: Status/Result, Rng, statistics,
// strings, JSON writer, and the table printer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <set>

#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"

namespace phoebe {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad input"), std::string::npos);
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::FailedPrecondition("").code(), Status::Internal("").code(),
      Status::NotImplemented("").code(),  Status::IoError("").code(),
      Status::Infeasible("").code(),      Status::Unbounded("").code()};
  EXPECT_EQ(codes.size(), 10u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveExtractsValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  PHOEBE_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseHalf(7, &out).IsInvalidArgument());
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(15);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.LogNormal(1.0, 0.8));
  EXPECT_NEAR(Median(v), std::exp(1.0), 0.15);
}

TEST(RngTest, ParetoBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(19);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) small.Add(static_cast<double>(rng.Poisson(3.0)));
  for (int i = 0; i < 20000; ++i) large.Add(static_cast<double>(rng.Poisson(100.0)));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(21);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ZipfSkewsTowardOne) {
  Rng rng(25);
  int ones = 0, total = 5000;
  for (int i = 0; i < total; ++i) {
    int64_t z = rng.Zipf(10, 1.2);
    EXPECT_GE(z, 1);
    EXPECT_LE(z, 10);
    ones += (z == 1) ? 1 : 0;
  }
  EXPECT_GT(ones, total / 5);  // rank 1 dominates
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(27);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child diverges from parent's continued stream.
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

// ---------- Statistics ----------

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(QuantileTest, KnownValues) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
}

TEST(QuantileTest, EmptyAndSingleton) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Quantile({7.0}, 0.9), 7.0);
}

TEST(EcdfTest, EvalAndInverse) {
  Ecdf e({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e.Eval(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.Eval(2.0), 0.5);
  EXPECT_DOUBLE_EQ(e.Eval(10.0), 1.0);
  EXPECT_DOUBLE_EQ(e.Inverse(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.Inverse(0.5), 3.0);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-1.0);   // clamps to first bin
  h.Add(0.5);
  h.Add(9.9);
  h.Add(100.0);  // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_FALSE(h.ToString().empty());
}

TEST(MetricsTest, RSquaredPerfectAndMean) {
  std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(RSquared(y, y), 1.0);
  std::vector<double> mean_pred = {2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(RSquared(y, mean_pred), 0.0);
}

TEST(MetricsTest, RSquaredWorseThanMeanIsNegative) {
  std::vector<double> y = {1.0, 2.0, 3.0};
  std::vector<double> bad = {3.0, 2.0, 1.0};
  EXPECT_LT(RSquared(y, bad), 0.0);
}

TEST(MetricsTest, PearsonSigns) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> up = {2, 4, 6, 8};
  std::vector<double> down = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, up), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, down), -1.0, 1e-12);
  std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_EQ(PearsonCorrelation(x, flat), 0.0);
}

TEST(MetricsTest, QErrorSymmetric) {
  EXPECT_DOUBLE_EQ(QError(10.0, 5.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(5.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(7.0, 7.0), 1.0);
  EXPECT_GE(QError(0.0, 1.0), 1.0);  // eps-guarded
}

TEST(MetricsTest, MeanAbsoluteError) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({1.0, 2.0}, {2.0, 0.0}), 1.5);
  EXPECT_EQ(MeanAbsoluteError({}, {}), 0.0);
}

// ---------- Strings ----------

TEST(StringsTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, ","), "a,b,,c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringsTest, ToLower) { EXPECT_EQ(ToLower("AbC_9z"), "abc_9z"); }

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, SplitIntoKeepsEmptyPiecesAndReusesItsVector) {
  std::vector<std::string_view> parts;
  SplitInto("a,b,,c", ',', &parts);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  SplitInto("", ',', &parts);
  EXPECT_EQ(parts.size(), 1u);
}

/// AppendDouble's bytes for `v`, for comparison with StrFormat("%.17g").
std::string Appended(double v) {
  std::string out = "x";  // appends, never overwrites
  AppendDouble(&out, v);
  return out.substr(1);
}

TEST(NumberCodecTest, AppendDoubleMatchesPrintfOnEdgeValues) {
  using L = std::numeric_limits<double>;
  const double edges[] = {0.0,        -0.0,       1.0,         -1.0,        0.1,
                          0.5,        1e-4,       1e-5,        9.9999e-5,   1e16,
                          1e17,       9007199254740993.0,      123456789012345678.0,
                          L::min(),   L::denorm_min(), -L::denorm_min(), 1e-320,
                          L::max(),   -L::max(),  L::epsilon(), L::infinity(),
                          -L::infinity(), L::quiet_NaN(), -L::quiet_NaN(), 100.5,
                          6.7e10,     1.0 / 3.0};
  for (double v : edges) EXPECT_EQ(Appended(v), StrFormat("%.17g", v)) << Appended(v);
}

TEST(NumberCodecTest, AppendDoubleMatchesPrintfOnRandomBitPatterns) {
  // snprintf into a stack buffer is StrFormat's formatting without its two
  // passes and allocation, which keeps a million values fast under ASan.
  std::mt19937_64 bits(0x17e5eedull);
  std::string appended;
  char printed[64];
  int mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const uint64_t b = bits();
    double v;
    std::memcpy(&v, &b, sizeof(v));
    appended.clear();
    AppendDouble(&appended, v);
    std::snprintf(printed, sizeof(printed), "%.17g", v);
    if (appended != printed && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << b << ": " << appended << " vs " << printed;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(NumberCodecTest, AppendedDoublesParseBackBitExactly) {
  std::mt19937_64 bits(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t b = bits();
    double v;
    std::memcpy(&v, &b, sizeof(v));
    if (!std::isfinite(v)) continue;
    double back = 0.0;
    ASSERT_TRUE(ParseFiniteDouble(Appended(v), &back).ok()) << Appended(v);
    uint64_t back_bits;
    std::memcpy(&back_bits, &back, sizeof(back));
    EXPECT_EQ(back_bits, b) << Appended(v);
  }
}

TEST(NumberCodecTest, ParseFiniteDoubleAcceptsAndRejects) {
  struct Row {
    const char* token;
    bool accepted;
    double value;  // when accepted
  };
  const Row rows[] = {
      {"-0", true, -0.0},
      {".5", true, 0.5},
      {"5.", true, 5.0},
      {"4.9406564584124654e-324", true, std::numeric_limits<double>::denorm_min()},
      {"1e999", false, 0},   // overflow
      {"inf", false, 0},
      {"nan", false, 0},
      {" 1", false, 0},      // leading space
      {"1 ", false, 0},      // trailing space
      {"+1", false, 0},      // strtod took a leading '+'; from_chars does not
      {"0x1p3", false, 0},   // hex float: strtod read 8
      {"1e-400", false, 0},  // underflow: strtod read 0
      {"", false, 0},
      {"1e", false, 0},
  };
  for (const Row& r : rows) {
    double v = 42.0;
    Status st = ParseFiniteDouble(r.token, &v);
    EXPECT_EQ(st.ok(), r.accepted) << "'" << r.token << "': " << st.ToString();
    if (r.accepted) {
      EXPECT_EQ(v, r.value) << r.token;
      EXPECT_EQ(std::signbit(v), std::signbit(r.value)) << r.token;
    } else {
      EXPECT_EQ(v, 42.0) << "out-param written on error for '" << r.token << "'";
    }
  }
}

TEST(NumberCodecTest, StrAppendMatchesPrintf) {
  std::string out;
  StrAppend(&out, "job ", size_t{12}, ' ', -7, ' ', int64_t{INT64_MIN}, ' ', 0.1, ' ',
            std::string("x"), std::string_view("y"), '\n');
  EXPECT_EQ(out, StrFormat("job %zu %d %lld %.17g xy\n", size_t{12}, -7,
                           static_cast<long long>(INT64_MIN), 0.1));
}

TEST(NumberCodecTest, ParseIntegersKeepTheirAcceptedSet) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("+5", &v).ok());
  EXPECT_EQ(v, 5);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v).ok());
  EXPECT_EQ(v, INT64_MIN);
  for (const char* bad : {"", "+", "+-5", "++5", " 5", "5 ", "5x", "9223372036854775808"}) {
    EXPECT_FALSE(ParseInt64(bad, &v).ok()) << "'" << bad << "'";
  }
  int32_t w = 0;
  EXPECT_FALSE(ParseInt32("2147483648", &w).ok());
  EXPECT_TRUE(ParseInt32("-2147483648", &w).ok());
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(StartsWith("phoebe", "pho"));
  EXPECT_FALSE(StartsWith("pho", "phoebe"));
  EXPECT_TRUE(EndsWith("data.ss", ".ss"));
  EXPECT_FALSE(EndsWith("ss", "data.ss"));
  EXPECT_TRUE(Contains("a/b/c", "/b/"));
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
  EXPECT_EQ(HumanBytes(3.0 * 1024 * 1024 * 1024), "3.00 GB");
}

TEST(StringsTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(12.3), "12.3s");
  EXPECT_EQ(HumanDuration(90.0), "1m 30s");
  EXPECT_EQ(HumanDuration(7500.0), "2h 5m");
}

// ---------- JSON ----------

TEST(JsonTest, NestedDocument) {
  JsonWriter w;
  w.BeginObject()
      .KV("name", "phoebe")
      .KV("cuts", 2)
      .KV("saving", 0.5)
      .KV("ok", true)
      .Key("stages")
      .BeginArray()
      .Value(1)
      .Value(2)
      .EndArray()
      .Key("none")
      .Null()
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"phoebe\",\"cuts\":2,\"saving\":0.5,\"ok\":true,"
            "\"stages\":[1,2],\"none\":null}");
}

TEST(JsonTest, EscapesSpecials) {
  JsonWriter w;
  w.BeginArray().Value("a\"b\\c\n").EndArray();
  EXPECT_EQ(w.str(), "[\"a\\\"b\\\\c\\n\"]");
}

TEST(JsonTest, NonFiniteBecomesNull) {
  JsonWriter w;
  w.BeginArray().Value(std::nan("")).Value(1.0 / 0.0).EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

// ---------- TablePrinter ----------

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2.5"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // All lines share the header width structure (rule line present).
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TableTest, NumericRowHelper) {
  TablePrinter t({"k", "x", "y"});
  t.AddRow("row", {1.23456, 7.0}, 2);
  EXPECT_NE(t.ToString().find("1.23"), std::string::npos);
  EXPECT_NE(t.ToString().find("7.00"), std::string::npos);
}

}  // namespace
}  // namespace phoebe
