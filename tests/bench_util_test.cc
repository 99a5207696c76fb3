// bench_util.h helpers tested like library code: strict env parsing
// (malformed values fall back instead of silently truncating), the
// nearest-rank Quantile, and the ctbus-bench-v1 JSON report shape
// tools/bench_diff.py consumes.
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace ctbus::bench {
namespace {

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) { unsetenv(name); }
  ~EnvGuard() { unsetenv(name_); }
  void Set(const char* value) { setenv(name_, value, /*overwrite=*/1); }

 private:
  const char* name_;
};

TEST(GetEnvDoubleTest, UnsetUsesFallback) {
  EnvGuard guard("CTBUS_TEST_ENV_DOUBLE");
  EXPECT_DOUBLE_EQ(GetEnvDouble("CTBUS_TEST_ENV_DOUBLE", 2.5), 2.5);
}

TEST(GetEnvDoubleTest, ParsesWholeField) {
  EnvGuard guard("CTBUS_TEST_ENV_DOUBLE");
  guard.Set("3.75");
  EXPECT_DOUBLE_EQ(GetEnvDouble("CTBUS_TEST_ENV_DOUBLE", 1.0), 3.75);
  guard.Set("-0.5");
  EXPECT_DOUBLE_EQ(GetEnvDouble("CTBUS_TEST_ENV_DOUBLE", 1.0), -0.5);
}

TEST(GetEnvDoubleTest, TrailingGarbageFallsBack) {
  EnvGuard guard("CTBUS_TEST_ENV_DOUBLE");
  // The old strtod-based parser silently accepted "1.5x" as 1.5.
  guard.Set("1.5x");
  EXPECT_DOUBLE_EQ(GetEnvDouble("CTBUS_TEST_ENV_DOUBLE", 7.0), 7.0);
  guard.Set("fast");
  EXPECT_DOUBLE_EQ(GetEnvDouble("CTBUS_TEST_ENV_DOUBLE", 7.0), 7.0);
  guard.Set("");
  EXPECT_DOUBLE_EQ(GetEnvDouble("CTBUS_TEST_ENV_DOUBLE", 7.0), 7.0);
}

TEST(GetEnvDoubleTest, NonFiniteFallsBack) {
  EnvGuard guard("CTBUS_TEST_ENV_DOUBLE");
  for (const char* value : {"nan", "inf", "-inf"}) {
    guard.Set(value);
    EXPECT_DOUBLE_EQ(GetEnvDouble("CTBUS_TEST_ENV_DOUBLE", 7.0), 7.0)
        << value;
  }
}

TEST(GetScaleTest, RefusesNonPositiveAndNonFinite) {
  EnvGuard guard("CTBUS_SCALE");
  EXPECT_DOUBLE_EQ(ReadScale(), 1.0);
  guard.Set("0.5");
  EXPECT_DOUBLE_EQ(ReadScale(), 0.5);
  // Each of these used to reach the generator and build a 4-vertex city.
  for (const char* value : {"nan", "inf", "0", "-1"}) {
    guard.Set(value);
    EXPECT_DOUBLE_EQ(ReadScale(), 1.0) << value;
  }
}

TEST(GetScaleTest, ReadsTheEnvironmentOncePerProcess) {
  // A fresh process (the death test re-executes this binary), so the
  // first GetScale call below is the process's first: it warns once, and
  // neither the later calls nor a changed environment read it again.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("CTBUS_SCALE", "nan", /*overwrite=*/1);
        const double first = GetScale();
        PrintHeader("experiment", "claim");
        setenv("CTBUS_SCALE", "0.5", /*overwrite=*/1);
        const bool same = GetScale() == first && first == 1.0;
        std::fflush(stdout);
        std::_Exit(same ? 0 : 1);
      },
      ::testing::ExitedWithCode(0),
      "^warning: ignoring malformed CTBUS_SCALE=\"nan\" \\(using 1\\)\n$");
}

TEST(QuantileTest, RoundsToNearestRank) {
  // Unsorted input; index q * (n - 1) rounds half up, so the median of an
  // even count is the upper middle value, not the lower one.
  EXPECT_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 3.0);
  EXPECT_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.25), 2.0);
  EXPECT_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  EXPECT_EQ(Quantile({5.0, 1.0, 3.0}, 0.5), 3.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(BenchReportTest, WritesSchemaAndSortedSections) {
  BenchReport report("unit");
  report.AddMetric("zeta_qps", 12.5, "higher");
  report.AddMetric("alpha_seconds", 0.25, "lower");
  report.AddChecksum("objective", 1.0 / 3.0);
  std::ostringstream out;
  report.Write(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"ctbus-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"better\": \"higher\""), std::string::npos);
  EXPECT_NE(json.find("\"better\": \"lower\""), std::string::npos);
  EXPECT_NE(json.find("\"hardware_threads\""), std::string::npos);
  // std::map ordering: alpha before zeta, so reports are byte-stable.
  EXPECT_LT(json.find("alpha_seconds"), json.find("zeta_qps"));
  // Checksums round-trip with full precision (17 significant digits).
  EXPECT_NE(json.find("0.33333333333333331"), std::string::npos);
}

TEST(BenchReportTest, DatasetShapeIsRecorded) {
  const gen::Dataset city = gen::MakeMidtown();
  BenchReport report("unit");
  report.AddDataset(city);
  std::ostringstream out;
  report.Write(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\": \"" + city.name + "\""), std::string::npos);
  EXPECT_NE(json.find("\"road_vertices\": "), std::string::npos);
  EXPECT_NE(json.find("\"transit_stops\": "), std::string::npos);
}

TEST(BenchReportTest, WriteIfRequestedHonorsEnv) {
  EnvGuard guard("CTBUS_BENCH_JSON_DIR");
  BenchReport report("unit_env");
  // Unset: opt-in not taken, still success.
  EXPECT_TRUE(report.WriteIfRequested());

  char dir_template[] = "/tmp/ctbus_bench_XXXXXX";
  char* dir = mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  guard.Set(dir);
  EXPECT_TRUE(report.WriteIfRequested());
  const std::string path = std::string(dir) + "/BENCH_unit_env.json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"bench\": \"unit_env\""),
            std::string::npos);
  std::remove(path.c_str());
  rmdir(dir);

  // Unwritable directory: warning + false, not a crash.
  guard.Set("/nonexistent/ctbus/bench/dir");
  EXPECT_FALSE(report.WriteIfRequested());
}

TEST(BenchReportTest, TwoIdenticalReportsSerializeIdentically) {
  const auto build = [] {
    BenchReport report("stable");
    report.AddMetric("m", 1.25, "lower");
    report.AddChecksum("c", 2.5);
    std::ostringstream out;
    report.Write(out);
    return out.str();
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace ctbus::bench
