#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <vector>

#include "net/network.hpp"

#include "expfw/bench_cli.hpp"
#include "expfw/report.hpp"
#include "expfw/runner.hpp"
#include "expfw/scenarios.hpp"

namespace rtmac::expfw {
namespace {

TEST(ScenariosTest, VideoSymmetricMatchesPaperParameters) {
  const auto cfg = video_symmetric(0.55, 0.9, 1);
  EXPECT_EQ(cfg.num_links(), 20u);
  EXPECT_EQ(cfg.interval_length, Duration::milliseconds(20));
  for (double p : cfg.success_prob) EXPECT_DOUBLE_EQ(p, 0.7);
  for (double l : cfg.requirements.lambda) EXPECT_NEAR(l, 3.5 * 0.55, 1e-12);
  for (double r : cfg.requirements.rho) EXPECT_DOUBLE_EQ(r, 0.9);
  EXPECT_TRUE(cfg.validate());
}

TEST(ScenariosTest, VideoAsymmetricGroups) {
  const auto cfg = video_asymmetric(0.7, 0.9, 1);
  EXPECT_EQ(cfg.num_links(), 20u);
  for (LinkId n : asymmetric_group(1)) {
    EXPECT_DOUBLE_EQ(cfg.success_prob[n], 0.5);
    EXPECT_NEAR(cfg.requirements.lambda[n], 3.5 * 0.35, 1e-12);
  }
  for (LinkId n : asymmetric_group(2)) {
    EXPECT_DOUBLE_EQ(cfg.success_prob[n], 0.8);
    EXPECT_NEAR(cfg.requirements.lambda[n], 3.5 * 0.7, 1e-12);
  }
  EXPECT_TRUE(cfg.validate());
}

TEST(ScenariosTest, ControlSymmetricMatchesPaperParameters) {
  const auto cfg = control_symmetric(0.78, 0.99, 1);
  EXPECT_EQ(cfg.num_links(), 10u);
  EXPECT_EQ(cfg.interval_length, Duration::milliseconds(2));
  EXPECT_TRUE(cfg.validate());
}

TEST(ScenariosTest, PaperInfluenceIsLog100) {
  const auto f = paper_influence();
  EXPECT_NEAR(f(0.0), std::log(100.0), 1e-12);
}

TEST(ScenariosTest, FactoriesProduceNamedSchemes) {
  auto cfg = video_symmetric(0.3, 0.9, 1);
  net::Network dbdp{cfg.clone(), dbdp_factory()};
  net::Network ldf{cfg.clone(), ldf_factory()};
  net::Network fcsma{cfg.clone(), fcsma_factory()};
  net::Network dcf{cfg.clone(), dcf_factory()};
  EXPECT_EQ(dbdp.scheme().name(), "DB-DP");
  EXPECT_EQ(ldf.scheme().name(), "LDF");
  EXPECT_EQ(fcsma.scheme().name(), "FCSMA");
  EXPECT_EQ(dcf.scheme().name(), "DCF");
}

TEST(RunnerTest, LinspaceEndpointsAndSpacing) {
  const auto xs = linspace(0.0, 1.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1.0);
  EXPECT_DOUBLE_EQ(xs[2], 0.5);
}

TEST(RunnerTest, SweepProducesOneValuePerPoint) {
  const auto grid = linspace(0.1, 0.3, 3);
  const auto result = run_sweep(
      "LDF", ldf_factory(),
      [](double a) { return video_symmetric(a, 0.9, 5); }, grid, 20,
      total_deficiency_metric(), {"deficiency"});
  EXPECT_EQ(result.scheme, "LDF");
  EXPECT_EQ(result.reps, 1u);
  ASSERT_EQ(result.samples.size(), 3u);
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    ASSERT_EQ(result.samples[i].size(), 1u);
    ASSERT_EQ(result.samples[i][0].size(), 1u);
    EXPECT_GE(result.mean(i, 0), 0.0);
  }
}

TEST(RunnerTest, GroupMetricReturnsPerGroupValues) {
  const auto metric = group_deficiency_metric({asymmetric_group(1), asymmetric_group(2)});
  const auto result = run_sweep(
      "LDF", ldf_factory(),
      [](double a) { return video_asymmetric(a, 0.9, 5); }, {0.2}, 20, metric,
      {"group1", "group2"});
  ASSERT_EQ(result.samples.size(), 1u);
  EXPECT_EQ(result.samples[0][0].size(), 2u);
}

TEST(ReportTest, TableRendersAllSeries) {
  SweepResult r1{"A", {"m"}, {0.1, 0.2}, 1, {{{1.0}}, {{2.0}}}, {}};
  SweepResult r2{"B", {"m"}, {0.1, 0.2}, 1, {{{3.0}}, {{4.0}}}, {}};
  std::ostringstream out;
  print_sweep_table(out, "x", {r1, r2});
  const std::string s = out.str();
  EXPECT_NE(s.find("A"), std::string::npos);
  EXPECT_NE(s.find("B"), std::string::npos);
  EXPECT_NE(s.find("0.100"), std::string::npos);
  EXPECT_NE(s.find("4.0000"), std::string::npos);
}

TEST(ReportTest, MultiMetricColumnsAreQualified) {
  SweepResult r{"FCSMA", {"g1", "g2"}, {0.1}, 1, {{{1.0, 2.0}}}, {}};
  std::ostringstream out;
  print_sweep_table(out, "x", {r});
  EXPECT_NE(out.str().find("FCSMA:g1"), std::string::npos);
  EXPECT_NE(out.str().find("FCSMA:g2"), std::string::npos);
}

TEST(ReportTest, BannerMentionsFigure) {
  std::ostringstream out;
  print_figure_banner(out, "Fig. 3", "symmetric sweep", "DB-DP ~ LDF");
  EXPECT_NE(out.str().find("Fig. 3"), std::string::npos);
  EXPECT_NE(out.str().find("DB-DP ~ LDF"), std::string::npos);
}

TEST(ReportTest, CsvWriterWritesFile) {
  SweepResult r{"A", {"m"}, {0.5}, 1, {{{7.0}}}, {}};
  const std::string path = bench_output_dir() + "/expfw_test_tmp.csv";
  ASSERT_TRUE(write_sweep_csv(path, "x", {r}));
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,A");
  std::getline(in, line);
  EXPECT_EQ(line, "0.5,7");
}

/// Parses `argv` as a bench binary would (default 100 intervals, smoke 10).
void parse_bench(std::initializer_list<const char*> argv) {
  const std::vector<const char*> args(argv);
  (void)parse_bench_args(static_cast<int>(args.size()), args.data(), 100, 10);
}

TEST(BenchCliTest, NegativeIntervalsExit2) {
  // Unchecked, -5 wraps to ~1.8e19 intervals and the bench never exits.
  EXPECT_EXIT(parse_bench({"bench", "--intervals", "-5"}), ::testing::ExitedWithCode(2),
              "--intervals must be >= 0");
  EXPECT_EXIT(parse_bench({"bench", "-5"}), ::testing::ExitedWithCode(2),
              "--intervals must be >= 0");
}

TEST(BenchCliTest, ZeroRepsExit2) {
  EXPECT_EXIT(parse_bench({"bench", "--reps", "0"}), ::testing::ExitedWithCode(2),
              "--reps must be >= 1");
}

TEST(BenchCliTest, ZeroStreamEveryExit2) {
  EXPECT_EXIT(parse_bench({"bench", "--stream-every", "0"}), ::testing::ExitedWithCode(2),
              "--stream-every must be >= 1");
}

TEST(BenchCliTest, MalformedOrOversizedIntegersExit2) {
  // Each of these used to run a default configuration and exit 0.
  EXPECT_EXIT(parse_bench({"bench", "--smoke", "--shards", "4294967296"}),
              ::testing::ExitedWithCode(2), "--shards must be in");
  EXPECT_EXIT(parse_bench({"bench", "--smoke", "--shards", "99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "--shards expects an integer");
  EXPECT_EXIT(parse_bench({"bench", "--shard-jobs", "4294967296"}), ::testing::ExitedWithCode(2),
              "--shard-jobs must be in");
  // Worker counts above ThreadPool::kMaxThreads exit before any pool exists.
  EXPECT_EXIT(parse_bench({"bench", "--jobs", "100000"}), ::testing::ExitedWithCode(2),
              "--jobs must be in");
  EXPECT_EXIT(parse_bench({"bench", "--shard-jobs", "100000"}), ::testing::ExitedWithCode(2),
              "--shard-jobs must be in");
  EXPECT_EXIT(parse_bench({"bench", "--intervals", "5x"}), ::testing::ExitedWithCode(2),
              "--intervals expects an integer");
}

TEST(BenchCliTest, ValidIntervalsParse) {
  const std::vector<const char*> args{"bench", "--intervals", "0", "--reps", "2"};
  const BenchArgs parsed = parse_bench_args(static_cast<int>(args.size()), args.data(), 100, 10);
  EXPECT_EQ(parsed.intervals, 0U);
  EXPECT_EQ(parsed.sweep.reps, 2U);
}

}  // namespace
}  // namespace rtmac::expfw
