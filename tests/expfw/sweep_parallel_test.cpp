// The tentpole guarantees of the parallel sweep engine:
//  - results are bit-identical regardless of --jobs (scheduling order must
//    not leak into the numbers), which is what makes parallel replication
//    trustworthy;
//  - seeds derive deterministically from (base, scheme, x-index, rep);
//  - replication statistics (mean/sd/ci95) are computed correctly;
//  - argument validation survives NDEBUG (real exceptions, not asserts).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "expfw/report.hpp"
#include "expfw/runner.hpp"
#include "expfw/scenarios.hpp"

namespace rtmac::expfw {
namespace {

std::string file_contents(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

SweepOptions sweep_options(std::size_t reps, std::size_t jobs) {
  SweepOptions opts;
  opts.reps = reps;
  opts.jobs = jobs;
  return opts;
}

std::vector<SweepResult> small_sweep(const SweepOptions& opts) {
  return run_sweeps(
      {{"LDF", ldf_factory()}, {"FCSMA", fcsma_factory()}},
      [](double a) { return video_symmetric(a, 0.9, 42); }, {0.4, 0.55, 0.7},
      /*intervals=*/15, total_deficiency_metric(), {"deficiency"}, opts);
}

TEST(SweepSeedTest, DeterministicAndSensitiveToEveryInput) {
  const auto s = sweep_seed(1, "LDF", 2, 3);
  EXPECT_EQ(s, sweep_seed(1, "LDF", 2, 3));
  EXPECT_NE(s, sweep_seed(2, "LDF", 2, 3));
  EXPECT_NE(s, sweep_seed(1, "DB-DP", 2, 3));
  EXPECT_NE(s, sweep_seed(1, "LDF", 1, 3));
  EXPECT_NE(s, sweep_seed(1, "LDF", 2, 4));
}

TEST(SweepSeedTest, ReplicationsAreDistinctStreams) {
  for (std::size_t r = 1; r < 16; ++r) {
    EXPECT_NE(sweep_seed(7, "DB-DP", 0, 0), sweep_seed(7, "DB-DP", 0, r));
  }
}

TEST(ParallelSweepTest, ResultsAreIdenticalAcrossJobCounts) {
  const auto serial = small_sweep(sweep_options(2, 1));
  const auto parallel = small_sweep(sweep_options(2, 4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s].scheme, parallel[s].scheme);
    EXPECT_EQ(serial[s].xs, parallel[s].xs);
    // Bit-identical, not approximately equal: the task seed depends only on
    // (base, scheme, x-index, rep), never on which thread ran the task.
    EXPECT_EQ(serial[s].samples, parallel[s].samples);
  }
}

TEST(ParallelSweepTest, CsvOutputIsByteIdenticalAcrossJobCounts) {
  const auto serial = small_sweep(sweep_options(2, 1));
  const auto parallel = small_sweep(sweep_options(2, 3));
  const std::string p1 = bench_output_dir() + "/determinism_jobs1.csv";
  const std::string pn = bench_output_dir() + "/determinism_jobsN.csv";
  ASSERT_TRUE(write_sweep_csv(p1, "alpha", serial));
  ASSERT_TRUE(write_sweep_csv(pn, "alpha", parallel));
  const std::string serial_csv = file_contents(p1);
  EXPECT_FALSE(serial_csv.empty());
  EXPECT_EQ(serial_csv, file_contents(pn));
}

TEST(ParallelSweepTest, ReplicationStatisticsMatchSamples) {
  const auto results = small_sweep(sweep_options(3, 2));
  const auto& r = results.front();
  ASSERT_EQ(r.reps, 3u);
  for (std::size_t i = 0; i < r.xs.size(); ++i) {
    ASSERT_EQ(r.samples[i].size(), 3u);
    double sum = 0.0;
    for (const auto& sample : r.samples[i]) {
      ASSERT_EQ(sample.size(), 1u);
      sum += sample[0];
    }
    EXPECT_DOUBLE_EQ(r.mean(i, 0), sum / 3.0);
    EXPECT_GE(r.stddev(i, 0), 0.0);
    EXPECT_NEAR(r.ci95(i, 0), 1.96 * r.stddev(i, 0) / std::sqrt(3.0), 1e-12);
  }
}

TEST(ParallelSweepTest, SingleRepHasDegenerateStats) {
  const auto results = small_sweep(sweep_options(1, 2));
  const auto& r = results.front();
  EXPECT_EQ(r.reps, 1u);
  EXPECT_DOUBLE_EQ(r.stddev(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.ci95(0, 0), 0.0);
}

TEST(ParallelSweepTest, ReportShowsCiColumnsForReplicatedSweeps) {
  const auto results = small_sweep(sweep_options(2, 2));
  std::ostringstream out;
  print_sweep_table(out, "alpha*", results);
  EXPECT_NE(out.str().find("LDF:sd"), std::string::npos);
  EXPECT_NE(out.str().find("LDF:ci95"), std::string::npos);
  EXPECT_NE(out.str().find("replications/point"), std::string::npos);
}

// Validation must throw real exceptions (assert-only checks vanish under
// NDEBUG and the Release CI leg would sail past bad arguments).
TEST(SweepValidationTest, LinspaceRejectsDegenerateGrids) {
  EXPECT_THROW(linspace(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(linspace(0.0, 1.0, 1), std::invalid_argument);
}

TEST(SweepValidationTest, RunSweepsRejectsBadArguments) {
  const auto config_at = [](double a) { return video_symmetric(a, 0.9, 1); };
  const auto metric = total_deficiency_metric();
  EXPECT_THROW(run_sweeps({}, config_at, {0.4}, 1, metric, {"d"}), std::invalid_argument);
  EXPECT_THROW(run_sweeps({{"LDF", ldf_factory()}}, config_at, {}, 1, metric, {"d"}),
               std::invalid_argument);
  EXPECT_THROW(run_sweeps({{"LDF", ldf_factory()}}, config_at, {0.4}, 1, metric, {}),
               std::invalid_argument);
  EXPECT_THROW(run_sweeps({{"LDF", ldf_factory()}}, config_at, {0.4}, 1, metric, {"d"},
                          sweep_options(0, 1)),
               std::invalid_argument);
}

TEST(SweepValidationTest, MetricArityMismatchSurfacesFromWorkers) {
  const auto config_at = [](double a) { return video_symmetric(a, 0.9, 1); };
  EXPECT_THROW((void)run_sweep("LDF", ldf_factory(), config_at, {0.4}, 1,
                               total_deficiency_metric(), {"a", "b"}),
               std::runtime_error);
}

TEST(SweepValidationTest, LowestIndexFailureSurfacesAtEveryJobCount) {
  // Tasks 3 = (LDF, 0.55, rep 1) and 10 = (FCSMA, 0.7, rep 0) fail. Task 3
  // waits before throwing, so task 10 usually fails first in time; the
  // sweep must still report task 3, whatever the schedule.
  constexpr std::uint64_t kBase = 42;
  const std::vector<double> grid = {0.4, 0.55, 0.7};
  const std::uint64_t seed3 = sweep_seed(kBase, "LDF", 1, 1);
  const std::uint64_t seed10 = sweep_seed(kBase, "FCSMA", 2, 0);
  const MetricFn metric = [seed3, seed10](const net::Network& network) {
    if (network.config().seed == seed3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error{"task 3"};
    }
    if (network.config().seed == seed10) throw std::runtime_error{"task 10"};
    return std::vector<double>{0.0};
  };
  for (const std::size_t jobs : {1UL, 2UL, 4UL, 8UL}) {
    try {
      (void)run_sweeps({{"LDF", ldf_factory()}, {"FCSMA", fcsma_factory()}},
                       [](double a) { return video_symmetric(a, 0.9, kBase); }, grid,
                       /*intervals=*/3, metric, {"m"}, sweep_options(2, jobs));
      ADD_FAILURE() << "no failure surfaced at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << "jobs=" << jobs;
    }
  }
}

TEST(SweepValidationTest, ReportRejectsMismatchedGrids) {
  SweepResult a{"A", {"m"}, {0.1}, 1, {{{1.0}}}, {}};
  SweepResult b{"B", {"m"}, {0.2}, 1, {{{2.0}}}, {}};
  std::ostringstream out;
  EXPECT_THROW(print_sweep_table(out, "x", {a, b}), std::invalid_argument);
  EXPECT_THROW(print_sweep_table(out, "x", {}), std::invalid_argument);
}

}  // namespace
}  // namespace rtmac::expfw
