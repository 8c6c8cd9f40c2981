// Byte-identity regression against golden figure CSVs.
//
// The interference-topology refactor promises that the default complete
// collision domain reproduces the pre-refactor Medium exactly — same RNG
// draw order, same listener notification order, same numbers. These tests
// re-run the fig3/fig9 smoke sweeps in-process and compare the CSV output
// byte-for-byte against goldens captured before the refactor
// (tests/golden/). Any diff means the complete-graph fast path changed
// observable behavior, which is a bug even if the new numbers look
// plausible.
//
// The topology goldens do the same for partial sensing: the hidden-terminal
// bench (per-node sense views, the scalar DB-DP/FCSMA/DCF paths) and the
// disconnected-cells bench, recorded while a separate single-engine path
// still served them. They pin the results any later engine or MAC-layout
// rewrite must reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "expfw/report.hpp"
#include "expfw/runner.hpp"
#include "expfw/scenarios.hpp"
#include "net/network_config.hpp"
#include "traffic/arrival_process.hpp"

#ifndef RTMAC_TEST_DATA_DIR
#error "RTMAC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace rtmac::expfw {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string golden(const std::string& name) {
  return read_file(std::string{RTMAC_TEST_DATA_DIR} + "/golden/" + name);
}

/// Replays a figure bench's --smoke invocation: 3 grid points, 25 intervals,
/// single replication, default thread count.
std::string smoke_csv(const std::vector<SchemeSpec>& schemes, const ConfigAt& config_at,
                      const std::vector<double>& grid, const std::string& x_name,
                      const MetricFn& metric = total_deficiency_metric(),
                      std::vector<std::string> metric_names = {"deficiency"},
                      const SweepOptions& opts = {}) {
  const auto results =
      run_sweeps(schemes, config_at, grid, /*intervals=*/25, metric, std::move(metric_names), opts);
  // ctest runs every case as its own process, concurrently under -j: the
  // scratch file is named after the running test so no two cases share it.
  const std::string test = testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string path = testing::TempDir() + "golden_regression_" + test + "_" + x_name + ".csv";
  EXPECT_TRUE(write_sweep_csv(path, x_name, results));
  const std::string contents = read_file(path);
  std::remove(path.c_str());
  return contents;
}

TEST(GoldenRegressionTest, Fig3SmokeCsvIsByteIdenticalToPreRefactorBaseline) {
  const std::string csv = smoke_csv(
      {{"LDF", ldf_factory()}, {"DB-DP", dbdp_factory()}, {"FCSMA", fcsma_factory()}},
      [](double alpha) { return video_symmetric(alpha, 0.9, 1001); },
      linspace(0.40, 0.80, 3), "alpha");
  EXPECT_EQ(csv, read_file(std::string{RTMAC_TEST_DATA_DIR} + "/golden/fig3_smoke.csv"));
}

TEST(GoldenRegressionTest, Fig9SmokeCsvIsByteIdenticalToPreRefactorBaseline) {
  const std::string csv = smoke_csv(
      {{"LDF", ldf_factory()}, {"DB-DP", dbdp_factory()}, {"FCSMA", fcsma_factory()}},
      [](double l) { return control_symmetric(l, 0.99, 1009); },
      linspace(0.60, 1.00, 3), "lambda");
  EXPECT_EQ(csv, read_file(std::string{RTMAC_TEST_DATA_DIR} + "/golden/fig9_smoke.csv"));
}

TEST(GoldenRegressionTest, ExplicitCompleteTopologyMatchesDefaultByteForByte) {
  // Attaching the complete topology explicitly (every link lists every
  // other under both relations) must not perturb a single byte either.
  const auto base = [](double alpha) { return video_symmetric(alpha, 0.9, 1001); };
  const auto with_complete = [&](double alpha) {
    constexpr std::size_t n = VideoScenario::kNumLinks;
    phy::SparseTopology complete{n, std::vector<std::vector<LinkId>>(n),
                                 std::vector<std::vector<LinkId>>(n)};
    for (LinkId a = 0; a < n; ++a) {
      for (LinkId b = 0; b < n; ++b) {
        if (a == b) continue;
        complete.conflict[a].push_back(b);
        complete.sense[a].push_back(b);
      }
    }
    return with_sparse_topology(base(alpha), std::move(complete));
  };
  const std::vector<SchemeSpec> schemes{{"LDF", ldf_factory()},
                                        {"DB-DP", dbdp_factory()},
                                        {"FCSMA", fcsma_factory()}};
  const auto grid = linspace(0.40, 0.80, 3);
  EXPECT_EQ(smoke_csv(schemes, with_complete, grid, "alpha"),
            read_file(std::string{RTMAC_TEST_DATA_DIR} + "/golden/fig3_smoke.csv"));
}

// ---- partial-sensing topologies (bench/topology_*) ---------------------------

/// The topology benches' metric: deficiency plus the per-attempt collision
/// rate, read through the engine-independent facades.
MetricFn deficiency_and_collision_rate() {
  return [](const net::Network& network) {
    const auto c = network.medium_counters();
    const auto attempts = std::max<std::uint64_t>(1, c.data_tx + c.empty_tx);
    return std::vector<double>{network.total_deficiency(),
                               static_cast<double>(c.collisions) / attempts};
  };
}

std::vector<SchemeSpec> contention_schemes() {
  return {{"DB-DP", dbdp_factory()}, {"FCSMA", fcsma_factory()}, {"DCF", dcf_factory()}};
}

/// Replays `topology_hidden_terminal --smoke` for one of its two figures.
std::string topology_smoke_csv(const ConfigAt& config_at, const SweepOptions& opts = {}) {
  return smoke_csv(contention_schemes(), config_at, linspace(0.60, 1.00, 3), "lambda",
                   deficiency_and_collision_rate(), {"deficiency", "coll_rate"}, opts);
}

TEST(GoldenRegressionTest, TopologyCompleteSmokeCsvIsByteIdenticalToRecordedBaseline) {
  const std::string csv =
      topology_smoke_csv([](double l) { return control_symmetric(l, 0.99, 1011); });
  EXPECT_EQ(csv, golden("topology_complete_smoke.csv"));
}

TEST(GoldenRegressionTest, TopologyHiddenSmokeCsvIsByteIdenticalToRecordedBaseline) {
  const std::string csv = topology_smoke_csv([](double l) {
    return with_sparse_topology(control_symmetric(l, 0.99, 1011), hidden_cells_topology(10, 5));
  });
  EXPECT_EQ(csv, golden("topology_hidden_smoke.csv"));
}

TEST(GoldenRegressionTest, TopologyCellsSmokeCsvIsByteIdenticalForAnyShardCount) {
  // bench/topology_cells: 24 links in six independent cells of 4. The
  // golden was recorded at --shards 0; every shard count must reproduce it.
  const ConfigAt cells = [](double l) {
    auto cfg = net::symmetric_network(24, Duration::milliseconds(2),
                                      phy::PhyParams::control_80211a(), 0.7,
                                      traffic::BernoulliArrivals{l}, 0.99, 2311);
    return with_sparse_topology(std::move(cfg), disconnected_cells_topology(24, 4));
  };
  for (const int shards : {0, 1, 4}) {
    SweepOptions opts;
    opts.shards = shards;
    EXPECT_EQ(topology_smoke_csv(cells, opts), golden("topology_cells_smoke.csv"))
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace rtmac::expfw
