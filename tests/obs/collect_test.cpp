// collect_network_metrics walks the stored collision ledgers (each cell
// Medium's dense or CSR ledger plus the cut resolver's cross-cell edges)
// instead of querying all N^2 link pairs. These tests pin that walk to a
// brute-force N^2 reference over Network::collision_pair_count, line by
// line in the exported JSONL, on the three ledger shapes a network can
// hold: one complete cell (dense), many cut-free sparse cells (CSR), and
// cells coupled by cut edges.
#include "obs/collect.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "phy/phy_params.hpp"
#include "traffic/arrival_process.hpp"

namespace rtmac::obs {
namespace {

/// The ledger-derived metrics as the original N^2 loop produced them.
void brute_force_collision_metrics(MetricsRegistry& registry, const net::Network& network) {
  const std::size_t n_links = network.config().num_links();
  for (LinkId n = 0; n < n_links; ++n) {
    std::uint64_t partners = 0;
    for (LinkId other = 0; other < n_links; ++other) {
      const std::uint64_t pairs = network.collision_pair_count(n, other);
      if (other != n && pairs > 0) ++partners;
      if (other >= n && pairs > 0) {
        registry.counter(link_metric(link_metric("phy.collision_pair", n), other)).inc(pairs);
      }
    }
    registry.gauge(link_metric("link.collision_partners", n))
        .set(static_cast<double>(partners));
  }
}

std::vector<std::string> jsonl_lines(const MetricsRegistry& registry) {
  std::ostringstream out;
  registry.write_jsonl(out);
  std::istringstream in{out.str()};
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool is_ledger_line(const std::string& line) {
  return line.starts_with(R"({"name":"phy.collision_pair.)") ||
         line.starts_with(R"({"name":"link.collision_partners.)");
}

/// Brute-force count of colliding link pairs whose endpoints sit in
/// different cells (the pairs only the cut resolver's ledger holds).
std::size_t cross_cell_pairs(const net::Network& network) {
  const std::size_t n_links = network.config().num_links();
  std::vector<std::size_t> cell_of(n_links);
  for (std::size_t c = 0; c < network.cell_count(); ++c) {
    for (const LinkId l : network.cell_links(c)) cell_of[l] = c;
  }
  std::size_t cross = 0;
  for (LinkId a = 0; a < n_links; ++a) {
    for (LinkId b = a + 1; b < n_links; ++b) {
      if (cell_of[a] != cell_of[b] && network.collision_pair_count(a, b) > 0) ++cross;
    }
  }
  return cross;
}

void expect_walk_matches_brute_force(const net::Network& network) {
  MetricsRegistry collected;
  collect_network_metrics(collected, network);
  MetricsRegistry reference;
  brute_force_collision_metrics(reference, network);

  std::vector<std::string> walked;
  for (const std::string& line : jsonl_lines(collected)) {
    if (is_ledger_line(line)) walked.push_back(line);
  }
  const std::vector<std::string> expected = jsonl_lines(reference);
  ASSERT_EQ(walked.size(), expected.size());
  std::size_t pair_lines = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(walked[i], expected[i]) << "line " << i;
    if (expected[i].starts_with(R"({"name":"phy.collision_pair.)")) ++pair_lines;
  }
  EXPECT_GT(pair_lines, 0U) << "no collisions: the comparison proves nothing";
}

net::NetworkConfig control_config(std::size_t num_links, std::uint64_t seed) {
  return net::symmetric_network(num_links, Duration::milliseconds(2),
                                phy::PhyParams::control_80211a(), 0.7,
                                traffic::BernoulliArrivals{0.8}, 0.9, seed);
}

TEST(CollectLedgerWalkTest, CompleteSingleCellMatchesBruteForce) {
  net::Network network{expfw::video_symmetric(0.9, 0.9, 79), expfw::fcsma_factory()};
  network.run(40);
  ASSERT_EQ(network.cell_count(), 1U);
  expect_walk_matches_brute_force(network);
}

TEST(CollectLedgerWalkTest, CutFreeUnitDiskCityMatchesBruteForce) {
  constexpr std::size_t kCells = 16;
  auto cfg = expfw::with_sparse_topology(control_config(kCells * 8, 11),
                                         expfw::city_unit_disk_topology(kCells, 8, 12));
  cfg.shards = kCells;
  net::Network network{std::move(cfg), expfw::dcf_factory()};
  network.run(30);
  ASSERT_GT(network.cell_count(), 1U);
  EXPECT_EQ(network.coordinator_rounds(), 0U);  // cut-free: no coordinator
  expect_walk_matches_brute_force(network);
}

TEST(CollectLedgerWalkTest, ChainWithCutsMatchesBruteForce) {
  constexpr std::size_t kCells = 8;
  auto cfg = expfw::with_sparse_topology(control_config(kCells * 8, 13),
                                         expfw::chain_cells_topology(kCells, 8));
  cfg.shards = kCells;
  net::Network network{std::move(cfg), expfw::fcsma_factory()};
  network.run(60);
  ASSERT_GT(network.cell_count(), 1U);
  EXPECT_GT(network.coordinator_rounds(), 0U);  // the cuts engage the coordinator
  EXPECT_GT(cross_cell_pairs(network), 0U) << "no cut-edge collisions to walk";
  expect_walk_matches_brute_force(network);
}

// Sweep runners detach the registry before collecting. A lone cell's
// instruments already live in the caller's registry; a multi-cell network
// must keep its private cell registries across the detach so the collect
// still folds them in.
TEST(CollectLedgerWalkTest, CellInstrumentsSurviveTheDetachBeforeCollect) {
  constexpr std::size_t kCells = 4;
  auto cfg = expfw::with_sparse_topology(control_config(kCells * 8, 14),
                                         expfw::city_unit_disk_topology(kCells, 8, 15));
  cfg.shards = kCells;
  net::Network network{std::move(cfg), expfw::dcf_factory()};
  ASSERT_GT(network.cell_count(), 1U);
  MetricsRegistry registry;
  network.attach_metrics(&registry);
  network.run(10);
  network.attach_metrics(nullptr);
  collect_network_metrics(registry, network);
  EXPECT_GT(registry.sketch("phy.busy_period_us").count(), 0U);
}

}  // namespace
}  // namespace rtmac::obs
