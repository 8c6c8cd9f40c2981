// Full-stack interference-topology tests: NetworkConfig -> Network ->
// Medium -> MAC schemes running on partial conflict graphs.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "net/network_config.hpp"
#include "phy/interference.hpp"
#include "traffic/arrival_process.hpp"

namespace rtmac::net {
namespace {

using expfw::control_symmetric;
using expfw::hidden_cells_topology;
using expfw::with_sparse_topology;

/// `num_links` links with no relations at all.
phy::SparseTopology isolated_links(std::size_t num_links) {
  return phy::SparseTopology{num_links, std::vector<std::vector<LinkId>>(num_links),
                             std::vector<std::vector<LinkId>>(num_links)};
}

/// Attaches `topology` unchecked (with_sparse_topology requires a matching
/// size), so malformed topologies reach NetworkConfig::validate.
NetworkConfig with_lists(NetworkConfig cfg, phy::SparseTopology topology) {
  cfg.sparse_topology = std::make_shared<const phy::SparseTopology>(std::move(topology));
  return cfg;
}

TEST(TopologyNetworkTest, ConfigValidatesTopologySize) {
  auto cfg = with_lists(control_symmetric(0.8, 0.99, 7), isolated_links(3));  // 10 links
  std::string error;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("topology"), std::string::npos);
  cfg = with_lists(std::move(cfg), isolated_links(10));
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

/// A two-link network over `topology`.
NetworkConfig two_links(phy::SparseTopology topology, std::size_t shards) {
  auto cfg = with_lists(net::symmetric_network(2, Duration::milliseconds(2),
                                               phy::PhyParams::control_80211a(), 0.7,
                                               traffic::BernoulliArrivals{0.5}, 0.9, 3),
                        std::move(topology));
  cfg.shards = shards;
  return cfg;
}

/// `topology` must fail validation with `message`, and Network construction
/// must throw rather than crash.
void expect_rejected(const phy::SparseTopology& topology, const std::string& message) {
  for (const std::size_t shards : {0UL, 1UL}) {
    auto cfg = two_links(topology, shards);
    std::string error;
    EXPECT_FALSE(cfg.validate(&error)) << "shards=" << shards;
    EXPECT_NE(error.find(message), std::string::npos) << error;
    EXPECT_THROW((Network{std::move(cfg), expfw::dcf_factory()}), std::invalid_argument);
  }
}

TEST(TopologyNetworkTest, ConfigRejectsRowCountsThatDifferFromNumLinks) {
  for (const std::size_t rows : {0UL, 1UL, 3UL}) {
    phy::SparseTopology short_conflict = isolated_links(2);
    short_conflict.conflict.resize(rows);
    expect_rejected(short_conflict, "one conflict and one sense list per link");
    phy::SparseTopology short_sense = isolated_links(2);
    short_sense.sense.resize(rows);
    expect_rejected(short_sense, "one conflict and one sense list per link");
  }
}

TEST(TopologyNetworkTest, MalformedRowsFailValidationInsteadOfCrashing) {
  // An id past the last link used to reach the partitioner unchecked and
  // crash Network construction.
  expect_rejected(phy::SparseTopology{2, {{1000000}, {}}, {{}, {}}}, "unknown link");
  expect_rejected(phy::SparseTopology{2, {{}, {}}, {{}, {2}}}, "unknown link");
}

TEST(TopologyNetworkTest, CloneCarriesTheTopology) {
  const auto cfg =
      with_sparse_topology(control_symmetric(0.8, 0.99, 7), hidden_cells_topology(10, 5));
  const auto copy = cfg.clone();
  ASSERT_NE(copy.sparse_topology, nullptr);
  EXPECT_EQ(copy.sparse_topology, cfg.sparse_topology);  // shared, not deep-copied
  const phy::InterferenceGraph graph{*copy.sparse_topology};
  EXPECT_FALSE(graph.complete_sensing());
  EXPECT_TRUE(graph.complete_conflicts());
}

TEST(TopologyNetworkTest, NetworkWithoutTopologyUsesCompleteGraph) {
  Network network{control_symmetric(0.8, 0.99, 7), expfw::dbdp_factory()};
  EXPECT_TRUE(network.medium().topology().is_complete());
  network.run(50);
  // The paper's invariant: DP never collides under complete sensing.
  EXPECT_EQ(network.medium().counters().collisions, 0u);
}

TEST(TopologyNetworkTest, DbDpCollidesUnderHiddenCells) {
  Network network{
      with_sparse_topology(control_symmetric(0.8, 0.99, 7), hidden_cells_topology(10, 5)),
      expfw::dbdp_factory()};
  EXPECT_FALSE(network.medium().topology().complete_sensing());
  network.run(50);
  // Cross-cell countdowns cannot synchronize: collisions are now a genuine
  // outcome, with at least one cross-cell partner pair in the ledger.
  EXPECT_GT(network.medium().counters().collisions, 0u);
  std::uint64_t cross_cell_pairs = 0;
  for (LinkId a = 0; a < 10; ++a) {
    for (LinkId b = 0; b < 10; ++b) {
      if (a / 5 != b / 5) cross_cell_pairs += network.medium().collision_pair_count(a, b);
    }
  }
  EXPECT_GT(cross_cell_pairs, 0u);
}

TEST(TopologyNetworkTest, FcsmaCollidesMoreWithHiddenTerminals) {
  Network complete{control_symmetric(0.9, 0.99, 11), expfw::fcsma_factory()};
  Network hidden{
      with_sparse_topology(control_symmetric(0.9, 0.99, 11), hidden_cells_topology(10, 5)),
      expfw::fcsma_factory()};
  complete.run(200);
  hidden.run(200);
  EXPECT_GT(hidden.medium().counters().collisions,
            complete.medium().counters().collisions);
}

TEST(TopologyNetworkTest, IndependentCellsAllowSpatialReuse) {
  // Two cells with no cross-cell conflicts at all: both cells deliver
  // concurrently, which a complete collision domain cannot do. Aggregate
  // deficiency must not exceed the single-domain run's.
  Network shared{control_symmetric(1.0, 0.99, 13), expfw::dbdp_factory()};
  Network split{
      with_sparse_topology(control_symmetric(1.0, 0.99, 13), expfw::two_cell_topology(5, 0)),
      expfw::dbdp_factory()};
  shared.run(200);
  split.run(200);
  EXPECT_LT(split.total_deficiency(), shared.total_deficiency());
}

}  // namespace
}  // namespace rtmac::net
