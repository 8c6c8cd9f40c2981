// Disconnected-cells extension experiment: 24 links in six independent
// collision domains of 4 (expfw::disconnected_cells_topology). This is the
// canonical sharded-engine benchmark — the partitioner recovers the cells
// exactly, the cut sets are empty, and results are byte-identical for any
// --shards / --shard-jobs value. CI diffs this bench's CSV across
// (--jobs 1/4) x (--shards 1/4) to enforce that contract end to end.
//
// Expected: deficiency falls as load drops, and with six independent cells
// of 4 the contention inside each cell is far below the complete graph's,
// so every scheme clears loads the single-domain network cannot.
#include <cstdlib>
#include <iostream>
#include <utility>

#include "expfw/figure_bench.hpp"
#include "expfw/scenarios.hpp"
#include "net/network_config.hpp"
#include "traffic/arrival_process.hpp"

int main(int argc, char** argv) {
  using namespace rtmac;
  const auto args = expfw::parse_bench_args(argc, argv, 2000);

  constexpr std::size_t kNumLinks = 24;
  constexpr std::size_t kCellSize = 4;

  const expfw::MetricFn metric = [](const net::Network& network) {
    // Facade accessors only — this bench must run on either engine.
    const auto c = network.medium_counters();
    const auto attempts = std::max<std::uint64_t>(1, c.data_tx + c.empty_tx);
    return std::vector<double>{network.total_deficiency(),
                               static_cast<double>(c.collisions) / attempts};
  };
  // LDF/ELDF are centralized (not shardable); the lineup is the three
  // decentralized schemes the sharded engine supports.
  const std::vector<expfw::SchemeSpec> schemes{{"DB-DP", expfw::dbdp_factory()},
                                               {"FCSMA", expfw::fcsma_factory()},
                                               {"DCF", expfw::dcf_factory()}};
  const auto grid = expfw::linspace(0.60, 1.00, args.grid_points(9));

  const expfw::FigureSpec spec{
      .figure_id = "Topology C (disconnected cells)",
      .description = "24 links in 6 independent cells of 4, control traffic, rho = 0.99",
      .expected_shape = "per-cell contention only; identical output for any --shards",
      .x_label = "lambda*",
      .csv_column = "lambda",
      .csv_basename = "topology_cells.csv",
      .schemes = schemes,
      .metric = metric,
      .metric_names = {"deficiency", "coll_rate"},
      .paper_intervals = 20000,
  };
  const auto results = expfw::run_figure_sweep(
      std::cout, spec,
      [&](double l) {
        auto cfg = net::symmetric_network(kNumLinks, Duration::milliseconds(2),
                                          phy::PhyParams::control_80211a(), 0.7,
                                          traffic::BernoulliArrivals{l}, 0.99, 2311);
        return expfw::with_sparse_topology(
            std::move(cfg), expfw::disconnected_cells_topology(kNumLinks, kCellSize));
      },
      grid, args);

  // Sanity: the sweep must have produced every (scheme, grid) sample.
  for (const auto& r : results) {
    if (r.xs.size() != grid.size()) {
      std::cout << "FAIL: incomplete sweep for " << r.scheme << "\n";
      return 1;
    }
  }
  return 0;
}
