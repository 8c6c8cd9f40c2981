// Hidden-terminal extension experiment (not in the paper, which assumes a
// complete collision domain): the 10-link control network split into two
// carrier-sense cells of 5 that still share one channel at the receivers
// (expfw::hidden_cells_topology). Cross-cell transmissions collide but are
// invisible to listen-before-talk, so every contention scheme — including
// DB-DP, whose collision-freedom proof requires complete sensing — picks
// up a genuine collision rate. Expected: the hidden topology's collision
// rate strictly dominates the complete graph's at every load (checked in
// full runs; DB-DP's complete-graph rate is exactly zero).
#include <cstdlib>
#include <iostream>

#include "expfw/figure_bench.hpp"
#include "expfw/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace rtmac;
  const auto args = expfw::parse_bench_args(argc, argv, 2000);

  const expfw::MetricFn metric = [](const net::Network& network) {
    // Facade accessor so the bench also runs under --shards (the hidden-cells
    // topology is union-connected, so sharding it exercises the cut path).
    const auto c = network.medium_counters();
    const auto attempts = std::max<std::uint64_t>(1, c.data_tx + c.empty_tx);
    return std::vector<double>{network.total_deficiency(),
                               static_cast<double>(c.collisions) / attempts};
  };
  const std::vector<expfw::SchemeSpec> schemes{{"DB-DP", expfw::dbdp_factory()},
                                               {"FCSMA", expfw::fcsma_factory()},
                                               {"DCF", expfw::dcf_factory()}};
  const auto grid = expfw::linspace(0.60, 1.00, args.grid_points(9));

  expfw::FigureSpec spec{
      .figure_id = "Topology A (complete)",
      .description = "control network, rho = 0.99, complete collision domain (paper model)",
      .expected_shape = "DB-DP collision rate exactly 0 (collision-freedom holds)",
      .x_label = "lambda*",
      .csv_column = "lambda",
      .csv_basename = "topology_complete.csv",
      .schemes = schemes,
      .metric = metric,
      .metric_names = {"deficiency", "coll_rate"},
      .paper_intervals = 20000,
  };
  const auto complete = expfw::run_figure_sweep(
      std::cout, spec, [](double l) { return expfw::control_symmetric(l, 0.99, 1011); }, grid,
      args);

  spec.figure_id = "Topology B (hidden cells)";
  spec.description = "same network, carrier sensing confined to two cells of 5 links";
  spec.expected_shape = "all schemes collide across cells; collision rate > topology A";
  spec.csv_basename = "topology_hidden.csv";
  const auto hidden = expfw::run_figure_sweep(
      std::cout, spec,
      [](double l) {
        return expfw::with_sparse_topology(expfw::control_symmetric(l, 0.99, 1011),
                                           expfw::hidden_cells_topology(10, 5));
      },
      grid, args);

  // Grid-aggregate collision rate per scheme; with the full horizon the
  // hidden topology must strictly dominate (smoke runs are too short to
  // assert on).
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    double rate_complete = 0.0;
    double rate_hidden = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      rate_complete += complete[s].mean(i, 1);
      rate_hidden += hidden[s].mean(i, 1);
    }
    std::cout << schemes[s].name << ": mean collision rate " << rate_complete / grid.size()
              << " (complete) vs " << rate_hidden / grid.size() << " (hidden)\n";
    if (!args.smoke && rate_hidden <= rate_complete) {
      std::cout << "FAIL: hidden-terminal collision rate not above the complete graph's\n";
      return 1;
    }
  }
  return 0;
}
