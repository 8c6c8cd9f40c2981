#include "expfw/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "mac/centralized_scheduler.hpp"
#include "mac/priority_provider.hpp"
#include "mac/reliability_estimator.hpp"
#include "traffic/arrival_process.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rtmac::expfw {

core::Influence paper_influence() { return core::Influence::paper_log(100.0); }

net::NetworkConfig video_symmetric(double alpha, double rho, std::uint64_t seed) {
  return net::symmetric_network(VideoScenario::kNumLinks, VideoScenario::deadline(),
                                phy::PhyParams::video_80211a(), VideoScenario::kReliability,
                                traffic::UniformBurstyArrivals{alpha}, rho, seed);
}

net::NetworkConfig video_asymmetric(double alpha_star, double rho, std::uint64_t seed) {
  constexpr std::size_t kGroupSize = 10;
  net::NetworkConfig cfg;
  cfg.interval_length = VideoScenario::deadline();
  cfg.phy = phy::PhyParams::video_80211a();
  cfg.seed = seed;
  for (std::size_t n = 0; n < 2 * kGroupSize; ++n) {
    const bool group1 = n < kGroupSize;
    const double p = group1 ? 0.5 : 0.8;
    const double alpha = group1 ? 0.5 * alpha_star : alpha_star;
    cfg.success_prob.push_back(p);
    cfg.arrivals.push_back(std::make_unique<traffic::UniformBurstyArrivals>(alpha));
    cfg.requirements.lambda.push_back(cfg.arrivals.back()->mean());
    cfg.requirements.rho.push_back(rho);
  }
  return cfg;
}

std::vector<LinkId> asymmetric_group(int group) {
  RTMAC_REQUIRE(group == 1 || group == 2);
  std::vector<LinkId> links;
  for (LinkId n = 0; n < 10; ++n) links.push_back(group == 1 ? n : n + 10);
  return links;
}

net::NetworkConfig control_symmetric(double lambda, double rho, std::uint64_t seed) {
  return net::symmetric_network(ControlScenario::kNumLinks, ControlScenario::deadline(),
                                phy::PhyParams::control_80211a(),
                                ControlScenario::kReliability,
                                traffic::BernoulliArrivals{lambda}, rho, seed);
}

phy::SparseTopology hidden_terminal_pair() {
  // Links 0 and 1 conflict but cannot hear each other.
  return phy::SparseTopology{2, /*conflict=*/{{1}, {0}}, /*sense=*/{{}, {}}};
}

namespace {

/// An empty topology over `num_links` links.
phy::SparseTopology no_relations(std::size_t num_links) {
  return phy::SparseTopology{num_links, std::vector<std::vector<LinkId>>(num_links),
                             std::vector<std::vector<LinkId>>(num_links)};
}

/// Conflict AND sense complete within consecutive blocks of `cell_size`
/// links (the last block may be shorter), nothing across blocks. Built per
/// block, so the cost is the edge count.
phy::SparseTopology clique_cells(std::size_t num_links, std::size_t cell_size) {
  phy::SparseTopology topo = no_relations(num_links);
  for (std::size_t first = 0; first < num_links; first += cell_size) {
    const std::size_t last = std::min(first + cell_size, num_links);
    for (std::size_t a = first; a < last; ++a) {
      for (std::size_t b = first; b < last; ++b) {
        if (a == b) continue;
        topo.conflict[a].push_back(static_cast<LinkId>(b));
        topo.sense[a].push_back(static_cast<LinkId>(b));
      }
    }
  }
  return topo;
}

}  // namespace

phy::SparseTopology hidden_cells_topology(std::size_t num_links, std::size_t cell_size) {
  RTMAC_REQUIRE(num_links >= 1 && cell_size >= 1);
  phy::SparseTopology topo = no_relations(num_links);
  for (std::size_t a = 0; a < num_links; ++a) {
    for (std::size_t b = 0; b < num_links; ++b) {
      if (a == b) continue;
      topo.conflict[a].push_back(static_cast<LinkId>(b));
      if (a / cell_size == b / cell_size) topo.sense[a].push_back(static_cast<LinkId>(b));
    }
  }
  return topo;
}

phy::SparseTopology two_cell_topology(std::size_t cell_size, std::size_t boundary_links) {
  RTMAC_REQUIRE(cell_size >= 1 && boundary_links <= cell_size);
  const std::size_t n = 2 * cell_size;
  phy::SparseTopology topo = no_relations(n);
  // The last `boundary_links` of each cell sit near the border.
  const auto is_boundary = [&](std::size_t i) {
    return i % cell_size >= cell_size - boundary_links;
  };
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const bool same_cell = a / cell_size == b / cell_size;
      if (same_cell || (is_boundary(a) && is_boundary(b))) {
        topo.conflict[a].push_back(static_cast<LinkId>(b));
        topo.sense[a].push_back(static_cast<LinkId>(b));
      }
    }
  }
  return topo;
}

phy::SparseTopology disconnected_cells_topology(std::size_t num_links, std::size_t cell_size) {
  RTMAC_REQUIRE(num_links >= 1 && cell_size >= 1);
  return clique_cells(num_links, cell_size);
}

phy::SparseTopology city_unit_disk_topology(std::size_t num_cells, std::size_t links_per_cell,
                                            std::uint64_t seed) {
  RTMAC_REQUIRE(num_cells >= 1 && links_per_cell >= 1);
  // Cluster centers on a square grid with spacing far beyond both ranges;
  // links jitter within +-0.5 of the center, receivers within 0.25 of their
  // transmitter. Ranges of 3.0 cover any intra-cluster pair (diameter < 2.5)
  // and never reach the next cluster (spacing 10.0), so each cluster is one
  // complete collision domain and clusters are independent.
  constexpr double kSpacing = 10.0;
  constexpr double kRange = 3.0;
  const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(num_cells))));
  Rng rng{seed, /*stream_id=*/0xC17BED5ULL};
  std::vector<phy::InterferenceGraph::LinkPlacement> links;
  links.reserve(num_cells * links_per_cell);
  for (std::size_t c = 0; c < num_cells; ++c) {
    const double cx = static_cast<double>(c % side) * kSpacing;
    const double cy = static_cast<double>(c / side) * kSpacing;
    for (std::size_t l = 0; l < links_per_cell; ++l) {
      phy::InterferenceGraph::LinkPlacement p;
      p.tx.x = cx + rng.next_double() - 0.5;
      p.tx.y = cy + rng.next_double() - 0.5;
      p.rx.x = p.tx.x + 0.5 * (rng.next_double() - 0.5);
      p.rx.y = p.tx.y + 0.5 * (rng.next_double() - 0.5);
      links.push_back(p);
    }
  }
  return phy::sparse_unit_disk(links, kRange, kRange);
}

phy::SparseTopology chain_cells_topology(std::size_t num_cells, std::size_t cell_size) {
  RTMAC_REQUIRE(num_cells >= 1 && cell_size >= 1);
  phy::SparseTopology topo = clique_cells(num_cells * cell_size, cell_size);
  // Hidden-terminal boundary pairs: conflict-only, never sensed, and added
  // in ascending order relative to the intra-cell neighbors above.
  for (std::size_t c = 0; c + 1 < num_cells; ++c) {
    const auto last = static_cast<LinkId>(c * cell_size + cell_size - 1);
    const auto first = static_cast<LinkId>((c + 1) * cell_size);
    topo.conflict[last].push_back(first);
    topo.conflict[first].insert(topo.conflict[first].begin(), last);
  }
  return topo;
}

net::NetworkConfig with_sparse_topology(net::NetworkConfig cfg, phy::SparseTopology topology) {
  RTMAC_REQUIRE(topology.num_links == cfg.num_links());
  cfg.sparse_topology = std::make_shared<const phy::SparseTopology>(std::move(topology));
  return cfg;
}

namespace {

mac::DpLinkParams dp_params_from(const mac::SchemeContext& ctx, bool reordering,
                                 int max_swap_pairs = 1) {
  return mac::DpLinkParams{
      .data_airtime = ctx.phy.data_airtime,
      .empty_airtime = ctx.phy.empty_airtime,
      .backoff_slot = ctx.phy.backoff_slot,
      .reordering = reordering,
      .max_swap_pairs = max_swap_pairs,
  };
}

}  // namespace

mac::SchemeFactory dbdp_factory() { return dbdp_factory(paper_influence(), kPaperR); }

mac::SchemeFactory dbdp_factory(core::Influence influence, double r) {
  return [influence = std::move(influence), r](const mac::SchemeContext& ctx) {
    auto provider = std::make_unique<mac::DebtMuProvider>(
        core::DebtMu{influence, r}, ctx.debts, ctx.success_prob);
    return std::make_unique<mac::DpScheme>(ctx, std::move(provider),
                                           dp_params_from(ctx, /*reordering=*/true), "DB-DP");
  };
}

mac::SchemeFactory dbdp_multipair_factory(int max_swap_pairs) {
  return [max_swap_pairs](const mac::SchemeContext& ctx) {
    auto provider = std::make_unique<mac::DebtMuProvider>(
        core::DebtMu{paper_influence(), kPaperR}, ctx.debts, ctx.success_prob);
    return std::make_unique<mac::DpScheme>(
        ctx, std::move(provider), dp_params_from(ctx, /*reordering=*/true, max_swap_pairs),
        "DB-DP(x" + std::to_string(max_swap_pairs) + ")");
  };
}

mac::SchemeFactory dbdp_estimated_p_factory(double initial_estimate) {
  return [initial_estimate](const mac::SchemeContext& ctx) {
    auto provider = std::make_unique<mac::EstimatedMuProvider>(
        core::DebtMu{paper_influence(), kPaperR}, ctx.debts, ctx.num_links,
        initial_estimate);
    mac::ReliabilityEstimator* estimator = &provider->estimator();
    return std::make_unique<mac::DpScheme>(ctx, std::move(provider),
                                           dp_params_from(ctx, /*reordering=*/true),
                                           "DB-DP(learned-p)", std::nullopt, estimator);
  };
}

mac::SchemeFactory dp_fixed_mu_factory(std::vector<double> mu) {
  return dp_fixed_mu_factory(std::move(mu), 1);
}

mac::SchemeFactory dp_fixed_mu_factory(std::vector<double> mu, int max_swap_pairs) {
  return [mu = std::move(mu), max_swap_pairs](const mac::SchemeContext& ctx) {
    // mu is indexed by GLOBAL link id; slice it for each cell (identity
    // mapping on a lone cell).
    RTMAC_ASSERT(mu.size() == ctx.priority_space());
    std::vector<double> local;
    local.reserve(ctx.num_links);
    for (std::size_t n = 0; n < ctx.num_links; ++n) local.push_back(mu[ctx.global_id(n)]);
    auto provider = std::make_unique<mac::FixedMuProvider>(std::move(local));
    return std::make_unique<mac::DpScheme>(
        ctx, std::move(provider), dp_params_from(ctx, /*reordering=*/true, max_swap_pairs),
        "DP(fixed-mu)");
  };
}

mac::SchemeFactory dp_static_priority_factory() {
  return [](const mac::SchemeContext& ctx) {
    // Coin biases are irrelevant with reordering disabled, but the provider
    // contract requires values strictly inside (0, 1).
    auto provider =
        std::make_unique<mac::FixedMuProvider>(std::vector<double>(ctx.num_links, 0.5));
    return std::make_unique<mac::DpScheme>(ctx, std::move(provider),
                                           dp_params_from(ctx, /*reordering=*/false),
                                           "DP(static)");
  };
}

mac::SchemeFactory ldf_factory() {
  return [](const mac::SchemeContext& ctx) {
    return std::make_unique<mac::CentralizedScheme>(
        ctx, mac::CentralizedParams{core::Influence::identity()}, "LDF");
  };
}

mac::SchemeFactory eldf_factory(core::Influence influence) {
  return [influence = std::move(influence)](const mac::SchemeContext& ctx) {
    return std::make_unique<mac::CentralizedScheme>(ctx, mac::CentralizedParams{influence},
                                                    "ELDF(" + influence.name() + ")");
  };
}

mac::SchemeFactory fcsma_factory() { return fcsma_factory(mac::FcsmaParams{}); }

mac::SchemeFactory fcsma_factory(mac::FcsmaParams params) {
  return [params = std::move(params)](const mac::SchemeContext& ctx) {
    return std::make_unique<mac::FcsmaScheme>(ctx, params, "FCSMA");
  };
}

mac::SchemeFactory dcf_factory() {
  return [](const mac::SchemeContext& ctx) {
    return std::make_unique<mac::DcfScheme>(ctx, mac::DcfParams{}, "DCF");
  };
}

}  // namespace rtmac::expfw
