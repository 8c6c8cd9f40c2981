// Experiment-level network description: (N, A, T, p) plus requirements.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/requirements.hpp"
#include "core/types.hpp"
#include "phy/channel_model.hpp"
#include "phy/interference.hpp"
#include "phy/phy_params.hpp"
#include "traffic/arrival_process.hpp"
#include "traffic/joint_arrivals.hpp"
#include "util/time.hpp"

namespace rtmac::net {

/// Full specification of one simulated network. Move-only (owns the arrival
/// processes). Mirrors the paper's tuple (N, A, T, p) plus the requirement
/// vector q expressed as (lambda, rho).
struct NetworkConfig {
  Duration interval_length;                  ///< the deadline T
  phy::PhyParams phy;                        ///< airtimes and slot width
  ProbabilityVector success_prob;            ///< p_n per link (policy-visible)
  std::vector<std::unique_ptr<traffic::ArrivalProcess>> arrivals;  ///< A_n per link
  /// Uniform-network shortcut: one shared arrival spec for all links. When
  /// set (and `arrivals` is empty) the Network samples every link from this
  /// process via a single broadcast kernel row instead of materializing
  /// num_links() clones — at 10^6 links that is the difference between one
  /// object and ~50 MB of identical ones. Draw-for-draw equivalent to the
  /// per-link layout; symmetric_network() now produces this form.
  std::unique_ptr<traffic::ArrivalProcess> uniform_arrivals;
  core::Requirements requirements;           ///< lambda_n and rho_n
  std::uint64_t seed = 1;                    ///< root seed for the whole run
  /// Optional loss-process override (e.g. a GilbertElliottChannel for the
  /// bursty-loss robustness ablation). When unset, the channel is the
  /// paper's i.i.d. Bernoulli(success_prob). The policies always see
  /// `success_prob` as their p_n estimate, so a model whose long-run mean
  /// differs from it deliberately exercises estimation mismatch.
  phy::ChannelModelFactory channel_factory;
  /// Optional cross-link correlated traffic (Section II-B permits arrival
  /// counts correlated across links within an interval). When set it
  /// replaces the per-link `arrivals` sampling; `requirements.lambda` must
  /// match its per-link means.
  std::unique_ptr<traffic::JointArrivalProcess> joint_arrivals;
  /// Optional interference topology (adjacency lists). When null, the
  /// Medium uses the paper's complete collision domain (every pair of links
  /// conflicts and every device hears every transmission). A partial
  /// topology enables hidden-terminal, spatial-reuse and city-scale
  /// experiments at any `shards` value; it needs one conflict and one sense
  /// list per link, naming only links < num_links(). Immutable and shared
  /// across clones.
  std::shared_ptr<const phy::SparseTopology> sparse_topology;
  /// Cell partitioning: 0 = one cell over every link, no partitioning;
  /// S >= 1 partitions the conflict graph of an explicit topology into cells
  /// and runs them min(S, cells) wide (deterministically — results are
  /// independent of S and of shard_jobs). S >= 1 requires the default
  /// Bernoulli channel.
  std::size_t shards = 0;
  /// Pool workers running shard chunks beside the calling thread, which
  /// runs one chunk too: 0 = one per hardware thread beyond the caller's
  /// (none on a 1-CPU host), 1 = serial on the calling thread, N >= 2 = N
  /// workers. Capped at Network::group_count() - 1; at most
  /// ThreadPool::kMaxThreads.
  std::size_t shard_jobs = 0;
  /// Adaptive coordinator lookahead: cut windows extend to each neighbor
  /// cell's next pending event instead of its bare clock, skipping barrier
  /// rounds for cells that provably cannot interact yet. Results are
  /// bit-identical either way (see sharded_simulator.hpp); the toggle
  /// exists for A/B round-count measurement and as a bisection aid.
  bool adaptive_lookahead = true;

  [[nodiscard]] std::size_t num_links() const { return success_prob.size(); }

  /// Size of the caller-owned per-interval buffers (arrivals in, deliveries
  /// out) the Network pre-allocates so the interval hot loop never touches
  /// the heap: one int slot per link. Split out from num_links() so any
  /// future padding/alignment tweak of the SoA buffers has one home.
  [[nodiscard]] std::size_t interval_buffer_hint() const { return num_links(); }

  /// Validates internal consistency (sizes match, probabilities in range,
  /// declared lambda equals each arrival process's mean). Returns true and
  /// leaves `error` untouched on success.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;

  /// Deep copy (arrival processes cloned) — configs are templates reused
  /// across sweep points and schemes.
  [[nodiscard]] NetworkConfig clone() const;
};

/// Convenience builder for symmetric networks: every link shares the same
/// reliability, arrival process, and delivery ratio.
[[nodiscard]] NetworkConfig symmetric_network(std::size_t num_links, Duration interval_length,
                                              const phy::PhyParams& phy, double p,
                                              const traffic::ArrivalProcess& arrivals,
                                              double rho, std::uint64_t seed);

}  // namespace rtmac::net
