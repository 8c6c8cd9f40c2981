// Test shorthand for the Medium's one constructor: static Bernoulli(p_n)
// losses (the paper's channel) over an explicit or complete topology.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "phy/channel_model.hpp"
#include "phy/interference.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"

namespace rtmac::test {

/// A Medium with static losses `p` over `graph`.
inline phy::Medium static_medium(sim::Simulator& sim, ProbabilityVector p,
                                 phy::InterferenceGraph graph, std::uint64_t seed) {
  return phy::Medium{sim, std::make_unique<phy::StaticChannel>(std::move(p)), std::move(graph),
                     seed};
}

/// A Medium with static losses `p` over the paper's complete collision domain.
inline phy::Medium static_medium(sim::Simulator& sim, ProbabilityVector p, std::uint64_t seed) {
  const std::size_t n = p.size();
  return static_medium(sim, std::move(p), phy::InterferenceGraph::complete(n), seed);
}

}  // namespace rtmac::test
