// Ring interference graph for partial-sensing tests: each link conflicts
// with and senses only its two neighbours, so no cell has complete sensing
// and every backoff countdown runs on its own link's sense view.
#pragma once

#include <memory>
#include <vector>

#include "net/network_config.hpp"
#include "phy/interference.hpp"

namespace rtmac::test {

/// `cfg` with its topology replaced by the ring over its links.
inline net::NetworkConfig with_ring(net::NetworkConfig cfg) {
  const std::size_t n = cfg.num_links();
  std::vector<std::vector<LinkId>> ring(n);
  for (LinkId i = 0; i < n; ++i) {
    ring[i] = {static_cast<LinkId>((i + 1) % n), static_cast<LinkId>((i + n - 1) % n)};
  }
  cfg.sparse_topology =
      std::make_shared<const phy::SparseTopology>(phy::SparseTopology{n, ring, ring});
  return cfg;
}

}  // namespace rtmac::test
