// End-of-run metric snapshots: derived rates and ratios that components do
// not maintain live.
//
// Live instrumentation (phy::Medium, mac::BackoffEngine, net::Network with
// an attached registry) covers raw event counts and per-interval gauges;
// this collector adds the derived quantities the paper's figures are built
// from — per-link delivery and collision rates, channel busy fraction,
// total deficiency — plus simulator engine statistics. Calling it on a
// network that never had a registry attached is also valid: it reads only
// the always-on accounting (MediumCounters, LinkStatsCollector,
// DebtTracker), so metrics can be produced with zero in-run overhead.
#pragma once

#include "obs/metrics.hpp"

namespace rtmac::net {
class Network;
}

namespace rtmac::obs {

/// Snapshots the run's derived metrics into `registry`:
///   link.delivery_rate.linkN    delivered / arrivals (gauge, 1.0 when idle)
///   link.collision_rate.linkN   collided tx / started tx (gauge)
///   link.timely_throughput.linkN, link.debt.linkN (gauges)
///   link.collision_partners.linkN  links N collided with (gauge)
///   phy.collision_pair.linkA.linkB collisions of pair A <= B (counter, only
///                                  for pairs that collided)
///   phy.busy_fraction, phy.collided_fraction (gauges, of virtual time)
///   phy.tx_data, phy.tx_empty, phy.delivered, phy.collisions,
///   phy.channel_losses (counters)
///   net.deficiency, net.intervals (gauges)
///   sim.events_executed (counter), sim.virtual_seconds (gauge)
/// Cost is O(links + stored collision-ledger cells): the pair metrics come
/// from a walk of the ledgers, not from all links^2 pairs.
void collect_network_metrics(MetricsRegistry& registry, const net::Network& network);

}  // namespace rtmac::obs
