#include "obs/collect.hpp"

#include <string>
#include <vector>

#include "mac/dp_link_mac.hpp"
#include "net/network.hpp"
#include "stats/deficiency.hpp"
#include "util/check.hpp"

namespace rtmac::obs {

void collect_network_metrics(MetricsRegistry& registry, const net::Network& network) {
  // All channel/engine reads go through the Network facades, which
  // aggregate per-cell state by global link id (a lone cell is read
  // directly).
  const phy::MediumCounters counters = network.medium_counters();
  const auto& stats = network.stats();
  const double sim_seconds = network.now().seconds_f();

  registry.counter("phy.tx_data").inc(counters.data_tx);
  registry.counter("phy.tx_empty").inc(counters.empty_tx);
  registry.counter("phy.delivered").inc(counters.delivered);
  registry.counter("phy.collisions").inc(counters.collisions);
  registry.counter("phy.channel_losses").inc(counters.channel_losses);
  // Occupancy must come from the global sense view (union of busy periods):
  // counters.busy_time sums per-transmission airtime, so overlapping
  // (colliding) transmissions double-count and the "fraction" exceeds 1.
  // (Sharded runs sum per-cell views — see Network::global_sense_busy_time.)
  registry.gauge("phy.busy_fraction")
      .set(sim_seconds > 0.0 ? network.global_sense_busy_time().seconds_f() / sim_seconds
                             : 0.0);
  // Summed airtime over sim time: > busy_fraction measures overlap, and the
  // empty-packet share of it is the DP priority-claim overhead.
  registry.gauge("phy.airtime_fraction")
      .set(sim_seconds > 0.0 ? counters.busy_time.seconds_f() / sim_seconds : 0.0);
  registry.gauge("phy.collided_fraction")
      .set(sim_seconds > 0.0 ? counters.collided_time.seconds_f() / sim_seconds : 0.0);

  // Who each link actually collided with, walked from the stored ledgers —
  // each cell Medium's pair ledger for intra-cell pairs, the cut resolver's
  // for cross-cell pairs — so the cost is O(ledger cells), not O(links^2).
  // Each unordered pair is emitted once (self-pairs cover same-link overlap).
  // Per-link and per-node names are built in two reused buffers.
  std::string name;
  std::string pair_base;
  const std::size_t n_links = network.config().num_links();
  std::vector<std::uint32_t> partners(n_links, 0);
  network.for_each_collision_pair([&](LinkId a, LinkId b, std::uint64_t pairs) {
    registry.counter(link_metric(name, link_metric(pair_base, "phy.collision_pair", a), b))
        .inc(pairs);
    if (a != b) {
      ++partners[a];
      ++partners[b];
    }
  });

  for (LinkId n = 0; n < n_links; ++n) {
    const auto& lc = network.link_counters(n);
    const std::uint64_t tx = lc.data_tx + lc.empty_tx;
    registry.gauge(link_metric(name, "link.delivery_rate", n)).set(stats.delivery_ratio(n));
    registry.gauge(link_metric(name, "link.collision_rate", n))
        .set(tx > 0 ? static_cast<double>(lc.collisions) / static_cast<double>(tx) : 0.0);
    registry.gauge(link_metric(name, "link.timely_throughput", n)).set(stats.timely_throughput(n));
    registry.gauge(link_metric(name, "link.debt", n)).set(network.debts().debt(n));
    // The node's carrier-sense view: fraction of sim time during which some
    // link it can hear (itself included) was on the air. On a complete
    // topology every node's value equals the global phy.busy_fraction; under
    // partial sensing they diverge — the gap is what the hidden terminal
    // cannot hear. Exact on both engines: cross-cell cut activity is
    // injected into the listening views at window barriers.
    registry.gauge(node_metric(name, "medium.busy_fraction", n))
        .set(sim_seconds > 0.0 ? network.node_sense_busy_time(n).seconds_f() / sim_seconds
                               : 0.0);
    registry.gauge(link_metric(name, "link.collision_partners", n))
        .set(static_cast<double>(partners[n]));
  }

  // DP-specific state, read straight from the batch kernel's SoA arrays
  // (DESIGN §4g): the current priority permutation and the last interval's
  // backoff counts, plus whether the batch path (vs the scalar reference
  // path) served the run. Sharded runs hold one DpScheme per cell; kernel
  // indices are cell-local, so names are mapped through cell_links.
  for (std::size_t ci = 0; ci < network.cell_count(); ++ci) {
    const auto* dp = dynamic_cast<const mac::DpScheme*>(&network.cell_scheme(ci));
    if (dp == nullptr) continue;
    if (ci == 0) registry.gauge("mac.dp.batch_path").set(dp->batch_path() ? 1.0 : 0.0);
    const mac::DpBatchKernel& kernel = dp->kernel();
    const std::span<const LinkId> links = network.cell_links(ci);
    for (std::size_t j = 0; j < links.size(); ++j) {
      registry.gauge(link_metric(name, "mac.dp.priority", links[j]))
          .set(static_cast<double>(kernel.priority(static_cast<LinkId>(j))));
      registry.gauge(link_metric(name, "mac.dp.backoff_slots", links[j]))
          .set(static_cast<double>(kernel.backoff_count(static_cast<LinkId>(j))));
    }
  }

  // Per-cell medium/MAC instruments (busy-period histograms, access-delay
  // sketches, ...) live in private registries when there are several cells;
  // fold them in exactly once, here. No-op for a lone cell, which writes the
  // attached registry directly.
  network.merge_cell_metrics_into(registry);

  if (network.sharded()) {
    registry.gauge("net.cells").set(static_cast<double>(network.cell_count()));
    registry.gauge("net.groups").set(static_cast<double>(network.group_count()));
    registry.counter("sim.coordinator_rounds").inc(network.coordinator_rounds());
  }

  // Per-subsystem byte accounting (DESIGN §4j): mem.arena_* describe the
  // shared arena itself; the per-subsystem gauges attribute the bytes to
  // whoever asked for them (arena spans count under their subsystem).
  // Process-wide peak RSS is deliberately NOT exported here — it depends on
  // what else the process did and would break byte-identical metrics files
  // across --jobs counts; it belongs to the bench reports and the sweep
  // progress heartbeat (util::peak_rss_kb()).
  {
    const net::Network::MemoryBreakdown mem = network.memory_breakdown();
    registry.gauge("mem.arena_reserved_bytes").set(static_cast<double>(mem.arena_reserved));
    registry.gauge("mem.arena_used_bytes").set(static_cast<double>(mem.arena_used));
    registry.gauge("mem.arrivals_bytes").set(static_cast<double>(mem.arrivals));
    registry.gauge("mem.sim_events_bytes").set(static_cast<double>(mem.sim_events));
    registry.gauge("mem.phy_bytes").set(static_cast<double>(mem.phy));
    registry.gauge("mem.mac_bytes").set(static_cast<double>(mem.mac));
  }

  registry.gauge("net.deficiency")
      .set(stats::total_deficiency(stats, network.config().requirements.q()));
  registry.gauge("net.intervals").set(static_cast<double>(stats.intervals()));
  registry.counter("sim.events_executed").inc(network.events_executed());
  registry.gauge("sim.virtual_seconds").set(sim_seconds);
  // Event-storage growth after the NetworkConfig-derived reserve; 0 proves
  // the engine ran the whole experiment without touching the allocator for
  // its own bookkeeping (summed over cells on the sharded path).
  registry.counter("engine.events.reallocs").inc(network.event_reallocs());
  // Contract-failure count (util/check.hpp). Almost always zero — a failure
  // aborts unless a test handler intervened — but exporting it means any run
  // that *did* survive a handled failure is visibly tainted in its metrics.
  registry.counter("checks.failed").inc(check_failures());
}

}  // namespace rtmac::obs
