// City-scale sharded-engine benchmark (DESIGN §4i, §4j).
//
// Phase 1 — scale: a city_unit_disk_topology of 12500 clusters x 8 links
// (10^5 links; smoke: 1250 x 8 = 10^4) built through the O(n) unit-disk
// pipeline and run partitioned: the partitioner recovers every cluster as
// its own cell with small per-cell event heaps and media. Records
// events/sec and peak RSS.
//
// Phase 2 — speedup: a disconnected_cells_topology at 10^4 links
// (625 cells of 16; smoke: 2048 links), timed as one cell over every link
// (--shards 0) and as 625 cells run 4 wide (--shards 4). Identical shape to
// BENCH_8's phase 2, so the 4-shard events/sec gates directly against that
// baseline
// (the arrival kernel + arena SoA + clique fast paths must at least double
// it on one core).
//
// Phase A — adaptive lookahead: a chain of hidden-terminal-coupled cells
// (every cut edge conflict-only) run twice, fixed windows vs adaptive
// lookahead. Deliveries must agree exactly; the round count must drop.
//
// Phase 3 — million links: 125000 clusters x 8 links (10^6; smoke reuses
// the 10^5 shape) through the same pipeline, gated on a hard peak-RSS
// ceiling — the arena-backed SoA state is what keeps this run affordable.
// All phases land in bench_out/city_scale.json for BENCH_10 merging.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "expfw/bench_cli.hpp"
#include "expfw/report.hpp"
#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "net/network_config.hpp"
#include "traffic/arrival_process.hpp"
#include "util/resource.hpp"

namespace {

using namespace rtmac;

/// BENCH_8 phase-2 sharded throughput on the reference machine; the rebuilt
/// engine must at least double it on the identical configuration.
constexpr double kBench8ShardedEventsPerSec = 1643710.0;

/// Declared peak-RSS ceiling for the full 10^6-link phase-3 run (and,
/// scaled by links, for the smoke run via --gate-rss-kb in CI). The arena
/// SoA budget is ~1.1 KB/link end to end; 2 GB leaves slack for the
/// allocator and the sparse-topology build without hiding a regression to
/// per-link heap objects, which blew past 2.5 GB.
constexpr long kMillionLinkRssCeilingKb = 2000000;

struct Timing {
  std::uint64_t events = 0;
  std::size_t cells = 0;
  std::size_t groups = 0;
  std::uint64_t delivered = 0;
  std::uint64_t coordinator_rounds = 0;
  std::uint64_t event_reallocs = 0;
  double wall_seconds = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
};

Timing run_once(net::NetworkConfig cfg, IntervalIndex intervals) {
  net::Network network{std::move(cfg), expfw::dcf_factory()};
  const auto t0 = std::chrono::steady_clock::now();
  network.run(intervals);
  const auto t1 = std::chrono::steady_clock::now();
  Timing t;
  t.events = network.events_executed();
  t.cells = network.cell_count();
  t.groups = network.group_count();
  t.delivered = network.medium_counters().delivered;
  t.coordinator_rounds = network.coordinator_rounds();
  t.event_reallocs = network.event_reallocs();
  t.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return t;
}

net::NetworkConfig control_config(std::size_t num_links, std::uint64_t seed) {
  return net::symmetric_network(num_links, Duration::milliseconds(2),
                                phy::PhyParams::control_80211a(), 0.7,
                                traffic::BernoulliArrivals{0.8}, 0.9, seed);
}

/// One unit-disk city run of `cells` clusters x 8 links.
Timing run_city(std::size_t cells, std::uint64_t cfg_seed, IntervalIndex intervals,
                std::size_t shard_jobs) {
  constexpr std::size_t kLinksPerCell = 8;
  auto cfg = expfw::with_sparse_topology(
      control_config(cells * kLinksPerCell, cfg_seed),
      expfw::city_unit_disk_topology(cells, kLinksPerCell, /*seed=*/1889));
  // One cell per cluster (12500 at full scale), chunked onto the shard
  // pool; shard_jobs sets the worker threads, so the chunk count.
  cfg.shards = cells;
  cfg.shard_jobs = shard_jobs;
  return run_once(std::move(cfg), intervals);
}

void write_timing(std::ostream& out, const Timing& t, IntervalIndex intervals,
                  std::size_t links) {
  out << "{\"links\":" << links << ",\"intervals\":" << intervals
      << ",\"cells\":" << t.cells << ",\"groups\":" << t.groups
      << ",\"events\":" << t.events << ",\"delivered\":" << t.delivered
      << ",\"coordinator_rounds\":" << t.coordinator_rounds
      << ",\"event_reallocs\":" << t.event_reallocs
      << ",\"wall_seconds\":" << t.wall_seconds
      << ",\"events_per_sec\":" << t.events_per_sec() << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = expfw::parse_bench_args(argc, argv, /*default_intervals=*/25,
                                            /*smoke_intervals=*/5);
  const std::size_t jobs =
      args.sweep.shard_jobs > 0 ? static_cast<std::size_t>(args.sweep.shard_jobs) : 0;
  bool failed = false;

  // ---- Phase 1: city-scale sparse unit disk (sharded only) -----------------
  const std::size_t city_cells = args.smoke ? 1250 : 12500;
  const std::size_t city_links = city_cells * 8;
  std::cout << "City scale: " << city_links << " links in " << city_cells
            << " unit-disk clusters, DCF, " << args.intervals << " intervals\n";
  const Timing city = run_city(city_cells, 90210, args.intervals, jobs);
  const long city_rss_kb = util::peak_rss_kb();
  std::cout << "  " << city.cells << " cells, " << city.groups << " shards: "
            << city.events << " events in " << city.wall_seconds << " s = "
            << static_cast<std::uint64_t>(city.events_per_sec())
            << " events/s, peak RSS " << city_rss_kb << " KB\n";

  // ---- Phase 2: one cell vs 4 shards on the same topology -----------------
  // JSON keys keep their historical names: "legacy" is the one-cell run,
  // "sharded" the 4-shard run.
  const std::size_t speedup_links = args.smoke ? 2048 : 10000;
  constexpr std::size_t kSpeedupCellSize = 16;
  const IntervalIndex speedup_intervals = args.intervals;
  std::cout << "Speedup: " << speedup_links << " links in cells of "
            << kSpeedupCellSize << ", one cell vs 4 shards\n";

  const auto speedup_config = [&](std::size_t shards) {
    auto cfg = expfw::with_sparse_topology(
        control_config(speedup_links, 77),
        expfw::disconnected_cells_topology(speedup_links, kSpeedupCellSize));
    cfg.shards = shards;
    return cfg;
  };
  const Timing one_cell = run_once(speedup_config(0), speedup_intervals);
  const Timing sharded = run_once(speedup_config(4), speedup_intervals);
  const double ratio = one_cell.events_per_sec() > 0.0
                           ? sharded.events_per_sec() / one_cell.events_per_sec()
                           : 0.0;
  std::cout << "  one cell: " << static_cast<std::uint64_t>(one_cell.events_per_sec())
            << " events/s\n"
            << "  4 shards: " << static_cast<std::uint64_t>(sharded.events_per_sec())
            << " events/s (" << sharded.cells << " cells, "
            << sharded.events_per_sec() / kBench8ShardedEventsPerSec
            << "x BENCH_8)\n"
            << "  speedup:  " << ratio << "x\n";
  if (one_cell.delivered != sharded.delivered) {
    std::cout << "FAIL: one cell and 4 shards disagree on delivered packets ("
              << one_cell.delivered << " vs " << sharded.delivered << ")\n";
    return 1;
  }

  // ---- Phase A: adaptive coordinator lookahead A/B -------------------------
  // Hidden-terminal chain with alternating load: even cells carry traffic,
  // odd cells are idle. Every cut is conflict-only, so fixed vs adaptive
  // windows must deliver identically. A blocked cell's clock already sits on
  // its blocking completion, so the lookahead's leverage is the idle
  // neighbor: its empty queue reports bound = +inf at the FIRST barrier of
  // the interval, letting the busy side resolve its cut completions in one
  // round instead of waiting a round for the neighbor's clock to reach the
  // horizon — the lightly-loaded-cell regime a real city is full of.
  const std::size_t chain_cells = args.smoke ? 64 : 256;
  constexpr std::size_t kChainCellSize = 8;
  std::cout << "Adaptive lookahead: " << chain_cells << "-cell hidden-terminal chain\n";
  const auto chain_config = [&](bool adaptive) {
    auto cfg = expfw::with_sparse_topology(
        control_config(chain_cells * kChainCellSize, 4242),
        expfw::chain_cells_topology(chain_cells, kChainCellSize));
    cfg.uniform_arrivals.reset();
    const traffic::BernoulliArrivals busy{0.8};
    const traffic::BernoulliArrivals idle{0.0};
    for (std::size_t l = 0; l < cfg.num_links(); ++l) {
      const bool is_busy = (l / kChainCellSize) % 2 == 0;
      cfg.arrivals.push_back((is_busy ? busy : idle).clone());
      cfg.requirements.lambda[l] = is_busy ? 0.8 : 0.0;
    }
    cfg.shards = chain_cells;
    cfg.shard_jobs = jobs;
    cfg.adaptive_lookahead = adaptive;
    return cfg;
  };
  const Timing fixed_la = run_once(chain_config(false), args.intervals);
  const Timing adaptive_la = run_once(chain_config(true), args.intervals);
  std::cout << "  fixed:    " << fixed_la.coordinator_rounds << " rounds, "
            << static_cast<std::uint64_t>(fixed_la.events_per_sec()) << " events/s\n"
            << "  adaptive: " << adaptive_la.coordinator_rounds << " rounds, "
            << static_cast<std::uint64_t>(adaptive_la.events_per_sec()) << " events/s\n";
  if (fixed_la.delivered != adaptive_la.delivered) {
    std::cout << "FAIL: adaptive lookahead changed delivered packets ("
              << fixed_la.delivered << " vs " << adaptive_la.delivered << ")\n";
    return 1;
  }
  if (adaptive_la.coordinator_rounds >= fixed_la.coordinator_rounds) {
    std::cout << "FAIL: adaptive lookahead did not reduce coordinator rounds\n";
    failed = true;
  }

  // ---- Phase 3: one million links under the RSS ceiling --------------------
  // Runs LAST so the process-wide peak RSS it reports is its own working
  // set, not a later phase's. Smoke keeps the 10^5 shape (same code path,
  // CI-affordable) and scales the declared ceiling with the link count.
  const std::size_t million_cells = args.smoke ? 12500 : 125000;
  const std::size_t million_links = million_cells * 8;
  const IntervalIndex million_intervals = args.smoke ? 2 : 10;
  const long rss_ceiling_kb =
      args.smoke ? kMillionLinkRssCeilingKb / 4 : kMillionLinkRssCeilingKb;
  std::cout << "Million links: " << million_links << " links, "
            << million_intervals << " intervals, RSS ceiling " << rss_ceiling_kb
            << " KB\n";
  const Timing million = run_city(million_cells, 31337, million_intervals, jobs);
  const long million_rss_kb = util::peak_rss_kb();
  std::cout << "  " << million.cells << " cells: " << million.events
            << " events in " << million.wall_seconds << " s = "
            << static_cast<std::uint64_t>(million.events_per_sec())
            << " events/s, peak RSS " << million_rss_kb << " KB\n";
  if (million_rss_kb > rss_ceiling_kb) {
    std::cout << "FAIL: peak RSS " << million_rss_kb << " KB exceeds the "
              << rss_ceiling_kb << " KB ceiling\n";
    failed = true;
  }

  // ---- JSON for tools/bench_report.py --extra ------------------------------
  const std::string json_path = expfw::bench_output_dir() + "/city_scale.json";
  std::ofstream json{json_path};
  json << "{\"schema\":\"rtmac.city_scale\",\"version\":2,\"smoke\":"
       << (args.smoke ? "true" : "false") << ",\n \"city\":";
  write_timing(json, city, args.intervals, city_links);
  json << ",\n \"city_peak_rss_kb\":" << city_rss_kb << ",\n \"speedup\":{\"legacy\":";
  write_timing(json, one_cell, speedup_intervals, speedup_links);
  json << ",\"sharded\":";
  write_timing(json, sharded, speedup_intervals, speedup_links);
  json << ",\"events_per_sec_ratio\":" << ratio
       << ",\"bench8_sharded_events_per_sec\":" << kBench8ShardedEventsPerSec << "}";
  json << ",\n \"adaptive_lookahead\":{\"fixed\":";
  write_timing(json, fixed_la, args.intervals, chain_cells * kChainCellSize);
  json << ",\"adaptive\":";
  write_timing(json, adaptive_la, args.intervals, chain_cells * kChainCellSize);
  json << ",\"rounds_saved\":"
       << (fixed_la.coordinator_rounds - adaptive_la.coordinator_rounds) << "}";
  json << ",\n \"million\":";
  write_timing(json, million, million_intervals, million_links);
  json << ",\n \"million_peak_rss_kb\":" << million_rss_kb
       << ",\n \"rss_ceiling_kb\":" << rss_ceiling_kb << "}\n";
  json.close();
  std::cout << "wrote " << json_path << "\n";

  if (!args.smoke && ratio < 2.0) {
    std::cout << "FAIL: 4-shard events/sec below 2x the one-cell run\n";
    failed = true;
  }
  if (!args.smoke &&
      sharded.events_per_sec() < 2.0 * kBench8ShardedEventsPerSec) {
    std::cout << "FAIL: phase-2 4-shard events/sec below 2x the BENCH_8 baseline\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
