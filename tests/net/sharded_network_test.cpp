// Cell-partition equivalence tests (DESIGN §4i): on partitionable
// topologies a many-cell Network must reproduce the one-cell (shards == 0)
// run exactly — same per-interval deliveries, same debts, same channel
// accounting, same collision ledger — for any shard count, because every
// RNG stream is keyed by global link id and cut resolution is exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "net/network_config.hpp"
#include "obs/collect.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "phy/interference.hpp"
#include "traffic/arrival_process.hpp"
#include "util/check.hpp"

namespace rtmac::net {
namespace {

constexpr IntervalIndex kIntervals = 60;

/// Everything observable about a finished run, keyed by GLOBAL link id.
struct RunRecord {
  std::vector<int> delivered_series;  ///< flattened [interval][link]
  std::vector<double> debts;
  std::vector<std::uint64_t> link_data_tx;
  std::vector<std::uint64_t> link_collisions;
  std::vector<std::uint64_t> pair_counts;  ///< flattened [a][b]
  std::uint64_t collisions = 0;
  std::uint64_t delivered = 0;
  std::uint64_t channel_losses = 0;
  std::string metrics_jsonl;
  std::string stream_jsonl;  ///< in-run snapshots, when streaming was on

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

/// Field-by-field comparison with a readable first-difference report.
void expect_same_run(const RunRecord& a, const RunRecord& b, const std::string& label) {
  EXPECT_EQ(a.delivered_series, b.delivered_series) << label << ": per-interval deliveries";
  EXPECT_EQ(a.debts, b.debts) << label << ": final debts";
  EXPECT_EQ(a.link_data_tx, b.link_data_tx) << label << ": per-link data_tx";
  EXPECT_EQ(a.link_collisions, b.link_collisions) << label << ": per-link collisions";
  EXPECT_EQ(a.pair_counts, b.pair_counts) << label << ": collision pair ledger";
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.channel_losses, b.channel_losses) << label;
  if (a.metrics_jsonl != b.metrics_jsonl) {
    std::istringstream la{a.metrics_jsonl};
    std::istringstream lb{b.metrics_jsonl};
    std::string x;
    std::string y;
    std::size_t line = 1;
    while (true) {
      const bool ga = static_cast<bool>(std::getline(la, x));
      const bool gb = static_cast<bool>(std::getline(lb, y));
      if (!ga && !gb) break;
      ASSERT_EQ(ga ? x : "<eof>", gb ? y : "<eof>")
          << label << ": metrics line " << line;
      ++line;
    }
  }
  EXPECT_TRUE(a.stream_jsonl == b.stream_jsonl) << label << ": metrics stream";
}

/// `stream_every` > 0 also streams a snapshot every that many intervals.
RunRecord run_network(NetworkConfig config, const mac::SchemeFactory& factory,
                      IntervalIndex intervals = kIntervals, std::uint64_t stream_every = 0) {
  Network network{std::move(config), factory};
  RunRecord rec;
  network.add_observer([&rec](IntervalIndex, std::span<const int>, std::span<const int> d) {
    rec.delivered_series.insert(rec.delivered_series.end(), d.begin(), d.end());
  });
  obs::MetricsRegistry registry;
  obs::StringStreamSink stream;
  network.attach_metrics(&registry);
  if (stream_every > 0) registry.stream_to(&stream, stream_every);
  network.run(intervals);
  registry.stream_to(nullptr);
  rec.stream_jsonl = stream.str();

  const std::size_t n = network.config().num_links();
  for (LinkId l = 0; l < n; ++l) {
    rec.debts.push_back(network.debts().debt(l));
    rec.link_data_tx.push_back(network.link_counters(l).data_tx);
    rec.link_collisions.push_back(network.link_counters(l).collisions);
    for (LinkId o = 0; o < n; ++o) rec.pair_counts.push_back(network.collision_pair_count(l, o));
  }
  const phy::MediumCounters counters = network.medium_counters();
  rec.collisions = counters.collisions;
  rec.delivered = counters.delivered;
  rec.channel_losses = counters.channel_losses;

  // End-of-run metric export via the facades (exercises per-cell registry
  // merging on the sharded path); JSONL is name-ordered and deterministic.
  // Engine-shape metrics (cell/group counts, event totals) legitimately
  // depend on which engine ran, so they are stripped before comparing.
  obs::collect_network_metrics(registry, network);
  std::ostringstream jsonl;
  registry.write_jsonl(jsonl);
  std::istringstream lines{jsonl.str()};
  for (std::string line; std::getline(lines, line);) {
    // The busy-window metrics are the one semantic difference: one cell
    // reports the union busy time/periods of the single global channel;
    // several cells report each collision domain's own windows, and
    // simultaneous windows of independent domains cannot be re-unioned
    // from aggregate durations.
    static constexpr const char* kEngineShape[] = {
        "net.cells",           "net.groups",
        "sim.coordinator_rounds", "sim.events_executed",
        "engine.events.reallocs", "phy.busy_fraction",
        "phy.busy_period_us",
        // Arena layout (and hence byte accounting) legitimately differs
        // between one cell and many, and the DP batch path is a cell-shape
        // property: clique cells keep complete sensing and take it even
        // when the one-cell global view cannot.
        "mem.", "mac.dp.batch_path"};
    const auto is_shape = [&line](const char* name) {
      return line.find(name) != std::string::npos;
    };
    if (std::any_of(std::begin(kEngineShape), std::end(kEngineShape), is_shape)) continue;
    rec.metrics_jsonl += line;
    rec.metrics_jsonl += '\n';
  }
  return rec;
}

NetworkConfig cells_config(std::uint64_t seed, std::size_t shards,
                           std::size_t num_links = 12, std::size_t cell_size = 4) {
  auto cfg = net::symmetric_network(num_links, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.7,
                                    traffic::BernoulliArrivals{0.8}, 0.9, seed);
  cfg = expfw::with_sparse_topology(std::move(cfg),
                                    expfw::disconnected_cells_topology(num_links, cell_size));
  cfg.shards = shards;
  return cfg;
}

// ---- engine selection -------------------------------------------------------

TEST(ShardedNetworkTest, CompleteTopologyFallsBackToTheLegacyEngine) {
  auto cfg = expfw::control_symmetric(0.8, 0.99, 7);
  cfg.shards = 4;  // complete graph -> one clique cell, nothing cut
  Network network{std::move(cfg), expfw::dcf_factory()};
  EXPECT_FALSE(network.sharded());
  EXPECT_EQ(network.cell_count(), 1U);
}

TEST(ShardedNetworkTest, DisconnectedCellsShardIntoOneEnginePerCell) {
  Network network{cells_config(11, /*shards=*/3), expfw::dcf_factory()};
  ASSERT_TRUE(network.sharded());
  EXPECT_EQ(network.cell_count(), 3U);
  EXPECT_EQ(network.group_count(), 3U);
  EXPECT_EQ(network.coordinator_rounds(), 0U);  // no cuts -> no coordinator
  EXPECT_EQ(network.cell_links(1).size(), 4U);
  EXPECT_EQ(network.cell_links(1)[0], 4U);
  network.run(5);
  EXPECT_EQ(network.now(), TimePoint::origin() + 5 * network.config().interval_length);
}

// ---- byte-identical results across engines and shard counts -----------------

TEST(ShardedNetworkTest, ShardedRunMatchesLegacyOnDisconnectedCells) {
  struct Case {
    const char* name;
    mac::SchemeFactory factory;
  };
  const Case cases[] = {{"DCF", expfw::dcf_factory()},
                        {"FCSMA", expfw::fcsma_factory()},
                        {"DB-DP", expfw::dbdp_factory()}};
  for (const Case& c : cases) {
    const auto legacy = run_network(cells_config(21, /*shards=*/0), c.factory);
    const auto sharded = run_network(cells_config(21, /*shards=*/3), c.factory);
    expect_same_run(legacy, sharded, c.name);
    EXPECT_GT(legacy.delivered, 0U) << c.name;
  }
}

TEST(ShardedNetworkTest, ResultsAreIndependentOfShardCountAndWorkerCount) {
  const auto base = run_network(cells_config(33, /*shards=*/1), expfw::dcf_factory());
  for (const std::size_t shards : {2UL, 3UL, 6UL}) {
    for (const std::size_t jobs : {1UL, 4UL}) {
      auto cfg = cells_config(33, shards);
      cfg.shard_jobs = jobs;
      EXPECT_EQ(base, run_network(std::move(cfg), expfw::dcf_factory()))
          << "shards=" << shards << " jobs=" << jobs;
    }
  }
}

/// The two sparse shapes: a cut-free unit-disk city of 64 clusters (DCF)
/// and a hidden-terminal chain of 16 cells, whose cuts engage the
/// coordinator when it is bisected (FCSMA).
struct SparseCase {
  const char* name;
  phy::SparseTopology topology;
  mac::SchemeFactory factory;
  std::size_t cells;
};

std::vector<SparseCase> sparse_cases() {
  std::vector<SparseCase> cases;
  cases.push_back({"city", expfw::city_unit_disk_topology(64, 8, 2024), expfw::dcf_factory(), 64});
  cases.push_back({"chain", expfw::chain_cells_topology(16, 8), expfw::fcsma_factory(), 16});
  return cases;
}

/// 20 intervals of `c` at `shards`/`shard_jobs`. Unless `observed`, the
/// metrics export is left out: at this size one registry's latency sketch
/// compacts while each cell's stays exact, so estimated quantiles depend on
/// the engine shape. With `observed` the export is kept and a snapshot is
/// streamed every 5 intervals, for comparisons at one fixed shape.
RunRecord sparse_run(const SparseCase& c, std::size_t shards, std::size_t shard_jobs = 0,
                     bool observed = false) {
  auto cfg = expfw::with_sparse_topology(
      net::symmetric_network(c.topology.num_links, Duration::milliseconds(2),
                             phy::PhyParams::control_80211a(), 0.7,
                             traffic::BernoulliArrivals{0.8}, 0.9, 77),
      c.topology);
  cfg.shards = shards;
  cfg.shard_jobs = shard_jobs;
  RunRecord rec = run_network(std::move(cfg), c.factory, 20, observed ? 5 : 0);
  if (!observed) rec.metrics_jsonl.clear();
  return rec;
}

TEST(ShardedNetworkTest, SparseTopologyResultsAreIndependentOfEngineShape) {
  // One cell over every link (shards 0), the partitioner's components
  // (shards 1: the city's 64 clusters, the whole chain), four groups (the
  // chain bisected into four cut cells), and one group per clique must all
  // produce the same run: deliveries, debts, channel counters and collision
  // ledger.
  for (const SparseCase& c : sparse_cases()) {
    const RunRecord one_cell = sparse_run(c, 0);
    EXPECT_GT(one_cell.delivered, 0U) << c.name;
    EXPECT_GT(one_cell.collisions, 0U) << c.name;
    for (const std::size_t shards : {1UL, 4UL, c.cells}) {
      expect_same_run(one_cell, sparse_run(c, shards),
                      std::string{c.name} + " shards=" + std::to_string(shards));
    }
  }
}

/// Collisions counted on the chain's cut edges (cell_size 8): the
/// cross-cell part of the collision ledger.
std::uint64_t chain_cut_collisions(const RunRecord& rec, std::size_t cells) {
  const std::size_t n = cells * 8;
  std::uint64_t total = 0;
  for (std::size_t c = 0; c + 1 < cells; ++c) total += rec.pair_counts[(c * 8 + 7) * n + c * 8 + 8];
  return total;
}

TEST(ShardedNetworkTest, ChunkedDispatchIsIndependentOfShardJobs) {
  // One group per cell, cut into 1, 3, 4 and 5 chunks (shard_jobs 1 runs
  // serially; N >= 2 adds N workers to the calling thread). 3 and 5 divide
  // neither 64 nor 16, so uneven chunk boundaries are covered on the
  // cut-free city and on the coordinator-driven chain alike. On the chain
  // every cell's interval edges run in chunks too, so it runs all three
  // shardable schemes, DB-DP's per-interval planning included. The plan is
  // fixed, so the metrics export and the stream (per-link debt recorded in
  // chunks, read every 5 intervals) must match byte for byte as well.
  std::vector<SparseCase> cases = sparse_cases();
  cases.push_back({"chain DCF", expfw::chain_cells_topology(16, 8), expfw::dcf_factory(), 16});
  cases.push_back({"chain DB-DP", expfw::chain_cells_topology(16, 8), expfw::dbdp_factory(), 16});
  for (const SparseCase& c : cases) {
    const RunRecord serial = sparse_run(c, c.cells, 1, /*observed=*/true);
    EXPECT_GT(serial.delivered, 0U) << c.name;
    EXPECT_NE(serial.metrics_jsonl.find("core.debt_per_interval"), std::string::npos) << c.name;
    EXPECT_NE(serial.stream_jsonl.find("\"k\":19"), std::string::npos) << c.name;
    if (c.cells == 16) {
      EXPECT_GT(chain_cut_collisions(serial, c.cells), 0U) << c.name;
    }
    for (const std::size_t jobs : {2UL, 3UL, 4UL}) {
      expect_same_run(serial, sparse_run(c, c.cells, jobs, /*observed=*/true),
                      std::string{c.name} + " shard_jobs=" + std::to_string(jobs));
    }
  }
}

/// A scheme that delegates to `inner` but, when `fail` is set, throws from
/// begin_interval at interval 2.
class FailingScheme final : public mac::MacScheme {
 public:
  FailingScheme(std::unique_ptr<mac::MacScheme> inner, bool fail)
      : inner_{std::move(inner)}, fail_{fail} {}
  void begin_interval(IntervalIndex k, std::span<const int> arrivals,
                      TimePoint interval_end) override {
    if (fail_ && k == 2) throw std::runtime_error{"cell scheme failed"};
    inner_->begin_interval(k, arrivals, interval_end);
  }
  void end_interval(std::span<int> delivered) override { inner_->end_interval(delivered); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t pending_events_per_link() const override {
    return inner_->pending_events_per_link();
  }

 private:
  std::unique_ptr<mac::MacScheme> inner_;
  bool fail_;
};

TEST(ShardedNetworkTest, CellExceptionOnTheCutFreePathIsRethrownAndTheNetworkDestructs) {
  // 12 disconnected cells of 4 on a 3-worker pool: the cell holding link 40
  // throws inside a parallel chunk. Network::run must surface the exception,
  // and destruction must not wait on a worker that never comes back.
  const mac::SchemeFactory dcf = expfw::dcf_factory();
  const mac::SchemeFactory factory = [&dcf](const mac::SchemeContext& ctx) {
    return std::make_unique<FailingScheme>(dcf(ctx), ctx.global_id(0) == 40);
  };
  auto cfg = cells_config(7, /*shards=*/12, /*num_links=*/48);
  cfg.shard_jobs = 3;
  {
    Network network{std::move(cfg), factory};
    ASSERT_EQ(network.cell_count(), 12U);
    network.run(2);
    EXPECT_THROW(network.run(1), std::runtime_error);
  }
}

TEST(ShardedNetworkTest, CellExceptionOnTheCutPathIsRethrownAndTheNetworkDestructs) {
  // The chain of 16 cut cells on a 3-worker pool: the cell holding link 40
  // throws from begin_interval, which runs inside a parallel chunk before
  // the coordinator's rounds. Network::run must surface the exception, and
  // destruction must not wait on a worker that never comes back.
  const mac::SchemeFactory fcsma = expfw::fcsma_factory();
  const mac::SchemeFactory factory = [&fcsma](const mac::SchemeContext& ctx) {
    return std::make_unique<FailingScheme>(fcsma(ctx), ctx.global_id(0) == 40);
  };
  auto cfg = expfw::with_sparse_topology(
      net::symmetric_network(128, Duration::milliseconds(2), phy::PhyParams::control_80211a(),
                             0.7, traffic::BernoulliArrivals{0.8}, 0.9, 7),
      expfw::chain_cells_topology(16, 8));
  cfg.shards = 16;
  cfg.shard_jobs = 3;
  {
    Network network{std::move(cfg), factory};
    ASSERT_EQ(network.cell_count(), 16U);
    network.run(2);
    ASSERT_GT(network.coordinator_rounds(), 0U);
    EXPECT_THROW(network.run(1), std::runtime_error);
  }
}

// ---- cross-shard hidden terminal (conflict cut without sensing) -------------

/// Four links on a line, built with the geometric unit-disk rule: {0,1} and
/// {2,3} are carrier-sense cliques; (1,2) conflict at the receivers but
/// cannot hear each other — a hidden-terminal pair that a 2-shard partition
/// must place on the conflict cut with NO sense cut.
phy::SparseTopology hidden_cut_unit_disk() {
  using P = phy::InterferenceGraph::LinkPlacement;
  const std::vector<P> links = {
      P{{0.0, 0.0}, {0.5, 0.0}},  // link 0
      P{{2.0, 0.0}, {1.5, 0.0}},  // link 1
      P{{5.0, 0.0}, {5.5, 0.0}},  // link 2
      P{{7.0, 0.0}, {6.5, 0.0}},  // link 3
  };
  return phy::sparse_unit_disk(links, /*interference_range=*/3.6, /*sense_range=*/2.2);
}

NetworkConfig hidden_cut_config(std::uint64_t seed, std::size_t shards) {
  auto cfg = net::symmetric_network(4, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.7,
                                    traffic::BernoulliArrivals{0.9}, 0.9, seed);
  cfg = expfw::with_sparse_topology(std::move(cfg), hidden_cut_unit_disk());
  cfg.shards = shards;
  return cfg;
}

TEST(ShardedNetworkTest, HiddenCutPairIsAConflictCutWithoutSensing) {
  const phy::InterferenceGraph g{hidden_cut_unit_disk()};
  EXPECT_TRUE(g.conflicts(1, 2));
  EXPECT_FALSE(g.senses(1, 2));
  EXPECT_FALSE(g.senses(2, 1));
  EXPECT_TRUE(g.senses(0, 1));
  EXPECT_TRUE(g.senses(2, 3));
  EXPECT_FALSE(g.conflicts(0, 2));
  EXPECT_FALSE(g.conflicts(0, 3));
  EXPECT_FALSE(g.conflicts(1, 3));

  Network network{hidden_cut_config(42, /*shards=*/2), expfw::dcf_factory()};
  ASSERT_TRUE(network.sharded());
  EXPECT_EQ(network.cell_count(), 2U);
  EXPECT_EQ(network.cell_links(0).size(), 2U);
  network.run(3);
  EXPECT_GT(network.coordinator_rounds(), 0U);  // the cut engages the coordinator
}

TEST(ShardedNetworkTest, CrossShardHiddenTerminalLedgerMatchesTheLegacyEngine) {
  // shards=1 keeps the union-connected 4-link graph in one cell; shards=2
  // puts the hidden pair on the cut. The
  // collision ledgers (and everything else) must agree exactly, and the
  // hidden pair must actually collide or the test proves nothing.
  const auto legacy = run_network(hidden_cut_config(42, /*shards=*/1), expfw::dcf_factory());
  const auto sharded = run_network(hidden_cut_config(42, /*shards=*/2), expfw::dcf_factory());
  expect_same_run(legacy, sharded, "hidden-cut");
  const std::size_t n = 4;
  EXPECT_GT(legacy.pair_counts[1 * n + 2], 0U) << "hidden pair never collided";
  EXPECT_EQ(legacy.pair_counts[1 * n + 2], sharded.pair_counts[2 * n + 1]);
}

// ---- guard rails ------------------------------------------------------------

TEST(ShardedNetworkTest, LegacyAccessorsAbortOnShardedNetworks) {
  if (!kChecksEnabled) GTEST_SKIP() << "contract checks compiled out";
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Network network{cells_config(5, /*shards=*/2), expfw::dcf_factory()};
  ASSERT_TRUE(network.sharded());
  EXPECT_DEATH((void)network.medium(), "per-cell");
  EXPECT_DEATH((void)network.simulator(), "per-cell");
}

TEST(ShardedNetworkTest, ValidationRejectsSparseWithoutShardsAndCustomChannels) {
  // A topology runs at every shard count, 0 included; only custom channel
  // models are confined to the unsharded engine.
  auto cfg = cells_config(5, /*shards=*/0);
  std::string error;
  EXPECT_TRUE(cfg.validate(&error)) << error;
  cfg.channel_factory = [] {
    return std::make_unique<phy::StaticChannel>(ProbabilityVector(12, 0.7));
  };
  EXPECT_TRUE(cfg.validate(&error)) << error;
  cfg.shards = 2;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("default Bernoulli channel"), std::string::npos) << error;
}

}  // namespace
}  // namespace rtmac::net
