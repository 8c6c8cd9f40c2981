// Microbenchmarks (google-benchmark): raw engine and protocol throughput —
// how many simulated events/intervals per wall-clock second the substrate
// sustains. Not a paper figure; guards against performance regressions in
// the simulator that would make the figure benches impractically slow.
//
// This binary also owns the repo's allocation-count benchmarks: a counting
// `operator new` hook (below) makes heap traffic a measurable, CI-gatable
// quantity. The engine's steady-state contract — zero allocations per
// scheduled/cancelled/fired event once pools are warm — is asserted by
// tools/bench_report.py over this binary's JSON output.
//
// Provides its own main so `--smoke` works like every other bench binary
// (CI runs `$b --smoke` uniformly): smoke mode runs only the cheap event
// queue benchmarks instead of the multi-second protocol loops.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string_view>
#include <vector>

#include <numeric>

#include "analysis/priority_evaluator.hpp"
#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "obs/collect.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "obs/stream.hpp"
#include "phy/channel_model.hpp"
#include "phy/interference.hpp"
#include "phy/medium.hpp"
#include "phy/phy_params.hpp"
#include "sim/shard_partitioner.hpp"
#include "sim/simulator.hpp"
#include "traffic/arrival_process.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// ---- counting allocator hook ------------------------------------------------
// Global operator new/delete replacements that count every heap allocation in
// the process, and their requested bytes. Benchmarks snapshot the counters
// around a measured window; the difference is reported as a benchmark counter
// ("allocs") that CI gates on.
// Atomic because google-benchmark may touch the heap from helper threads.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

std::uint64_t alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }
std::uint64_t alloc_bytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) { return counted_alloc(size); }
void* operator new[](std::size_t size, std::align_val_t) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace rtmac;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(Duration::microseconds(i % 97), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// One schedule/cancel/fire churn cycle mix, shaped like what DP/FCSMA/DCF
// backoff state machines generate: a working set of pending expiries that are
// constantly cancelled (medium turned busy) and rescheduled (medium idle),
// with a fraction actually firing. Cancelled handles are re-cancelled later
// (after their slot may have been reused) to keep the stale-handle path hot.
// Returns the number of cycles executed.
// `ids` is caller-owned scratch (resized here) so allocation-count windows
// can pre-warm it and measure the queue alone.
std::uint64_t churn_window(sim::EventQueue& q, std::uint64_t cycles, std::uint64_t* fired,
                           std::vector<sim::EventId>& ids) {
  constexpr std::size_t kLive = 256;
  ids.assign(kLive, sim::EventId{});
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // deterministic xorshift stream
  std::int64_t t = 0;
  for (std::size_t i = 0; i < kLive; ++i) {
    ids[i] = q.push(TimePoint::from_ns(t + static_cast<std::int64_t>(i)), [] {});
  }
  for (std::uint64_t c = 0; c < cycles; ++c) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::size_t slot = x % kLive;
    q.cancel(ids[slot]);  // often already fired/cancelled: stale-handle no-op
    ++t;
    ids[slot] = q.push(TimePoint::from_ns(t * 100 + static_cast<std::int64_t>(x % 97)), [] {});
    if ((x & 3) == 0 && !q.empty()) {
      q.pop().callback();
      ++*fired;
    }
  }
  std::uint64_t drained = 0;
  while (!q.empty()) {
    q.pop().callback();
    ++drained;
  }
  benchmark::DoNotOptimize(drained);
  return cycles;
}

void BM_EventQueueCancelChurn(benchmark::State& state) {
  std::uint64_t fired = 0;
  std::vector<sim::EventId> ids;
  for (auto _ : state) {
    sim::EventQueue q;
    churn_window(q, 4096, &fired, ids);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventQueueCancelChurn);

// Steady-state allocation count: after one warm-up window has grown the
// queue's internal storage to its working-set size, a second, identical
// window of >= 1e5 schedule/cancel/fire cycles must not allocate at all.
// CI gates on counters["allocs"] == 0 (exact and deterministic, unlike the
// wall-clock numbers). counters["cycles"] documents the window size.
void BM_EventQueueSteadyStateAllocs(benchmark::State& state) {
  constexpr std::uint64_t kCycles = 1 << 17;  // 131072 >= 1e5
  std::uint64_t fired = 0;
  std::uint64_t window_allocs = 0;
  std::vector<sim::EventId> ids;
  for (auto _ : state) {
    sim::EventQueue q;
    churn_window(q, kCycles, &fired, ids);  // warm-up: grows pool and heap storage
    const std::uint64_t before = alloc_count();
    churn_window(q, kCycles, &fired, ids);  // measured steady-state window
    window_allocs = alloc_count() - before;
  }
  state.counters["allocs"] = static_cast<double>(window_allocs);
  state.counters["cycles"] = static_cast<double>(kCycles);
  state.SetItemsProcessed(state.iterations() * kCycles);
}
BENCHMARK(BM_EventQueueSteadyStateAllocs);

void BM_DbdpVideoInterval(benchmark::State& state) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::dbdp_factory()};
  for (auto _ : state) {
    net.run(1);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("simulated 20ms intervals (20 links)");
}
BENCHMARK(BM_DbdpVideoInterval);

void BM_LdfVideoInterval(benchmark::State& state) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::ldf_factory()};
  for (auto _ : state) {
    net.run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LdfVideoInterval);

void BM_FcsmaVideoInterval(benchmark::State& state) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::fcsma_factory()};
  for (auto _ : state) {
    net.run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FcsmaVideoInterval);

void BM_DcfVideoInterval(benchmark::State& state) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::dcf_factory()};
  for (auto _ : state) {
    net.run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DcfVideoInterval);

// Allocations per simulated interval for a full protocol stack, after a
// warm-up run. CI-gated at zero (tools/bench_report.py --gate-zero-alloc):
// the whole steady-state interval path — SoA kernel, shared backoff clock,
// burst transmissions, caller-owned delivery buffers — must never touch the
// heap. A regression here fails the bench-perf lane, not just a dashboard.
void interval_allocs(benchmark::State& state, net::NetworkConfig cfg,
                     const mac::SchemeFactory& factory) {
  constexpr IntervalIndex kWindow = 32;
  net::Network net{std::move(cfg), factory};
  net.run(8);  // warm-up: pools, stats buffers, scheme state
  double allocs_per_interval = 0.0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    net.run(kWindow);
    allocs_per_interval =
        static_cast<double>(alloc_count() - before) / static_cast<double>(kWindow);
  }
  state.counters["allocs_per_interval"] = allocs_per_interval;
  state.SetItemsProcessed(state.iterations() * kWindow);
}

void BM_DbdpIntervalAllocs(benchmark::State& state) {
  interval_allocs(state, expfw::video_symmetric(0.55, 0.9, 1), expfw::dbdp_factory());
}
BENCHMARK(BM_DbdpIntervalAllocs);

// Same gate for the centralized LDF scheduler (sort-based serve loop).
void BM_LdfIntervalAllocs(benchmark::State& state) {
  interval_allocs(state, expfw::video_symmetric(0.55, 0.9, 1), expfw::ldf_factory());
}
BENCHMARK(BM_LdfIntervalAllocs);

// Same gate for the random-backoff CSMA schemes, on both backoff clocks: a
// complete collision domain counts down on one SharedBackoffClock, while two
// hidden carrier-sense cells of 10 put every link on its own BackoffEngine.
net::NetworkConfig contention_config(bool hidden) {
  net::NetworkConfig cfg = expfw::video_symmetric(0.55, 0.9, 1);
  if (!hidden) return cfg;
  return expfw::with_sparse_topology(std::move(cfg), expfw::hidden_cells_topology(20, 10));
}
void BM_DcfIntervalAllocs(benchmark::State& state, bool hidden) {
  interval_allocs(state, contention_config(hidden), expfw::dcf_factory());
}
void BM_FcsmaIntervalAllocs(benchmark::State& state, bool hidden) {
  interval_allocs(state, contention_config(hidden), expfw::fcsma_factory());
}
BENCHMARK_CAPTURE(BM_DcfIntervalAllocs, shared_clock, false);
BENCHMARK_CAPTURE(BM_DcfIntervalAllocs, per_link_engines, true);
BENCHMARK_CAPTURE(BM_FcsmaIntervalAllocs, shared_clock, false);
BENCHMARK_CAPTURE(BM_FcsmaIntervalAllocs, per_link_engines, true);

// ---- shared backoff clock scaling ---------------------------------------------
// One steady-state FCSMA interval on a complete n-link domain (control
// profile, Bernoulli(0.5) arrivals): every countdown runs on one
// SharedBackoffClock, whose idle edges re-key only the countdowns whose tie
// class changed, so the cost per event should barely grow with n.
net::NetworkConfig shared_clock_config(std::size_t n) {
  return net::symmetric_network(n, Duration::milliseconds(2), phy::PhyParams::control_80211a(),
                                0.7, traffic::BernoulliArrivals{0.5}, 0.99, 21);
}

void BM_SharedClockInterval(benchmark::State& state) {
  net::Network net{shared_clock_config(static_cast<std::size_t>(state.range(0))),
                   expfw::fcsma_factory()};
  net.run(8);  // warm-up
  const std::uint64_t events_before = net.events_executed();
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) net.run(1);
  const std::chrono::duration<double, std::nano> spent = std::chrono::steady_clock::now() - start;
  const auto events = static_cast<double>(net.events_executed() - events_before);
  state.counters["ns_per_event"] = spent.count() / events;
  state.counters["events_per_interval"] = events / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SharedClockInterval)->Arg(20)->Arg(256);

// Zero-alloc gate for the shared clock at the larger domain.
void BM_SharedClockIntervalAllocs(benchmark::State& state) {
  interval_allocs(state, shared_clock_config(static_cast<std::size_t>(state.range(0))),
                  expfw::fcsma_factory());
}
BENCHMARK(BM_SharedClockIntervalAllocs)->Arg(256);

// ---- sharded interval (chunked dispatch and coordinator rounds) --------------
// One steady-state interval of a many-cell network on a 3-worker shard pool
// (the calling thread runs a fourth chunk): a cut-free DCF city of 512
// clusters of 8, dispatched as one ThreadPool::parallel_for per interval,
// and an FCSMA hidden-terminal chain of 256 cells of 8, whose cuts add
// coordinator barrier rounds, each with its own parallel_for. One group per
// cell, as perfbench and city_scale configure them.
net::NetworkConfig sharded_config(bool chain) {
  const std::size_t cells = chain ? 256 : 512;
  phy::SparseTopology topology = expfw::city_unit_disk_topology(cells, 8, 32);
  if (chain) topology = expfw::chain_cells_topology(cells, 8);
  net::NetworkConfig cfg = expfw::with_sparse_topology(
      net::symmetric_network(cells * 8, Duration::milliseconds(2),
                             phy::PhyParams::control_80211a(), 0.7,
                             traffic::BernoulliArrivals{0.8}, 0.9, 31),
      std::move(topology));
  cfg.shards = cells;
  cfg.shard_jobs = 3;
  return cfg;
}
mac::SchemeFactory sharded_factory(bool chain) {
  return chain ? expfw::fcsma_factory() : expfw::dcf_factory();
}

// Wall time per interval (the work runs on four threads, hence real time),
// plus two informational counters: coordinator rounds per interval and
// heap allocations per interval. Both shapes are gated at zero below.
void BM_ShardedInterval(benchmark::State& state, bool chain) {
  net::NetworkConfig cfg = sharded_config(chain);
  const auto links = static_cast<std::int64_t>(cfg.num_links());
  net::Network net{std::move(cfg), sharded_factory(chain)};
  net.run(8);  // warm-up
  const std::uint64_t rounds_before = net.coordinator_rounds();
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) net.run(1);
  const auto per_interval = [&state](std::uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(state.iterations());
  };
  state.counters["rounds_per_interval"] = per_interval(net.coordinator_rounds() - rounds_before);
  state.counters["heap_allocs_per_interval"] = per_interval(alloc_count() - allocs_before);
  state.SetItemsProcessed(state.iterations() * links);
  state.SetLabel("items = link-intervals");
}
BENCHMARK_CAPTURE(BM_ShardedInterval, city, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_ShardedInterval, chain, true)->UseRealTime();

// Zero-alloc gate for the chunked dispatch: a steady-state interval must not
// touch the heap, neither the city's (chunks run through parallel_for) nor
// the chain's (interval edges and coordinator rounds in chunks, plus the
// cut outboxes, the cut mailbox and the per-link backoff engines).
void BM_ShardedIntervalAllocs(benchmark::State& state, bool chain) {
  interval_allocs(state, sharded_config(chain), sharded_factory(chain));
}
BENCHMARK_CAPTURE(BM_ShardedIntervalAllocs, city, false);
BENCHMARK_CAPTURE(BM_ShardedIntervalAllocs, chain, true);

// ---- Medium transmission lifecycle -------------------------------------------
// One transmission start and completion on an idle Medium, in the listener
// shape of each backoff clock: the complete graph carries one global
// listener (the shared clock), the partial unit-disk graph one listener per
// node (per-link engines). A complete edge must cost O(1) in n; a partial
// edge still walks every listener (ROADMAP item 1), which shows as a slope.
// Complete rows stop at 2048 links: complete(n) keeps Theta(n^2) conflict
// rows and ledger cells (~1.6 GB at 10^4 links).

class NullListener final : public phy::MediumListener {
 public:
  void on_medium_busy(TimePoint) override {}
  void on_medium_idle(TimePoint) override {}
};

/// An n-link Medium with its listeners attached. The partial graph is the
/// city placement in clusters of 8 (each a sensing clique, none complete).
struct BenchMedium {
  sim::Simulator sim;
  phy::Medium medium;
  std::vector<NullListener> listeners;

  BenchMedium(bool complete, std::size_t n)
      : medium{sim, std::make_unique<phy::StaticChannel>(ProbabilityVector(n, 0.7)),
               complete ? phy::InterferenceGraph::complete(n)
                        : phy::InterferenceGraph{expfw::city_unit_disk_topology(n / 8, 8, 1)},
               1},
        listeners(complete ? 1 : n) {
    for (std::size_t i = 0; i < listeners.size(); ++i) {
      if (complete) {
        medium.add_listener(&listeners[i]);
      } else {
        medium.add_listener(&listeners[i], static_cast<LinkId>(i));
      }
    }
  }

  /// One data packet on `link`, run to completion.
  void transmit(LinkId link) {
    medium.start_transmission(link, Duration::microseconds(100), phy::PacketKind::kData, nullptr);
    sim.run();
  }
};

void BM_MediumTx(benchmark::State& state, bool complete) {
  const auto n = static_cast<std::size_t>(state.range(0));
  BenchMedium bench{complete, n};
  LinkId link = 0;
  for (auto _ : state) {
    bench.transmit(link);
    link = link + 1 == n ? 0 : link + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_MediumTx, complete, true)->Arg(16)->Arg(2048);
BENCHMARK_CAPTURE(BM_MediumTx, partial, false)->Arg(16)->Arg(10000);

// One four-packet burst on the complete graph (the DB-DP winner's chain).
void BM_MediumBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  BenchMedium bench{true, n};
  LinkId link = 0;
  for (auto _ : state) {
    bench.medium.begin_burst(link);
    TimePoint t = bench.sim.now();
    for (int i = 0; i < 4; ++i) {
      benchmark::DoNotOptimize(bench.medium.burst_tx(link, t, Duration::microseconds(100),
                                                     phy::PacketKind::kData));
      t += Duration::microseconds(100);
    }
    bench.medium.end_burst(t);
    bench.sim.run_until(t);
    link = link + 1 == n ? 0 : link + 1;
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_MediumBurst)->Arg(16);

// The Medium's zero-allocation contract, CI-gated: after a warm-up, a
// window of transmissions on a partial graph (several views marked per
// edge, one listener per node) and of bursts on a complete graph must never
// touch the heap.
void BM_MediumTxAllocs(benchmark::State& state) {
  constexpr std::size_t kWindow = 4096;
  BenchMedium partial{false, 64};
  BenchMedium complete{true, 16};
  const auto window = [&] {
    for (std::size_t i = 0; i < kWindow; ++i) {
      partial.transmit(static_cast<LinkId>(i % 64));
      complete.medium.begin_burst(static_cast<LinkId>(i % 16));
      const TimePoint end = complete.sim.now() + Duration::microseconds(100);
      (void)complete.medium.burst_tx(static_cast<LinkId>(i % 16), complete.sim.now(),
                                     Duration::microseconds(100), phy::PacketKind::kData);
      complete.medium.end_burst(end);
      complete.sim.run_until(end);
    }
  };
  window();  // warm-up: event pool and the active-transmission vector
  double window_allocs = 0.0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    window();
    window_allocs = static_cast<double>(alloc_count() - before);
  }
  state.counters["allocs"] = window_allocs;
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_MediumTxAllocs);

// Quantile-sketch update throughput: the per-interval observability cost of
// the sketch-backed series (debt, deliveries, busy periods, latency).
void BM_SketchUpdate(benchmark::State& state) {
  obs::QuantileSketch sketch;
  Rng rng{11};
  for (auto _ : state) {
    sketch.update(rng.next_double());
  }
  benchmark::DoNotOptimize(sketch.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchUpdate);

// The sketch's zero-steady-state-allocation contract, CI-gated at zero like
// the event queue's: the first compaction sizes every compactor level, so
// after a warm-up past exact_threshold a window of 1e6 updates (with many
// compaction cascades) must never touch the heap.
void BM_SketchUpdateAllocs(benchmark::State& state) {
  constexpr std::uint64_t kWindow = 1'000'000;
  obs::QuantileSketch sketch;
  Rng rng{12};
  for (std::uint32_t i = 0; i < sketch.options().exact_threshold; ++i) {
    sketch.update(rng.next_double());  // warm-up: the one sizing allocation
  }
  double window_allocs = 0.0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    for (std::uint64_t i = 0; i < kWindow; ++i) sketch.update(rng.next_double());
    window_allocs = static_cast<double>(alloc_count() - before);
  }
  state.counters["allocs"] = window_allocs;
  state.counters["updates"] = static_cast<double>(kWindow);
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_SketchUpdateAllocs);

// Merge cost for the fan-in path (one sketch per task folded at export).
void BM_SketchMerge(benchmark::State& state) {
  const auto parts = static_cast<std::size_t>(state.range(0));
  std::vector<obs::QuantileSketch> inputs;
  Rng rng{13};
  for (std::size_t p = 0; p < parts; ++p) {
    obs::QuantileSketch s{{/*k=*/256, /*exact_threshold=*/2048,
                           /*seed=*/0x5eed0000ULL + p}};
    for (int i = 0; i < 100'000; ++i) s.update(rng.next_double());
    inputs.push_back(std::move(s));
  }
  for (auto _ : state) {
    obs::QuantileSketch total;
    for (const auto& s : inputs) total.merge(s);
    benchmark::DoNotOptimize(total.quantile(0.5));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(parts));
}
BENCHMARK(BM_SketchMerge)->Arg(4)->Arg(16);

/// The unit-disk city of 8-link cells, DCF, one cell per cluster, that the
/// obs benches below observe.
net::NetworkConfig obs_city_config(std::size_t links) {
  net::NetworkConfig cfg = expfw::with_sparse_topology(
      net::symmetric_network(links, Duration::milliseconds(2),
                             phy::PhyParams::control_80211a(), 0.7,
                             traffic::BernoulliArrivals{0.8}, 0.9, 21),
      expfw::city_unit_disk_topology(links / 8, 8, 22));
  cfg.shards = links / 8;
  return cfg;
}

// End-of-run collection (obs::collect_network_metrics) on a unit-disk city
// of 8-link cells, DCF, one cell per cluster: per-link gauges plus the
// collision-ledger walk. Collection cost must grow with links and stored
// ledger cells, not with links^2. No registry is attached during the run,
// so the fold of per-cell registries is left to BM_MergeCellRegistries.
void BM_CollectNetworkMetrics(benchmark::State& state) {
  const auto links = static_cast<std::size_t>(state.range(0));
  net::Network net{obs_city_config(links), expfw::dcf_factory()};
  net.run(20);
  for (auto _ : state) {
    obs::MetricsRegistry registry;
    obs::collect_network_metrics(registry, net);
    benchmark::DoNotOptimize(registry.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(links));
  state.SetLabel("items = links");
}
BENCHMARK(BM_CollectNetworkMetrics)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

// The JSONL export of what collect_network_metrics gathered on the
// BM_CollectNetworkMetrics city, into a discarding sink: the first export
// of a fresh registry, so it includes sorting the names into export order.
void BM_WriteJsonl(benchmark::State& state) {
  const auto links = static_cast<std::size_t>(state.range(0));
  net::Network net{obs_city_config(links), expfw::dcf_factory()};
  net.run(20);
  obs::NullStreamSink sink;
  std::size_t lines = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto registry = std::make_unique<obs::MetricsRegistry>();
    obs::collect_network_metrics(*registry, net);
    lines = registry->size();
    state.ResumeTiming();
    registry->write_jsonl(sink.stream());
    state.PauseTiming();
    registry.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lines));
  state.SetLabel("items = lines");
}
BENCHMARK(BM_WriteJsonl)->Arg(4096)->Unit(benchmark::kMillisecond);

// The stream snapshot's zero-allocation contract, CI-gated at zero: once
// the first snapshot has sized the export buffers, a snapshot of the
// observed city's run-time registry (a debt gauge and sketch per link) on a
// 3-worker pool allocates nothing, on the calling thread or the pool's.
// Every debt sketch takes a new sample between snapshots (outside the
// window), so each snapshot reads sketches that changed since the last.
void BM_StreamSnapshotAllocs(benchmark::State& state) {
  const auto links = static_cast<std::size_t>(state.range(0));
  net::NetworkConfig cfg = obs_city_config(links);
  cfg.shard_jobs = 1;  // a serial run: the snapshot's pool is the only one
  net::Network net{std::move(cfg), expfw::dcf_factory()};
  obs::MetricsRegistry registry;
  net.attach_metrics(&registry);
  net.run(20);
  ThreadPool pool{3};
  obs::NullStreamSink sink;
  registry.stream_to(&sink, 1, R"("label":"bench")");
  std::uint64_t k = 0;
  registry.stream_tick(k++, 0, &pool);  // warm-up: sizes the buffers
  std::uint64_t window_allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    net.run(1);
    state.ResumeTiming();
    const std::uint64_t before = alloc_count();
    registry.stream_tick(k, static_cast<std::int64_t>(k) * 2'000'000, &pool);
    window_allocs += alloc_count() - before;
    ++k;
  }
  state.counters["allocs"] = static_cast<double>(window_allocs);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(registry.size()));
  state.SetLabel("items = lines");
}
BENCHMARK(BM_StreamSnapshotAllocs)->Arg(4096)->Unit(benchmark::kMillisecond);

// Obs memory per link: attaching a registry to a unit-disk city of 8-link
// cells, DCF (the observed_city shape). Every link gets a debt gauge and
// debt sketch, every cell registry two sample sketches; none of them has
// left exact mode at attach time, so the cost is what a short run pays.
void BM_AttachMetrics(benchmark::State& state) {
  const auto links = static_cast<std::size_t>(state.range(0));
  net::Network net{obs_city_config(links), expfw::dcf_factory()};
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    obs::MetricsRegistry registry;
    const std::uint64_t allocs_before = alloc_count();
    const std::uint64_t bytes_before = alloc_bytes();
    net.attach_metrics(&registry);
    allocs = alloc_count() - allocs_before;
    bytes = alloc_bytes() - bytes_before;
    net.attach_metrics(nullptr);
  }
  const auto per_link = [links](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(links);
  };
  state.counters["allocs_per_link"] = per_link(allocs);
  state.counters["bytes_per_link"] = per_link(bytes);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(links));
  state.SetLabel("items = links");
}
BENCHMARK(BM_AttachMetrics)->Arg(4096)->Unit(benchmark::kMillisecond);

// Network construction over a unit-disk city of 8-link clusters, DCF:
// topology view, partition, cell media and schemes, arrival kernel. The
// second argument is `shards`: 0 builds one cell over every link from the
// whole topology's rows, links / 8 partitions into one cell per cluster.
// Both must grow as O(links + edges), so time per link stays flat across
// the sizes. The topology itself is built once, outside the loop.
void BM_NetworkBuild(benchmark::State& state) {
  const auto links = static_cast<std::size_t>(state.range(0));
  net::NetworkConfig cfg = expfw::with_sparse_topology(
      net::symmetric_network(links, Duration::milliseconds(2),
                             phy::PhyParams::control_80211a(), 0.7,
                             traffic::BernoulliArrivals{0.8}, 0.9, 21),
      expfw::city_unit_disk_topology(links / 8, 8, 22));
  cfg.shards = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto net = std::make_unique<net::Network>(cfg.clone(), expfw::dcf_factory());
    benchmark::DoNotOptimize(net->cell_count());
    state.PauseTiming();
    net.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(links));
  state.SetLabel("items = links");
}
BENCHMARK(BM_NetworkBuild)
    ->Args({4096, 0})
    ->Args({4096, 4096 / 8})
    ->Args({16384, 0})
    ->Args({16384, 16384 / 8})
    ->Args({65536, 0})
    ->Args({65536, 65536 / 8})
    ->Unit(benchmark::kMillisecond);

// sim::partition_topology on perfbench's two shapes, one target shard per
// 8-link cell: the unit-disk city, whose clusters already are the cells
// (components only, no bisection), and the hidden-terminal chain, one
// component bisected down to its cliques. Arg = links; the chain's 2^17 row
// makes 2^14 splits at high link ids. Both must cost O(links + edges) plus
// O(splits log cells), so time per link stays flat across the sizes.
void BM_PartitionTopology(benchmark::State& state, bool chain) {
  const auto links = static_cast<std::size_t>(state.range(0));
  const std::size_t cells = links / 8;
  const phy::SparseTopology topology = chain ? expfw::chain_cells_topology(cells, 8)
                                             : expfw::city_unit_disk_topology(cells, 8, 23);
  for (auto _ : state) {
    const sim::ShardPlan plan = sim::partition_topology(topology.conflict, topology.sense, cells);
    benchmark::DoNotOptimize(plan.cells.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(links));
  state.SetLabel("items = links");
}
BENCHMARK_CAPTURE(BM_PartitionTopology, city, false)
    ->Arg(1 << 11)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PartitionTopology, chain, true)
    ->Arg(1 << 11)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);

// One-pass fold of per-cell registries into an export target, the sharded
// collect path (Network::merge_cell_metrics_into). Each cell holds the
// instruments a cell Medium registers — two sample sketches and per-link
// counters — so the fold must cost O(total retained), not re-copy the
// growing sketch union once per cell.
void BM_MergeCellRegistries(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::vector<const obs::MetricsRegistry*> sources;
  Rng rng{23};
  for (std::size_t c = 0; c < cells; ++c) {
    auto reg = std::make_unique<obs::MetricsRegistry>();
    obs::QuantileSketch& busy = reg->sketch("phy.busy_period_us");
    obs::QuantileSketch& latency = reg->sketch("phy.delivery_latency_us");
    for (int i = 0; i < 1000; ++i) {
      busy.update(rng.next_double() * 2000.0);
      latency.update(rng.next_double() * 20000.0);
    }
    for (std::uint32_t l = 0; l < 8; ++l) {
      reg->counter(obs::link_metric("phy.tx_data", static_cast<std::uint32_t>(c * 8) + l))
          .inc(100);
    }
    sources.push_back(reg.get());
    registries.push_back(std::move(reg));
  }
  for (auto _ : state) {
    obs::MetricsRegistry target;
    target.merge_from(sources);
    benchmark::DoNotOptimize(target.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cells));
  state.SetLabel("items = cell registries");
}
BENCHMARK(BM_MergeCellRegistries)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_PriorityEvaluatorExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  analysis::PriorityEvaluator eval{ProbabilityVector(n, 0.7), 60};
  std::vector<LinkId> order(n);
  std::iota(order.begin(), order.end(), LinkId{0});
  const std::vector<std::vector<double>> pmfs(
      n, traffic::UniformBurstyArrivals{0.55}.pmf());
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(order, pmfs));
  }
}
BENCHMARK(BM_PriorityEvaluatorExact)->Arg(5)->Arg(10)->Arg(20);

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--smoke") {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char filter[] = "--benchmark_filter=BM_EventQueue.*|BM_Sketch.*";
  if (smoke) args.push_back(filter);
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
