#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "expfw/figure_bench.hpp"
#include "expfw/runner.hpp"
#include "expfw/scenarios.hpp"
#include "net/arrival_kernel.hpp"
#include "net/network.hpp"
#include "net/network_config.hpp"
#include "obs/collect.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "sim/shard_partitioner.hpp"
#include "spans.hpp"
#include "traffic/arrival_process.hpp"
#include "util/arena.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace rtmac;

constexpr std::size_t kLinksPerCell = 8;
constexpr int kMinReps = 3;
constexpr std::size_t kMaxFailureMessages = 8;

// ---- small numeric helpers ----------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Peak RSS of this process image in MB. getrusage's ru_maxrss survives
/// exec on Linux, so a child of a large parent would report the parent's
/// peak; VmHWM belongs to the current image alone.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return static_cast<double>(util::peak_rss_kb()) / 1024.0;
}

/// Order-sensitive 64-bit digest (SplitMix64 chaining, as the sweep seeds).
struct Digest {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  void add(std::uint64_t v) { h = mix64(h, v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Failure bookkeeping shared by every run of one workload invocation;
/// sweep tasks report from pool threads, hence the lock.
class Checker {
 public:
  void run_checked(bool ok, const std::string& why) {
    const std::lock_guard lock{mutex_};
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (messages_.size() < kMaxFailureMessages) messages_.push_back(why);
    }
  }
  /// Marks an already-counted run as failed (a later cross-run check).
  void fail(const std::string& why) {
    const std::lock_guard lock{mutex_};
    ++failed_;
    if (messages_.size() < kMaxFailureMessages) messages_.push_back(why);
  }
  void export_to(Outcome& out) const {
    const std::lock_guard lock{mutex_};
    out.attempted = attempted_;
    out.failed = std::min(failed_, attempted_);
    out.failures = messages_;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// The output checks every run passes, plus the per-link result digest.
/// Returns an empty string when every check holds.
std::string check_network(const net::Network& network, Digest* digest) {
  const auto& stats = network.stats();
  const std::size_t n_links = network.config().num_links();
  std::uint64_t delivered_sum = 0;
  std::string why;
  for (LinkId n = 0; n < n_links; ++n) {
    const std::uint64_t delivered = stats.total_delivered(n);
    if (delivered > stats.total_arrivals(n) && why.empty()) {
      why = "link " + std::to_string(n) + " delivered more than arrived";
    }
    delivered_sum += delivered;
    if (digest != nullptr) {
      digest->add(delivered);
      digest->add(network.debts().debt(n));
    }
  }
  const phy::MediumCounters c = network.medium_counters();
  if (delivered_sum != c.delivered && why.empty()) {
    why = "per-link deliveries sum to " + std::to_string(delivered_sum) +
          " but the medium counted " + std::to_string(c.delivered);
  }
  if (!std::isfinite(network.total_deficiency()) && why.empty()) why = "deficiency not finite";
  if (network.event_reallocs() != 0 && why.empty()) why = "event queue reallocated";
  if (digest != nullptr) {
    for (const std::uint64_t v : {c.data_tx, c.empty_tx, c.collisions, c.delivered,
                                  c.channel_losses}) {
      digest->add(v);
    }
  }
  return why;
}

/// Traced-mode interval observer: stamps each interval as a "net.interval"
/// span and checks the debt recursion d(k+1) = d(k) + q - S(k).
struct IntervalProbe {
  const net::Network* network = nullptr;
  std::vector<double> prev_debt;
  std::int64_t parent = kNoSpan;
  std::int64_t last_ns = 0;
  bool recursion_ok = true;

  void attach(net::Network& net) {
    network = &net;
    prev_debt.assign(net.config().num_links(), 0.0);
    net.add_observer([this](IntervalIndex, std::span<const int>,
                            std::span<const int> delivered) { on_interval(delivered); });
  }
  void start(std::int64_t run_span) {
    parent = run_span;
    last_ns = now_ns();
  }
  void on_interval(std::span<const int> delivered) {
    SpanLog::record("net.interval", last_ns, now_ns(), parent);
    const auto& debts = network->debts();
    for (std::size_t n = 0; n < prev_debt.size(); ++n) {
      const double d = debts.debt(static_cast<LinkId>(n));
      const double expected = prev_debt[n] + debts.requirement(static_cast<LinkId>(n)) -
                              static_cast<double>(delivered[n]);
      if (std::abs(d - expected) > 1e-9 * std::max(1.0, std::abs(expected))) {
        recursion_ok = false;
      }
      prev_debt[n] = d;
    }
    last_ns = now_ns();
  }
};

void add(Outcome& out, std::string name, double value, std::string unit) {
  out.metrics.push_back({std::move(name), value, std::move(unit)});
}

/// Counters one unit of work produced; identical across units of one seed.
struct UnitCounts {
  std::uint64_t events = 0;
  std::uint64_t event_reallocs = 0;
  std::uint64_t cells = 0;
  std::uint64_t groups = 0;
  std::uint64_t coordinator_rounds = 0;
  double link_intervals = 0.0;
  double intervals = 0.0;
  phy::MediumCounters phy;
  net::Network::MemoryBreakdown mem;

  void add_network(const net::Network& network) {
    events += network.events_executed();
    event_reallocs += network.event_reallocs();
    cells += network.cell_count();
    groups += network.group_count();
    coordinator_rounds += network.coordinator_rounds();
    const phy::MediumCounters c = network.medium_counters();
    phy.data_tx += c.data_tx;
    phy.empty_tx += c.empty_tx;
    phy.collisions += c.collisions;
    phy.delivered += c.delivered;
    phy.channel_losses += c.channel_losses;
    const double k = static_cast<double>(network.stats().intervals());
    intervals += k;
    link_intervals += k * static_cast<double>(network.config().num_links());
  }
};

/// Host times of one unit of work.
struct UnitTimes {
  double wall_s = 0.0;   ///< first rtmac call to last, destruction included
  double setup_s = 0.0;  ///< Network constructor(s) timed directly
  double run_s = 0.0;    ///< the simulation phase
  double export_s = 0.0;
  double collect_s = 0.0;
  double write_s = 0.0;
  double merge_s = 0.0;
  double export_bytes = 0.0;
  double stream_bytes = 0.0;
  double metrics = 0.0;
};

struct UnitResult {
  UnitTimes times;
  UnitCounts counts;
  std::string digest;
};

/// Per-layer numbers a workload adds on top of the common ones.
struct Probes {
  double partition_s = 0.0;
  double arrivals_ns_per_link = 0.0;
  double scaling_x = 0.0;
  net::Network::MemoryBreakdown mem;
};

/// Times `sim::partition_topology` and the arrival kernel on a workload's
/// own inputs (traced mode).
void probe_layers(const net::NetworkConfig& cfg, const sim::AdjacencyLists& conflict,
                  const sim::AdjacencyLists& sense, std::size_t target_shards, Probes& p) {
  {
    const Span span{"sim.partition_topology"};
    const std::int64_t t0 = now_ns();
    const sim::ShardPlan plan = sim::partition_topology(conflict, sense, target_shards);
    p.partition_s = seconds_between(t0, now_ns());
    if (plan.num_links() != cfg.num_links()) {
      throw std::runtime_error{"partition probe lost links"};
    }
  }
  util::Arena arena;
  net::ArrivalKernel kernel;
  {
    const Span span{"net.ArrivalKernel.build"};
    if (cfg.uniform_arrivals != nullptr) {
      kernel.build_uniform(*cfg.uniform_arrivals, cfg.num_links(), arena);
    } else {
      kernel.build(cfg.arrivals, arena);
    }
  }
  std::vector<int> out(cfg.num_links());
  Rng rng{cfg.seed};
  // Batches of whole-network draws, sized so each batch covers ~2*10^5
  // link draws whatever the network size; the median batch is reported.
  constexpr int kBatches = 11;
  const std::size_t draws = std::max<std::size_t>(1, 200'000 / cfg.num_links());
  std::vector<double> per_link_ns;
  const Span span{"net.ArrivalKernel.sample_into"};
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < draws; ++i) kernel.sample_into(rng, out);
    per_link_ns.push_back(static_cast<double>(now_ns() - t0) /
                          static_cast<double>(draws * cfg.num_links()));
  }
  p.arrivals_ns_per_link = median(std::move(per_link_ns));
}

sim::AdjacencyLists complete_lists(std::size_t n) {
  sim::AdjacencyLists lists(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) lists[a].push_back(static_cast<LinkId>(b));
    }
  }
  return lists;
}

// ---- the repetition loop --------------------------------------------------------

/// Runs `unit(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least kMinReps units ran, after one checked but unreported warm-up unit
/// (`unit(0)`). Every unit's digest must match the warm-up's.
template <typename Unit>
std::vector<UnitResult> repeat(double seconds, std::uint32_t& run_id, Checker& checker,
                               Unit&& unit) {
  const std::string reference = unit(std::size_t{0}).digest;
  std::vector<UnitResult> results;
  const std::int64_t start = now_ns();
  while (results.size() < static_cast<std::size_t>(kMinReps) ||
         seconds_between(start, now_ns()) < seconds) {
    SpanLog::set_run(++run_id);
    results.push_back(unit(results.size()));
    if (results.back().digest != reference) {
      checker.fail("unit digest differs from the warm-up unit's");
    }
  }
  SpanLog::set_run(0);
  std::vector<double> walls;
  std::vector<double> setups;
  for (const UnitResult& r : results) {
    walls.push_back(r.times.wall_s);
    setups.push_back(r.times.setup_s);
  }
  for (const auto& [name, v] : {std::pair{"wall_s", &walls}, std::pair{"setup_s", &setups}}) {
    std::fprintf(stderr, "perfbench: %zu units, %s min %.4g q1 %.4g median %.4g q3 %.4g max %.4g\n",
                 results.size(), name, quantile(*v, 0), quantile(*v, 0.25), quantile(*v, 0.5),
                 quantile(*v, 0.75), quantile(*v, 1));
  }
  return results;
}

template <typename Field>
std::vector<double> column(const std::vector<UnitResult>& rs, Field field) {
  std::vector<double> out;
  out.reserve(rs.size());
  for (const UnitResult& r : rs) out.push_back(field(r));
  return out;
}

// ---- network workloads (city_sparse, coupled_chain, observed_city) -------------

struct NetInputs {
  net::NetworkConfig config;  ///< template, cloned per unit
  mac::SchemeFactory factory;
  IntervalIndex intervals = 0;
  bool observed = false;
  std::uint64_t stream_every = 10;
};

net::NetworkConfig control_config(std::size_t num_links, std::uint64_t seed) {
  return net::symmetric_network(num_links, Duration::milliseconds(2),
                                phy::PhyParams::control_80211a(), 0.7,
                                traffic::BernoulliArrivals{0.8}, 0.9, seed);
}

/// 12,500 (or `cells`) unit-disk clusters of 8 links, DCF, one cell per
/// cluster.
NetInputs city_inputs(std::size_t cells, IntervalIndex intervals, std::uint64_t seed) {
  NetInputs in;
  in.config = expfw::with_sparse_topology(
      control_config(cells * kLinksPerCell, mix64(seed, 2)),
      expfw::city_unit_disk_topology(cells, kLinksPerCell, mix64(seed, 1)));
  in.config.shards = cells;
  in.factory = expfw::dcf_factory();
  in.intervals = intervals;
  return in;
}

/// Hidden-terminal chain of 256 cells of 8, even cells loaded, FCSMA.
NetInputs chain_inputs(std::size_t cells, IntervalIndex intervals, std::uint64_t seed) {
  NetInputs in;
  in.config = expfw::with_sparse_topology(control_config(cells * kLinksPerCell, mix64(seed, 3)),
                                          expfw::chain_cells_topology(cells, kLinksPerCell));
  in.config.uniform_arrivals.reset();
  const traffic::BernoulliArrivals busy{0.8};
  const traffic::BernoulliArrivals idle{0.0};
  for (std::size_t l = 0; l < in.config.num_links(); ++l) {
    const bool is_busy = (l / kLinksPerCell) % 2 == 0;
    in.config.arrivals.push_back((is_busy ? busy : idle).clone());
    in.config.requirements.lambda[l] = is_busy ? 0.8 : 0.0;
  }
  in.config.shards = cells;
  in.factory = expfw::fcsma_factory();
  in.intervals = intervals;
  return in;
}

UnitResult run_net_unit(const NetInputs& in, std::size_t workers, bool traced,
                        const std::string& out_dir, Checker& checker) {
  net::NetworkConfig cfg = in.config.clone();
  cfg.shard_jobs = workers;
  UnitResult r;
  IntervalProbe probe;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::StringStreamSink> stream;
  const std::string stream_path = out_dir + "/observed_stream.jsonl";
  const std::string metrics_path = out_dir + "/observed_metrics.jsonl";

  const Span unit{"bench.unit"};
  const std::int64_t t0 = now_ns();
  std::unique_ptr<net::Network> network;
  {
    const Span span{"net.Network"};
    network = std::make_unique<net::Network>(std::move(cfg), in.factory);
  }
  const std::int64_t t1 = now_ns();
  if (in.observed) {
    const Span span{"obs.attach"};
    // As in expfw::run_sweeps: snapshots stream into memory during the run
    // and go to the file with the export, so disk writes stay out of the
    // run phase.
    registry = std::make_unique<obs::MetricsRegistry>();
    stream = std::make_unique<obs::StringStreamSink>();
    network->attach_metrics(registry.get());
    registry->stream_to(stream.get(), in.stream_every);
  }
  if (traced) probe.attach(*network);
  const std::int64_t t2 = now_ns();
  {
    const Span span{"net.run"};
    if (traced) probe.start(span.id());
    network->run(in.intervals);
  }
  const std::int64_t t3 = now_ns();
  if (in.observed) {
    {
      const Span span{"obs.stream_write"};
      registry->stream_to(nullptr);
      obs::FileStreamSink file{stream_path};
      obs::write_stream_header(file.stream());
      file.stream() << stream->str();
      file.flush();
      if (!file.ok()) throw std::runtime_error{"cannot write " + stream_path};
      stream.reset();
    }
    const std::int64_t c0 = now_ns();
    {
      const Span span{"obs.collect"};
      obs::collect_network_metrics(*registry, *network);
    }
    const std::int64_t c1 = now_ns();
    {
      const Span span{"obs.write_jsonl"};
      std::ofstream file{metrics_path};
      obs::write_metrics_header(file);
      registry->write_jsonl(file);
      if (!file.flush()) throw std::runtime_error{"cannot write " + metrics_path};
    }
    const std::int64_t c2 = now_ns();
    r.times.collect_s = seconds_between(c0, c1);
    r.times.write_s = seconds_between(c1, c2);
  }
  const std::int64_t t4 = now_ns();

  // Checks and probes: benchmark work, kept out of every clock above.
  Digest digest;
  std::string why = check_network(*network, &digest);
  if (traced && !probe.recursion_ok && why.empty()) why = "debt recursion violated";
  checker.run_checked(why.empty(), why);
  r.digest = digest.hex();
  r.counts.add_network(*network);
  r.counts.mem = network->memory_breakdown();
  if (in.observed) {
    r.times.metrics = static_cast<double>(registry->size());
    std::error_code ec;
    r.times.export_bytes = static_cast<double>(std::filesystem::file_size(metrics_path, ec));
    r.times.stream_bytes = static_cast<double>(std::filesystem::file_size(stream_path, ec));
    if (traced) {
      // merge_cell_metrics_into runs inside collect; time it alone into a
      // scratch registry so collect's own share can be told apart.
      obs::MetricsRegistry scratch;
      const Span span{"obs.merge_cell_metrics_into"};
      const std::int64_t m0 = now_ns();
      network->merge_cell_metrics_into(scratch);
      r.times.merge_s = seconds_between(m0, now_ns());
    }
  }

  const std::int64_t t5 = now_ns();
  {
    const Span span{"net.~Network"};
    network.reset();
  }
  if (registry != nullptr) {
    const Span span{"obs.~MetricsRegistry"};
    registry.reset();
  }
  const std::int64_t t6 = now_ns();
  r.times.setup_s = seconds_between(t0, t1);
  r.times.run_s = seconds_between(t2, t3);
  r.times.export_s = seconds_between(t3, t4);
  r.times.wall_s = seconds_between(t0, t4) + seconds_between(t5, t6);
  return r;
}

// ---- paper_sweep ----------------------------------------------------------------

struct SweepInputs {
  std::vector<double> video_grid;    ///< Fig. 3: alpha*
  std::vector<double> control_grid;  ///< Fig. 9: lambda*
  std::uint64_t video_seed = 0;
  std::uint64_t control_seed = 0;
  IntervalIndex intervals = 0;
  std::size_t setup_samples = 51;  ///< representative constructions per unit
};

SweepInputs sweep_inputs(std::uint64_t seed) {
  SweepInputs in;
  in.video_grid = expfw::linspace(0.40, 0.80, 9);
  in.control_grid = expfw::linspace(0.50, 1.00, 11);
  in.video_seed = mix64(seed, 3);
  in.control_seed = mix64(seed, 9);
  in.intervals = 5000;
  return in;
}

/// The representative task whose construction setup_s times: DB-DP on the
/// Fig. 3 network at alpha* = 0.60.
net::NetworkConfig representative_config(const SweepInputs& in) {
  return expfw::video_symmetric(0.60, 0.9, in.video_seed);
}

thread_local std::int64_t t_task_span = kNoSpan;

/// One unit: both figure sweeps through expfw::run_sweeps on `jobs`
/// workers. Each task is stamped from the benchmark's own ConfigAt call to
/// its MetricFn call. MetricFn also runs the output checks: a task's
/// Network lives only inside run_sweeps, so unlike the network workloads
/// the sweep's wall_s includes them (one pass over 10 or 20 links a task).
UnitResult run_sweep_unit(const SweepInputs& in, std::size_t jobs, Checker& checker) {
  UnitResult r;
  std::mutex counts_mutex;
  const auto schemes = expfw::paper_scheme_table();
  expfw::SweepOptions opts;
  opts.reps = 1;
  opts.jobs = jobs;

  const expfw::MetricFn metric = [&](const net::Network& network) {
    const std::string why = check_network(network, nullptr);
    checker.run_checked(why.empty(), why);
    {
      const std::lock_guard lock{counts_mutex};
      r.counts.add_network(network);
    }
    const double deficiency = network.total_deficiency();
    SpanLog::end(t_task_span);
    t_task_span = kNoSpan;
    return std::vector<double>{deficiency};
  };

  // One sweep over both figures' grids: x is an index into Fig. 3's
  // alpha* grid followed by Fig. 9's lambda* grid, so the pool balances all
  // 60 tasks at once instead of draining twice.
  const std::size_t n_video = in.video_grid.size();
  std::vector<double> grid(n_video + in.control_grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) grid[i] = static_cast<double>(i);

  Digest digest;
  const Span unit{"bench.unit"};
  const std::int64_t t0 = now_ns();
  {
    const Span sweep{"expfw.run_sweeps"};
    const std::int64_t parent = sweep.id();
    const expfw::ConfigAt config_at = [&in, n_video, parent](double x) {
      t_task_span = SpanLog::begin("expfw.task", parent);
      const auto i = static_cast<std::size_t>(x);
      return i < n_video ? expfw::video_symmetric(in.video_grid[i], 0.9, in.video_seed)
                         : expfw::control_symmetric(in.control_grid[i - n_video], 0.99,
                                                    in.control_seed);
    };
    const auto results =
        expfw::run_sweeps(schemes, config_at, grid, in.intervals, metric, {"deficiency"}, opts);
    for (const auto& result : results) {
      for (const auto& point : result.samples) digest.add(point.front().front());
    }
  }
  const std::int64_t t1 = now_ns();
  r.times.wall_s = r.times.run_s = seconds_between(t0, t1);
  const phy::MediumCounters& c = r.counts.phy;
  for (const std::uint64_t v : {c.data_tx, c.empty_tx, c.collisions, c.delivered,
                                c.channel_losses}) {
    digest.add(v);
  }

  // setup_s: the representative task's constructor, timed directly.
  std::vector<double> setups;
  for (std::size_t i = 0; i < in.setup_samples; ++i) {
    net::NetworkConfig cfg = representative_config(in);
    const Span span{"net.Network"};
    const std::int64_t s0 = now_ns();
    const net::Network network{std::move(cfg), expfw::dbdp_factory()};
    setups.push_back(seconds_between(s0, now_ns()));
  }
  r.times.setup_s = median(std::move(setups));
  r.digest = digest.hex();
  return r;
}

/// Traced-mode run of the representative task with the interval probe:
/// interval timing, debt recursion, memory breakdown, layer probes.
void probe_sweep(const SweepInputs& in, Checker& checker, Probes& p) {
  net::NetworkConfig cfg = representative_config(in);
  probe_layers(cfg, complete_lists(cfg.num_links()), complete_lists(cfg.num_links()), 1, p);
  net::Network network{std::move(cfg), expfw::dbdp_factory()};
  IntervalProbe probe;
  probe.attach(network);
  {
    const Span span{"net.run"};
    probe.start(span.id());
    network.run(in.intervals);
  }
  std::string why = check_network(network, nullptr);
  if (!probe.recursion_ok && why.empty()) why = "debt recursion violated";
  checker.run_checked(why.empty(), why);
  p.mem = network.memory_breakdown();
}

// ---- reporting --------------------------------------------------------------------

struct Collected {
  std::vector<UnitResult> units;   ///< the measured (untraced or traced) units
  std::vector<UnitResult> base;    ///< traced mode: untraced units for the ratio
  std::vector<UnitResult> single;  ///< traced mode: untraced 1-worker units
  Probes probes;
};

/// End-to-end timings are the run's best unit: the fastest `wall_s` and
/// `setup_s`, the highest `link_intervals_per_s`. Every unit does the same
/// work, and the host only ever adds time to it. The host's speed drifts by
/// up to 2x in spells of 30-60 s, longer than a run, so a run's median follows
/// whatever spell the run fell in; its fastest unit stays near the host's
/// unloaded speed as long as some part of the run was calm.
void end_to_end_metrics(const Collected& c, Outcome& out) {
  const auto& u = c.units;
  add(out, "wall_s", quantile(column(u, [](const UnitResult& r) { return r.times.wall_s; }), 0),
      "s");
  add(out, "setup_s",
      quantile(column(u, [](const UnitResult& r) { return r.times.setup_s; }), 0), "s");
  add(out, "link_intervals_per_s", quantile(column(u, [](const UnitResult& r) {
        return ratio(r.counts.link_intervals, r.times.run_s);
      }), 1),
      "1/s");
  add(out, "peak_rss_mb", peak_rss_mb(), "MB");
}

void per_layer_metrics(const Collected& c, const Options& opts, Outcome& out) {
  const auto& u = c.units;
  const UnitResult& first = u.front();
  const UnitCounts& k = first.counts;
  const auto med = [&u](auto field) { return median(column(u, field)); };
  const double run_s = med([](const UnitResult& r) { return r.times.run_s; });
  const double traced_wall = med([](const UnitResult& r) { return r.times.wall_s; });
  const double base_wall = median(column(c.base, [](const UnitResult& r) {
    return r.times.wall_s;
  }));

  add(out, "run.nproc", static_cast<double>(opts.nproc), "count");
  add(out, "run.workers", static_cast<double>(opts.workers), "count");
  add(out, "run.units", static_cast<double>(u.size()), "count");
  add(out, "trace.overhead_ratio", ratio(traced_wall, base_wall), "ratio");

  // expfw: sweep tasks bracketed by ConfigAt .. MetricFn.
  const std::vector<double> tasks = SpanLog::durations("expfw.task");
  const double sweeps_s = sum(SpanLog::durations("expfw.run_sweeps"));
  add(out, "expfw.tasks", static_cast<double>(tasks.size()), "count");
  add(out, "expfw.task_s_p50", median(tasks), "s");
  add(out, "expfw.task_s_max", tasks.empty() ? 0.0 : *std::max_element(tasks.begin(), tasks.end()),
      "s");
  // The caller thread runs queued tasks beside the pool's workers.
  add(out, "expfw.pool_busy_fraction",
      ratio(sum(tasks), sweeps_s * static_cast<double>(opts.workers + 1)), "ratio");

  // net
  std::vector<double> interval_us = SpanLog::durations("net.interval");
  for (double& x : interval_us) x *= 1e6;
  add(out, "net.build_s", median(SpanLog::durations("net.Network")), "s");
  add(out, "net.interval_us_p50", quantile(interval_us, 0.5), "us");
  add(out, "net.interval_us_p99", quantile(interval_us, 0.99), "us");
  add(out, "net.interval_samples", static_cast<double>(interval_us.size()), "count");
  add(out, "net.arrivals_ns_per_link", c.probes.arrivals_ns_per_link, "ns");
  add(out, "net.scaling_x", c.probes.scaling_x, "ratio");

  // sim
  add(out, "sim.partition_s", c.probes.partition_s, "s");
  add(out, "sim.events", static_cast<double>(k.events), "count");
  add(out, "sim.events_per_s", ratio(static_cast<double>(k.events), run_s), "1/s");
  add(out, "sim.events_per_link_interval", ratio(static_cast<double>(k.events), k.link_intervals),
      "ratio");
  add(out, "sim.event_reallocs", static_cast<double>(k.event_reallocs), "count");
  add(out, "sim.cells", static_cast<double>(k.cells), "count");
  add(out, "sim.groups", static_cast<double>(k.groups), "count");
  add(out, "sim.coordinator_rounds", static_cast<double>(k.coordinator_rounds), "count");
  add(out, "sim.rounds_per_interval",
      ratio(static_cast<double>(k.coordinator_rounds), k.intervals), "ratio");

  // phy (simulated statistics: identical across engines, workers, traces)
  const phy::MediumCounters& p = k.phy;
  const double tx = static_cast<double>(p.data_tx + p.empty_tx);
  add(out, "phy.data_tx", static_cast<double>(p.data_tx), "count");
  add(out, "phy.empty_tx", static_cast<double>(p.empty_tx), "count");
  add(out, "phy.collisions", static_cast<double>(p.collisions), "count");
  add(out, "phy.delivered", static_cast<double>(p.delivered), "count");
  add(out, "phy.delivered_per_data_tx",
      ratio(static_cast<double>(p.delivered), static_cast<double>(p.data_tx)), "ratio");
  add(out, "phy.collisions_per_tx", ratio(static_cast<double>(p.collisions), tx), "ratio");

  // mem: the workload's network (paper_sweep: the representative task).
  const net::Network::MemoryBreakdown& m =
      c.probes.mem.arena_reserved > 0 ? c.probes.mem : k.mem;
  add(out, "mem.arena_reserved_mb", static_cast<double>(m.arena_reserved) / kMiB, "MB");
  add(out, "mem.arena_used_mb", static_cast<double>(m.arena_used) / kMiB, "MB");
  add(out, "mem.arrivals_mb", static_cast<double>(m.arrivals) / kMiB, "MB");
  add(out, "mem.sim_events_mb", static_cast<double>(m.sim_events) / kMiB, "MB");
  add(out, "mem.phy_mb", static_cast<double>(m.phy) / kMiB, "MB");
  add(out, "mem.mac_mb", static_cast<double>(m.mac) / kMiB, "MB");

  // obs (observed_city only; 0 elsewhere)
  add(out, "obs.export_s", med([](const UnitResult& r) { return r.times.export_s; }), "s");
  add(out, "obs.merge_s", med([](const UnitResult& r) { return r.times.merge_s; }), "s");
  add(out, "obs.collect_s", med([](const UnitResult& r) { return r.times.collect_s; }), "s");
  add(out, "obs.write_s", med([](const UnitResult& r) { return r.times.write_s; }), "s");
  add(out, "obs.export_bytes", first.times.export_bytes, "bytes");
  add(out, "obs.metrics", first.times.metrics, "count");
  add(out, "obs.stream_bytes", first.times.stream_bytes, "bytes");

  // Self time per layer, per traced unit (span minus child spans).
  const double n_units = static_cast<double>(u.size());
  for (const char* layer : {"bench", "expfw", "net", "obs"}) {
    double self = 0.0;
    for (const SpanTotals& t : SpanLog::totals(/*units_only=*/true)) {
      if (t.name == std::string{"layer:"} + layer) self = t.self_s;
    }
    add(out, std::string{layer} + ".self_s", self / n_units, "s");
  }
}

/// Untraced mode: units for the full budget. Traced mode: three kinds of
/// unit take turns for the budget, so drift in host speed falls on all of
/// them alike: untraced (the overhead baseline), traced, and untraced on 1
/// worker. Then come the layer probes.
/// `unit(checker, traced, workers)` runs one unit; `probe(checker, probes)`
/// runs the workload's layer probes. `scaling` reports the 1-worker units'
/// run time over the N-worker ones as `net.scaling_x`; only the sharded
/// engine runs 1 worker serially (a 1-job sweep pool still has the caller
/// thread helping), so the sweep leaves it 0.
template <typename UnitFn, typename ProbeFn>
Outcome measure(const Options& opts, bool scaling, UnitFn unit, ProbeFn probe) {
  Outcome out;
  Checker checker;
  Collected c;
  std::uint32_t run_id = 0;
  if (!opts.trace) {
    c.units = repeat(opts.seconds, run_id, checker,
                     [&](std::size_t) { return unit(checker, false, opts.workers); });
    end_to_end_metrics(c, out);
  } else {
    // Unit i is untraced (i % 3 == 0), traced (1) or on 1 worker (2).
    // repeat() holds every unit to one digest, so traced and untraced
    // units, and 1-worker and N-worker units, must agree.
    const std::vector<UnitResult> mixed = repeat(opts.seconds, run_id, checker, [&](std::size_t i) {
      const bool traced = i % 3 == 1;
      SpanLog::enable(traced);
      UnitResult r = unit(checker, traced, i % 3 == 2 ? 1 : opts.workers);
      SpanLog::enable(false);
      return r;
    });
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      (i % 3 == 0 ? c.base : i % 3 == 1 ? c.units : c.single).push_back(mixed[i]);
    }
    SpanLog::enable(true);
    probe(checker, c.probes);
    SpanLog::enable(false);
    if (scaling) {
      const auto run_s = [](const UnitResult& r) { return r.times.run_s; };
      c.probes.scaling_x = ratio(median(column(c.single, run_s)), median(column(c.base, run_s)));
    }
    per_layer_metrics(c, opts, out);
  }
  out.digest = c.units.front().digest;
  checker.export_to(out);
  return out;
}

Outcome run_net_workload(const Options& opts, const NetInputs& in) {
  const auto unit = [&](Checker& checker, bool traced, std::size_t workers) {
    return run_net_unit(in, workers, traced, opts.out_dir, checker);
  };
  const auto probe = [&](Checker&, Probes& p) {
    const phy::SparseTopology& topo = *in.config.sparse_topology;
    probe_layers(in.config, topo.conflict, topo.sense, in.config.shards, p);
  };
  return measure(opts, /*scaling=*/true, unit, probe);
}

Outcome run_sweep_workload(const Options& opts, const SweepInputs& in) {
  const auto unit = [&](Checker& checker, bool, std::size_t workers) {
    return run_sweep_unit(in, workers, checker);
  };
  const auto probe = [&](Checker& checker, Probes& p) { probe_sweep(in, checker, p); };
  return measure(opts, /*scaling=*/false, unit, probe);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_sweep", "city_sparse", "coupled_chain",
                                              "observed_city"};
  return names;
}

Outcome run_workload(const Options& opts) {
  // Inputs come from the seed alone and are built before any clock starts.
  if (opts.workload == "paper_sweep") return run_sweep_workload(opts, sweep_inputs(opts.seed));
  if (opts.workload == "city_sparse") {
    return run_net_workload(opts, city_inputs(12500, 25, opts.seed));
  }
  if (opts.workload == "coupled_chain") {
    return run_net_workload(opts, chain_inputs(256, 400, opts.seed));
  }
  if (opts.workload == "observed_city") {
    NetInputs in = city_inputs(512, 100, opts.seed);
    in.observed = true;
    in.stream_every = 25;
    return run_net_workload(opts, in);
  }
  throw std::invalid_argument{"unknown workload: " + opts.workload};
}

}  // namespace perfbench
