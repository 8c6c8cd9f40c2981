// Lightweight metrics registry for protocol-internal telemetry.
//
// PHY/MAC/net components register counters, gauges, and fixed-bucket
// histograms here and update them through cached handles, so an attached
// registry costs one pointer indirection per event and a detached one costs
// a single null check (the same zero-overhead contract sim::Tracer uses).
// The registry is single-threaded by design — each simulation task owns its
// own instance, exactly like the Simulator it observes — and exports
// deterministically ordered, schema-versioned JSONL for downstream tooling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sketch.hpp"

namespace rtmac::obs {

class StreamSink;

/// Version of the JSONL metrics schema; bumped on any format change so
/// downstream parsers can detect drift. The header line of every export
/// carries it: {"schema":"rtmac.metrics","version":N}.
/// v2: added the "sketch" record type (mergeable quantile sketches).
inline constexpr int kMetricsSchemaVersion = 2;

/// Writes the schema header line (callers emit it once per JSONL file).
void write_metrics_header(std::ostream& out);

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with quantile readout.
///
/// `bounds` are ascending inclusive upper bounds; one implicit overflow
/// bucket (+inf) is always appended. Quantiles are estimated by linear
/// interpolation inside the bucket containing the target rank, clamped to
/// the observed [min, max]; with no samples quantile() returns NaN.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const;  ///< NaN when empty
  [[nodiscard]] double max() const;  ///< NaN when empty
  [[nodiscard]] double mean() const; ///< NaN when empty

  /// q is clamped to [0, 1]; q = 0 reports min(), q = 1 reports max().
  [[nodiscard]] double quantile(double q) const;

  /// Upper bounds, excluding the implicit +inf overflow bucket.
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Folds `other` into this histogram (bucket counts, sum, min/max).
  /// Requires identical bounds — merging is only meaningful between
  /// instruments created from the same instrumentation point (e.g. the
  /// per-cell registries of a sharded run).
  void merge(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Evenly-log-spaced bounds helper for duration-like histograms:
/// {lo, lo*step, ...} until > hi. lo and step must be > 0, step > 1.
[[nodiscard]] std::vector<double> log_bounds(double lo, double hi, double step);

/// Owning registry. Handles returned by counter()/gauge()/histogram() are
/// stable for the registry's lifetime (components cache them). Repeated
/// registration under one name returns the same instrument; a histogram
/// re-registered with different bounds keeps the original bounds.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);
  /// Quantile sketch instrument. The instrument name is mixed into
  /// `opts.seed` so distinct sketches draw independent compaction-coin
  /// streams while staying deterministic across runs and --jobs. A sketch
  /// re-registered with different options keeps the original options.
  QuantileSketch& sketch(std::string_view name, const SketchOptions& opts = {});

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Folds every instrument of `other` into this registry, creating missing
  /// instruments on the fly: counters add, gauges last-write-win (the
  /// other's value is taken), histograms merge bucket-wise (same bounds
  /// required), sketches merge as pure unions. Used to combine the per-cell
  /// registries of a sharded run into one export; merging the same source
  /// twice double-counts, so callers merge exactly once at collect time.
  void merge_from(const MetricsRegistry& other);
  /// Folds every registry of `sources`, in order, in one pass: the same
  /// result as one merge_from() per source, but each sketch merges its
  /// inputs as one batch and so reserves their union once — the fold costs
  /// O(total retained samples) however many sources there are.
  void merge_from(std::span<const MetricsRegistry* const> sources);

  /// Starts streaming in-run snapshots: every `every`-th stream_tick()
  /// writes one full write_jsonl() snapshot (plus `context` and the tick's
  /// "k"/"t_ns" stamps on every line) into `sink`, followed by a flush.
  /// `sink` is not owned and must outlive the streaming window; nullptr
  /// detaches. `every` must be >= 1 (throws std::invalid_argument).
  void stream_to(StreamSink* sink, std::uint64_t every = 1, std::string context = {});
  [[nodiscard]] bool streaming() const { return stream_sink_ != nullptr; }

  /// Cadence gate, called by the interval loop at every interval boundary
  /// with the interval index and its sim-time end stamp. Emits a snapshot
  /// on every `every`-th call since stream_to(); no-op (one branch) when
  /// detached. Sim-time stamps only: wall-clock never enters the stream,
  /// so streamed files diff clean across --jobs.
  void stream_tick(std::uint64_t k, std::int64_t t_ns);

  /// One JSONL line per metric, in name order (deterministic). `context`,
  /// when non-empty, is a raw JSON fragment of extra fields — e.g.
  /// `"scheme":"LDF","x":0.4,"rep":0` — spliced into every line so a
  /// concatenated multi-run file stays self-describing. Callers are
  /// responsible for the header line (write_metrics_header) once per file.
  /// Though const, the export writes: each sketch's quantile() reorders its
  /// retained samples in place (see QuantileSketch), so an export must not
  /// overlap another export or any read of the same registry's sketches.
  void write_jsonl(std::ostream& out, std::string_view context = {}) const;

 private:
  enum class Type : std::uint8_t { kCounter, kGauge, kHistogram, kSketch };
  struct Entry {
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<QuantileSketch> sketch;
  };

  // std::map keeps export order independent of registration order, which
  // keeps JSONL diffs stable when instrumentation points move around.
  std::map<std::string, Entry, std::less<>> entries_;

  // Streaming state (see stream_to/stream_tick).
  StreamSink* stream_sink_ = nullptr;
  std::uint64_t stream_every_ = 1;
  std::uint64_t stream_ticks_ = 0;
  std::string stream_context_;
};

/// "link3" etc. — the per-link naming convention used by all instrumented
/// components, e.g. link_metric("phy.tx_data", 3) == "phy.tx_data.link3".
[[nodiscard]] std::string link_metric(std::string_view base, std::uint32_t link);

/// "node3" etc. — the per-device naming convention for sense-view metrics,
/// e.g. node_metric("medium.busy_fraction", 3) == "medium.busy_fraction.node3".
/// Distinct from link_metric because a node's carrier-sense view aggregates
/// other links' activity, not its own traffic.
[[nodiscard]] std::string node_metric(std::string_view base, std::uint32_t node);

}  // namespace rtmac::obs
