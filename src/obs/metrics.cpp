#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/stream.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rtmac::obs {

void write_metrics_header(std::ostream& out) {
  out << JsonObject{}
             .field("schema", "rtmac.metrics")
             .field("version", kMetricsSchemaVersion)
             .str()
      << '\n';
}

Histogram::Histogram(std::vector<double> bounds) : bounds_{std::move(bounds)} {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument{"Histogram: bounds must be ascending"};
  }
  counts_.assign(bounds_.size() + 1, 0);  // +1: implicit +inf overflow bucket
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::merge(const Histogram& other) {
  RTMAC_REQUIRE(bounds_ == other.bounds_, "Histogram::merge: bounds differ");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::min() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double Histogram::max() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

double Histogram::mean() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN()
                     : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  // NaN q would otherwise survive std::clamp (both comparisons are false)
  // and reach the integer rank cast, which is undefined behaviour.
  if (count_ == 0 || std::isnan(q)) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;

  // Rank of the target sample (1-based, ceil: the standard inverted-CDF
  // definition), then linear interpolation across the containing bucket.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts_[b];
    if (cumulative < rank) continue;
    // Bucket b holds the target rank. Its value range, clamped to observed
    // extremes so estimates never leave [min, max].
    const double lo = std::max(min_, b == 0 ? min_ : bounds_[b - 1]);
    const double hi = std::min(max_, b < bounds_.size() ? bounds_[b] : max_);
    const double within =
        (static_cast<double>(rank - before)) / static_cast<double>(counts_[b]);
    return lo + (hi - lo) * within;
  }
  return max_;  // unreachable: cumulative == count_ >= rank by the end
}

std::vector<double> log_bounds(double lo, double hi, double step) {
  if (!(lo > 0.0) || !(step > 1.0)) {
    throw std::invalid_argument{"log_bounds: need lo > 0 and step > 1"};
  }
  std::vector<double> out;
  for (double b = lo; b <= hi; b *= step) out.push_back(b);
  return out;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.type = Type::kCounter;
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(std::string{name}, std::move(e)).first;
  }
  RTMAC_REQUIRE(it->second.type == Type::kCounter, "metric re-registered as a different type");
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.type = Type::kGauge;
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(std::string{name}, std::move(e)).first;
  }
  RTMAC_REQUIRE(it->second.type == Type::kGauge, "metric re-registered as a different type");
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.type = Type::kHistogram;
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = entries_.emplace(std::string{name}, std::move(e)).first;
  }
  RTMAC_REQUIRE(it->second.type == Type::kHistogram, "metric re-registered as a different type");
  return *it->second.histogram;
}

QuantileSketch& MetricsRegistry::sketch(std::string_view name, const SketchOptions& opts) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    // Mix the instrument name into the coin seed: distinct sketches get
    // independent streams, while the result stays a pure function of
    // (options, name) — deterministic across runs and thread counts.
    std::uint64_t name_hash = 1469598103934665603ULL;  // FNV-1a
    for (const char c : name) {
      name_hash ^= static_cast<unsigned char>(c);
      name_hash *= 1099511628211ULL;
    }
    SketchOptions seeded = opts;
    seeded.seed = mix64(opts.seed, name_hash);
    Entry e;
    e.type = Type::kSketch;
    e.sketch = std::make_unique<QuantileSketch>(seeded);
    it = entries_.emplace(std::string{name}, std::move(e)).first;
  }
  RTMAC_REQUIRE(it->second.type == Type::kSketch, "metric re-registered as a different type");
  return *it->second.sketch;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  const MetricsRegistry* const one[] = {&other};
  merge_from(one);
}

void MetricsRegistry::merge_from(std::span<const MetricsRegistry* const> sources) {
  // Counters, gauges and histograms fold source by source. Each sketch's
  // inputs are collected first and folded in one batch, so the target
  // reserves their union once: O(total retained), not one re-copy of the
  // growing union per source.
  std::map<std::string_view, std::vector<const QuantileSketch*>> sketches;
  for (const MetricsRegistry* other : sources) {
    for (const auto& [name, entry] : other->entries_) {
      switch (entry.type) {
        case Type::kCounter:
          counter(name).inc(entry.counter->value());
          break;
        case Type::kGauge:
          gauge(name).set(entry.gauge->value());
          break;
        case Type::kHistogram:
          histogram(name, entry.histogram->bounds()).merge(*entry.histogram);
          break;
        case Type::kSketch:
          sketches[name].push_back(entry.sketch.get());
          break;
      }
    }
  }
  for (const auto& [name, inputs] : sketches) {
    sketch(name, inputs.front()->options()).merge(inputs);
  }
}

namespace {

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(xs[i]);
  }
  return out + "]";
}

std::string json_array(const std::vector<std::uint64_t>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(xs[i]);
  }
  return out + "]";
}

}  // namespace

void MetricsRegistry::write_jsonl(std::ostream& out, std::string_view context) const {
  JsonObject line;  // one buffer, reused for every line
  for (const auto& [name, entry] : entries_) {
    line.clear();
    line.field("name", name);
    switch (entry.type) {
      case Type::kCounter:
        line.field("type", "counter").field("value", entry.counter->value());
        break;
      case Type::kGauge:
        line.field("type", "gauge").field("value", entry.gauge->value());
        break;
      case Type::kHistogram: {
        const Histogram& h = *entry.histogram;
        line.field("type", "histogram")
            .field("count", h.count())
            .field("sum", h.sum())
            .field("min", h.min())
            .field("max", h.max())
            .field("p50", h.quantile(0.50))
            .field("p90", h.quantile(0.90))
            .field("p99", h.quantile(0.99))
            .raw("bounds", json_array(h.bounds()))
            .raw("counts", json_array(h.bucket_counts()));
        break;
      }
      case Type::kSketch: {
        const QuantileSketch& s = *entry.sketch;
        line.field("type", "sketch")
            .field("count", s.count())
            .field("sum", s.sum())
            .field("min", s.min())
            .field("max", s.max())
            .field("p50", s.quantile(0.50))
            .field("p90", s.quantile(0.90))
            .field("p99", s.quantile(0.99))
            .field("k", static_cast<std::uint64_t>(s.options().k))
            .field("retained", static_cast<std::uint64_t>(s.retained()))
            .field("exact", static_cast<std::int64_t>(s.exact() ? 1 : 0));
        break;
      }
    }
    // The caller's context fields go last, before the closing brace.
    line.raw_fields(context).write_line(out);
  }
}

void MetricsRegistry::stream_to(StreamSink* sink, std::uint64_t every, std::string context) {
  if (every == 0) throw std::invalid_argument{"stream_to: cadence must be >= 1"};
  stream_sink_ = sink;
  stream_every_ = every;
  stream_ticks_ = 0;
  stream_context_ = std::move(context);
}

void MetricsRegistry::stream_tick(std::uint64_t k, std::int64_t t_ns) {
  if (stream_sink_ == nullptr) return;
  if (++stream_ticks_ % stream_every_ != 0) return;
  std::string context;
  if (!stream_context_.empty()) {
    context = stream_context_;
    context += ',';
  }
  context += "\"k\":";
  context += json_number(k);
  context += ",\"t_ns\":";
  context += json_number(t_ns);
  write_jsonl(stream_sink_->stream(), context);
  stream_sink_->flush();
}

std::string link_metric(std::string_view base, std::uint32_t link) {
  std::string out{base};
  out += ".link";
  out += std::to_string(link);
  return out;
}

std::string node_metric(std::string_view base, std::uint32_t node) {
  std::string out{base};
  out += ".node";
  out += std::to_string(node);
  return out;
}

}  // namespace rtmac::obs
