#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <new>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/stream.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

// ---- registry storage --------------------------------------------------------

template <typename T>
MetricsRegistry::Pool<T>::~Pool() {
  for (std::size_t c = chunks_.size(); c-- > 0;) {
    const Chunk& chunk = chunks_[c];
    const std::size_t n = c + 1 == chunks_.size() ? used_ : chunk.capacity;
    for (std::size_t i = n; i-- > 0;) chunk.items[i].~T();
    std::allocator<T>{}.deallocate(chunk.items, chunk.capacity);
  }
}

template <typename T>
template <typename... Args>
T& MetricsRegistry::Pool<T>::emplace(Args&&... args) {
  if (chunks_.empty() || used_ == chunks_.back().capacity) {
    constexpr std::size_t kMax = std::max<std::size_t>(kChunkBytes / sizeof(T), 1);
    constexpr std::size_t kFirst = std::clamp<std::size_t>(1024 / sizeof(T), 1, 8);
    const std::size_t capacity =
        chunks_.empty() ? kFirst : std::min(2 * chunks_.back().capacity, kMax);
    chunks_.reserve(chunks_.size() + 1);  // so the push_back cannot throw
    chunks_.push_back({std::allocator<T>{}.allocate(capacity), capacity});
    used_ = 0;
  }
  T* slot = chunks_.back().items + used_;
  ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
  ++used_;
  return *slot;
}

MetricsRegistry::~MetricsRegistry() = default;

namespace {

/// FNV-1a over the name's bytes: the hash index's key, and the name mixed
/// into a sketch's coin seed.
std::uint64_t name_hash(std::string_view name) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Home slot of a tag in an index of `mask + 1` slots (Fibonacci hashing).
std::size_t home_slot(std::uint32_t tag, std::size_t mask) {
  return static_cast<std::size_t>((std::uint64_t{tag} * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
}

}  // namespace

void MetricsRegistry::grow_index() {
  std::vector<Slot> old(std::max<std::size_t>(16, 2 * index_.size()));
  old.swap(index_);
  const std::size_t mask = index_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.entry == 0) continue;
    std::size_t i = home_slot(slot.tag, mask);
    while (index_[i].entry != 0) i = (i + 1) & mask;
    index_[i] = slot;
  }
}

template <typename Make>
MetricsRegistry::Entry& MetricsRegistry::get_or_create(std::string_view name, Type type,
                                                       const Make& make) {
  if (2 * (entries_.size() + 1) > index_.size()) grow_index();
  const std::uint64_t hash = name_hash(name);
  const auto tag = static_cast<std::uint32_t>(hash ^ (hash >> 32));
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home_slot(tag, mask);
  for (; index_[i].entry != 0; i = (i + 1) & mask) {
    if (index_[i].tag != tag) continue;
    Entry& e = entries_[index_[i].entry - 1];
    if (name_of(e) != name) continue;
    RTMAC_REQUIRE(e.type == type, "metric re-registered as a different type");
    return e;
  }
  RTMAC_REQUIRE(entries_.size() < std::numeric_limits<std::uint32_t>::max() &&
                    names_.size() + name.size() <= std::numeric_limits<std::uint32_t>::max(),
                "metrics registry full");
  // The instrument first: a throwing constructor registers nothing.
  void* const instrument = make(hash);
  const auto entry = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back({static_cast<std::uint32_t>(names_.size()),
                      static_cast<std::uint32_t>(name.size()),
                      static_cast<std::uint32_t>(json_escaped_size(name)), type, instrument});
  names_ += name;
  order_.push_back(entry);
  index_[i] = {tag, entry + 1};
  return entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const Entry& e = get_or_create(name, Type::kCounter,
                                 [this](std::uint64_t) { return &counters_.emplace(); });
  return *static_cast<Counter*>(e.instrument);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const Entry& e =
      get_or_create(name, Type::kGauge, [this](std::uint64_t) { return &gauges_.emplace(); });
  return *static_cast<Gauge*>(e.instrument);
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds) {
  const Entry& e = get_or_create(name, Type::kHistogram, [&](std::uint64_t) {
    return &histograms_.emplace(std::move(bounds));
  });
  return *static_cast<Histogram*>(e.instrument);
}

QuantileSketch& MetricsRegistry::sketch(std::string_view name, const SketchOptions& opts) {
  const Entry& e = get_or_create(name, Type::kSketch, [&](std::uint64_t hash) {
    // Mix the instrument name into the coin seed: distinct sketches get
    // independent streams, while the result stays a pure function of
    // (options, name) — deterministic across runs and thread counts.
    SketchOptions seeded = opts;
    seeded.seed = mix64(opts.seed, hash);
    return &sketches_.emplace(seeded);
  });
  return *static_cast<QuantileSketch*>(e.instrument);
}

const std::vector<std::uint32_t>& MetricsRegistry::ordered() const {
  if (sorted_ == order_.size()) return order_;
  const auto by_name = [this](std::uint32_t a, std::uint32_t b) {
    return name_of(entries_[a]) < name_of(entries_[b]);
  };
  const auto middle = order_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(middle, order_.end(), by_name);
  std::inplace_merge(order_.begin(), middle, order_.end(), by_name);
  sorted_ = order_.size();
  return order_;
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
  std::vector<std::pair<QuantileSketch*, const QuantileSketch*>> sketch_inputs;
  for (const MetricsRegistry* other : sources) {
    for (const Entry& e : other->entries_) {
      const std::string_view name = other->name_of(e);
      switch (e.type) {
        case Type::kCounter:
          counter(name).inc(static_cast<const Counter*>(e.instrument)->value());
          break;
        case Type::kGauge:
          gauge(name).set(static_cast<const Gauge*>(e.instrument)->value());
          break;
        case Type::kHistogram: {
          const auto& input = *static_cast<const Histogram*>(e.instrument);
          histogram(name, input.bounds()).merge(input);
          break;
        }
        case Type::kSketch: {
          const auto& input = *static_cast<const QuantileSketch*>(e.instrument);
          sketch_inputs.emplace_back(&sketch(name, input.options()), &input);
          break;
        }
      }
    }
  }
  // Group by target; the stable sort keeps each target's inputs in source
  // order.
  std::stable_sort(sketch_inputs.begin(), sketch_inputs.end(),
                   [](const auto& a, const auto& b) { return std::less<>{}(a.first, b.first); });
  std::vector<const QuantileSketch*> batch;
  for (std::size_t i = 0; i < sketch_inputs.size();) {
    QuantileSketch* const target = sketch_inputs[i].first;
    batch.clear();
    for (; i < sketch_inputs.size() && sketch_inputs[i].first == target; ++i) {
      batch.push_back(sketch_inputs[i].second);
    }
    target->merge(batch);
  }
}

// ---- JSONL export ------------------------------------------------------------

namespace {

/// Line bounds one export buffer holds (a longer line gets a buffer of its
/// own): large enough that a snapshot takes few fork-joins, small enough
/// that the buffers stay a rounding error next to the registry.
constexpr std::size_t kBlockBytes = std::size_t{1} << 16;

/// Room for the fixed text of any line: keys, quotes, braces, the context
/// comma and the newline (107 bytes for the longest, a histogram).
constexpr std::size_t kLineText = 128;

template <typename T>
void write_array(JsonWriter& w, const std::vector<T>& xs) {
  w.text('[');
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) w.text(',');
    w.number(xs[i]);
  }
  w.text(']');
}

}  // namespace

std::size_t MetricsRegistry::line_bound(const Entry& e, std::string_view context) const {
  std::size_t numbers = 1;  // counter or gauge value
  if (e.type == Type::kHistogram) {
    const auto& h = *static_cast<const Histogram*>(e.instrument);
    numbers = 7 + h.bounds().size() + h.bucket_counts().size();
  } else if (e.type == Type::kSketch) {
    numbers = 10;
  }
  // + 1 per number: an array element's comma.
  return kLineText + e.quoted_size + context.size() + numbers * (kJsonNumberMaxChars + 1);
}

char* MetricsRegistry::write_line(char* out, const Entry& e, std::string_view context) const {
  JsonWriter w{out};
  w.text("{\"name\":");
  const std::string_view name = name_of(e);
  if (e.quoted_size == e.name_size) {
    w.text('"').text(name).text('"');  // checked at registration: nothing to escape
  } else {
    w.quoted(name);
  }
  switch (e.type) {
    case Type::kCounter:
      w.text(",\"type\":\"counter\",\"value\":")
          .number(static_cast<const Counter*>(e.instrument)->value());
      break;
    case Type::kGauge:
      w.text(",\"type\":\"gauge\",\"value\":")
          .number(static_cast<const Gauge*>(e.instrument)->value());
      break;
    case Type::kHistogram: {
      const auto& h = *static_cast<const Histogram*>(e.instrument);
      w.text(",\"type\":\"histogram\",\"count\":").number(h.count())
          .text(",\"sum\":").number(h.sum())
          .text(",\"min\":").number(h.min())
          .text(",\"max\":").number(h.max())
          .text(",\"p50\":").number(h.quantile(0.50))
          .text(",\"p90\":").number(h.quantile(0.90))
          .text(",\"p99\":").number(h.quantile(0.99))
          .text(",\"bounds\":");
      write_array(w, h.bounds());
      w.text(",\"counts\":");
      write_array(w, h.bucket_counts());
      break;
    }
    case Type::kSketch: {
      const auto& s = *static_cast<const QuantileSketch*>(e.instrument);
      w.text(",\"type\":\"sketch\",\"count\":").number(s.count())
          .text(",\"sum\":").number(s.sum())
          .text(",\"min\":").number(s.min())
          .text(",\"max\":").number(s.max())
          .text(",\"p50\":").number(s.quantile(0.50))
          .text(",\"p90\":").number(s.quantile(0.90))
          .text(",\"p99\":").number(s.quantile(0.99))
          .text(",\"k\":").number(std::uint64_t{s.options().k})
          .text(",\"retained\":").number(static_cast<std::uint64_t>(s.retained()))
          .text(",\"exact\":").text(s.exact() ? '1' : '0');
      break;
    }
  }
  // The caller's context fields go last, before the closing brace.
  if (!context.empty()) w.text(',').text(context);
  return w.text("}\n").end();
}

void MetricsRegistry::write_jsonl(std::ostream& out, std::string_view context,
                                  ThreadPool* pool) const {
  const std::vector<std::uint32_t>& order = ordered();
  const std::size_t lanes = pool != nullptr ? pool->size() + 1 : 1;
  if (blocks_.size() < lanes) blocks_.resize(lanes);
  std::size_t next = 0;
  while (next < order.size()) {
    // Cut up to `lanes` contiguous runs of the ordered view, each filling
    // one buffer, and size the buffers here, on the calling thread: the
    // threads that format them allocate nothing.
    std::size_t runs = 0;
    for (; runs < lanes && next < order.size(); ++runs) {
      Block& block = blocks_[runs];
      block.first = next;
      std::size_t bytes = line_bound(entries_[order[next++]], context);
      for (; next < order.size(); ++next) {
        const std::size_t line = line_bound(entries_[order[next]], context);
        if (bytes + line > kBlockBytes) break;
        bytes += line;
      }
      block.last = next;
      // A full block's worth, whatever this run needs: later exports cut
      // their runs differently (stamps grow digits), and must not regrow.
      if (block.capacity < bytes) {
        block.capacity = std::max(bytes, kBlockBytes);
        block.bytes = std::make_unique_for_overwrite<char[]>(block.capacity);
      }
    }
    // Each instrument lies in one run, so each sketch's in-place reads
    // happen on one thread.
    const auto format = [this, &order, context](std::size_t r) {
      Block& block = blocks_[r];
      char* end = block.bytes.get();
      for (std::size_t i = block.first; i < block.last; ++i) {
        end = write_line(end, entries_[order[i]], context);
      }
      block.size = static_cast<std::size_t>(end - block.bytes.get());
      RTMAC_ASSERT(block.size <= block.capacity, "JSONL line past its bound");
    };
    if (runs > 1) {
      pool->parallel_for(runs, format);
    } else {
      format(0);
    }
    for (std::size_t r = 0; r < runs; ++r) {
      out.write(blocks_[r].bytes.get(), static_cast<std::streamsize>(blocks_[r].size));
    }
  }
}

void MetricsRegistry::stream_to(StreamSink* sink, std::uint64_t every, std::string context) {
  if (every == 0) throw std::invalid_argument{"stream_to: cadence must be >= 1"};
  stream_sink_ = sink;
  stream_every_ = every;
  stream_ticks_ = 0;
  stream_context_ = std::move(context);
  if (!stream_context_.empty()) stream_context_ += ',';
  stream_context_ += "\"k\":";
  stream_prefix_ = stream_context_.size();
}

void MetricsRegistry::stream_tick(std::uint64_t k, std::int64_t t_ns, ThreadPool* pool) {
  if (stream_sink_ == nullptr) return;
  if (++stream_ticks_ % stream_every_ != 0) return;
  // The stamps replace the last snapshot's in the reused context buffer.
  char stamps[2 * kJsonNumberMaxChars + 8];
  const char* const end = JsonWriter{stamps}.number(k).text(",\"t_ns\":").number(t_ns).end();
  stream_context_.resize(stream_prefix_);
  stream_context_.append(stamps, static_cast<std::size_t>(end - stamps));
  write_jsonl(stream_sink_->stream(), stream_context_, pool);
  stream_sink_->flush();
}

namespace {

std::string_view append_id(std::string& name, std::string_view kind, std::uint32_t id) {
  char digits[10];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, id);
  name += kind;
  name.append(digits, end);
  return name;
}

}  // namespace

std::string_view link_metric(std::string& name, std::string_view base, std::uint32_t link) {
  name.assign(base);
  return append_id(name, ".link", link);
}

std::string_view node_metric(std::string& name, std::string_view base, std::uint32_t node) {
  name.assign(base);
  return append_id(name, ".node", node);
}

std::string link_metric(std::string_view base, std::uint32_t link) {
  std::string out;
  link_metric(out, base, link);
  return out;
}

std::string node_metric(std::string_view base, std::uint32_t node) {
  std::string out;
  node_metric(out, base, node);
  return out;
}

}  // namespace rtmac::obs
