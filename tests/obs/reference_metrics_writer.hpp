// A frozen copy of MetricsRegistry::write_jsonl as it stood before the line
// writer: a std::map walk in name order, each line built field by field in
// a JsonObject (escaping through snprintf, numbers through std::to_chars)
// and arrays rendered into temporary strings. The JSON pieces it used are
// frozen here too, so the oracle does not move when obs/json.cpp does.
// It is deliberately plain and obviously correct; the oracle test
// (metrics_test.cpp, LineWriterMatchesTheFrozenWriter) diffs every exported
// and streamed byte against it. Test-only: nothing in src/ includes it.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sketch.hpp"

namespace rtmac::obs::reference {

inline void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

template <typename T>
void append_number(std::string& out, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) {
      out += "null";
      return;
    }
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) {
    out += "null";
    return;
  }
  out.append(buf, end);
}

class JsonObject {
 public:
  JsonObject& field(std::string_view k, std::string_view v) {
    key(k);
    append_quoted(body_, v);
    return *this;
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  JsonObject& field(std::string_view k, T v) {
    key(k);
    append_number(body_, v);
    return *this;
  }
  JsonObject& raw(std::string_view k, std::string_view json_value) {
    key(k);
    body_ += json_value;
    return *this;
  }
  JsonObject& raw_fields(std::string_view json_fields) {
    if (json_fields.empty()) return *this;
    if (body_.size() > 1) body_ += ',';
    body_ += json_fields;
    return *this;
  }
  void write_line(std::ostream& out) const {
    out.write(body_.data(), static_cast<std::streamsize>(body_.size()));
    out.write("}\n", 2);
  }
  void clear() { body_.resize(1); }

 private:
  void key(std::string_view k) {
    if (body_.size() > 1) body_ += ',';
    append_quoted(body_, k);
    body_ += ':';
  }
  std::string body_ = "{";
};

template <typename T>
std::string json_array(const std::vector<T>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, xs[i]);
  }
  return out + "]";
}

using Instrument =
    std::variant<const Counter*, const Gauge*, const Histogram*, const QuantileSketch*>;

/// The instruments of one registry by name; the map's order is the export
/// order the frozen writer walks.
using Instruments = std::map<std::string, Instrument, std::less<>>;

inline void write_jsonl(std::ostream& out, const Instruments& instruments,
                        std::string_view context = {}) {
  JsonObject line;
  for (const auto& [name, instrument] : instruments) {
    line.clear();
    line.field("name", name);
    if (const auto* c = std::get_if<const Counter*>(&instrument)) {
      line.field("type", "counter").field("value", (*c)->value());
    } else if (const auto* g = std::get_if<const Gauge*>(&instrument)) {
      line.field("type", "gauge").field("value", (*g)->value());
    } else if (const auto* hp = std::get_if<const Histogram*>(&instrument)) {
      const Histogram& h = **hp;
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
    } else {
      const QuantileSketch& s = *std::get<const QuantileSketch*>(instrument);
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
    }
    line.raw_fields(context).write_line(out);
  }
}

}  // namespace rtmac::obs::reference
