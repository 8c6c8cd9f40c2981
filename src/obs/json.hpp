// Minimal JSON building blocks for the observability exporters.
//
// The exporters emit machine-readable JSON/JSONL without pulling in a JSON
// library dependency: this header provides deterministic value formatting
// (shortest round-trip doubles via std::to_chars, so exports are
// byte-identical across runs and thread counts) plus a flat-object parser
// just rich enough for round-trip tests and CI well-formedness checks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace rtmac::obs {

/// Escapes `s` per RFC 8259 and wraps it in double quotes.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Shortest round-trip decimal rendering of `v`. Non-finite values (which
/// JSON cannot represent) render as null.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_number(std::int64_t v);
[[nodiscard]] std::string json_number(std::uint64_t v);

/// Incremental builder for one flat JSON object: field() calls accumulate
/// `"key":value` pairs; str() closes and returns `{...}`. Keys are emitted
/// in call order (deterministic output).
class JsonObject {
 public:
  JsonObject& field(std::string_view key, std::string_view string_value);
  JsonObject& field(std::string_view key, double v);
  JsonObject& field(std::string_view key, std::int64_t v);
  JsonObject& field(std::string_view key, std::uint64_t v);
  JsonObject& field(std::string_view key, int v) {
    return field(key, static_cast<std::int64_t>(v));
  }
  /// Splices a pre-rendered JSON value (array, nested object) verbatim.
  JsonObject& raw(std::string_view key, std::string_view json_value);
  /// Splices pre-rendered `"key":value` pairs (comma-separated, no braces)
  /// verbatim after the fields so far; empty is a no-op.
  JsonObject& raw_fields(std::string_view json_fields);

  [[nodiscard]] std::string str() const { return body_ + "}"; }
  /// Writes the closed object plus '\n' (one JSONL line) without copying.
  void write_line(std::ostream& out) const;
  /// Empties the object, keeping the buffer's capacity, so one builder can
  /// render many lines without reallocating.
  void clear() { body_.resize(1); }

 private:
  void key(std::string_view k);
  std::string body_ = "{";
};

/// Parses one flat JSON object (no nested objects; arrays are returned as
/// raw text spans) into key -> raw-value-text. Returns std::nullopt on
/// malformed input. Value text keeps quotes for strings; use
/// json_unquote() to decode them.
[[nodiscard]] std::optional<std::map<std::string, std::string>> parse_flat_json(
    std::string_view line);

/// Decodes a quoted JSON string produced by json_quote (basic escapes only).
/// Returns std::nullopt when `s` is not a quoted string.
[[nodiscard]] std::optional<std::string> json_unquote(std::string_view s);

}  // namespace rtmac::obs
