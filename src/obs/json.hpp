// Minimal JSON building blocks for the observability exporters.
//
// The exporters emit machine-readable JSON/JSONL without pulling in a JSON
// library dependency: this header provides deterministic value formatting
// (shortest round-trip doubles via std::to_chars, so exports are
// byte-identical across runs and thread counts) plus a flat-object parser
// just rich enough for round-trip tests and CI well-formedness checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// Room one JsonWriter::number() call needs: the longest shortest-round-
/// trip double is 24 characters, a 64-bit integer 20.
inline constexpr std::size_t kJsonNumberMaxChars = 32;

/// Length of `s` once escaped per RFC 8259, quotes excluded; equal to
/// s.size() exactly when `s` needs no escaping.
[[nodiscard]] std::size_t json_escaped_size(std::string_view s);

/// Renders JSON text into a caller-sized byte buffer: no allocation and no
/// bounds checks, so the caller reserves the room first (text size,
/// json_escaped_size() + 2 per quoted string, kJsonNumberMaxChars per
/// number). Every JSON byte this library formats goes through it — the
/// registry's JSONL lines (exports, stream snapshots, flight-recorder
/// dumps) directly, JsonObject and json_quote/json_number via a string.
class JsonWriter {
 public:
  explicit JsonWriter(char* out) : cur_{out} {}

  /// Copies `s` verbatim (constant key fragments, pre-rendered JSON).
  JsonWriter& text(std::string_view s) {
    std::memcpy(cur_, s.data(), s.size());
    cur_ += s.size();
    return *this;
  }
  JsonWriter& text(char c) {
    *cur_++ = c;
    return *this;
  }
  /// Escapes `s` per RFC 8259 and wraps it in double quotes.
  JsonWriter& quoted(std::string_view s);
  /// Shortest round-trip rendering; non-finite doubles render as null.
  JsonWriter& number(double v);
  JsonWriter& number(std::int64_t v);
  JsonWriter& number(std::uint64_t v);

  /// One past the last byte written.
  [[nodiscard]] char* end() const { return cur_; }

 private:
  char* cur_;
};

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

  [[nodiscard]] std::string str() const { return body_ + "}"; }

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
