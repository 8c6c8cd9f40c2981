#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <type_traits>

namespace rtmac::obs {

std::size_t json_escaped_size(std::string_view s) {
  std::size_t size = s.size();
  for (const char c : s) {
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') continue;
    const bool short_escape = c == '"' || c == '\\' || c == '\n' || c == '\r' || c == '\t';
    size += short_escape ? 1 : 5;  // \" or \u00XX
  }
  return size;
}

JsonWriter& JsonWriter::quoted(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  *cur_++ = '"';
  for (const char c : s) {
    switch (c) {
      case '"': text("\\\""); break;
      case '\\': text("\\\\"); break;
      case '\n': text("\\n"); break;
      case '\r': text("\\r"); break;
      case '\t': text("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          text("\\u00");
          *cur_++ = kHex[(c >> 4) & 0xf];
          *cur_++ = kHex[c & 0xf];
        } else {
          *cur_++ = c;
        }
    }
  }
  *cur_++ = '"';
  return *this;
}

namespace {

template <typename T>
char* write_number(char* out, T v) {
  constexpr std::string_view kNull = "null";
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::copy(kNull.begin(), kNull.end(), out);
  }
  const auto [end, ec] = std::to_chars(out, out + kJsonNumberMaxChars, v);
  if (ec != std::errc{}) return std::copy(kNull.begin(), kNull.end(), out);
  return end;
}

/// Appends what `render` writes into a JsonWriter, given at most `room`
/// bytes of it, to `out`.
template <typename Render>
void append_rendered(std::string& out, std::size_t room, const Render& render) {
  const std::size_t old = out.size();
  out.resize(old + room);
  JsonWriter w{out.data() + old};
  render(w);
  out.resize(static_cast<std::size_t>(w.end() - out.data()));
}

void append_quoted(std::string& out, std::string_view s) {
  append_rendered(out, json_escaped_size(s) + 2, [s](JsonWriter& w) { w.quoted(s); });
}

template <typename T>
void append_number(std::string& out, T v) {
  append_rendered(out, kJsonNumberMaxChars, [v](JsonWriter& w) { w.number(v); });
}

}  // namespace

JsonWriter& JsonWriter::number(double v) {
  cur_ = write_number(cur_, v);
  return *this;
}

JsonWriter& JsonWriter::number(std::int64_t v) {
  cur_ = write_number(cur_, v);
  return *this;
}

JsonWriter& JsonWriter::number(std::uint64_t v) {
  cur_ = write_number(cur_, v);
  return *this;
}

std::string json_quote(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

std::string json_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string json_number(std::int64_t v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string json_number(std::uint64_t v) {
  std::string out;
  append_number(out, v);
  return out;
}

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ',';
  append_quoted(body_, k);
  body_ += ':';
}

JsonObject& JsonObject::field(std::string_view k, std::string_view v) {
  key(k);
  append_quoted(body_, v);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, double v) {
  key(k);
  append_number(body_, v);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::int64_t v) {
  key(k);
  append_number(body_, v);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::uint64_t v) {
  key(k);
  append_number(body_, v);
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json_value) {
  key(k);
  body_ += json_value;
  return *this;
}

namespace {

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
}

/// Span of one JSON value starting at `i` (strings, numbers, literals, and
/// bracketed spans with bracket counting; nested strings handled).
bool scan_value(std::string_view s, std::size_t& i, std::string& out) {
  const std::size_t start = i;
  if (i >= s.size()) return false;
  if (s[i] == '"') {
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
  } else if (s[i] == '[' || s[i] == '{') {
    int depth = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        ++i;
        while (i < s.size() && s[i] != '"') {
          if (s[i] == '\\') ++i;
          ++i;
        }
        if (i >= s.size()) return false;
      } else if (c == '[' || c == '{') {
        ++depth;
      } else if (c == ']' || c == '}') {
        --depth;
        if (depth == 0) {
          ++i;
          break;
        }
      }
      ++i;
    }
    if (depth != 0) return false;
  } else {
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ' ' && s[i] != '\t') ++i;
  }
  if (i == start) return false;
  out.assign(s.substr(start, i - start));
  return true;
}

}  // namespace

std::optional<std::map<std::string, std::string>> parse_flat_json(std::string_view line) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') return std::nullopt;
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
    skip_ws(line, i);
    return i == line.size() ? std::optional{out} : std::nullopt;
  }
  while (true) {
    skip_ws(line, i);
    std::string key_text;
    if (!scan_value(line, i, key_text)) return std::nullopt;
    const auto key = json_unquote(key_text);
    if (!key) return std::nullopt;
    skip_ws(line, i);
    if (i >= line.size() || line[i] != ':') return std::nullopt;
    ++i;
    skip_ws(line, i);
    std::string value_text;
    if (!scan_value(line, i, value_text)) return std::nullopt;
    out[*key] = std::move(value_text);
    skip_ws(line, i);
    if (i >= line.size()) return std::nullopt;
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') {
      ++i;
      skip_ws(line, i);
      return i == line.size() ? std::optional{out} : std::nullopt;
    }
    return std::nullopt;
  }
}

std::optional<std::string> json_unquote(std::string_view s) {
  if (s.size() < 2 || s.front() != '"' || s.back() != '"') return std::nullopt;
  std::string out;
  out.reserve(s.size() - 2);
  for (std::size_t i = 1; i + 1 < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    if (i + 1 >= s.size()) return std::nullopt;  // escape runs into the closing quote
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= s.size()) return std::nullopt;
        unsigned code = 0;
        for (int d = 1; d <= 4; ++d) {
          const char c = s[i + static_cast<std::size_t>(d)];
          code <<= 4;
          if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
          else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
          else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
          else return std::nullopt;
        }
        if (code > 0x7f) return std::nullopt;  // ASCII escapes only (our own output)
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: return std::nullopt;
    }
  }
  return out;
}

}  // namespace rtmac::obs
