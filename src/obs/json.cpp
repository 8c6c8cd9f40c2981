#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <type_traits>

namespace rtmac::obs {

namespace {

void append_quoted(std::string& out, std::string_view s) {
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

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

std::string json_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string json_number(std::int64_t v) { return std::to_string(v); }
std::string json_number(std::uint64_t v) { return std::to_string(v); }

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

JsonObject& JsonObject::raw_fields(std::string_view json_fields) {
  if (json_fields.empty()) return *this;
  if (body_.size() > 1) body_ += ',';
  body_ += json_fields;
  return *this;
}

void JsonObject::write_line(std::ostream& out) const {
  out.write(body_.data(), static_cast<std::streamsize>(body_.size()));
  out.write("}\n", 2);
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
