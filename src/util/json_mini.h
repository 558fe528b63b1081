#pragma once
// Minimal flat-JSON writer/scanner pair shared by the checkpoint format
// (run/report) and the sweep-service wire protocol (net/, run/service).
//
// This is deliberately not a JSON library: the scanner accepts exactly what
// the matched writers emit — one flat object per line, string values escaped
// by json_escape, no nested objects or arrays — so both the on-disk
// checkpoint records and the framed control messages round-trip without an
// external dependency. Anything else (torn tails, foreign data) must fail
// parsing, never be guessed at.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace bdg::json {

/// Escape a string for emission inside a flat JSON object. Field names and
/// enum names are identifier-like, but escape anyway so free-form verifier
/// details stay valid JSON.
inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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
  return out;
}

/// Inverse of escape() for the escapes it emits (scanned lines only ever
/// contain writer-produced strings).
inline std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    const char e = s[++i];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 < s.size()) {
          const std::string hex = s.substr(i + 1, 4);
          out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
          i += 4;
        }
        break;
      }
      default: out += e;
    }
  }
  return out;
}

/// Find `"key":` at top level of a flat object and return the raw value
/// token after it (string contents still escaped, numbers as text).
inline bool find_raw(const std::string& line, const char* key,
                     std::string& out) {
  std::string needle;  // built piecewise: GCC 12's -Wrestrict misfires on
  needle.reserve(std::char_traits<char>::length(key) + 3);  // "a"+b+"c"
  needle += '"';
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t i = at + needle.size();
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size()) return false;
  if (line[i] == '"') {
    // String: scan to the closing unescaped quote.
    std::size_t j = i + 1;
    while (j < line.size()) {
      if (line[j] == '\\') {
        j += 2;
        continue;
      }
      if (line[j] == '"') break;
      ++j;
    }
    if (j >= line.size()) return false;
    out = line.substr(i + 1, j - i - 1);
    return true;
  }
  std::size_t j = i;
  while (j < line.size() && line[j] != ',' && line[j] != '}') ++j;
  out = line.substr(i, j - i);
  return true;
}

inline bool find_string(const std::string& line, const char* key,
                        std::string& out) {
  std::string raw;
  if (!find_raw(line, key, raw)) return false;
  out = unescape(raw);
  return true;
}

/// Whole-token unsigned decimal: digits only — no sign, no whitespace, no
/// trailing junk — and within 64 bits; nullopt otherwise.
inline std::optional<std::uint64_t> parse_decimal(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

inline bool find_u64(const std::string& line, const char* key,
                     std::uint64_t& out) {
  std::string raw;
  if (!find_raw(line, key, raw)) return false;
  const std::optional<std::uint64_t> value = parse_decimal(raw);
  if (!value) return false;
  out = *value;
  return true;
}

/// find_u64 narrowed to 32 bits: an out-of-range value fails, never wraps.
inline bool find_u32(const std::string& line, const char* key,
                     std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!find_u64(line, key, v) || v > std::numeric_limits<std::uint32_t>::max())
    return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

inline bool find_bool(const std::string& line, const char* key, bool& out) {
  std::string raw;
  if (!find_raw(line, key, raw)) return false;
  if (raw == "true") {
    out = true;
    return true;
  }
  if (raw == "false") {
    out = false;
    return true;
  }
  return false;
}

/// The whole token must be one decimal floating-point number (no leading
/// '+', whitespace, hex or trailing junk).
inline bool find_double(const std::string& line, const char* key,
                        double& out) {
  std::string raw;
  if (!find_raw(line, key, raw)) return false;
  double value = 0.0;
  const char* end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  if (raw.empty() || ec != std::errc() || ptr != end) return false;
  out = value;
  return true;
}

}  // namespace bdg::json
