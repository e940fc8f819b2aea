#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace targad {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // from_chars parses in place and rounds exactly as strtod does, but its
  // syntax and range rules differ (no "+1" or hex; subnormals accepted). A
  // whole-view parse to a normal number or zero is the region where both
  // agree; everything else takes the strtod path, which defines the
  // accept set.
  double v = 0.0;
  const char* const last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, v);
  if (ec == std::errc() && end == last && (std::isnormal(v) || v == 0.0)) {
    *out = v;
    return true;
  }
  std::string buf(s);
  errno = 0;
  char* strtod_end = nullptr;
  v = std::strtod(buf.c_str(), &strtod_end);
  if (errno != 0 || strtod_end != buf.c_str() + buf.size() ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseInt(std::string_view s, long* out) {  // NOLINT(runtime/int)
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(buf.c_str(), &end, 10);  // NOLINT(runtime/int)
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace targad
