#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

namespace {

// Powers of ten up to 1e22, the largest one a double holds exactly.
constexpr double kExactPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                  1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                                  1e18, 1e19, 1e20, 1e21, 1e22};
constexpr uint64_t kMaxExactInt = uint64_t{1} << 53;

// Clinger's fast path: the whole of `s` is [-]digits[.digits] whose digits
// form an integer significand w <= 2^53, with f <= 22 fraction digits.
// Then w and 10^f are both exact doubles, so the one division rounds the
// exact value w / 10^f correctly: the bits from_chars and strtod give.
// Checking w as it grows keeps it far from overflow, which also bounds the
// significant digits at 16 (leading zeros are free).
bool ParsePlainDecimal(std::string_view s, double* out) {
  const char* p = s.data();
  const char* const end = p + s.size();
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  const char* const begin = p;
  const char* dot = nullptr;
  uint64_t w = 0;
  for (; p != end; ++p) {
    const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (digit < 10) {
      w = w * 10 + digit;
      if (w > kMaxExactInt) return false;
    } else if (*p == '.' && dot == nullptr) {
      dot = p;
    } else {
      return false;
    }
  }
  const ptrdiff_t frac = dot == nullptr ? 0 : end - dot - 1;
  if (p == begin || dot == begin || (dot != nullptr && frac == 0) ||
      frac > 22) {
    return false;
  }
  const double v = static_cast<double>(w) / kExactPow10[frac];
  *out = negative ? -v : v;
  return true;
}

}  // namespace

bool ParseDouble(std::string_view s, double* out) {
  if (ParsePlainDecimal(s, out)) return true;
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
