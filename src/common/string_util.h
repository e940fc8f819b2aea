// Small string helpers shared across the library (CSV parsing, table
// printing in the bench harness).

#ifndef TARGAD_COMMON_STRING_UTIL_H_
#define TARGAD_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace targad {

/// Splits `s` on `delim`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins items with `sep`.
std::string Join(const std::vector<std::string>& items, std::string_view sep);

/// True if `s`, surrounding whitespace aside, parses fully (strtod syntax)
/// as a finite double that neither overflows nor underflows to a
/// subnormal or zero; stores it in *out. *out is untouched on failure.
/// Plain decimals ([-]digits[.digits] whose digits form an integer of at
/// most 2^53, with at most 22 after the point) take an exact fast path.
bool ParseDouble(std::string_view s, double* out);

/// True if `s` parses fully as a long; stores it in *out.
bool ParseInt(std::string_view s, long* out);  // NOLINT(runtime/int)

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double v, int precision = 3);

/// Lower-cases ASCII.
std::string ToLower(std::string_view s);

}  // namespace targad

#endif  // TARGAD_COMMON_STRING_UTIL_H_
