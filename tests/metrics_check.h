// Reads rendered metrics (a STATS payload or an exit report) back by key,
// and checks them against the snapshot they were rendered from.

#ifndef TARGAD_TESTS_METRICS_CHECK_H_
#define TARGAD_TESTS_METRICS_CHECK_H_

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/metrics.h"

namespace targad {
namespace testing {

/// The value of every "key=value" token in `text`, by key, in order.
/// Titles, units and "model <name>:" prefixes carry no '=' and are skipped.
inline std::map<std::string, std::vector<std::string>> MetricValues(
    const std::string& text) {
  std::map<std::string, std::vector<std::string>> values;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      values[token.substr(0, eq)].push_back(token.substr(eq + 1));
    }
  }
  return values;
}

/// Bucket counts back from their "upper:count,..." (or "-") rendering.
inline serve::HistogramBuckets ParseBuckets(const std::string& text) {
  serve::HistogramBuckets buckets{};
  if (text == "-") return buckets;
  std::istringstream in(text);
  std::string cell;
  while (std::getline(in, cell, ',')) {
    const size_t colon = cell.find(':');
    const uint64_t upper = std::stoull(cell.substr(0, colon));
    size_t i = 0;  // Bucket 0's upper bound is 1, bucket i's is 2^i.
    while ((uint64_t{1} << i) < upper) ++i;
    buckets[i] = std::stoull(cell.substr(colon + 1));
  }
  return buckets;
}

/// A snapshot ForEach visitor: every row's key must occur exactly once in
/// `text`, with a value that parses back to the row's own, and every row
/// must hold a recorded (non-zero, non-empty) value, so a test that
/// records into each metric also proves no row rendered another's value.
class ExpectEveryRowOnce {
 public:
  explicit ExpectEveryRowOnce(const std::string& text)
      : text_(text), values_(MetricValues(text)) {}

  void operator()(const char* key, const char*, uint64_t value) {
    EXPECT_GT(value, 0u) << key << " was not recorded";
    if (const std::string* text = Find(key)) {
      EXPECT_EQ(std::stoull(*text), value) << key;
    }
  }
  void operator()(const char* key, const char*, double value) {
    EXPECT_GT(value, 0.0) << key << " was not recorded";
    if (const std::string* text = Find(key)) {
      EXPECT_NEAR(std::stod(*text), value, 0.005) << key;
    }
  }
  void operator()(const char* key, const char*,
                  const serve::HistogramBuckets& value) {
    EXPECT_NE(value, serve::HistogramBuckets{}) << key << " was not recorded";
    if (const std::string* text = Find(key)) {
      EXPECT_EQ(ParseBuckets(*text), value) << key;
    }
  }

  size_t rows() const { return rows_; }

 private:
  const std::string* Find(const char* key) {
    ++rows_;
    const auto it = values_.find(key);
    const size_t seen = it == values_.end() ? 0 : it->second.size();
    EXPECT_EQ(seen, 1u) << key << " in:\n" << text_;
    return seen == 1 ? &it->second.front() : nullptr;
  }

  const std::string text_;
  const std::map<std::string, std::vector<std::string>> values_;
  size_t rows_ = 0;
};

}  // namespace testing
}  // namespace targad

#endif  // TARGAD_TESTS_METRICS_CHECK_H_
