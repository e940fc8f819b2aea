#include "serve/metrics.h"

#include <cmath>
#include <cstdio>

#include "common/hot_path.h"

namespace targad {
namespace serve {

namespace {

// Index of the bucket covering `value`: 0 for 0, otherwise 1 + floor(log2),
// clamped to the last bucket.
size_t BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  size_t idx = 1;
  while (value > 1 && idx + 1 < Pow2Histogram::kNumBuckets) {
    value >>= 1;
    ++idx;
  }
  return idx;
}

// Exclusive upper bound of bucket `i`.
uint64_t BucketUpperBound(size_t i) { return i == 0 ? 1 : uint64_t{1} << i; }

}  // namespace

TARGAD_HOT_PATH void Pow2Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

uint64_t Pow2Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

std::array<uint64_t, Pow2Histogram::kNumBuckets> Pow2Histogram::Buckets() const {
  std::array<uint64_t, kNumBuckets> out{};
  for (size_t i = 0; i < kNumBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t PercentileUpperBound(const HistogramBuckets& buckets, double p) {
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // The nearest rank, ceil(p * total), 1-based, with p = 0 -> 1. It is
  // taken in integers, with p rounded to millionths: in double, 0.29 * 100
  // is 28.999999999999996 and 0.28 * 25 is 7.000000000000001, so neither a
  // cast nor a ceil of the product gives the rank.
  constexpr uint64_t kScale = 1'000'000;
  const uint64_t millionths = static_cast<uint64_t>(std::llround(p * kScale));
  uint64_t rank = total / kScale * millionths +
                  (total % kScale * millionths + kScale - 1) / kScale;
  if (rank < 1) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(buckets.size() - 1);
}

void MetricsText::operator()(const char* key, const char* unit,
                             uint64_t value) {
  Append(key, unit, std::to_string(value));
}

void MetricsText::operator()(const char* key, const char* unit,
                             double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.2f", value);
  Append(key, unit, text);
}

void MetricsText::operator()(const char* key, const char* unit,
                             const HistogramBuckets& buckets) {
  std::string text;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (!text.empty()) text += ',';
    text += std::to_string(BucketUpperBound(i)) + ':' +
            std::to_string(buckets[i]);
  }
  Append(key, unit, text.empty() ? "-" : text);
}

void MetricsText::Append(const char* key, const char* unit,
                         const std::string& value) {
  if (layout_ == Layout::kReport) {
    text_ += "  ";
  } else if (!text_.empty()) {
    text_ += ' ';
  }
  text_ += key;
  text_ += '=';
  text_ += value;
  if (layout_ == Layout::kReport) {
    text_ += ' ';
    text_ += unit;
    text_ += '\n';
  }
}

TARGAD_HOT_PATH void ServeMetrics::RecordBatch(uint64_t rows) {
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
  counters_.rows_scored.fetch_add(rows, std::memory_order_relaxed);
  batch_size_buckets_.Record(rows);
}

void ServeMetrics::RecordModelRows(const std::string& model, uint64_t scored,
                                   uint64_t failed) {
  MutexLock lock(&model_mu_);
  ModelRowCounters& counters = model_rows_[model];
  counters.rows_scored += scored;
  counters.rows_failed += failed;
}

TARGAD_HOT_PATH void ServeMetrics::RecordCompleted(uint64_t latency_us) {
  counters_.requests_completed.fetch_add(1, std::memory_order_relaxed);
  latency_buckets_.Record(latency_us);
}

TARGAD_HOT_PATH void ServeMetrics::RecordFailed(uint64_t latency_us) {
  counters_.requests_failed.fetch_add(1, std::memory_order_relaxed);
  latency_buckets_.Record(latency_us);
}

void ServeMetrics::RecordRegistryLoad(uint64_t load_us) {
  counters_.registry_loads.fetch_add(1, std::memory_order_relaxed);
  registry_load_buckets_.Record(load_us);
}

MetricsSnapshot ServeMetrics::Snapshot() const {
  MetricsSnapshot s;
  TARGAD_METRICS_LOADS(TARGAD_SERVE_METRICS)
  {
    MutexLock lock(&model_mu_);
    s.per_model = model_rows_;
  }
  return s;
}

std::string ServeMetrics::Report() const {
  const MetricsSnapshot s = Snapshot();
  MetricsText report(MetricsText::Layout::kReport);
  s.ForEach(report);
  std::string out = "serve metrics\n" + report.str();
  for (const auto& [model, counters] : s.per_model) {
    MetricsText row(MetricsText::Layout::kLine);
    counters.ForEach(row);
    out += "  model " + model + ": " + row.str() + "\n";
  }
  return out;
}

}  // namespace serve
}  // namespace targad
