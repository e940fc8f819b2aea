#include "serve/metrics.h"

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

}  // namespace

TARGAD_HOT_PATH void Pow2Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

uint64_t Pow2Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

uint64_t Pow2Histogram::PercentileUpperBound(double p) const {
  const auto counts = Buckets();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the percentile sample, 1-based; ceil(p * total) with p=0 -> 1.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
  if (rank < 1) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return i == 0 ? 1 : (uint64_t{1} << i);  // Exclusive upper bound.
    }
  }
  return uint64_t{1} << (kNumBuckets - 1);
}

std::array<uint64_t, Pow2Histogram::kNumBuckets> Pow2Histogram::Buckets() const {
  std::array<uint64_t, kNumBuckets> out{};
  for (size_t i = 0; i < kNumBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

TARGAD_HOT_PATH void ServeMetrics::RecordBatch(uint64_t rows) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  rows_scored_.fetch_add(rows, std::memory_order_relaxed);
  batch_sizes_.Record(rows);
}

void ServeMetrics::RecordModelRows(const std::string& model, uint64_t scored,
                                   uint64_t failed) {
  MutexLock lock(&model_mu_);
  ModelRowCounters& counters = model_rows_[model];
  counters.rows_scored += scored;
  counters.rows_failed += failed;
}

TARGAD_HOT_PATH void ServeMetrics::RecordCompleted(uint64_t latency_us) {
  requests_completed_.fetch_add(1, std::memory_order_relaxed);
  latencies_us_.Record(latency_us);
}

TARGAD_HOT_PATH void ServeMetrics::RecordFailed(uint64_t latency_us) {
  requests_failed_.fetch_add(1, std::memory_order_relaxed);
  latencies_us_.Record(latency_us);
}

void ServeMetrics::RecordRegistryLoad(uint64_t load_us) {
  registry_loads_.fetch_add(1, std::memory_order_relaxed);
  registry_load_us_.Record(load_us);
}

MetricsSnapshot ServeMetrics::Snapshot() const {
  MetricsSnapshot s;
  s.requests_submitted = requests_submitted_.load(std::memory_order_relaxed);
  s.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  s.requests_completed = requests_completed_.load(std::memory_order_relaxed);
  s.requests_failed = requests_failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rows_scored = rows_scored_.load(std::memory_order_relaxed);
  s.model_swaps = model_swaps_.load(std::memory_order_relaxed);
  s.mean_batch_size =
      s.batches == 0 ? 0.0
                     : static_cast<double>(s.rows_scored) /
                           static_cast<double>(s.batches);
  s.latency_p50_us = latencies_us_.PercentileUpperBound(0.50);
  s.latency_p95_us = latencies_us_.PercentileUpperBound(0.95);
  s.latency_p99_us = latencies_us_.PercentileUpperBound(0.99);
  s.registry_hits = registry_hits_.load(std::memory_order_relaxed);
  s.registry_misses = registry_misses_.load(std::memory_order_relaxed);
  s.registry_evictions = registry_evictions_.load(std::memory_order_relaxed);
  s.registry_refreshes = registry_refreshes_.load(std::memory_order_relaxed);
  s.registry_loads = registry_loads_.load(std::memory_order_relaxed);
  s.registry_load_p50_us = registry_load_us_.PercentileUpperBound(0.50);
  s.registry_load_p99_us = registry_load_us_.PercentileUpperBound(0.99);
  s.batch_size_buckets = batch_sizes_.Buckets();
  s.latency_buckets = latencies_us_.Buckets();
  s.registry_load_buckets = registry_load_us_.Buckets();
  {
    MutexLock lock(&model_mu_);
    s.per_model = model_rows_;
  }
  return s;
}

namespace {

// "bucket<upper_bound>:count" pairs for the non-empty buckets.
std::string DumpBuckets(
    const std::array<uint64_t, Pow2Histogram::kNumBuckets>& buckets) {
  std::string out;
  char cell[64];
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t upper = i == 0 ? 1 : (uint64_t{1} << i);
    std::snprintf(cell, sizeof(cell), "%s<%llu:%llu", out.empty() ? "" : " ",
                  static_cast<unsigned long long>(upper),
                  static_cast<unsigned long long>(buckets[i]));
    out += cell;
  }
  return out.empty() ? "(empty)" : out;
}

}  // namespace

std::string MetricsSnapshot::ToText() const {
  char line[256];
  std::string out = "serve metrics\n";
  std::snprintf(line, sizeof(line),
                "  requests: %llu submitted, %llu completed, %llu failed, "
                "%llu rejected\n",
                static_cast<unsigned long long>(requests_submitted),
                static_cast<unsigned long long>(requests_completed),
                static_cast<unsigned long long>(requests_failed),
                static_cast<unsigned long long>(requests_rejected));
  out += line;
  std::snprintf(line, sizeof(line),
                "  batches: %llu (%llu rows, mean batch %.2f)\n",
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(rows_scored), mean_batch_size);
  out += line;
  std::snprintf(line, sizeof(line), "  model swaps observed: %llu\n",
                static_cast<unsigned long long>(model_swaps));
  out += line;
  std::snprintf(line, sizeof(line),
                "  latency us (bucket upper bounds): p50<%llu p95<%llu "
                "p99<%llu\n",
                static_cast<unsigned long long>(latency_p50_us),
                static_cast<unsigned long long>(latency_p95_us),
                static_cast<unsigned long long>(latency_p99_us));
  out += line;
  out += "  batch-size histogram: " + DumpBuckets(batch_size_buckets) + "\n";
  out += "  latency histogram: " + DumpBuckets(latency_buckets) + "\n";
  if (registry_hits + registry_misses + registry_evictions + registry_loads >
      0) {
    std::snprintf(line, sizeof(line),
                  "  registry: %llu hits, %llu misses, %llu evictions, "
                  "%llu loads (load us p50<%llu p99<%llu)\n",
                  static_cast<unsigned long long>(registry_hits),
                  static_cast<unsigned long long>(registry_misses),
                  static_cast<unsigned long long>(registry_evictions),
                  static_cast<unsigned long long>(registry_loads),
                  static_cast<unsigned long long>(registry_load_p50_us),
                  static_cast<unsigned long long>(registry_load_p99_us));
    out += line;
    out += "  registry load histogram: " + DumpBuckets(registry_load_buckets) +
           "\n";
  }
  for (const auto& [model, counters] : per_model) {
    std::snprintf(line, sizeof(line), "  model %s: %llu scored, %llu failed\n",
                  model.c_str(),
                  static_cast<unsigned long long>(counters.rows_scored),
                  static_cast<unsigned long long>(counters.rows_failed));
    out += line;
  }
  return out;
}

}  // namespace serve
}  // namespace targad
