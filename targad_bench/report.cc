#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/env.h"
#include "nn/kernels/kernels.h"

#ifndef TARGAD_BENCH_BUILD_TYPE
#define TARGAD_BENCH_BUILD_TYPE "unknown"
#endif

namespace targad {
namespace harness {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"latency_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"target_auroc", "ratio"},
      {"rss_peak_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"loadgen.lag_p99_us", "us"},
      {"loadgen.p99_us", "us"},
      {"loadgen.p999_us", "us"},
      {"loadgen.samples", "count"},
      {"net.decode_ns_per_row", "ns"},
      {"net.parse_p50_us", "us"},
      {"net.parse_p99_us", "us"},
      {"net.score_p50_us", "us"},
      {"net.score_p99_us", "us"},
      {"net.respond_p50_us", "us"},
      {"net.respond_p99_us", "us"},
      {"net.shed", "count"},
      {"serve.row_parse_ns_per_row", "ns"},
      {"serve.batch.rows_mean", "rows"},
      {"serve.batch.calls", "count"},
      {"serve.batch.latency_p50_us", "us"},
      {"serve.batch.rejected", "count"},
      {"serve.batch.swaps", "count"},
      {"serve.registry.get_us_p50", "us"},
      {"serve.registry.get_us_p99", "us"},
      {"serve.registry.hit_ratio", "ratio"},
      {"serve.registry.loads", "count"},
      {"serve.registry.evictions", "count"},
      {"serve.registry.load_p99_us", "us"},
      {"serve.registry.refresh_ms_p50", "ms"},
      {"core.score_us_per_row", "us"},
      {"core.score_busy_frac", "ratio"},
      {"data.featurize_ns_per_row", "ns"},
      {"nn.infer_ns_per_row", "ns"},
      {"nn.infer_flops_per_row", "flop"},
      {"nn.artifact_map_us", "us"},
      {"data.read_csv_s", "s"},
      {"data.preprocess_fit_s", "s"},
      {"cluster.kmeans_s", "s"},
      {"core.select_candidates_s", "s"},
      {"core.classifier_epoch_ms_p50", "ms"},
      {"core.classifier_s", "s"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double SupportedQuantile(std::vector<uint64_t> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return 0.0;
  // Nearest rank: the smallest sample with at least q of all samples at
  // or below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return 0.0;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return static_cast<double>(samples[rank - 1]);
}

double PeakRssMb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::vector<std::pair<std::string, std::string>> Fingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpu},
      {"kernel_backend", nn::kernels::BackendName()},
      {"kernel_threads", std::to_string(nn::kernels::Tiling().threads)},
      {"TARGAD_KERNEL_THREADS", GetEnvString("TARGAD_KERNEL_THREADS", "unset")},
      {"build_type", TARGAD_BENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
  };
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace harness
}  // namespace targad
