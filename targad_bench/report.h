// What one workload run reports, the metric catalogue the harness prints,
// and the statistics and machine fingerprint that go with it.

#ifndef TARGAD_BENCH_HARNESS_REPORT_H_
#define TARGAD_BENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace targad {
namespace harness {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by untraced runs. Every workload reports every one of them;
/// the README says what each means on each workload.
const std::vector<MetricSpec>& EndToEndMetrics();

/// Reported by traced runs. A layer that a workload never reaches
/// reports 0, as does a tail percentile its sample cannot support.
const std::vector<MetricSpec>& PerLayerMetrics();

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed correctness checks, one line each.
  std::vector<std::string> problems;
  /// Measurements that are not to be trusted, one line each.
  std::vector<std::string> warnings;
  std::map<std::string, double> metrics;
  /// Context printed beside the metrics: sample counts, phase sizes.
  std::map<std::string, double> notes;

  bool correct() const { return failed == 0 && problems.empty(); }
  void Check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

double Median(std::vector<double> values);

/// Nearest-rank q-quantile of `values` (the fastest of fewer than 1/q).
/// Workloads that repeat one identical unit of work report its 0.1
/// quantile: the units differ only by interference from other tenants of
/// the machine, which only ever adds time.
double Quantile(std::vector<double> values, double q);

/// Nearest-rank q-quantile of `samples`, or 0 when fewer than 10 samples
/// lie above it: such a tail is an anecdote, not a percentile.
double SupportedQuantile(std::vector<uint64_t> samples, double q);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// nproc, CPU model, kernel backend and threads, build type, compiler.
std::vector<std::pair<std::string, std::string>> Fingerprint();

/// Shortest round-trip decimal form of `v` (JSON number).
std::string JsonNumber(double v);

}  // namespace harness
}  // namespace targad

#endif  // TARGAD_BENCH_HARNESS_REPORT_H_
