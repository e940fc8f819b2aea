// The four workloads. Each builds its inputs and fixtures from the seed,
// times its set-up several times, measures for the requested seconds,
// checks every output, and fills a Report with both the end-to-end and
// the per-layer metrics (the per-layer replays run in traced runs only).

#ifndef TARGAD_BENCH_HARNESS_WORKLOADS_H_
#define TARGAD_BENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"
#include "trace.h"

namespace targad {
namespace harness {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Tiny fixtures and phases: checks the harness end to end in seconds.
  bool smoke = false;
  std::string out_dir = ".";
};

struct RunContext {
  const Options& options;
  Tracer* tracer;
  uint64_t root_span;
  /// Empty scratch directory of this workload (fixtures, model files).
  std::string dir;
};

/// Set-up repetitions per run; set-up time is their median.
inline int SetupRepeats(const Options& options) {
  return options.smoke ? 2 : 9;
}

/// Seconds each per-layer replay runs for.
inline double ReplaySeconds(const Options& options) {
  return options.smoke ? 0.02 : 0.25;
}

Report RunTcpNarrow(const RunContext& ctx);
Report RunFleetZipf(const RunContext& ctx);
Report RunBulkWide(const RunContext& ctx);
Report RunTrainUnsw(const RunContext& ctx);

}  // namespace harness
}  // namespace targad

#endif  // TARGAD_BENCH_HARNESS_WORKLOADS_H_
