// Load generator for the TCP line protocol: open loop (arrivals on a
// Poisson schedule, independent of replies) or closed loop (a fixed number
// of requests in flight per connection), over N connections, one thread
// each.
//
// Open-loop latency is measured from each request's SCHEDULED send time,
// so a stall on either side shows up in the latency of every request
// scheduled during it instead of silently thinning the offered load
// (coordinated omission). How late the generator itself emitted a request
// is reported separately as lag. Throughput is completions over the real
// window from the first send to the last reply.
//
// Every reply is checked: "OK <score>" must equal the expected reply for
// its request line byte for byte; anything else counts as shed
// ("ERR overloaded"), error, or wrong.

#ifndef TARGAD_BENCH_HARNESS_LOADGEN_H_
#define TARGAD_BENCH_HARNESS_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace targad {
namespace harness {

struct LoadPlan {
  enum class Mode { kOpen, kClosed };

  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Request lines, each a complete "SCORE ...\n". Connections walk them
  /// in order from a seeded random offset.
  const std::vector<std::string>* lines = nullptr;
  /// The exact reply expected for lines[i], terminator stripped.
  const std::vector<std::string>* expected = nullptr;
  Mode mode = Mode::kOpen;
  size_t connections = 2;
  /// Open loop: requests per second across all connections.
  double rate = 1000.0;
  /// Closed loop: requests in flight per connection.
  size_t depth = 128;
  double duration_s = 1.0;
  uint64_t seed = 1;
  /// Keep the latency of every n-th OK reply only. A closed loop's sample
  /// count grows with throughput; thinning it keeps the harness's own
  /// memory, which rss_peak_mb includes, from following the throughput.
  size_t latency_every = 1;
  /// Traced runs: every 256th OK reply is recorded as a "row" span under
  /// `parent_span`.
  Tracer* tracer = nullptr;
  uint64_t parent_span = 0;
};

struct LoadResult {
  uint64_t sent = 0;
  uint64_t ok = 0;      ///< Replies equal to the expected "OK <score>".
  uint64_t shed = 0;    ///< "ERR overloaded".
  uint64_t errors = 0;  ///< Other ERR replies, malformed or unsolicited.
  uint64_t lost = 0;    ///< No reply before the post-run grace expired.
  uint64_t wrong = 0;   ///< "OK <score>" with a score other than expected.
  /// Per kept OK reply: open loop from the scheduled send, closed loop
  /// from the actual send.
  std::vector<uint64_t> latency_ns;
  /// Open loop only: actual emission minus scheduled time, per request.
  std::vector<uint64_t> lag_ns;
  /// First send to last reply, across all connections.
  double window_s = 0.0;
  /// OK replies per whole kSliceS slice of the send period, from its
  /// start; replies after the send period ends are not in any slice.
  std::vector<uint64_t> ok_per_slice;
  static constexpr double kSliceS = 0.25;

  uint64_t failed() const { return shed + errors + lost + wrong; }
  /// Completions per second over the whole window.
  double throughput() const {
    return window_s > 0.0 ? static_cast<double>(ok) / window_s : 0.0;
  }
  /// Completions per second in the fastest tenth of the slices, the first
  /// (warm-up) slice left out; throughput() when there are no such slices.
  double FastSliceThroughput() const;
};

/// Runs `plan` to completion (duration plus a bounded drain of replies
/// still in flight) and merges every connection's result.
LoadResult RunLoad(const LoadPlan& plan);

}  // namespace harness
}  // namespace targad

#endif  // TARGAD_BENCH_HARNESS_LOADGEN_H_
