// In-memory span recorder for the harness's traced run.
//
// Spans are recorded by the harness around the calls it makes into each
// library layer (no span lives inside src/). Each span carries a name, an
// id, its parent's id, and start/end times; they stay in memory and are
// written as one JSON file when the run ends. A layer's self time is its
// span's duration minus the part of that interval its child spans cover.

#ifndef TARGAD_BENCH_HARNESS_TRACE_H_
#define TARGAD_BENCH_HARNESS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace targad {
namespace harness {

using Clock = std::chrono::steady_clock;

/// Aggregate of every recorded span sharing one name.
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0.0;  ///< Sum of span durations.
  double self_s = 0.0;   ///< Sum of durations minus child coverage.
};

class Tracer {
 public:
  /// A disabled tracer records nothing; every call site costs one branch.
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id. Ids start at 1; parent 0 marks a root span.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records one finished span. Thread-safe. `name` must be a string
  /// literal (it is stored as a pointer).
  void Record(const char* name, uint64_t id, uint64_t parent,
              Clock::time_point start, Clock::time_point end);

  /// Per-name count, total and self time over every recorded span.
  std::map<std::string, SpanTotals> Totals() const;

  size_t num_spans() const;

  /// Writes {"workload", "fingerprint", "totals", "spans"} as JSON.
  [[nodiscard]] Status WriteJson(
      const std::string& path, const std::string& workload,
      const std::vector<std::pair<std::string, std::string>>& fingerprint)
      const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// Opens a span on construction and records it on destruction. With a
/// disabled tracer it records nothing and id() is 0.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        id_(tracer->enabled() ? tracer->NewId() : 0),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer_->Record(name_, id_, parent_, start_, Clock::now());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* const tracer_;
  const char* const name_;
  const uint64_t parent_;
  const uint64_t id_;
  const Clock::time_point start_;
};

}  // namespace harness
}  // namespace targad

#endif  // TARGAD_BENCH_HARNESS_TRACE_H_
