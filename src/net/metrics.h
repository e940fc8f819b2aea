// NetMetrics: counters and per-stage latency histograms for the TCP
// serving front-end. Same design as serve::ServeMetrics — writers touch
// only relaxed atomics (the hot per-row path costs nanoseconds), readers
// take a consistent-enough snapshot — and the histograms reuse the same
// pow2-bucket implementation, so the two metric families report percentiles
// with identical semantics.
//
// Stage attribution follows the pipeline: parse (bytes read -> SCORE row
// parsed, on the poll thread), score (row parsed -> its completion
// callback: the rest of its read pass, the pass's one BatchScorer::Submit,
// the queue and its batch), respond (completion callback -> reply
// released to the session's write backlog, before send()).

#ifndef TARGAD_NET_METRICS_H_
#define TARGAD_NET_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/hot_path.h"
#include "serve/metrics.h"

namespace targad {
namespace net {

// The net metrics table, in rendering order (row kinds: serve/metrics.h).
// Connection rows keep STATS's keys, without `connections_`; every other
// key is its field name. rows_in counts SCORE requests; rows_out counts
// replies of every kind (PONG, STATS, OK bye and ERR included) released to
// a session's write backlog, before send(). DESIGN.md §8 "Metrics schema"
// lists every row.
#define TARGAD_NET_METRICS(C, H, P, M)                                \
  C(connections_accepted, "accepted", "connections")                 \
  C(connections_active, "active", "connections")                     \
  C(connections_rejected, "rejected", "connections")                 \
  C(connections_closed, "closed", "connections")                     \
  C(idle_closed, "idle_closed", "connections")                       \
  C(rows_in, "rows_in", "requests")                                  \
  C(rows_out, "rows_out", "replies")                                 \
  C(shed, "shed", "requests")                                        \
  C(protocol_errors, "protocol_errors", "lines")                     \
  C(oversized_lines, "oversized_lines", "connections")               \
  C(drains, "drains", "drains")                                      \
  P(parse_p50_us, "parse_p50_us", "us", parse_buckets, 0.50)         \
  P(parse_p99_us, "parse_p99_us", "us", parse_buckets, 0.99)         \
  H(parse_buckets, "parse_buckets", "us")                            \
  P(score_p50_us, "score_p50_us", "us", score_buckets, 0.50)         \
  P(score_p99_us, "score_p99_us", "us", score_buckets, 0.99)         \
  P(score_p999_us, "score_p999_us", "us", score_buckets, 0.999)      \
  H(score_buckets, "score_buckets", "us")                            \
  P(respond_p50_us, "respond_p50_us", "us", respond_buckets, 0.50)   \
  P(respond_p99_us, "respond_p99_us", "us", respond_buckets, 0.99)   \
  H(respond_buckets, "respond_buckets", "us")

/// Point-in-time copy of every net metric: one field per table row.
struct NetMetricsSnapshot {
  /// Calls visit(key, unit, value) once per table row, in table order.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    TARGAD_METRICS_VISITS(TARGAD_NET_METRICS)
  }

  TARGAD_METRICS_FIELDS(TARGAD_NET_METRICS)
};

/// Shared metrics sink for one TCP listener. All methods are thread-safe
/// and non-blocking (atomics only — no mutex anywhere, so recording is
/// legal while holding any lock rank).
class NetMetrics {
 public:
  void RecordAccepted() {
    Add(&counters_.connections_accepted);
    Add(&counters_.connections_active);
  }
  void RecordRejected() { Add(&counters_.connections_rejected); }
  void RecordClosed() {
    Add(&counters_.connections_closed);
    counters_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  }
  void RecordIdleClosed() { Add(&counters_.idle_closed); }
  void RecordRowIn() { Add(&counters_.rows_in); }
  void RecordRowsOut(uint64_t n) { Add(&counters_.rows_out, n); }
  void RecordShed() { Add(&counters_.shed); }
  void RecordProtocolError() { Add(&counters_.protocol_errors); }
  void RecordOversized() { Add(&counters_.oversized_lines); }
  void RecordDrain() { Add(&counters_.drains); }

  TARGAD_HOT_PATH void RecordParseUs(uint64_t us) { parse_buckets_.Record(us); }
  TARGAD_HOT_PATH void RecordScoreUs(uint64_t us) { score_buckets_.Record(us); }
  TARGAD_HOT_PATH void RecordRespondUs(uint64_t us) {
    respond_buckets_.Record(us);
  }

  NetMetricsSnapshot Snapshot() const;

  /// The exit report: "net metrics", then every table row as
  /// "  key=value unit".
  std::string Report() const;

 private:
  static void Add(std::atomic<uint64_t>* c, uint64_t n = 1) {
    c->fetch_add(n, std::memory_order_relaxed);
  }

  struct Counters {
    TARGAD_METRICS_SLOTS(TARGAD_NET_METRICS)
  };
  Counters counters_;
  serve::Pow2Histogram parse_buckets_;
  serve::Pow2Histogram score_buckets_;
  serve::Pow2Histogram respond_buckets_;
};

}  // namespace net
}  // namespace targad

#endif  // TARGAD_NET_METRICS_H_
