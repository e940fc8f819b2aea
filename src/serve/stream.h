// Stream scoring: pump a feature CSV through a BatchScorer and emit one
// score per input row, preserving input order. This is the glue between a
// byte stream (file, stdin, a future TCP front-end) and the micro-batching
// engine; the CLI `serve` subcommand is a thin wrapper around it.
//
// Rows are read one line at a time (the input is never buffered whole), so
// the driver starts scoring as soon as the header arrives and its memory
// footprint is bounded by the in-flight window. One consequence: quoted
// fields may not contain embedded newlines on the streaming path.
//
// Multi-model routing: a data row may carry an extra LEADING cell of the
// form "model=<name>"; that cell is stripped and the row is routed to the
// named registry model. Rows without the cell go to the default model.
//
// Errors: the first row whose score fails (an unknown model name fails
// with NotFound) ends the stream with that row's status. The output then
// holds the "s_tar" header and the scores of the rows before it, in order,
// and nothing after. A failed read ends the stream with IOError once the
// rows read before it are scored, unless should_stop asked for a drain.

#ifndef TARGAD_SERVE_STREAM_H_
#define TARGAD_SERVE_STREAM_H_

#include <cstddef>
#include <functional>
#include <istream>
#include <ostream>
#include <string>

#include "common/result.h"
#include "core/scorer.h"
#include "serve/batch_scorer.h"

namespace targad {
namespace serve {

/// Outcome of one streaming session.
struct StreamStats {
  size_t rows_in = 0;      ///< Data rows read from the input.
  size_t rows_scored = 0;  ///< Futures that resolved to a score.
  size_t rows_routed = 0;  ///< Rows that carried a model=<name> cell.
  /// True when should_stop ended the session early (graceful drain): input
  /// reading stopped, but every already-submitted row was still resolved
  /// and written before returning.
  bool stopped_early = false;
};

struct StreamOptions {
  /// Retry a ResourceExhausted rejection this many times, re-submitting
  /// after a short backoff (the stream driver is a cooperative client; a
  /// front-end under overload would instead propagate the rejection).
  int admission_retries = 100;
  /// Backoff between admission retries.
  int64_t retry_delay_us = 500;
  /// Graceful-drain hook, polled between input lines (and consulted after a
  /// signal-interrupted read). When it returns true the driver stops
  /// reading, resolves every in-flight row in order, and returns with
  /// stopped_early set — the same drain semantics as the TCP listener's
  /// SIGTERM path. Empty = never stop early.
  std::function<bool()> should_stop;
};

/// Reads a CSV (header + feature rows, label column optional — it is
/// dropped) from `in`, submits every row to `scorer`, and writes an "s_tar"
/// header and then one score per row to `out` in input order. `schema`
/// supplies the expected feature columns; it must be the same artifact the
/// scorer's default-model snapshots come from (rows routed to other models
/// must share the schema). Fails on malformed input, schema mismatch, or
/// the first row whose future resolves to an error (see file comment).
[[nodiscard]] Result<StreamStats> ScoreCsvStream(const core::RowScorer& schema,
                                   BatchScorer* scorer, std::istream& in,
                                   std::ostream& out,
                                   const StreamOptions& options = {});

}  // namespace serve
}  // namespace targad

#endif  // TARGAD_SERVE_STREAM_H_
