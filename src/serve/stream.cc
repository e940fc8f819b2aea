#include "serve/stream.h"

#include <chrono>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "data/csv.h"
#include "serve/row_parse.h"

namespace targad {
namespace serve {

namespace {

/// One submitted row awaiting its score. The raw line stays so a rare
/// admission rejection can submit it again.
struct InFlight {
  std::string line;
  std::future<Result<double>> future;
};

}  // namespace

Result<StreamStats> ScoreCsvStream(const core::RowScorer& schema,
                                   BatchScorer* scorer, std::istream& in,
                                   std::ostream& out,
                                   const StreamOptions& options) {
  std::string line;
  // Header: first non-empty line. The header never carries a model= cell.
  std::vector<std::string> header;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (Trim(line).empty()) continue;
    header = data::SplitCsvRecord(line);
    break;
  }
  if (header.empty()) {
    return Status::InvalidArgument("serve stream: empty input");
  }

  // Drop the label column (if present) and check the remaining schema —
  // shared with the TCP parse stage via row_parse.h.
  int label_col = -1;
  TARGAD_ASSIGN_OR_RETURN(label_col, MatchSchemaHeader(header, schema));

  out << "s_tar\n";

  StreamStats stats;

  auto submit = [&](const RoutedRecord& peeled) {
    return scorer->Submit(
        peeled.routed ? peeled.model : BatchScorer::kDefaultModel,
        std::string(peeled.record.text), peeled.record.label_col);
  };

  // Resolves the oldest in-flight row: writes its score, retrying admission
  // rejections with a short backoff, or returns the row's error.
  auto resolve = [&](InFlight* entry) -> Status {
    for (int attempt = 0;; ++attempt) {
      Result<double> result = entry->future.get();
      if (result.ok()) {
        out << FormatDouble(*result, 6) << '\n';
        ++stats.rows_scored;
        return Status::OK();
      }
      if (result.status().code() == StatusCode::kResourceExhausted &&
          attempt < options.admission_retries) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(options.retry_delay_us));
        entry->future = submit(PeelRoute(entry->line, label_col));
        continue;
      }
      return result.status();
    }
  };

  // Windowed pipelining: keep at most one scorer queue's worth of rows in
  // flight, resolving the oldest before admitting the next; output order is
  // input order by construction. Rows are read as they arrive — scoring of
  // early rows overlaps with reading later ones.
  const size_t window_rows = scorer->options().max_queue_rows;
  std::deque<InFlight> window;
  while (!stats.stopped_early && std::getline(in, line)) {
    if (options.should_stop && options.should_stop()) {
      // Drain request raced the read: the line was consumed from the input,
      // so it is still scored — only subsequent reads stop.
      stats.stopped_early = true;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (Trim(line).empty()) continue;
    ++stats.rows_in;

    const RoutedRecord peeled = PeelRoute(line, label_col);
    if (peeled.routed) ++stats.rows_routed;

    if (window.size() >= window_rows) {
      TARGAD_RETURN_NOT_OK(resolve(&window.front()));
      window.pop_front();
    }
    window.push_back(InFlight{line, submit(peeled)});
  }
  // A signal can interrupt a blocked read (EINTR fails the stream); treat a
  // pending stop request as a drain, not an I/O error.
  if (!stats.stopped_early && options.should_stop && options.should_stop()) {
    stats.stopped_early = true;
  }
  while (!window.empty()) {
    TARGAD_RETURN_NOT_OK(resolve(&window.front()));
    window.pop_front();
  }
  if (!out) return Status::IOError("serve stream: write failed");
  return stats;
}

}  // namespace serve
}  // namespace targad
