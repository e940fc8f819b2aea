// Shared CSV data-record parsing for every serving front-end. The stdio
// stream driver (serve/stream.cc) and the TCP parse stage (net/server.cc)
// both accept rows of the form
//
//   [model=<name>,]cell,cell,...        (label column optional, dropped)
//
// and must agree byte-for-byte on how the optional leading routing cell is
// stripped. Both peel it with PeelRoute and hand the rest of the record to
// the BatchScorer, whose scoring worker splits it (RowScorer::ScoreRecords),
// so the two paths cannot drift.

#ifndef TARGAD_SERVE_ROW_PARSE_H_
#define TARGAD_SERVE_ROW_PARSE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/scorer.h"

namespace targad {
namespace serve {

/// One parsed data record: the feature cells (label column dropped) plus
/// the routing target carried by an optional leading "model=<name>" cell.
struct DataRecord {
  /// Model named by a leading "model=<name>" cell; empty when absent.
  std::string model;
  /// True when the record carried a routing cell.
  bool routed = false;
  /// Feature cells in input order, routing cell stripped, label dropped.
  std::vector<std::string> cells;
};

/// One data record with its optional leading routing cell peeled off.
struct RoutedRecord {
  /// Model named by a leading "model=<name>" cell; empty when absent.
  std::string model;
  /// True when the record carried a routing cell.
  bool routed = false;
  /// The fields after the routing cell, viewing the peeled line.
  core::RowScorer::Record record;
};

/// Peels the optional routing cell off one CSV record (no trailing
/// newline; quoted fields supported). `label_col` is the label column's
/// index in the HEADER (i.e. not counting the routing cell), or -1 when
/// the input carries no label column.
RoutedRecord PeelRoute(std::string_view line, int label_col);

/// PeelRoute, then the record split into its cells.
DataRecord SplitDataRecord(std::string_view line, int label_col);

/// Validates a CSV header against a scorer's training schema: the header
/// must carry exactly the scorer's feature columns, in order, with the
/// scorer's label column optionally present anywhere. Returns the label
/// column's index in the header, or -1 when absent.
[[nodiscard]] Result<int> MatchSchemaHeader(
    const std::vector<std::string>& header, const core::RowScorer& schema);

}  // namespace serve
}  // namespace targad

#endif  // TARGAD_SERVE_ROW_PARSE_H_
