// Shared CSV data-record parsing for every serving front-end. The stdio
// stream driver (serve/stream.cc) and the TCP parse stage (net/server.cc)
// both accept rows of the form
//
//   [model=<name>,]cell,cell,...        (label column optional, dropped)
//
// and must agree byte-for-byte on how a record is split, how the optional
// leading routing cell is stripped, and how the label column is dropped.
// This header is the single implementation, so the two paths cannot drift.

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

/// Splits one CSV record (no trailing newline; quoted fields supported) into
/// a DataRecord. `label_col` is the label column's index in the HEADER
/// (i.e. not counting the routing cell), or -1 when the input carries no
/// label column.
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
