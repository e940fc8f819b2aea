#include "serve/row_parse.h"

#include <cstddef>
#include <utility>

#include "data/csv.h"

namespace targad {
namespace serve {

namespace {

/// Routing prefix of an optional leading cell: "model=<name>".
constexpr const char kModelPrefix[] = "model=";
constexpr size_t kModelPrefixLen = sizeof(kModelPrefix) - 1;

}  // namespace

RoutedRecord PeelRoute(std::string_view line, int label_col) {
  RoutedRecord peeled;
  peeled.record = {line, label_col};
  data::CsvRecordReader reader(line);
  std::string scratch;
  const std::string_view first = reader.Next(&scratch);
  if (!first.starts_with(kModelPrefix)) return peeled;
  peeled.model = first.substr(kModelPrefixLen);
  peeled.routed = true;
  // A routing cell with nothing after it leaves no fields, which CSV text
  // cannot spell: it becomes the empty record whose one field is the label.
  peeled.record = reader.done() ? core::RowScorer::Record{"", 0}
                                : core::RowScorer::Record{reader.rest(),
                                                          label_col};
  return peeled;
}

DataRecord SplitDataRecord(std::string_view line, int label_col) {
  RoutedRecord peeled = PeelRoute(line, label_col);
  return DataRecord{std::move(peeled.model), peeled.routed,
                    core::SplitRecordCells(peeled.record)};
}

Result<int> MatchSchemaHeader(const std::vector<std::string>& header,
                              const core::RowScorer& schema) {
  int label_col = -1;
  for (size_t j = 0; j < header.size(); ++j) {
    if (header[j] == schema.label_column()) label_col = static_cast<int>(j);
  }
  std::vector<std::string> names;
  names.reserve(header.size());
  for (size_t j = 0; j < header.size(); ++j) {
    if (static_cast<int>(j) != label_col) names.push_back(header[j]);
  }
  if (names != schema.feature_columns()) {
    return Status::InvalidArgument(
        "serve: input columns differ from the model's training schema");
  }
  return label_col;
}

}  // namespace serve
}  // namespace targad
