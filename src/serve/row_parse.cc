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

DataRecord SplitDataRecord(std::string_view line, int label_col) {
  data::CsvRecordReader reader(line);
  DataRecord record;
  record.cells.reserve(reader.MaxFields());
  // The first field decides routing, so it lands in `model` and moves to
  // the cells when it turns out to be data.
  reader.Next(&record.model);
  int j = 0;  // Index of the next data field in header terms.
  if (record.model.compare(0, kModelPrefixLen, kModelPrefix) == 0) {
    record.model.erase(0, kModelPrefixLen);
    record.routed = true;
  } else {
    if (label_col != 0) record.cells.push_back(std::move(record.model));
    record.model.clear();
    j = 1;
  }
  std::string label;
  for (; !reader.done(); ++j) {
    reader.Next(j == label_col ? &label : &record.cells.emplace_back());
  }
  return record;
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
