#include "core/scorer.h"

#include <utility>

namespace targad {
namespace core {

std::vector<Result<double>> RowScorer::ScoreRecords(
    const std::vector<Record>& records) const {
  // Rows with the wrong arity fail individually up front — the table
  // requires every row to carry the training feature columns.
  const std::vector<std::string>& columns = feature_columns();
  std::vector<Result<double>> results(records.size(), Result<double>(0.0));
  data::RawTable table;
  std::vector<size_t> scorable;
  for (size_t i = 0; i < records.size(); ++i) {
    std::vector<std::string> cells = SplitRecordCells(records[i]);
    if (cells.size() != columns.size()) {
      results[i] = RecordArityError(cells.size(), columns.size());
      continue;
    }
    scorable.push_back(i);
    table.rows.push_back(std::move(cells));
  }
  if (scorable.empty()) return results;
  table.column_names = columns;

  Result<std::vector<double>> scores = Score(table);
  if (scores.ok() && scores->size() == scorable.size()) {
    for (size_t r = 0; r < scorable.size(); ++r) {
      results[scorable[r]] = (*scores)[r];
    }
    return results;
  }
  if (scorable.size() == 1) {
    results[scorable[0]] =
        scores.ok() ? Status::Internal("batch scorer: score count mismatch")
                    : scores.status();
    return results;
  }
  // The vectorized call failed (e.g. one non-numeric cell poisons the whole
  // encoder transform). Re-score row by row so only the offending rows
  // fail; per-row results are bit-identical to the batched ones. Each row
  // moves out of the batch table in turn.
  data::RawTable row_table;
  row_table.column_names = std::move(table.column_names);
  row_table.rows.resize(1);
  for (size_t r = 0; r < scorable.size(); ++r) {
    row_table.rows[0] = std::move(table.rows[r]);
    Result<std::vector<double>> row_score = Score(row_table);
    if (!row_score.ok()) {
      results[scorable[r]] = row_score.status();
    } else if (row_score->size() != 1) {
      results[scorable[r]] =
          Status::Internal("batch scorer: score count mismatch");
    } else {
      results[scorable[r]] = (*row_score)[0];
    }
  }
  return results;
}

Status RecordArityError(size_t cells, size_t expected) {
  return Status::InvalidArgument("batch scorer: row has ", cells,
                                 " cells, model expects ", expected);
}

std::vector<std::string> SplitRecordCells(const RowScorer::Record& record) {
  data::CsvRecordReader reader(record.text);
  std::vector<std::string> cells;
  cells.reserve(reader.MaxFields());
  std::string scratch;
  for (int j = 0; !reader.done(); ++j) {
    const std::string_view field = reader.Next(&scratch);
    if (j != record.label_col) cells.emplace_back(field);
  }
  return cells;
}

template <typename T>
std::vector<Status> EncodeRecords(const data::OneHotEncoder& encoder,
                                  const std::vector<RowScorer::Record>& records,
                                  nn::MatrixT<T>* x) {
  *x = nn::MatrixT<T>(records.size(), encoder.output_dim());
  std::vector<Status> status(records.size());
  std::string scratch;
  for (size_t i = 0; i < records.size(); ++i) {
    const size_t cells =
        encoder.EncodeRecord(records[i].text, records[i].label_col,
                             x->RowPtr(i), &status[i], &scratch);
    if (cells != encoder.num_columns()) {
      status[i] = RecordArityError(cells, encoder.num_columns());
    }
  }
  return status;
}

template std::vector<Status> EncodeRecords<float>(
    const data::OneHotEncoder&, const std::vector<RowScorer::Record>&,
    nn::MatrixT<float>*);
template std::vector<Status> EncodeRecords<double>(
    const data::OneHotEncoder&, const std::vector<RowScorer::Record>&,
    nn::MatrixT<double>*);

}  // namespace core
}  // namespace targad
