// RowScorer: the minimal scoring contract the serving stack depends on.
// The registry serves only FrozenScorer, whose ScoreRecords walks each
// record once; the batch scorer and stream driver see this interface, so
// they are agnostic to the dtype the frozen plan computes in, and a
// decorator or test fake can stand in for a scorer by overriding Score
// alone and inheriting the default ScoreRecords.

#ifndef TARGAD_CORE_SCORER_H_
#define TARGAD_CORE_SCORER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "nn/matrix.h"

namespace targad {
namespace core {

/// Immutable, thread-safe row scoring: implementations must allow Score and
/// ScoreRecords to be called concurrently on one shared instance.
class RowScorer {
 public:
  /// One data record for ScoreRecords: CSV text whose fields are a row's
  /// cells in feature_columns() order, plus a label field at index
  /// `label_col` (-1: none), which is dropped unread.
  struct Record {
    std::string_view text;
    int label_col = -1;
  };

  virtual ~RowScorer() = default;

  /// Scores a table carrying the training feature columns (the label
  /// column, if present, is dropped). Returns S^tar per row.
  [[nodiscard]] virtual Result<std::vector<double>> Score(
      const data::RawTable& table) const = 0;

  /// Scores a batch of records: one result per record, in order, and a
  /// record fails alone. A record whose cell count is not
  /// feature_columns().size() fails with RecordArityError, whatever its
  /// cells hold. The default splits every record, scores the rest as one
  /// Score table and, when that call fails, one row at a time, so a
  /// decorator that overrides only Score keeps working. An override must
  /// return exactly what the default would.
  [[nodiscard]] virtual std::vector<Result<double>> ScoreRecords(
      const std::vector<Record>& records) const;

  /// Feature columns a scoring table must carry, in training order.
  virtual const std::vector<std::string>& feature_columns() const = 0;

  /// Name of the (optional, ignored at scoring time) label column.
  virtual const std::string& label_column() const = 0;
};

/// The error of a record with `cells` cells for a model that expects
/// `expected`.
[[nodiscard]] Status RecordArityError(size_t cells, size_t expected);

/// The cells of `record`, label field dropped.
std::vector<std::string> SplitRecordCells(const RowScorer::Record& record);

/// Encodes each record into one row of *x (records x output_dim()) and
/// returns each row's status: RecordArityError when the record does not
/// carry encoder.num_columns() cells, else the first non-numeric cell's
/// error, else OK. A failed row holds a partial encoding. Instantiated for
/// float and double.
template <typename T>
[[nodiscard]] std::vector<Status> EncodeRecords(
    const data::OneHotEncoder& encoder,
    const std::vector<RowScorer::Record>& records, nn::MatrixT<T>* x);

}  // namespace core
}  // namespace targad

#endif  // TARGAD_CORE_SCORER_H_
