// Preprocessing, matching Section IV-A: one-hot encoding of categorical
// features followed by min-max normalization of every feature to [0, 1].
// Statistics are fit on training data and reused for validation/test.

#ifndef TARGAD_DATA_PREPROCESS_H_
#define TARGAD_DATA_PREPROCESS_H_

#include <functional>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/csv.h"
#include "nn/matrix.h"

namespace targad {
namespace data {

/// Min-max scaler: maps each column to [0, 1] using training-set min/max.
/// Columns that are constant in training map to 0. Transform clamps to
/// [0, 1] so unseen out-of-range values cannot escape the training range.
class MinMaxNormalizer {
 public:
  /// Learns per-column min and max. Requires at least one row.
  [[nodiscard]] Status Fit(const nn::Matrix& x);

  /// Applies the learned scaling. Column count must match Fit's.
  [[nodiscard]] Result<nn::Matrix> Transform(const nn::Matrix& x) const;

  /// Fit followed by Transform on the same data.
  [[nodiscard]] Result<nn::Matrix> FitTransform(const nn::Matrix& x);

  bool fitted() const { return !mins_.empty(); }
  const std::vector<double>& mins() const { return mins_; }
  const std::vector<double>& maxs() const { return maxs_; }

  /// Persists the fitted statistics as versioned text.
  [[nodiscard]] Status Save(std::ostream& out) const;
  /// Restores a normalizer written by Save.
  [[nodiscard]] static Result<MinMaxNormalizer> Load(std::istream& in);

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

/// One-hot encoder over a RawTable. Columns whose every training cell parses
/// as a number stay numeric (one output column); all other columns are
/// treated as categorical and expand to one output column per distinct
/// training value. Unseen categories at transform time encode as all-zeros.
class OneHotEncoder {
 public:
  [[nodiscard]] Status Fit(const RawTable& table);

  [[nodiscard]] Result<nn::Matrix> Transform(const RawTable& table) const;

  /// Dtype-generic Transform: encodes straight into a MatrixT<T> so the
  /// frozen float32 scoring path never materializes a double table.
  /// TransformT<double> is exactly Transform. Instantiated for float/double.
  template <typename T>
  [[nodiscard]] Result<nn::MatrixT<T>> TransformT(const RawTable& table) const;

  [[nodiscard]] Result<nn::Matrix> FitTransform(const RawTable& table);

  /// Encodes one CSV record straight into `row`, which holds output_dim()
  /// zeros: every field but the one at `label_col` (-1: none) is a cell, in
  /// column order, encoded as TransformT encodes it. Returns the record's
  /// cell count; only the first num_columns() cells are encoded, so the
  /// caller rejects any other count. The first non-numeric cell in a
  /// numeric column stops the encoding and sets *error to TransformT's
  /// message for that cell in a one-row table. `scratch` holds a quoted
  /// field while it is encoded.
  template <typename T>
  size_t EncodeRecord(std::string_view record, int label_col, T* row,
                      Status* error, std::string* scratch) const;

  bool fitted() const { return !columns_.empty(); }
  size_t output_dim() const { return output_dim_; }
  /// Input columns the encoder was fitted on.
  size_t num_columns() const { return columns_.size(); }

  /// Output feature names ("amount", "proto=tcp", "proto=udp", ...).
  std::vector<std::string> FeatureNames() const;

  /// Persists the fitted schema (column kinds + category tables).
  [[nodiscard]] Status Save(std::ostream& out) const;
  /// Restores an encoder written by Save.
  [[nodiscard]] static Result<OneHotEncoder> Load(std::istream& in);

 private:
  struct ColumnSpec {
    std::string name;
    bool is_categorical = false;
    /// Category -> one-hot slot, insertion ordered by first appearance.
    /// Transparent, so a string_view cell looks a category up uncopied.
    std::map<std::string, size_t, std::less<>> categories;
    std::vector<std::string> ordered_categories;

    /// Output columns this input column encodes into.
    size_t width() const {
      return is_categorical ? ordered_categories.size() : 1;
    }
  };

  /// Encodes one cell of `spec`'s column into `out`, the column's first
  /// output slot, which holds zeros: a numeric cell goes through
  /// ParseDouble then static_cast<T>; a categorical cell sets its
  /// category's slot to 1, and an unseen one leaves every slot zero. False
  /// for a non-numeric cell in a numeric column. TransformT and
  /// EncodeRecord both encode through it.
  template <typename T>
  static bool EncodeCell(const ColumnSpec& spec, std::string_view cell, T* out);

  /// TransformT's error for a non-numeric `cell` of `spec` in row `row`.
  static Status NonNumericCell(const ColumnSpec& spec, std::string_view cell,
                               size_t row);

  std::vector<ColumnSpec> columns_;
  size_t output_dim_ = 0;
};

/// Writes `s` as a length-prefixed "<len>:<bytes>" token: the string
/// encoding of the encoder's Save text and of a ".tgz1" meta blob.
void WriteStringToken(std::ostream& out, std::string_view s);

/// Reads one WriteStringToken token into *out. InvalidArgument on a
/// malformed or truncated token, or on a length over 1 MiB — checked before
/// anything is allocated, so a hostile length cannot exhaust memory.
[[nodiscard]] Status ReadStringToken(std::istream& in, std::string* out);

/// Drops exactly-duplicated columns (the paper reduces KDDCUP99 from its
/// redundant raw features to 32). Returns the kept column indices.
std::vector<size_t> DeduplicateColumns(const nn::Matrix& x, nn::Matrix* out);

}  // namespace data
}  // namespace targad

#endif  // TARGAD_DATA_PREPROCESS_H_
