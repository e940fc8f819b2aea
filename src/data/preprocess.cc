#include "data/preprocess.h"

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "common/string_util.h"

namespace targad {
namespace data {

Status MinMaxNormalizer::Fit(const nn::Matrix& x) {
  if (x.rows() == 0) return Status::InvalidArgument("MinMaxNormalizer: empty fit data");
  mins_.assign(x.cols(), 0.0);
  maxs_.assign(x.cols(), 0.0);
  for (size_t j = 0; j < x.cols(); ++j) {
    double lo = x.At(0, j), hi = x.At(0, j);
    for (size_t i = 1; i < x.rows(); ++i) {
      lo = std::min(lo, x.At(i, j));
      hi = std::max(hi, x.At(i, j));
    }
    mins_[j] = lo;
    maxs_[j] = hi;
  }
  return Status::OK();
}

Result<nn::Matrix> MinMaxNormalizer::Transform(const nn::Matrix& x) const {
  if (!fitted()) return Status::FailedPrecondition("MinMaxNormalizer not fitted");
  if (x.cols() != mins_.size()) {
    return Status::InvalidArgument("MinMaxNormalizer: ", x.cols(),
                                   " columns, fitted on ", mins_.size());
  }
  nn::Matrix out(x.rows(), x.cols());
  for (size_t j = 0; j < x.cols(); ++j) {
    const double range = maxs_[j] - mins_[j];
    for (size_t i = 0; i < x.rows(); ++i) {
      double v = range > 0.0 ? (x.At(i, j) - mins_[j]) / range : 0.0;
      out.At(i, j) = std::clamp(v, 0.0, 1.0);
    }
  }
  return out;
}

Result<nn::Matrix> MinMaxNormalizer::FitTransform(const nn::Matrix& x) {
  TARGAD_RETURN_NOT_OK(Fit(x));
  return Transform(x);
}

Status OneHotEncoder::Fit(const RawTable& table) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("OneHotEncoder: empty fit table");
  }
  columns_.clear();
  output_dim_ = 0;
  for (size_t j = 0; j < table.num_cols(); ++j) {
    ColumnSpec spec;
    spec.name = table.column_names[j];
    spec.is_categorical = false;
    for (const auto& row : table.rows) {
      double v;
      if (!ParseDouble(row[j], &v)) {
        spec.is_categorical = true;
        break;
      }
    }
    if (spec.is_categorical) {
      for (const auto& row : table.rows) {
        const std::string& cell = row[j];
        if (spec.categories.find(cell) == spec.categories.end()) {
          spec.categories[cell] = spec.ordered_categories.size();
          spec.ordered_categories.push_back(cell);
        }
      }
    }
    output_dim_ += spec.width();
    columns_.push_back(std::move(spec));
  }
  return Status::OK();
}

Result<nn::Matrix> OneHotEncoder::Transform(const RawTable& table) const {
  return TransformT<double>(table);
}

template <typename T>
bool OneHotEncoder::EncodeCell(const ColumnSpec& spec, std::string_view cell,
                               T* out) {
  if (spec.is_categorical) {
    const auto it = spec.categories.find(cell);
    if (it != spec.categories.end()) out[it->second] = T(1);
    return true;
  }
  double v = 0.0;
  if (!ParseDouble(cell, &v)) return false;
  *out = static_cast<T>(v);
  return true;
}

Status OneHotEncoder::NonNumericCell(const ColumnSpec& spec,
                                     std::string_view cell, size_t row) {
  return Status::InvalidArgument("numeric column '", spec.name,
                                 "' has non-numeric cell '", cell, "' at row ",
                                 row);
}

template <typename T>
Result<nn::MatrixT<T>> OneHotEncoder::TransformT(const RawTable& table) const {
  if (!fitted()) return Status::FailedPrecondition("OneHotEncoder not fitted");
  if (table.num_cols() != columns_.size()) {
    return Status::InvalidArgument("OneHotEncoder: table has ", table.num_cols(),
                                   " columns, fitted on ", columns_.size());
  }
  nn::MatrixT<T> out(table.num_rows(), output_dim_);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    T* row = out.RowPtr(i);
    for (size_t j = 0; j < columns_.size(); ++j) {
      const ColumnSpec& spec = columns_[j];
      if (!EncodeCell(spec, table.rows[i][j], row)) {
        return NonNumericCell(spec, table.rows[i][j], i);
      }
      row += spec.width();
    }
  }
  return out;
}

template <typename T>
size_t OneHotEncoder::EncodeRecord(std::string_view record, int label_col,
                                   T* row, Status* error,
                                   std::string* scratch) const {
  CsvRecordReader reader(record);
  size_t cells = 0;
  for (int j = 0; !reader.done(); ++j) {
    const std::string_view cell = reader.Next(scratch);
    if (j == label_col) continue;
    if (cells < columns_.size() && error->ok()) {
      const ColumnSpec& spec = columns_[cells];
      if (!EncodeCell(spec, cell, row)) *error = NonNumericCell(spec, cell, 0);
      row += spec.width();
    }
    ++cells;
  }
  return cells;
}

template Result<nn::MatrixT<double>> OneHotEncoder::TransformT<double>(
    const RawTable& table) const;
template Result<nn::MatrixT<float>> OneHotEncoder::TransformT<float>(
    const RawTable& table) const;
template size_t OneHotEncoder::EncodeRecord<double>(std::string_view, int,
                                                    double*, Status*,
                                                    std::string*) const;
template size_t OneHotEncoder::EncodeRecord<float>(std::string_view, int,
                                                   float*, Status*,
                                                   std::string*) const;

Result<nn::Matrix> OneHotEncoder::FitTransform(const RawTable& table) {
  TARGAD_RETURN_NOT_OK(Fit(table));
  return Transform(table);
}

std::vector<std::string> OneHotEncoder::FeatureNames() const {
  std::vector<std::string> names;
  for (const ColumnSpec& spec : columns_) {
    if (spec.is_categorical) {
      for (const std::string& cat : spec.ordered_categories) {
        names.push_back(spec.name + "=" + cat);
      }
    } else {
      names.push_back(spec.name);
    }
  }
  return names;
}

Status MinMaxNormalizer::Save(std::ostream& out) const {
  if (!fitted()) return Status::FailedPrecondition("MinMaxNormalizer not fitted");
  out << "minmax-v1 " << mins_.size() << '\n' << std::setprecision(17);
  for (size_t j = 0; j < mins_.size(); ++j) {
    out << mins_[j] << ' ' << maxs_[j] << '\n';
  }
  if (!out) return Status::IOError("minmax write failed");
  return Status::OK();
}

Result<MinMaxNormalizer> MinMaxNormalizer::Load(std::istream& in) {
  std::string magic;
  size_t cols = 0;
  if (!(in >> magic >> cols) || magic != "minmax-v1") {
    return Status::InvalidArgument("not a minmax-v1 stream");
  }
  if (cols == 0) return Status::InvalidArgument("empty minmax stream");
  // Pairs are appended as they are read, so a column count larger than
  // the payload fails at the first missing pair, having allocated only
  // what it read.
  MinMaxNormalizer norm;
  for (size_t j = 0; j < cols; ++j) {
    double lo = 0.0, hi = 0.0;
    if (!(in >> lo >> hi)) {
      return Status::InvalidArgument("truncated minmax payload");
    }
    norm.mins_.push_back(lo);
    norm.maxs_.push_back(hi);
  }
  return norm;
}

void WriteStringToken(std::ostream& out, std::string_view s) {
  out << s.size() << ':' << s;
}

Status ReadStringToken(std::istream& in, std::string* out) {
  size_t len = 0;
  char colon = 0;
  if (!(in >> len) || !in.get(colon) || colon != ':') {
    return Status::InvalidArgument("bad token header");
  }
  if (len > (1u << 20)) return Status::InvalidArgument("token too long");
  out->resize(len);
  if (len > 0 && !in.read(out->data(), static_cast<long>(len))) {
    return Status::InvalidArgument("truncated token");
  }
  return Status::OK();
}

Status OneHotEncoder::Save(std::ostream& out) const {
  if (!fitted()) return Status::FailedPrecondition("OneHotEncoder not fitted");
  out << "onehot-v1 " << columns_.size() << '\n';
  for (const ColumnSpec& spec : columns_) {
    WriteStringToken(out, spec.name);
    out << ' ' << (spec.is_categorical ? 1 : 0) << ' '
        << spec.ordered_categories.size();
    for (const std::string& cat : spec.ordered_categories) {
      out << ' ';
      WriteStringToken(out, cat);
    }
    out << '\n';
  }
  if (!out) return Status::IOError("onehot write failed");
  return Status::OK();
}

Result<OneHotEncoder> OneHotEncoder::Load(std::istream& in) {
  std::string magic;
  size_t cols = 0;
  if (!(in >> magic >> cols) || magic != "onehot-v1") {
    return Status::InvalidArgument("not a onehot-v1 stream");
  }
  if (cols == 0 || cols > (1u << 20)) {
    return Status::InvalidArgument("bad onehot column count");
  }
  OneHotEncoder enc;
  enc.output_dim_ = 0;
  for (size_t j = 0; j < cols; ++j) {
    ColumnSpec spec;
    TARGAD_RETURN_NOT_OK(ReadStringToken(in, &spec.name));
    int categorical = 0;
    size_t n_categories = 0;
    if (!(in >> categorical >> n_categories)) {
      return Status::InvalidArgument("truncated onehot column header");
    }
    spec.is_categorical = categorical != 0;
    for (size_t c = 0; c < n_categories; ++c) {
      std::string cat;
      TARGAD_RETURN_NOT_OK(ReadStringToken(in, &cat));
      spec.categories[cat] = spec.ordered_categories.size();
      spec.ordered_categories.push_back(cat);
    }
    enc.output_dim_ += spec.width();
    enc.columns_.push_back(std::move(spec));
  }
  return enc;
}

std::vector<size_t> DeduplicateColumns(const nn::Matrix& x, nn::Matrix* out) {
  std::vector<size_t> kept;
  for (size_t j = 0; j < x.cols(); ++j) {
    bool duplicate = false;
    for (size_t k : kept) {
      bool same = true;
      for (size_t i = 0; i < x.rows(); ++i) {
        if (x.At(i, j) != x.At(i, k)) {
          same = false;
          break;
        }
      }
      if (same) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) kept.push_back(j);
  }
  if (out != nullptr) {
    *out = nn::Matrix(x.rows(), kept.size());
    for (size_t i = 0; i < x.rows(); ++i) {
      for (size_t jj = 0; jj < kept.size(); ++jj) {
        out->At(i, jj) = x.At(i, kept[jj]);
      }
    }
  }
  return kept;
}

}  // namespace data
}  // namespace targad
