// Dense row-major matrix — the numeric workhorse for the NN library,
// k-means, and the detectors. Deliberately minimal: only the operations the
// library needs, each with a straightforward cache-friendly implementation.
//
// MatrixT<T> is templated over the element type so the inference path can
// run in float32 while training stays double; `Matrix` (= MatrixT<double>)
// is the alias the training code uses throughout. double instantiates every
// member; float instantiates only the two constructors, since the float32
// serving path does no matrix arithmetic of its own (see matrix.cc).

#ifndef TARGAD_NN_MATRIX_H_
#define TARGAD_NN_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/logging.h"

namespace targad {
namespace nn {

template <typename T>
class RowBlockT;

/// Dense row-major matrix. Rows are instances, columns are features, by
/// convention throughout the library.
template <typename T>
class MatrixT {
 public:
  using value_type = T;

  /// Empty 0x0 matrix.
  MatrixT() = default;

  /// rows x cols matrix filled with `fill`.
  MatrixT(size_t rows, size_t cols, T fill = T(0));

  /// Takes ownership of `data` (size must equal rows*cols).
  MatrixT(size_t rows, size_t cols, std::vector<T> data);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Element access is bounds-checked under TARGAD_DCHECK (debug and
  // sanitizer builds); release builds compile the checks out entirely.
  T& At(size_t r, size_t c) {
    TARGAD_DCHECK(r < rows_ && c < cols_)
        << "Matrix::At(" << r << ", " << c << ") out of bounds for "
        << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }
  T At(size_t r, size_t c) const {
    TARGAD_DCHECK(r < rows_ && c < cols_)
        << "Matrix::At(" << r << ", " << c << ") out of bounds for "
        << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }
  T& operator()(size_t r, size_t c) { return At(r, c); }
  T operator()(size_t r, size_t c) const { return At(r, c); }

  T* RowPtr(size_t r) {
    TARGAD_DCHECK(r < rows_ || (r == 0 && rows_ == 0))
        << "Matrix::RowPtr(" << r << ") out of bounds for " << rows_ << " rows";
    return data_.data() + r * cols_;
  }
  const T* RowPtr(size_t r) const {
    TARGAD_DCHECK(r < rows_ || (r == 0 && rows_ == 0))
        << "Matrix::RowPtr(" << r << ") out of bounds for " << rows_ << " rows";
    return data_.data() + r * cols_;
  }

  std::vector<T>& data() { return data_; }
  const std::vector<T>& data() const { return data_; }

  /// Copies row r into a vector.
  std::vector<T> Row(size_t r) const;

  /// Overwrites row r with `values` (size must equal cols()).
  void SetRow(size_t r, const std::vector<T>& values);

  /// A new matrix holding the rows at `indices`, in order.
  MatrixT SelectRows(const std::vector<size_t>& indices) const;

  /// Zero-copy const view of `count` contiguous rows starting at `begin`.
  /// The view borrows this matrix's storage: it is invalidated by any
  /// mutation that reallocates (AppendRows, assignment, destruction).
  RowBlockT<T> RowBlock(size_t begin, size_t count) const;

  /// Appends all rows of `other` (same cols; appending to empty is allowed).
  void AppendRows(const MatrixT& other);

  // ---- Arithmetic -------------------------------------------------------

  /// this * other (inner dimensions must agree).
  MatrixT MatMul(const MatrixT& other) const;

  /// this^T * other. Equivalent to Transpose().MatMul(other), fused.
  MatrixT TransposeMatMul(const MatrixT& other) const;

  /// this * other^T. Equivalent to MatMul(other.Transpose()), fused.
  MatrixT MatMulTranspose(const MatrixT& other) const;

  MatrixT Transpose() const;

  MatrixT& AddInPlace(const MatrixT& other);
  MatrixT& MulInPlace(T s);
  /// Hadamard (element-wise) product.
  MatrixT& HadamardInPlace(const MatrixT& other);

  MatrixT Add(const MatrixT& other) const;

  /// Applies fn element-wise in place.
  void MapInPlace(const std::function<T(T)>& fn);

  /// Squared Euclidean distance between row r of this and row s of other.
  T RowSquaredDistance(size_t r, const MatrixT& other, size_t s) const;

  bool SameShape(const MatrixT& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Debug-mode hook: aborts if any element is NaN or Inf. Compiled to a
  /// no-op unless TARGAD_DCHECK is enabled, so callers may place it on hot
  /// paths (forward passes, frozen inference) at zero release cost. `what`
  /// names the tensor in the failure message.
  void DebugCheckFinite(const char* what) const {
#if TARGAD_DCHECK_ENABLED
    for (size_t i = 0; i < data_.size(); ++i) {
      TARGAD_DCHECK(std::isfinite(static_cast<double>(data_[i])))
          << what << ": non-finite value " << static_cast<double>(data_[i])
          << " at flat index " << i << " (" << rows_ << "x" << cols_ << ")";
    }
#else
    (void)what;
#endif
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> data_;
};

/// Non-owning const view of a contiguous row range of a row-major matrix —
/// the zero-copy minibatch currency of the training path. Implicitly
/// constructible from a whole MatrixT, so every view-taking API (layer
/// forward passes, loss functions) also accepts a plain matrix; the
/// conversion is O(1) and copies nothing. A view never outlives its backing
/// matrix by contract; ToMatrix() materializes an owning copy when one is
/// genuinely needed (e.g. a layer's backward cache).
template <typename T>
class RowBlockT {
 public:
  using value_type = T;

  RowBlockT() = default;

  /// View of the whole matrix (implicit by design; see class comment).
  RowBlockT(const MatrixT<T>& m)  // NOLINT(runtime/explicit)
      : rows_(m.rows()), cols_(m.cols()), data_(m.data().data()) {}

  /// View of `rows` x `cols` row-major elements at `data`.
  RowBlockT(size_t rows, size_t cols, const T* data)
      : rows_(rows), cols_(cols), data_(data) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ * cols_ == 0; }

  const T* data() const { return data_; }
  const T* RowPtr(size_t r) const {
    TARGAD_DCHECK(r < rows_ || (r == 0 && rows_ == 0))
        << "RowBlock::RowPtr(" << r << ") out of bounds for " << rows_
        << " rows";
    return data_ + r * cols_;
  }
  T At(size_t r, size_t c) const {
    TARGAD_DCHECK(r < rows_ && c < cols_)
        << "RowBlock::At(" << r << ", " << c << ") out of bounds for "
        << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }

  bool SameShape(const RowBlockT& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// An owning copy of the viewed rows.
  MatrixT<T> ToMatrix() const {
    return MatrixT<T>(rows_, cols_, std::vector<T>(data_, data_ + size()));
  }

  /// Same debug-only finiteness sweep as MatrixT::DebugCheckFinite.
  void DebugCheckFinite(const char* what) const {
#if TARGAD_DCHECK_ENABLED
    for (size_t i = 0; i < size(); ++i) {
      TARGAD_DCHECK(std::isfinite(static_cast<double>(data_[i])))
          << what << ": non-finite value " << static_cast<double>(data_[i])
          << " at flat index " << i << " (" << rows_ << "x" << cols_ << ")";
    }
#else
    (void)what;
#endif
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  const T* data_ = nullptr;
};

template <typename T>
RowBlockT<T> MatrixT<T>::RowBlock(size_t begin, size_t count) const {
  TARGAD_DCHECK(begin + count <= rows_)
      << "Matrix::RowBlock(" << begin << ", " << count << ") out of bounds "
      << "for " << rows_ << " rows";
  return RowBlockT<T>(count, cols_, data_.data() + begin * cols_);
}

/// The training-path matrix type used throughout the library.
using Matrix = MatrixT<double>;
/// The narrow serving-path matrix type (see nn/frozen.h).
using MatrixF = MatrixT<float>;
/// Row-block views over the two matrix dtypes.
using RowBlock = RowBlockT<double>;
using RowBlockF = RowBlockT<float>;

/// Element-wise static_cast between matrix dtypes (e.g. double -> float when
/// freezing a trained network for float32 inference).
template <typename To, typename From>
MatrixT<To> CastMatrix(const MatrixT<From>& m) {
  std::vector<To> data(m.size());
  for (size_t i = 0; i < m.size(); ++i) {
    data[i] = static_cast<To>(m.data()[i]);
  }
  return MatrixT<To>(m.rows(), m.cols(), std::move(data));
}

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_MATRIX_H_
