#include "nn/matrix.h"

#include <cmath>

#include "common/logging.h"
#include "nn/kernels/kernels.h"

namespace targad {
namespace nn {

template <typename T>
MatrixT<T>::MatrixT(size_t rows, size_t cols, T fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

template <typename T>
MatrixT<T>::MatrixT(size_t rows, size_t cols, std::vector<T> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  TARGAD_CHECK(data_.size() == rows * cols)
      << "Matrix data size " << data_.size() << " != " << rows << "x" << cols;
}

template <typename T>
std::vector<T> MatrixT<T>::Row(size_t r) const {
  TARGAD_CHECK(r < rows_);
  return std::vector<T>(RowPtr(r), RowPtr(r) + cols_);
}

template <typename T>
void MatrixT<T>::SetRow(size_t r, const std::vector<T>& values) {
  TARGAD_CHECK(r < rows_ && values.size() == cols_);
  std::copy(values.begin(), values.end(), RowPtr(r));
}

template <typename T>
MatrixT<T> MatrixT<T>::SelectRows(const std::vector<size_t>& indices) const {
  MatrixT out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    TARGAD_CHECK(indices[i] < rows_) << "SelectRows index out of range";
    std::copy(RowPtr(indices[i]), RowPtr(indices[i]) + cols_, out.RowPtr(i));
  }
  return out;
}

template <typename T>
void MatrixT<T>::AppendRows(const MatrixT& other) {
  if (other.empty() && other.rows_ == 0) return;
  if (rows_ == 0 && cols_ == 0) cols_ = other.cols_;
  TARGAD_CHECK(cols_ == other.cols_) << "AppendRows column mismatch";
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
}

template <typename T>
MatrixT<T> MatrixT<T>::MatMul(const MatrixT& other) const {
  TARGAD_CHECK(cols_ == other.rows_)
      << "MatMul shape mismatch: " << rows_ << "x" << cols_ << " * "
      << other.rows_ << "x" << other.cols_;
  MatrixT out(rows_, other.cols_);
  kernels::Gemm(kernels::Trans::kNo, kernels::Trans::kNo, rows_, other.cols_,
                cols_, data_.data(), other.data_.data(), out.data_.data());
  return out;
}

template <typename T>
MatrixT<T> MatrixT<T>::TransposeMatMul(const MatrixT& other) const {
  TARGAD_CHECK(rows_ == other.rows_) << "TransposeMatMul shape mismatch";
  MatrixT out(cols_, other.cols_);
  kernels::Gemm(kernels::Trans::kYes, kernels::Trans::kNo, cols_, other.cols_,
                rows_, data_.data(), other.data_.data(), out.data_.data());
  return out;
}

template <typename T>
MatrixT<T> MatrixT<T>::MatMulTranspose(const MatrixT& other) const {
  TARGAD_CHECK(cols_ == other.cols_) << "MatMulTranspose shape mismatch";
  MatrixT out(rows_, other.rows_);
  kernels::Gemm(kernels::Trans::kNo, kernels::Trans::kYes, rows_, other.rows_,
                cols_, data_.data(), other.data_.data(), out.data_.data());
  return out;
}

template <typename T>
MatrixT<T> MatrixT<T>::Transpose() const {
  MatrixT out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    const T* row = RowPtr(i);
    for (size_t j = 0; j < cols_; ++j) out.At(j, i) = row[j];
  }
  return out;
}

template <typename T>
MatrixT<T>& MatrixT<T>::AddInPlace(const MatrixT& other) {
  TARGAD_CHECK(SameShape(other)) << "AddInPlace shape mismatch";
  // alpha = 1: y += 1 * x is IEEE-identical to y += x.
  kernels::Axpy(data_.size(), T(1), other.data_.data(), data_.data());
  return *this;
}

template <typename T>
MatrixT<T>& MatrixT<T>::SubInPlace(const MatrixT& other) {
  TARGAD_CHECK(SameShape(other)) << "SubInPlace shape mismatch";
  // alpha = -1: y += (-1) * x is IEEE-identical to y -= x.
  kernels::Axpy(data_.size(), T(-1), other.data_.data(), data_.data());
  return *this;
}

template <typename T>
MatrixT<T>& MatrixT<T>::MulInPlace(T s) {
  kernels::Scale(data_.size(), s, data_.data());
  return *this;
}

template <typename T>
MatrixT<T>& MatrixT<T>::HadamardInPlace(const MatrixT& other) {
  TARGAD_CHECK(SameShape(other)) << "HadamardInPlace shape mismatch";
  kernels::Hadamard(data_.size(), other.data_.data(), data_.data());
  return *this;
}

template <typename T>
MatrixT<T> MatrixT<T>::Add(const MatrixT& other) const {
  MatrixT out = *this;
  out.AddInPlace(other);
  return out;
}

template <typename T>
MatrixT<T> MatrixT<T>::Sub(const MatrixT& other) const {
  MatrixT out = *this;
  out.SubInPlace(other);
  return out;
}

template <typename T>
MatrixT<T> MatrixT<T>::Mul(T s) const {
  MatrixT out = *this;
  out.MulInPlace(s);
  return out;
}

template <typename T>
MatrixT<T>& MatrixT<T>::AddRowVectorInPlace(const std::vector<T>& bias) {
  TARGAD_CHECK(bias.size() == cols_) << "AddRowVectorInPlace size mismatch";
  kernels::AddRowVector(rows_, cols_, bias.data(), data_.data());
  return *this;
}

template <typename T>
MatrixT<T> MatrixT<T>::Map(const std::function<T(T)>& fn) const {
  MatrixT out = *this;
  out.MapInPlace(fn);
  return out;
}

template <typename T>
void MatrixT<T>::MapInPlace(const std::function<T(T)>& fn) {
  for (T& v : data_) v = fn(v);
}

template <typename T>
std::vector<T> MatrixT<T>::ColSums() const {
  std::vector<T> sums(cols_, T(0));
  kernels::ColReduceSum(rows_, cols_, data_.data(), sums.data());
  return sums;
}

template <typename T>
std::vector<T> MatrixT<T>::RowSums() const {
  std::vector<T> sums(rows_, T(0));
  kernels::RowReduce(kernels::RowReduceOp::kSum, rows_, cols_, data_.data(),
                     sums.data());
  return sums;
}

template <typename T>
std::vector<T> MatrixT<T>::RowSquaredNorms() const {
  std::vector<T> norms(rows_, T(0));
  kernels::RowReduce(kernels::RowReduceOp::kSquaredNorm, rows_, cols_,
                     data_.data(), norms.data());
  return norms;
}

template <typename T>
T MatrixT<T>::Sum() const {
  return kernels::ReduceSum(data_.size(), data_.data());
}

template <typename T>
T MatrixT<T>::SquaredNorm() const {
  T norm = T(0);
  kernels::RowReduce(kernels::RowReduceOp::kSquaredNorm, 1, data_.size(),
                     data_.data(), &norm);
  return norm;
}

template <typename T>
T MatrixT<T>::RowSquaredDistance(size_t r, const MatrixT& other,
                                 size_t s) const {
  TARGAD_CHECK(cols_ == other.cols_ && r < rows_ && s < other.rows_);
  return kernels::SquaredDistance(cols_, RowPtr(r), other.RowPtr(s));
}

template <typename T>
void MatrixT<T>::Fill(T v) {
  for (T& x : data_) x = v;
}

// double is the training dtype and gets every member. float is the serving
// dtype: the float32 path (the encoder, the frozen network, the scorer)
// only builds matrices, uses the inline accessors and hands buffers to the
// fused affine kernel, so only the two constructors are instantiated for
// it. Any other float matrix arithmetic then fails to link instead of
// quietly adding a path no test covers.
template class MatrixT<double>;
template MatrixT<float>::MatrixT(size_t, size_t, float);
template MatrixT<float>::MatrixT(size_t, size_t, std::vector<float>);

}  // namespace nn
}  // namespace targad
