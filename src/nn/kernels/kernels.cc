#include "nn/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>

#include "common/env.h"
#include "common/hot_path.h"
#include "common/logging.h"
#include "nn/kernels/kernels_internal.h"

namespace targad {
namespace nn {
namespace kernels {

namespace {

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

struct DispatchState {
  Backend backend = Backend::kScalar;
  // Both null in scalar mode.
  const internal::FloatKernels* f32 = nullptr;
  const internal::DoubleKernels* f64 = nullptr;
};

bool Avx2Compiled() {
  return internal::Avx2FloatKernels() != nullptr &&
         internal::Avx2DoubleKernels() != nullptr;
}

// Points both dtype tables at `backend`'s kernels.
void UseBackend(Backend backend, DispatchState* state) {
  const bool avx2 = backend == Backend::kAvx2;
  state->backend = backend;
  state->f32 = avx2 ? internal::Avx2FloatKernels() : nullptr;
  state->f64 = avx2 ? internal::Avx2DoubleKernels() : nullptr;
}

DispatchState MakeState() {
  DispatchState state;
  const bool avx2_usable = Avx2Compiled() && CpuHasAvx2Fma();
  const std::string choice = GetEnvString("TARGAD_KERNEL_BACKEND", "auto");
  if (choice == "scalar") {
    state.backend = Backend::kScalar;
  } else if (choice == "avx2" || choice == "auto") {
    if (choice == "avx2" && !avx2_usable) {
      TARGAD_LOG(Warning)
          << "TARGAD_KERNEL_BACKEND=avx2 requested but AVX2/FMA is "
          << (Avx2Compiled() ? "not supported by this CPU"
                             : "not compiled into this build")
          << "; using the scalar backend";
    }
    state.backend = avx2_usable ? Backend::kAvx2 : Backend::kScalar;
  } else {
    TARGAD_LOG(Warning) << "unknown TARGAD_KERNEL_BACKEND '" << choice
                         << "' (scalar|avx2); using auto selection";
    state.backend = avx2_usable ? Backend::kAvx2 : Backend::kScalar;
  }
  UseBackend(state.backend, &state);
  return state;
}

// Selected once on first kernel use; the test hook below mutates it from a
// single thread before concurrent use (documented in kernels.h).
//
// TARGAD_HOT_PATH_TRUSTED: MakeState() builds strings, reads the
// environment, and may log — but only inside the function-local static's
// one-time initialization. Every later call is a guarded load of the
// already-built state, which is hot-path-pure; the lint's token-level
// scanner cannot see the static-init amortization, so the boundary is
// audited here instead.
TARGAD_HOT_PATH_TRUSTED DispatchState& State() {
  static DispatchState state = MakeState();
  return state;
}

// ---- Scalar baselines -----------------------------------------------------
// These reproduce the pre-kernel-layer MatrixT loops exactly: same loop
// order, same zero-skips, same expression shapes. They are the scalar
// backend, the fallback for every primitive without an AVX2 kernel, and
// the reference the AVX2 double kernels must match bit for bit.

// C(m x n) = A^T * B with A stored k x m and B stored k x n (k is the
// shared dimension). The historical form walked the shared dimension
// outermost; here each output row kk walks the shared dimension itself,
// which visits the exact same per-element contributions (a[i*m + kk] *
// b_row[j], i ascending, zero-skip on the A element) in the exact same
// order, and so gives the same bits. This is the dW = x^T g GEMM of
// Linear::Backward.
template <typename T>
void ScalarGemmTa(size_t m, size_t n, size_t k, const T* a, const T* b,
                  T* c) {
  for (size_t kk = 0; kk < m; ++kk) {
    T* c_row = c + kk * n;
    std::fill(c_row, c_row + n, T(0));
    for (size_t i = 0; i < k; ++i) {
      const T av = a[i * m + kk];
      if (av == T(0)) continue;
      const T* b_row = b + i * n;
      for (size_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

// C = A * B^T. B is stored n x k, C is m x n; a straight dot product per
// element, k ascending — MatrixT::MatMulTranspose.
template <typename T>
void ScalarGemmTb(size_t m, size_t n, size_t k, const T* a, const T* b,
                  T* c) {
  for (size_t i = 0; i < m; ++i) {
    const T* a_row = a + i * k;
    T* c_row = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const T* b_row = b + j * k;
      T acc = T(0);
      for (size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      c_row[j] = acc;
    }
  }
}

template <typename T>
void ApplyActivationRow(Act act, T leaky_slope, size_t n, T* row) {
  switch (act) {
    case Act::kNone:
      return;
    case Act::kReLU:
      for (size_t j = 0; j < n; ++j) {
        if (row[j] <= T(0)) row[j] = T(0);
      }
      return;
    case Act::kLeakyReLU:
      for (size_t j = 0; j < n; ++j) {
        if (row[j] < T(0)) row[j] *= leaky_slope;
      }
      return;
    case Act::kSigmoid:
      for (size_t j = 0; j < n; ++j) {
        // Numerically stable split (matches Sigmoid::Infer).
        const T v = row[j];
        if (v >= T(0)) {
          row[j] = T(1) / (T(1) + std::exp(-v));
        } else {
          const T e = std::exp(v);
          row[j] = e / (T(1) + e);
        }
      }
      return;
    case Act::kTanh:
      for (size_t j = 0; j < n; ++j) row[j] = std::tanh(row[j]);
      return;
  }
}

// Y = act(X * W + bias); also Gemm NN (bias null, kNone). i-k-j order
// streams both operands row-major; the zero-skip keeps ReLU-sparse
// activations cheap and matches the old MatrixT::MatMul bits.
template <typename T>
void ScalarAffine(size_t m, size_t n, size_t k, const T* x, const T* w,
                  const T* bias, Act act, T leaky_slope, T* y) {
  for (size_t i = 0; i < m; ++i) {
    const T* x_row = x + i * k;
    T* y_row = y + i * n;
    std::fill(y_row, y_row + n, T(0));
    for (size_t kk = 0; kk < k; ++kk) {
      const T xv = x_row[kk];
      if (xv == T(0)) continue;
      const T* w_row = w + kk * n;
      for (size_t j = 0; j < n; ++j) y_row[j] += xv * w_row[j];
    }
    if (bias != nullptr) {
      for (size_t j = 0; j < n; ++j) y_row[j] += bias[j];
    }
    ApplyActivationRow(act, leaky_slope, n, y_row);
  }
}

template <typename T>
T SquaredDistancePair(size_t d, const T* a, const T* b, const T* weights) {
  T acc = T(0);
  if (weights == nullptr) {
    for (size_t j = 0; j < d; ++j) {
      const T diff = a[j] - b[j];
      acc += diff * diff;
    }
  } else {
    for (size_t j = 0; j < d; ++j) {
      const T diff = a[j] - b[j];
      acc += diff * diff * weights[j];
    }
  }
  return acc;
}

template <typename T>
void ScalarSquaredDistances(size_t n, size_t d, size_t k, const T* x,
                            const T* centers, const T* weights, T* out) {
  for (size_t i = 0; i < n; ++i) {
    const T* x_row = x + i * d;
    T* out_row = out + i * k;
    for (size_t c = 0; c < k; ++c) {
      out_row[c] =
          SquaredDistancePair(d, x_row, centers + c * d,
                              weights == nullptr ? nullptr : weights + c * d);
    }
  }
}

}  // namespace

Backend ActiveBackend() { return State().backend; }

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "?";
}

const char* BackendName() { return BackendName(ActiveBackend()); }

const TilingConfig& Tiling() {
  static const TilingConfig config;
  return config;
}

bool SetBackendForTest(Backend backend) {
  if (backend == Backend::kAvx2 && !(Avx2Compiled() && CpuHasAvx2Fma())) {
    return false;
  }
  UseBackend(backend, &State());
  return true;
}

template <typename T>
TARGAD_HOT_PATH void Gemm(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
          const T* a, const T* b, T* c) {
  TARGAD_CHECK(trans_a == Trans::kNo || trans_b == Trans::kNo)
      << "Gemm does not transpose both operands";
  if (trans_a == Trans::kNo && trans_b == Trans::kNo) {
    FusedAffineActivation(m, n, k, a, b, static_cast<const T*>(nullptr),
                          Act::kNone, T(0), c);
    return;
  }
  if constexpr (std::is_same_v<T, double>) {
    if (const internal::DoubleKernels* d = State().f64; d != nullptr) {
      if (trans_a == Trans::kYes) {
        d->gemm_ta(m, n, k, a, b, c);
      } else {
        d->gemm_tb(m, n, k, a, b, c);
      }
      return;
    }
  }
  if (trans_a == Trans::kYes) {
    ScalarGemmTa(m, n, k, a, b, c);
  } else {
    ScalarGemmTb(m, n, k, a, b, c);
  }
}

template <typename T>
TARGAD_HOT_PATH void FusedAffineActivation(size_t m, size_t n, size_t k, const T* x,
                           const T* w, const T* bias, Act act, T leaky_slope,
                           T* y) {
  if constexpr (std::is_same_v<T, float>) {
    const internal::FloatKernels* f = State().f32;
    if (f != nullptr && f->affine != nullptr) {
      f->affine(m, n, k, x, w, bias, act, leaky_slope, y);
      return;
    }
  } else {
    if (const internal::DoubleKernels* d = State().f64; d != nullptr) {
      d->affine(m, n, k, x, w, bias, y);
      ApplyActivation(act, leaky_slope, m * n, y);
      return;
    }
  }
  ScalarAffine(m, n, k, x, w, bias, act, leaky_slope, y);
}

template <typename T>
TARGAD_HOT_PATH void Axpy(size_t n, T alpha, const T* x, T* y) {
  if constexpr (std::is_same_v<T, float>) {
    const internal::FloatKernels* f = State().f32;
    if (f != nullptr && f->axpy != nullptr) {
      f->axpy(n, alpha, x, y);
      return;
    }
  } else {
    if (const internal::DoubleKernels* d = State().f64; d != nullptr) {
      d->axpy(n, alpha, x, y);
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <typename T>
TARGAD_HOT_PATH void Scale(size_t n, T alpha, T* x) {
  if constexpr (std::is_same_v<T, float>) {
    const internal::FloatKernels* f = State().f32;
    if (f != nullptr && f->scale != nullptr) {
      f->scale(n, alpha, x);
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

template <typename T>
TARGAD_HOT_PATH void Hadamard(size_t n, const T* x, T* y) {
  for (size_t i = 0; i < n; ++i) y[i] *= x[i];
}

template <typename T>
TARGAD_HOT_PATH void AddRowVector(size_t m, size_t n, const T* v, T* a) {
  for (size_t i = 0; i < m; ++i) {
    T* row = a + i * n;
    for (size_t j = 0; j < n; ++j) row[j] += v[j];
  }
}

template <typename T>
TARGAD_HOT_PATH void ApplyActivation(Act act, T leaky_slope, size_t n, T* x) {
  if constexpr (std::is_same_v<T, double>) {
    if (const internal::DoubleKernels* d = State().f64;
        d != nullptr && act == Act::kReLU) {
      d->relu(n, x);
      return;
    }
  }
  ApplyActivationRow(act, leaky_slope, n, x);
}

template <typename T>
TARGAD_HOT_PATH void ActivationBackward(Act act, T leaky_slope, size_t n, const T* ref,
                        T* g) {
  switch (act) {
    case Act::kNone:
      return;
    case Act::kReLU:
      // The multiply-by-{0,1} form (not an assignment to zero) preserves
      // the legacy mask-Hadamard bits: 0.0 * g keeps g's sign on the zero.
      if constexpr (std::is_same_v<T, double>) {
        if (const internal::DoubleKernels* d = State().f64; d != nullptr) {
          d->relu_backward(n, ref, g);
          return;
        }
      }
      for (size_t i = 0; i < n; ++i) g[i] *= ref[i] > T(0) ? T(1) : T(0);
      return;
    case Act::kLeakyReLU:
      for (size_t i = 0; i < n; ++i) {
        if (ref[i] < T(0)) g[i] *= leaky_slope;
      }
      return;
    case Act::kSigmoid:
      for (size_t i = 0; i < n; ++i) {
        const T s = ref[i];
        g[i] *= s * (T(1) - s);
      }
      return;
    case Act::kTanh:
      for (size_t i = 0; i < n; ++i) {
        const T t = ref[i];
        g[i] *= T(1) - t * t;
      }
      return;
  }
}

template <typename T>
TARGAD_HOT_PATH void ScaledDiff(size_t n, T alpha, const T* a, const T* b, T* out) {
  for (size_t i = 0; i < n; ++i) out[i] = alpha * (a[i] - b[i]);
}

template <typename T>
TARGAD_HOT_PATH void AdamUpdate(size_t n, T lr, T beta1, T beta2, T eps, T bias_c1, T bias_c2,
                const T* g, T* m, T* v, T* p) {
  // Expression shapes match the historical optimizer loop exactly (see the
  // header comment on why this cannot be decomposed into Scale/Axpy).
  if constexpr (std::is_same_v<T, double>) {
    if (const internal::DoubleKernels* d = State().f64; d != nullptr) {
      d->adam(n, lr, beta1, beta2, eps, bias_c1, bias_c2, g, m, v, p);
      return;
    }
  }
  for (size_t j = 0; j < n; ++j) {
    m[j] = beta1 * m[j] + (T(1) - beta1) * g[j];
    v[j] = beta2 * v[j] + (T(1) - beta2) * g[j] * g[j];
    const T m_hat = m[j] / bias_c1;
    const T v_hat = v[j] / bias_c2;
    p[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

template <typename T>
TARGAD_HOT_PATH void SgdMomentumUpdate(size_t n, T lr, T momentum, const T* g, T* v, T* p) {
  for (size_t j = 0; j < n; ++j) {
    v[j] = momentum * v[j] + g[j];
    p[j] -= lr * v[j];
  }
}

template <typename T>
TARGAD_HOT_PATH void RowReduce(RowReduceOp op, size_t m, size_t n, const T* a, T* out) {
  for (size_t i = 0; i < m; ++i) {
    const T* row = a + i * n;
    T acc = T(0);
    switch (op) {
      case RowReduceOp::kSum:
        for (size_t j = 0; j < n; ++j) acc += row[j];
        break;
      case RowReduceOp::kSquaredNorm:
        for (size_t j = 0; j < n; ++j) acc += row[j] * row[j];
        break;
      case RowReduceOp::kMax:
        TARGAD_DCHECK(n > 0) << "RowReduce kMax over an empty row";
        acc = row[0];
        for (size_t j = 1; j < n; ++j) acc = std::max(acc, row[j]);
        break;
    }
    out[i] = acc;
  }
}

template <typename T>
TARGAD_HOT_PATH void ColReduceSum(size_t m, size_t n, const T* a, T* out) {
  if constexpr (std::is_same_v<T, double>) {
    if (const internal::DoubleKernels* d = State().f64; d != nullptr) {
      d->col_sum(m, n, a, out);
      return;
    }
  }
  std::fill(out, out + n, T(0));
  for (size_t i = 0; i < m; ++i) {
    const T* row = a + i * n;
    for (size_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

template <typename T>
TARGAD_HOT_PATH T ReduceSum(size_t n, const T* x) {
  T acc = T(0);
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

template <typename T>
TARGAD_HOT_PATH T Dot(size_t n, const T* a, const T* b) {
  if constexpr (std::is_same_v<T, float>) {
    const internal::FloatKernels* f = State().f32;
    if (f != nullptr && f->dot != nullptr) return f->dot(n, a, b);
  }
  T acc = T(0);
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

template <typename T>
TARGAD_HOT_PATH T SquaredDistance(size_t d, const T* a, const T* b,
                  const std::type_identity_t<T>* weights) {
  return SquaredDistancePair(d, a, b, weights);
}

template <typename T>
TARGAD_HOT_PATH void RowwiseSquaredDistances(size_t m, size_t n, const T* a, const T* b,
                             T* out) {
  for (size_t i = 0; i < m; ++i) {
    out[i] = SquaredDistancePair(n, a + i * n, b + i * n,
                                 static_cast<const T*>(nullptr));
  }
}

template <typename T>
TARGAD_HOT_PATH T MseLossGrad(size_t n, const T* pred, const T* target, T inv_n, T* grad) {
  // Flat-order total reduction; must stay serial (see header).
  T total = T(0);
  for (size_t i = 0; i < n; ++i) {
    const T d = pred[i] - target[i];
    total += d * d;
    grad[i] = T(2) * d * inv_n;
  }
  return total;
}

template <typename T>
TARGAD_HOT_PATH void SquaredDistances(size_t n, size_t d, size_t k, const T* x,
                      const T* centers, const std::type_identity_t<T>* weights,
                      T* out) {
  if constexpr (std::is_same_v<T, float>) {
    const internal::FloatKernels* f = State().f32;
    if (f != nullptr && f->sqdists != nullptr) {
      f->sqdists(n, d, k, x, centers, weights, out);
      return;
    }
  } else {
    if (const internal::DoubleKernels* dk = State().f64;
        dk != nullptr && weights == nullptr) {
      dk->sqdists(n, d, k, x, centers, out);
      return;
    }
  }
  ScalarSquaredDistances(n, d, k, x, centers, weights, out);
}

// The library computes in exactly these two dtypes (see nn/matrix.h).
#define TARGAD_INSTANTIATE_KERNELS(T)                                         \
  template void Gemm<T>(Trans, Trans, size_t, size_t, size_t, const T*,       \
                        const T*, T*);                                        \
  template void FusedAffineActivation<T>(size_t, size_t, size_t, const T*,    \
                                         const T*, const T*, Act, T, T*);     \
  template void Axpy<T>(size_t, T, const T*, T*);                             \
  template void Scale<T>(size_t, T, T*);                                      \
  template void Hadamard<T>(size_t, const T*, T*);                            \
  template void AddRowVector<T>(size_t, size_t, const T*, T*);                \
  template void ApplyActivation<T>(Act, T, size_t, T*);                       \
  template void ActivationBackward<T>(Act, T, size_t, const T*, T*);          \
  template void ScaledDiff<T>(size_t, T, const T*, const T*, T*);             \
  template void AdamUpdate<T>(size_t, T, T, T, T, T, T, const T*, T*, T*,     \
                              T*);                                            \
  template void SgdMomentumUpdate<T>(size_t, T, T, const T*, T*, T*);         \
  template void RowwiseSquaredDistances<T>(size_t, size_t, const T*,          \
                                           const T*, T*);                     \
  template T MseLossGrad<T>(size_t, const T*, const T*, T, T*);               \
  template void RowReduce<T>(RowReduceOp, size_t, size_t, const T*, T*);      \
  template void ColReduceSum<T>(size_t, size_t, const T*, T*);                \
  template T ReduceSum<T>(size_t, const T*);                                  \
  template T Dot<T>(size_t, const T*, const T*);                              \
  template T SquaredDistance<T>(size_t, const T*, const T*, const T*);        \
  template void SquaredDistances<T>(size_t, size_t, size_t, const T*,         \
                                    const T*, const T*, T*)

TARGAD_INSTANTIATE_KERNELS(float);
TARGAD_INSTANTIATE_KERNELS(double);

#undef TARGAD_INSTANTIATE_KERNELS

}  // namespace kernels
}  // namespace nn
}  // namespace targad
