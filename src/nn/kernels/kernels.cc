#include "nn/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/env.h"
#include "common/hot_path.h"
#include "common/logging.h"
#include "common/thread_pool.h"
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
  TilingConfig tiling;
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

  const int threads = GetEnvInt("TARGAD_KERNEL_THREADS", 0);
  state.tiling.threads =
      threads > 0 ? static_cast<size_t>(threads)
                  : std::max<size_t>(1, std::thread::hardware_concurrency());
  const int min_flops = GetEnvInt("TARGAD_KERNEL_MIN_TILE_FLOPS", 0);
  if (min_flops > 0) state.tiling.min_flops = static_cast<size_t>(min_flops);
  return state;
}

// Selected once on first kernel use; the test hooks below mutate it from a
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

// The tiling pool is created at the first call that actually tiles, sized
// from the tiling config in force at that moment. Intentionally leaked:
// destroying it from a static destructor would lock its mutex after the
// main thread's thread_local lock-rank bookkeeping is already gone, and the
// pool must outlive any late kernel call anyway. Still reachable from this
// static, so leak checkers stay quiet.
//
// TARGAD_HOT_PATH_TRUSTED: the `new` runs exactly once, inside the
// function-local static's initialization; steady-state calls return the
// cached reference without allocating. Audited first-use amortization the
// token-level purity scanner cannot prove.
TARGAD_HOT_PATH_TRUSTED ThreadPool& Pool() {
  static ThreadPool* pool = new ThreadPool(State().tiling.threads);
  return *pool;
}

// Runs fn(begin, end) over [0, rows), fanning contiguous row chunks across
// the pool when the call is large enough to pay for it. Each output row is
// touched by exactly one thread, so accumulation order per element is the
// same as the single-threaded run.
void ParallelRows(size_t rows, size_t flops,
                  const std::function<void(size_t, size_t)>& fn) {
  const TilingConfig& tiling = State().tiling;
  if (tiling.threads <= 1 || flops < tiling.min_flops ||
      rows < 2 * tiling.min_rows_per_tile) {
    fn(0, rows);
    return;
  }
  const size_t chunks =
      std::min(tiling.threads, rows / tiling.min_rows_per_tile);
  const size_t base = rows / chunks;
  const size_t extra = rows % chunks;
  // Chunk c covers [c*base + min(c, extra), ...): the first `extra` chunks
  // take one extra row. Closed-form bounds — no range buffer to allocate,
  // which keeps this dispatcher within the hot-path purity contract.
  const auto chunk_begin = [base, extra](size_t c) {
    return c * base + std::min(c, extra);
  };
  std::latch done(static_cast<std::ptrdiff_t>(chunks - 1));
  for (size_t c = 1; c < chunks; ++c) {
    const size_t b = chunk_begin(c);
    const size_t e = chunk_begin(c + 1);
    if (!Pool().TrySubmit([&fn, b, e, &done] {
          fn(b, e);
          done.count_down();
        })) {
      // Pool saturated or shutting down: run the chunk inline.
      fn(b, e);
      done.count_down();
    }
  }
  fn(0, chunk_begin(1));
  done.wait();
}

// ---- Scalar baselines -----------------------------------------------------
// These reproduce the pre-kernel-layer MatrixT loops exactly: same loop
// order, same zero-skips, same expression shapes. They are the scalar
// backend, the fallback for every primitive without an AVX2 kernel, and
// the reference the AVX2 double kernels must match bit for bit.

// C(m x n) = A^T * B with A stored k x m and B stored k x n (k is the
// shared dimension), rows [r0, r1) of C. The historical full-matrix form
// walked the shared dimension outermost; here each output row kk walks the
// shared dimension itself, which visits the exact same per-element
// contributions (a[i*m + kk] * b_row[j], i ascending, zero-skip on the A
// element) in the exact same order — so tiling output rows across threads
// leaves every element's accumulation order, and therefore its bits,
// unchanged. This is the dW = x^T g GEMM of Linear::Backward.
template <typename T>
void GemmTaRange(size_t r0, size_t r1, size_t n, size_t k, size_t m,
                 const T* a, const T* b, T* c) {
  for (size_t kk = r0; kk < r1; ++kk) {
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
void GemmTbRange(size_t r0, size_t r1, size_t n, size_t k, const T* a,
                 const T* b, T* c) {
  for (size_t i = r0; i < r1; ++i) {
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

// C = A^T * B^T (no in-tree call site; kept for API completeness).
template <typename T>
void GemmTtFull(size_t m, size_t n, size_t k, const T* a, const T* b, T* c) {
  for (size_t i = 0; i < m; ++i) {
    T* c_row = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const T* b_row = b + j * k;
      T acc = T(0);
      for (size_t kk = 0; kk < k; ++kk) acc += a[kk * m + i] * b_row[kk];
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

// Y = act(X * W + bias), rows [r0, r1); also Gemm NN (bias null, kNone).
// i-k-j order streams both operands row-major; the zero-skip keeps
// ReLU-sparse activations cheap and matches the old MatrixT::MatMul bits.
template <typename T>
void AffineRange(size_t r0, size_t r1, size_t n, size_t k, const T* x,
                 const T* w, const T* bias, Act act, T leaky_slope, T* y) {
  for (size_t i = r0; i < r1; ++i) {
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
void SquaredDistancesRange(size_t r0, size_t r1, size_t d, size_t k,
                           const T* x, const T* centers, const T* weights,
                           T* out) {
  for (size_t i = r0; i < r1; ++i) {
    const T* x_row = x + i * d;
    T* out_row = out + i * k;
    for (size_t c = 0; c < k; ++c) {
      out_row[c] =
          SquaredDistancePair(d, x_row, centers + c * d,
                              weights == nullptr ? nullptr : weights + c * d);
    }
  }
}

// Resolves the float table once per call site; null for double.
template <typename T>
const internal::FloatKernels* FloatTable() {
  if constexpr (std::is_same_v<T, float>) {
    return State().f32;
  } else {
    return nullptr;
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

const TilingConfig& Tiling() { return State().tiling; }

bool SetBackendForTest(Backend backend) {
  if (backend == Backend::kAvx2 && !(Avx2Compiled() && CpuHasAvx2Fma())) {
    return false;
  }
  UseBackend(backend, &State());
  return true;
}

void SetTilingForTest(const TilingConfig& config) { State().tiling = config; }

template <typename T>
TARGAD_HOT_PATH void Gemm(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
          const T* a, const T* b, T* c) {
  if (trans_a == Trans::kNo && trans_b == Trans::kNo) {
    FusedAffineActivation(m, n, k, a, b, static_cast<const T*>(nullptr),
                          Act::kNone, T(0), c);
    return;
  }
  const internal::DoubleKernels* d = State().f64;
  if (trans_a == Trans::kYes && trans_b == Trans::kNo) {
    ParallelRows(m, 2 * m * n * k, [&](size_t r0, size_t r1) {
      if constexpr (std::is_same_v<T, double>) {
        if (d != nullptr) {
          d->gemm_ta(r1 - r0, n, k, m, a + r0, b, c + r0 * n);
          return;
        }
      }
      GemmTaRange(r0, r1, n, k, m, a, b, c);
    });
    return;
  }
  if (trans_a == Trans::kNo && trans_b == Trans::kYes) {
    ParallelRows(m, 2 * m * n * k, [&](size_t r0, size_t r1) {
      if constexpr (std::is_same_v<T, double>) {
        if (d != nullptr) {
          d->gemm_tb(r1 - r0, n, k, a + r0 * k, b, c + r0 * n);
          return;
        }
      }
      GemmTbRange(r0, r1, n, k, a, b, c);
    });
    return;
  }
  GemmTtFull(m, n, k, a, b, c);
}

template <typename T>
TARGAD_HOT_PATH void FusedAffineActivation(size_t m, size_t n, size_t k, const T* x,
                           const T* w, const T* bias, Act act, T leaky_slope,
                           T* y) {
  const internal::FloatKernels* f = FloatTable<T>();
  const internal::DoubleKernels* d = State().f64;
  ParallelRows(m, 2 * m * n * k, [&](size_t r0, size_t r1) {
    if constexpr (std::is_same_v<T, float>) {
      if (f != nullptr && f->affine != nullptr) {
        f->affine(r1 - r0, n, k, x + r0 * k, w, bias, act, leaky_slope,
                  y + r0 * n);
        return;
      }
    } else {
      if (d != nullptr) {
        d->affine(r1 - r0, n, k, x + r0 * k, w, bias, y + r0 * n);
        ApplyActivationRow(act, leaky_slope, (r1 - r0) * n, y + r0 * n);
        return;
      }
    }
    AffineRange(r0, r1, n, k, x, w, bias, act, leaky_slope, y);
  });
}

template <typename T>
TARGAD_HOT_PATH void Axpy(size_t n, T alpha, const T* x, T* y) {
  if constexpr (std::is_same_v<T, float>) {
    const internal::FloatKernels* f = FloatTable<T>();
    if (f != nullptr && f->axpy != nullptr) {
      f->axpy(n, alpha, x, y);
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <typename T>
TARGAD_HOT_PATH void Scale(size_t n, T alpha, T* x) {
  if constexpr (std::is_same_v<T, float>) {
    const internal::FloatKernels* f = FloatTable<T>();
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
    const internal::FloatKernels* f = FloatTable<T>();
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
  ParallelRows(m, 3 * m * n, [&](size_t r0, size_t r1) {
    for (size_t i = r0; i < r1; ++i) {
      out[i] = SquaredDistancePair(n, a + i * n, b + i * n,
                                   static_cast<const T*>(nullptr));
    }
  });
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
  const internal::FloatKernels* f = FloatTable<T>();
  ParallelRows(n, 3 * n * d * k, [&](size_t r0, size_t r1) {
    if (f != nullptr && f->sqdists != nullptr) {
      if constexpr (std::is_same_v<T, float>) {
        f->sqdists(r1 - r0, d, k, x + r0 * d, centers, weights, out + r0 * k);
        return;
      }
    }
    SquaredDistancesRange(r0, r1, d, k, x, centers, weights, out);
  });
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
