// AVX2/FMA float kernels. This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=fast (see src/CMakeLists.txt; the rest of src/
// is compiled with contraction off, which would change the float bits of
// the scalar tails here). It deliberately includes only the kernel headers
// so no inline function from a common header gets compiled with AVX2
// codegen here and then comdat-folded into a caller that runs on a non-AVX2
// CPU. When the build does not enable AVX2 the #if below compiles this file
// down to a null table and the dispatcher stays scalar.

#include "nn/kernels/kernels_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>

namespace targad {
namespace nn {
namespace kernels {
namespace internal {
namespace {

float Hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

__m256 ApplyActVec(Act act, __m256 slope, __m256 v) {
  switch (act) {
    case Act::kReLU:
      return _mm256_max_ps(v, _mm256_setzero_ps());
    case Act::kLeakyReLU: {
      const __m256 neg = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ);
      return _mm256_blendv_ps(v, _mm256_mul_ps(v, slope), neg);
    }
    default:
      return v;  // kNone here; kSigmoid/kTanh run as a scalar post-pass.
  }
}

float ApplyActScalar(Act act, float slope, float v) {
  switch (act) {
    case Act::kReLU:
      return v <= 0.0f ? 0.0f : v;
    case Act::kLeakyReLU:
      return v < 0.0f ? v * slope : v;
    case Act::kSigmoid:
      if (v >= 0.0f) return 1.0f / (1.0f + std::exp(-v));
      {
        const float e = std::exp(v);
        return e / (1.0f + e);
      }
    case Act::kTanh:
      return std::tanh(v);
    case Act::kNone:
      return v;
  }
  return v;
}

// Whether ApplyActVec fully handles the activation at store time.
bool VectorizableAct(Act act) {
  return act == Act::kNone || act == Act::kReLU || act == Act::kLeakyReLU;
}

// Core micro-kernel: R rows of Y = X * W (+bias, +activation), register
// blocked R x 16 (two __m256 accumulators per row), broadcast-A FMA over k.
// B rows stream once per 16-column block and are shared by all R rows.
template <int R>
void AffineRows(size_t n, size_t k, const float* x, const float* w,
                const float* bias, Act act, float leaky_slope, float* y) {
  const __m256 slope = _mm256_set1_ps(leaky_slope);
  const Act store_act = VectorizableAct(act) ? act : Act::kNone;
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm256_setzero_ps();
      acc1[r] = _mm256_setzero_ps();
    }
    for (size_t kk = 0; kk < k; ++kk) {
      const float* w_row = w + kk * n + j;
      const __m256 b0 = _mm256_loadu_ps(w_row);
      const __m256 b1 = _mm256_loadu_ps(w_row + 8);
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(x + r * k + kk);
        acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
      }
    }
    if (bias != nullptr) {
      const __m256 bv0 = _mm256_loadu_ps(bias + j);
      const __m256 bv1 = _mm256_loadu_ps(bias + j + 8);
      for (int r = 0; r < R; ++r) {
        acc0[r] = _mm256_add_ps(acc0[r], bv0);
        acc1[r] = _mm256_add_ps(acc1[r], bv1);
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(y + r * n + j, ApplyActVec(store_act, slope, acc0[r]));
      _mm256_storeu_ps(y + r * n + j + 8,
                       ApplyActVec(store_act, slope, acc1[r]));
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc[R];
    for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
    for (size_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(w + kk * n + j);
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(x + r * k + kk);
        acc[r] = _mm256_fmadd_ps(av, b0, acc[r]);
      }
    }
    if (bias != nullptr) {
      const __m256 bv = _mm256_loadu_ps(bias + j);
      for (int r = 0; r < R; ++r) acc[r] = _mm256_add_ps(acc[r], bv);
    }
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(y + r * n + j, ApplyActVec(store_act, slope, acc[r]));
    }
  }
  for (; j < n; ++j) {
    for (int r = 0; r < R; ++r) {
      float acc = 0.0f;
      const float* x_row = x + r * k;
      for (size_t kk = 0; kk < k; ++kk) acc += x_row[kk] * w[kk * n + j];
      if (bias != nullptr) acc += bias[j];
      y[r * n + j] = ApplyActScalar(store_act, leaky_slope, acc);
    }
  }
  if (!VectorizableAct(act)) {
    // Sigmoid/Tanh: scalar pass over the R just-written (cache-hot) rows.
    for (int r = 0; r < R; ++r) {
      float* y_row = y + r * n;
      for (size_t jj = 0; jj < n; ++jj) {
        y_row[jj] = ApplyActScalar(act, leaky_slope, y_row[jj]);
      }
    }
  }
}

void Affine(size_t m, size_t n, size_t k, const float* x, const float* w,
            const float* bias, Act act, float leaky_slope, float* y) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    AffineRows<4>(n, k, x + i * k, w, bias, act, leaky_slope, y + i * n);
  }
  for (; i < m; ++i) {
    AffineRows<1>(n, k, x + i * k, w, bias, act, leaky_slope, y + i * n);
  }
}

void Axpy(size_t n, float alpha, const float* x, float* y) {
  const __m256 av = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 yv = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), yv));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(size_t n, float alpha, float* x) {
  const __m256 av = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

float Dot(size_t n, const float* a, const float* b) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * b[i];
  return Hsum8(acc) + tail;
}

void SquaredDistances(size_t n, size_t d, size_t k, const float* x,
                      const float* centers, const float* weights, float* out) {
  for (size_t i = 0; i < n; ++i) {
    const float* x_row = x + i * d;
    float* out_row = out + i * k;
    for (size_t c = 0; c < k; ++c) {
      const float* c_row = centers + c * d;
      const float* w_row = weights == nullptr ? nullptr : weights + c * d;
      __m256 acc = _mm256_setzero_ps();
      size_t j = 0;
      if (w_row == nullptr) {
        for (; j + 8 <= d; j += 8) {
          const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(x_row + j),
                                            _mm256_loadu_ps(c_row + j));
          acc = _mm256_fmadd_ps(diff, diff, acc);
        }
      } else {
        for (; j + 8 <= d; j += 8) {
          const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(x_row + j),
                                            _mm256_loadu_ps(c_row + j));
          acc = _mm256_fmadd_ps(_mm256_mul_ps(diff, diff),
                                _mm256_loadu_ps(w_row + j), acc);
        }
      }
      float tail = 0.0f;
      for (; j < d; ++j) {
        const float diff = x_row[j] - c_row[j];
        tail += diff * diff * (w_row == nullptr ? 1.0f : w_row[j]);
      }
      out_row[c] = Hsum8(acc) + tail;
    }
  }
}

constexpr FloatKernels kAvx2Table = {Affine, Axpy, Scale, Dot,
                                     SquaredDistances};

}  // namespace

const FloatKernels* Avx2FloatKernels() { return &kAvx2Table; }

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#else  // !(__AVX2__ && __FMA__)

namespace targad {
namespace nn {
namespace kernels {
namespace internal {

const FloatKernels* Avx2FloatKernels() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#endif
