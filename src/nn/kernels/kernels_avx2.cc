// The AVX2/FMA float fused affine, the only float kernel: a frozen float32
// forward runs nothing else (see kernels.cc). This translation unit is
// compiled with -mavx2 -mfma -ffp-contract=fast (see src/CMakeLists.txt; the
// rest of src/ is compiled with contraction off, which would change the
// float bits of the scalar tails here). It deliberately includes only the kernel headers
// so no inline function from a common header gets compiled with AVX2
// codegen here and then comdat-folded into a caller that runs on a non-AVX2
// CPU. When the build does not enable AVX2 the #if below compiles this file
// down to a null entry and the dispatcher stays scalar.

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

}  // namespace

FloatAffineFn Avx2FloatAffine() { return Affine; }

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#else  // !(__AVX2__ && __FMA__)

namespace targad {
namespace nn {
namespace kernels {
namespace internal {

FloatAffineFn Avx2FloatAffine() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#endif
