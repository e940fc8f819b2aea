// AVX2 double GEMMs for the float64 training path, bit-identical to the
// scalar baselines in kernels.cc. Each vector lane computes exactly one
// output element, with the scalar loop's multiplies and adds in the scalar
// loop's order. Two build rules keep it that way:
//
//   - This TU is compiled with -mavx2 -ffp-contract=off and WITHOUT -mfma
//     (src/CMakeLists.txt). With -mfma, GCC contracts
//     _mm256_add_pd(acc, _mm256_mul_pd(a, b)) into one vfmadd, which rounds
//     once where the scalar loop rounds twice.
//   - Like kernels_avx2.cc it includes only the kernel headers, so no inline
//     function from a common header is compiled with AVX2 codegen here and
//     then comdat-folded into a caller that runs on a non-AVX2 CPU.
//
// When the build does not enable AVX2 the #if below compiles this file down
// to a null table and double stays on the scalar loops.

#include "nn/kernels/kernels_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>

namespace targad {
namespace nn {
namespace kernels {
namespace internal {
namespace {

// Output rows per register tile; each tile spans 4 or 8 columns.
constexpr size_t kTileRows = 4;

// Lanes [0, count) of a column tail, count < 4.
__m256i TailMask(size_t count) {
  return _mm256_setr_epi64x(count > 0 ? -1 : 0, count > 1 ? -1 : 0,
                            count > 2 ? -1 : 0, 0);
}

__m256d LoadCols(const double* p, bool masked, __m256i tail) {
  return masked ? _mm256_maskload_pd(p, tail) : _mm256_loadu_pd(p);
}

void StoreCols(double* p, bool masked, __m256i tail, __m256d v) {
  if (masked) {
    _mm256_maskstore_pd(p, tail, v);
  } else {
    _mm256_storeu_pd(p, v);
  }
}

// R rows x 4V columns of C = op(A) * B (+ bias), the i-k-j loop of the
// scalar NN/affine and transposed-A baselines. A element (r, kk) is
// a[r * a_row + kk * a_k]; B is k x n with row stride ldb. Per lane:
//
//   acc = +0; for kk ascending: if (A(r, kk) != 0) acc += A(r, kk) * B(kk, j);
//   if (bias) acc += bias[j];
//
// The skip is a lane mask: _CMP_NEQ_UQ keeps a NaN A element, as the scalar
// `av == 0` test does, and a skipped term adds +0. A sum that starts at +0
// can never become -0, so adding +0 leaves its bits unchanged, whatever B
// holds under the zero (inf and NaN included). With kTail the last column
// vector covers only the lanes set in `tail`.
template <size_t R, size_t V, bool kTail>
void SkipTile(size_t k, const double* a, size_t a_row, size_t a_k,
              const double* b, size_t ldb, const double* bias, __m256i tail,
              double* c, size_t ldc) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) acc[r][v] = zero;
  }
  for (size_t kk = 0; kk < k; ++kk) {
    __m256d bv[V];
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      bv[v] = LoadCols(b + kk * ldb + 4 * v, kTail && v + 1 == V, tail);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m256d av = _mm256_broadcast_sd(a + r * a_row + kk * a_k);
      const __m256d keep = _mm256_cmp_pd(av, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 2
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_pd(
            acc[r][v], _mm256_and_pd(_mm256_mul_pd(av, bv[v]), keep));
      }
    }
  }
  if (bias != nullptr) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      const __m256d bias_v = LoadCols(bias + 4 * v, kTail && v + 1 == V, tail);
#pragma GCC unroll 4
      for (size_t r = 0; r < R; ++r) {
        acc[r][v] = _mm256_add_pd(acc[r][v], bias_v);
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      StoreCols(c + r * ldc + 4 * v, kTail && v + 1 == V, tail, acc[r][v]);
    }
  }
}

template <size_t R>
void SkipRows(size_t n, size_t k, const double* a, size_t a_row, size_t a_k,
              const double* b, const double* bias, double* c) {
  const __m256i none = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    SkipTile<R, 2, false>(k, a, a_row, a_k, b + j, n,
                          bias == nullptr ? nullptr : bias + j, none, c + j,
                          n);
  }
  if (j + 4 <= n) {
    SkipTile<R, 1, false>(k, a, a_row, a_k, b + j, n,
                          bias == nullptr ? nullptr : bias + j, none, c + j,
                          n);
    j += 4;
  }
  if (j < n) {
    SkipTile<R, 1, true>(k, a, a_row, a_k, b + j, n,
                         bias == nullptr ? nullptr : bias + j,
                         TailMask(n - j), c + j, n);
  }
}

void SkipGemm(size_t m, size_t n, size_t k, const double* a, size_t a_row,
              size_t a_k, const double* b, const double* bias, double* c) {
  size_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    SkipRows<kTileRows>(n, k, a + i * a_row, a_row, a_k, b, bias, c + i * n);
  }
  for (; i < m; ++i) {
    SkipRows<1>(n, k, a + i * a_row, a_row, a_k, b, bias, c + i * n);
  }
}

void Affine(size_t m, size_t n, size_t k, const double* x, const double* w,
            const double* bias, double* y) {
  SkipGemm(m, n, k, x, /*a_row=*/k, /*a_k=*/1, w, bias, y);
}

void GemmTa(size_t m, size_t n, size_t k, size_t lda, const double* a,
            const double* b, double* c) {
  SkipGemm(m, n, k, a, /*a_row=*/1, /*a_k=*/lda, b, /*bias=*/nullptr, c);
}

// Loads the 4 x 4 block at b (row stride ldb) and transposes it in
// registers: col[q] holds the block's column q.
inline void Transpose4(const double* b, size_t ldb, __m256d col[4]) {
  const __m256d r0 = _mm256_loadu_pd(b);
  const __m256d r1 = _mm256_loadu_pd(b + ldb);
  const __m256d r2 = _mm256_loadu_pd(b + 2 * ldb);
  const __m256d r3 = _mm256_loadu_pd(b + 3 * ldb);
  const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);
  const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);
  const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
  const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
  col[0] = _mm256_permute2f128_pd(lo01, lo23, 0x20);
  col[1] = _mm256_permute2f128_pd(hi01, hi23, 0x20);
  col[2] = _mm256_permute2f128_pd(lo01, lo23, 0x31);
  col[3] = _mm256_permute2f128_pd(hi01, hi23, 0x31);
}

// R rows x 4 columns of C = A * B^T (A is m x k, B is n x k, both with row
// stride k), the scalar transposed-B baseline: per lane a plain dot product
//
//   acc = +0; for kk ascending: acc += A(i, kk) * B(j, kk);
//
// with no skip. B arrives in 4 x 4 blocks transposed in registers, so one
// vector holds B(j..j+3, kk) and no packed copy of B is needed.
template <size_t R>
void DotTile(size_t k, const double* a, const double* b, double* c,
             size_t ldc) {
  __m256d acc[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
  size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    __m256d col[4];
    Transpose4(b + kk, k, col);
#pragma GCC unroll 4
    for (size_t q = 0; q < 4; ++q) {
#pragma GCC unroll 4
      for (size_t r = 0; r < R; ++r) {
        const __m256d av = _mm256_broadcast_sd(a + r * k + kk + q);
        acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(av, col[q]));
      }
    }
  }
  for (; kk < k; ++kk) {
    const __m256d col =
        _mm256_setr_pd(b[kk], b[k + kk], b[2 * k + kk], b[3 * k + kk]);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m256d av = _mm256_broadcast_sd(a + r * k + kk);
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(av, col));
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) _mm256_storeu_pd(c + r * ldc, acc[r]);
}

template <size_t R>
void DotRows(size_t n, size_t k, const double* a, const double* b,
             double* c) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) DotTile<R>(k, a, b + j * k, c + j, n);
  // Fewer than 4 columns left: the scalar dot product itself (contraction
  // is off in this TU, so it rounds exactly as kernels.cc's does).
  for (; j < n; ++j) {
    for (size_t r = 0; r < R; ++r) {
      double acc = 0.0;
      for (size_t kk = 0; kk < k; ++kk) acc += a[r * k + kk] * b[j * k + kk];
      c[r * n + j] = acc;
    }
  }
}

void GemmTb(size_t m, size_t n, size_t k, const double* a, const double* b,
            double* c) {
  size_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    DotRows<kTileRows>(n, k, a + i * k, b, c + i * n);
  }
  for (; i < m; ++i) DotRows<1>(n, k, a + i * k, b, c + i * n);
}

constexpr DoubleKernels kAvx2Table = {Affine, GemmTa, GemmTb};

}  // namespace

const DoubleKernels* Avx2DoubleKernels() { return &kAvx2Table; }

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#else  // !__AVX2__

namespace targad {
namespace nn {
namespace kernels {
namespace internal {

const DoubleKernels* Avx2DoubleKernels() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#endif
