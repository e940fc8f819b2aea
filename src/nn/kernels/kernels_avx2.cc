// The AVX2 kernels: the fused affine in float32 and float64, and the hot
// float64 loops of training (the transposed GEMMs, ReLU and its derivative,
// Axpy, the column sum, Adam and the k-means distances). Every kernel is
// bit-identical to its scalar baseline in kernels.cc. Each vector lane
// computes exactly one output element, with the scalar loop's multiplies,
// adds, divides and square roots in the scalar loop's order. Two build rules
// keep it that way:
//
//   - This TU is the only one compiled with -mavx2 (src/CMakeLists.txt). It
//     gets no FMA flag, and all of src/ is compiled with -ffp-contract=off:
//     a contracted _mm256_add_ps(acc, _mm256_mul_ps(a, b)) would be one
//     vfmadd, which rounds once where the scalar loop rounds twice.
//   - It includes only the kernel headers, so no inline function from a
//     common header is compiled with AVX2 codegen here and then
//     comdat-folded into a caller that runs on a non-AVX2 CPU.
//
// When the build does not enable AVX2 the #if below compiles this file down
// to a null table and every kernel stays on the scalar loops.

#include "nn/kernels/kernels_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>

namespace targad {
namespace nn {
namespace kernels {
namespace internal {
namespace {

// Lane traits: the AVX2 vector of T and the operations the shared affine
// tile needs, so one template serves float64 (4 lanes) and float32 (8).
// Masks are all-ones lanes; `tail` masks cover lanes [0, count) of a vector
// that ends past the data.
struct DoubleLanes {
  using T = double;
  using Vec = __m256d;
  static constexpr size_t kWidth = 4;
  static Vec Zero() { return _mm256_setzero_pd(); }
  static Vec Set(double v) { return _mm256_set1_pd(v); }
  static Vec Broadcast(const double* p) { return _mm256_broadcast_sd(p); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec And(Vec a, Vec b) { return _mm256_and_pd(a, b); }
  static Vec Or(Vec a, Vec b) { return _mm256_or_pd(a, b); }
  static Vec AndNot(Vec mask, Vec a) { return _mm256_andnot_pd(mask, a); }
  static Vec Blend(Vec a, Vec b, Vec mask) {
    return _mm256_blendv_pd(a, b, mask);
  }
  static Vec NotZero(Vec a) { return _mm256_cmp_pd(a, Zero(), _CMP_NEQ_UQ); }
  static Vec LessEqZero(Vec a) {
    return _mm256_cmp_pd(a, Zero(), _CMP_LE_OQ);
  }
  static Vec LessZero(Vec a) { return _mm256_cmp_pd(a, Zero(), _CMP_LT_OQ); }
  static Vec IsNan(Vec a) { return _mm256_cmp_pd(a, a, _CMP_UNORD_Q); }
  static bool Any(Vec mask) { return _mm256_movemask_pd(mask) != 0; }
  static Vec FromMask(__m256i mask) { return _mm256_castsi256_pd(mask); }
  static __m256i TailMask(size_t count) {
    return _mm256_setr_epi64x(count > 0 ? -1 : 0, count > 1 ? -1 : 0,
                              count > 2 ? -1 : 0, 0);
  }
  static Vec Load(const double* p, bool masked, __m256i tail) {
    return masked ? _mm256_maskload_pd(p, tail) : _mm256_loadu_pd(p);
  }
  static void Store(double* p, bool masked, __m256i tail, Vec v) {
    if (masked) {
      _mm256_maskstore_pd(p, tail, v);
    } else {
      _mm256_storeu_pd(p, v);
    }
  }
};

struct FloatLanes {
  using T = float;
  using Vec = __m256;
  static constexpr size_t kWidth = 8;
  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Set(float v) { return _mm256_set1_ps(v); }
  static Vec Broadcast(const float* p) { return _mm256_broadcast_ss(p); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec And(Vec a, Vec b) { return _mm256_and_ps(a, b); }
  static Vec Or(Vec a, Vec b) { return _mm256_or_ps(a, b); }
  static Vec AndNot(Vec mask, Vec a) { return _mm256_andnot_ps(mask, a); }
  static Vec Blend(Vec a, Vec b, Vec mask) {
    return _mm256_blendv_ps(a, b, mask);
  }
  static Vec NotZero(Vec a) { return _mm256_cmp_ps(a, Zero(), _CMP_NEQ_UQ); }
  static Vec LessEqZero(Vec a) {
    return _mm256_cmp_ps(a, Zero(), _CMP_LE_OQ);
  }
  static Vec LessZero(Vec a) { return _mm256_cmp_ps(a, Zero(), _CMP_LT_OQ); }
  static Vec IsNan(Vec a) { return _mm256_cmp_ps(a, a, _CMP_UNORD_Q); }
  static bool Any(Vec mask) { return _mm256_movemask_ps(mask) != 0; }
  static Vec FromMask(__m256i mask) { return _mm256_castsi256_ps(mask); }
  static __m256i TailMask(size_t count) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Vec Load(const float* p, bool masked, __m256i tail) {
    return masked ? _mm256_maskload_ps(p, tail) : _mm256_loadu_ps(p);
  }
  static void Store(float* p, bool masked, __m256i tail, Vec v) {
    if (masked) {
      _mm256_maskstore_ps(p, tail, v);
    } else {
      _mm256_storeu_ps(p, v);
    }
  }
};

// Output rows per register tile; each tile spans one or two vectors of
// columns (4 or 8 doubles, 8 or 16 floats).
constexpr size_t kTileRows = 4;

// R rows x V vectors of columns of C = op(A) * B (+ bias), the i-k-j loop
// of the scalar NN/affine and transposed-A baselines. A element (r, kk) is
// a[r * a_row + kk * a_k]; B is k x n with row stride ldb. Per lane the
// scalar loop computes
//
//   acc = +0; for kk ascending: if (A(r, kk) != 0) acc += A(r, kk) * B(kk, j);
//   if (bias) acc += bias[j];
//
// The tile first accumulates every product, skip or not. A zero A element
// times a finite B element is +0 or -0, and adding a signed zero to a sum
// that started at +0 changes no bit (such a sum is never -0). So the two
// loops can differ only where a zero meets an inf or NaN in B, and that
// leaves a NaN in the tile: a tile whose sums hold any NaN is recomputed
// with the skip as a lane mask (_CMP_NEQ_UQ keeps a NaN A element, as the
// scalar `av == 0` test does, and a skipped term adds +0). With kTail the
// last column vector covers only the lanes set in `tail`.
template <typename L, size_t R, size_t V, bool kTail, bool kSkip>
void AccumulateTile(size_t k, const typename L::T* a, size_t a_row,
                    size_t a_k, const typename L::T* b, size_t ldb,
                    __m256i tail, typename L::Vec (&acc)[R][V]) {
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) acc[r][v] = L::Zero();
  }
  for (size_t kk = 0; kk < k; ++kk) {
    typename L::Vec bv[V];
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      bv[v] = L::Load(b + kk * ldb + L::kWidth * v, kTail && v + 1 == V, tail);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const typename L::Vec av = L::Broadcast(a + r * a_row + kk * a_k);
      if constexpr (kSkip) {
        const typename L::Vec keep = L::NotZero(av);
#pragma GCC unroll 2
        for (size_t v = 0; v < V; ++v) {
          acc[r][v] = L::Add(acc[r][v], L::And(L::Mul(av, bv[v]), keep));
        }
      } else {
#pragma GCC unroll 2
        for (size_t v = 0; v < V; ++v) {
          acc[r][v] = L::Add(acc[r][v], L::Mul(av, bv[v]));
        }
      }
    }
  }
}

// True when a live lane of the tile holds a NaN.
template <typename L, size_t R, size_t V, bool kTail>
bool TileHasNan(const typename L::Vec (&acc)[R][V], __m256i tail) {
  typename L::Vec nan = L::Zero();
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      typename L::Vec lane = L::IsNan(acc[r][v]);
      if (kTail && v + 1 == V) lane = L::And(lane, L::FromMask(tail));
      nan = L::Or(nan, lane);
    }
  }
  return L::Any(nan);
}

// The activations applied in registers, lane for lane the scalar loops'
// results: ReLU is x <= 0 ? +0 : x by an ordered compare, so NaN stays NaN
// (max would turn it into +0) and -0 becomes +0; LeakyReLU multiplies the
// x < 0 lanes by the slope. Other activations leave x as it is.
template <typename L>
typename L::Vec Activate(Act act, typename L::Vec slope, typename L::Vec x) {
  switch (act) {
    case Act::kReLU:
      return L::AndNot(L::LessEqZero(x), x);
    case Act::kLeakyReLU:
      return L::Blend(x, L::Mul(x, slope), L::LessZero(x));
    default:
      return x;
  }
}

template <typename L, size_t R, size_t V, bool kTail>
void GemmTile(size_t k, const typename L::T* a, size_t a_row, size_t a_k,
              const typename L::T* b, size_t ldb, const typename L::T* bias,
              Act act, typename L::Vec slope, __m256i tail,
              typename L::T* c, size_t ldc) {
  typename L::Vec acc[R][V];
  AccumulateTile<L, R, V, kTail, false>(k, a, a_row, a_k, b, ldb, tail, acc);
  if (TileHasNan<L, R, V, kTail>(acc, tail)) {
    AccumulateTile<L, R, V, kTail, true>(k, a, a_row, a_k, b, ldb, tail, acc);
  }
  if (bias != nullptr) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      const typename L::Vec bias_v =
          L::Load(bias + L::kWidth * v, kTail && v + 1 == V, tail);
#pragma GCC unroll 4
      for (size_t r = 0; r < R; ++r) acc[r][v] = L::Add(acc[r][v], bias_v);
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      L::Store(c + r * ldc + L::kWidth * v, kTail && v + 1 == V, tail,
               Activate<L>(act, slope, acc[r][v]));
    }
  }
}

template <typename L, size_t R>
void GemmRows(size_t n, size_t k, const typename L::T* a, size_t a_row,
              size_t a_k, const typename L::T* b, const typename L::T* bias,
              Act act, typename L::Vec slope, typename L::T* c) {
  constexpr size_t kW = L::kWidth;
  const __m256i none = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 2 * kW <= n; j += 2 * kW) {
    GemmTile<L, R, 2, false>(k, a, a_row, a_k, b + j, n,
                             bias == nullptr ? nullptr : bias + j, act, slope,
                             none, c + j, n);
  }
  if (j + kW <= n) {
    GemmTile<L, R, 1, false>(k, a, a_row, a_k, b + j, n,
                             bias == nullptr ? nullptr : bias + j, act, slope,
                             none, c + j, n);
    j += kW;
  }
  if (j < n) {
    GemmTile<L, R, 1, true>(k, a, a_row, a_k, b + j, n,
                            bias == nullptr ? nullptr : bias + j, act, slope,
                            L::TailMask(n - j), c + j, n);
  }
}

template <typename L>
void TileGemm(size_t m, size_t n, size_t k, const typename L::T* a,
              size_t a_row, size_t a_k, const typename L::T* b,
              const typename L::T* bias, Act act, typename L::T leaky_slope,
              typename L::T* c) {
  const typename L::Vec slope = L::Set(leaky_slope);
  size_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    GemmRows<L, kTileRows>(n, k, a + i * a_row, a_row, a_k, b, bias, act,
                           slope, c + i * n);
  }
  for (; i < m; ++i) {
    GemmRows<L, 1>(n, k, a + i * a_row, a_row, a_k, b, bias, act, slope,
                   c + i * n);
  }
}

template <typename L>
void Affine(size_t m, size_t n, size_t k, const typename L::T* x,
            const typename L::T* w, const typename L::T* bias, Act act,
            typename L::T leaky_slope, typename L::T* y) {
  TileGemm<L>(m, n, k, x, /*a_row=*/k, /*a_k=*/1, w, bias, act, leaky_slope,
              y);
}

void GemmTa(size_t m, size_t n, size_t k, const double* a, const double* b,
            double* c) {
  TileGemm<DoubleLanes>(m, n, k, a, /*a_row=*/1, /*a_k=*/m, b,
                        /*bias=*/nullptr, Act::kNone, 0.0, c);
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

// Calls body(i, masked, tail) for i = 0, 4, 8, ... below n; only the last
// call, for a vector that ends past n, gets masked == true and the mask of
// its lanes below n.
template <typename Body>
void ForEachVector(size_t n, const Body& body) {
  const __m256i all = _mm256_set1_epi64x(-1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) body(i, false, all);
  if (i < n) body(i, true, DoubleLanes::TailMask(n - i));
}

// x = x <= 0 ? +0 : x, the affine tile's in-register ReLU.
void Relu(size_t n, double* x) {
  const __m256d unused_slope = _mm256_setzero_pd();
  ForEachVector(n, [&](size_t i, bool masked, __m256i tail) {
    DoubleLanes::Store(x + i, masked, tail,
                       Activate<DoubleLanes>(
                           Act::kReLU, unused_slope,
                           DoubleLanes::Load(x + i, masked, tail)));
  });
}

// g *= ref > 0 ? 1 : 0, a multiply as in the scalar loop (0 * g keeps g's
// sign on the zero, and 0 * inf is NaN).
void ReluBackward(size_t n, const double* ref, double* g) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  ForEachVector(n, [&](size_t i, bool masked, __m256i tail) {
    const __m256d factor = _mm256_and_pd(
        _mm256_cmp_pd(DoubleLanes::Load(ref + i, masked, tail), zero,
                      _CMP_GT_OQ),
        one);
    DoubleLanes::Store(
        g + i, masked, tail,
        _mm256_mul_pd(DoubleLanes::Load(g + i, masked, tail), factor));
  });
}

void Axpy(size_t n, double alpha, const double* x, double* y) {
  const __m256d alpha_v = _mm256_set1_pd(alpha);
  ForEachVector(n, [&](size_t i, bool masked, __m256i tail) {
    DoubleLanes::Store(
        y + i, masked, tail,
        _mm256_add_pd(DoubleLanes::Load(y + i, masked, tail),
                      _mm256_mul_pd(alpha_v,
                                    DoubleLanes::Load(x + i, masked, tail))));
  });
}

// out[j] = +0 + a(0, j) + a(1, j) + ..., rows in order, one lane per
// column; V vectors of columns per pass over the rows.
template <size_t V, bool kTail>
void ColSumBlock(size_t m, size_t n, const double* a, __m256i tail,
                 double* out) {
  __m256d acc[V];
#pragma GCC unroll 4
  for (size_t v = 0; v < V; ++v) acc[v] = _mm256_setzero_pd();
  for (size_t i = 0; i < m; ++i) {
#pragma GCC unroll 4
    for (size_t v = 0; v < V; ++v) {
      acc[v] = _mm256_add_pd(
          acc[v],
          DoubleLanes::Load(a + i * n + 4 * v, kTail && v + 1 == V, tail));
    }
  }
#pragma GCC unroll 4
  for (size_t v = 0; v < V; ++v) {
    DoubleLanes::Store(out + 4 * v, kTail && v + 1 == V, tail, acc[v]);
  }
}

void ColSum(size_t m, size_t n, const double* a, double* out) {
  const __m256i none = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    ColSumBlock<4, false>(m, n, a + j, none, out + j);
  }
  for (; j + 4 <= n; j += 4) ColSumBlock<1, false>(m, n, a + j, none, out + j);
  if (j < n) {
    ColSumBlock<1, true>(m, n, a + j, DoubleLanes::TailMask(n - j), out + j);
  }
}

// The scalar Adam step's exact shapes, unfused:
//   m = beta1*m + (1-beta1)*g ; v = beta2*v + ((1-beta2)*g)*g
//   p = p - (lr*(m/bias_c1)) / (sqrt(v/bias_c2) + eps)
// _mm256_div_pd and _mm256_sqrt_pd round correctly, as the scalar ops do.
void Adam(size_t n, double lr, double beta1, double beta2, double eps,
          double bias_c1, double bias_c2, const double* g, double* m,
          double* v, double* p) {
  const __m256d lr_v = _mm256_set1_pd(lr);
  const __m256d b1 = _mm256_set1_pd(beta1);
  const __m256d b2 = _mm256_set1_pd(beta2);
  const __m256d one_minus_b1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d one_minus_b2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d eps_v = _mm256_set1_pd(eps);
  const __m256d c1 = _mm256_set1_pd(bias_c1);
  const __m256d c2 = _mm256_set1_pd(bias_c2);
  ForEachVector(n, [&](size_t j, bool masked, __m256i tail) {
    const __m256d gj = DoubleLanes::Load(g + j, masked, tail);
    const __m256d mj = _mm256_add_pd(
        _mm256_mul_pd(b1, DoubleLanes::Load(m + j, masked, tail)),
        _mm256_mul_pd(one_minus_b1, gj));
    const __m256d vj = _mm256_add_pd(
        _mm256_mul_pd(b2, DoubleLanes::Load(v + j, masked, tail)),
        _mm256_mul_pd(_mm256_mul_pd(one_minus_b2, gj), gj));
    const __m256d m_hat = _mm256_div_pd(mj, c1);
    const __m256d v_hat = _mm256_div_pd(vj, c2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr_v, m_hat),
                      _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps_v));
    DoubleLanes::Store(m + j, masked, tail, mj);
    DoubleLanes::Store(v + j, masked, tail, vj);
    DoubleLanes::Store(
        p + j, masked, tail,
        _mm256_sub_pd(DoubleLanes::Load(p + j, masked, tail), step));
  });
}

// R rows x 4 centers of the unweighted squared distances (x is n x d and
// centers k x d, both with row stride d; out has row stride ldo), the
// scalar loop per lane:
//
//   acc = +0; for j ascending: diff = x(i, j) - center(c, j); acc += diff*diff;
//
// The 4 centers arrive in 4 x 4 blocks transposed in registers, as B does
// in DotTile.
template <size_t R>
void DistanceTile(size_t d, const double* x, const double* centers,
                  double* out, size_t ldo) {
  __m256d acc[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    __m256d col[4];
    Transpose4(centers + j, d, col);
#pragma GCC unroll 4
    for (size_t q = 0; q < 4; ++q) {
#pragma GCC unroll 4
      for (size_t r = 0; r < R; ++r) {
        const __m256d diff =
            _mm256_sub_pd(_mm256_broadcast_sd(x + r * d + j + q), col[q]);
        acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(diff, diff));
      }
    }
  }
  for (; j < d; ++j) {
    const __m256d col = _mm256_setr_pd(centers[j], centers[d + j],
                                       centers[2 * d + j], centers[3 * d + j]);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m256d diff =
          _mm256_sub_pd(_mm256_broadcast_sd(x + r * d + j), col);
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(diff, diff));
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) _mm256_storeu_pd(out + r * ldo, acc[r]);
}

template <size_t R>
void DistanceRows(size_t d, size_t k, const double* x, const double* centers,
                  double* out) {
  size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    DistanceTile<R>(d, x, centers + c * d, out + c, k);
  }
  // Fewer than 4 centers left: the scalar loop itself.
  for (; c < k; ++c) {
    for (size_t r = 0; r < R; ++r) {
      double acc = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = x[r * d + j] - centers[c * d + j];
        acc += diff * diff;
      }
      out[r * k + c] = acc;
    }
  }
}

void SquaredDistances(size_t n, size_t d, size_t k, const double* x,
                      const double* centers, double* out) {
  size_t i = 0;
  for (; i + kTileRows <= n; i += kTileRows) {
    DistanceRows<kTileRows>(d, k, x + i * d, centers, out + i * k);
  }
  for (; i < n; ++i) DistanceRows<1>(d, k, x + i * d, centers, out + i * k);
}

constexpr Avx2Kernels kAvx2Table = {
    Affine<FloatLanes>, Affine<DoubleLanes>, GemmTa, GemmTb, Relu,
    ReluBackward,       Axpy,                ColSum, Adam,   SquaredDistances};

}  // namespace

const Avx2Kernels* Avx2Table() { return &kAvx2Table; }

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#else  // !__AVX2__

namespace targad {
namespace nn {
namespace kernels {
namespace internal {

const Avx2Kernels* Avx2Table() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace nn
}  // namespace targad

#endif
