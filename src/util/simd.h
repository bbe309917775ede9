#ifndef AUTOFP_UTIL_SIMD_H_
#define AUTOFP_UTIL_SIMD_H_

/// Portable SIMD wrapper for the kernel layer (DESIGN.md "Kernel layer
/// and memory layout").
///
/// Backend is chosen at compile time:
///   - AVX2 when the build enables it (top-level CMakeLists passes -mavx2
///     on x86-64 hosts whose compiler supports it) — 4 double lanes.
///   - NEON on AArch64 (implied by the baseline ISA) — 2 double lanes.
///   - Scalar fallback otherwise, or when AUTOFP_DISABLE_SIMD is defined
///     (CI's forced-scalar leg) — 1 lane, plain IEEE arithmetic.
///
/// Exactness contract: every lane op here maps to a single IEEE-754
/// correctly-rounded operation (add/sub/mul/div/sqrt/min/max/compare/
/// select), so a vectorized elementwise loop is bit-identical to its
/// scalar reference regardless of backend. No FMA is ever emitted (the
/// build also passes -ffp-contract=off so the compiler cannot contract
/// the scalar references either). The only helpers that reassociate —
/// and are therefore tolerance-gated, not bit-exact — are the horizontal
/// reductions: Vec::Sum() and Dot().
///
/// Loads and stores are unaligned-safe; Matrix storage is 64-byte
/// aligned (util/aligned.h) purely as a performance property.

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if !defined(AUTOFP_DISABLE_SIMD) && defined(__AVX2__)
#define AUTOFP_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(AUTOFP_DISABLE_SIMD) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define AUTOFP_SIMD_NEON 1
#include <arm_neon.h>
#else
#define AUTOFP_SIMD_SCALAR 1
#endif

namespace autofp {
namespace simd {

#if defined(AUTOFP_SIMD_AVX2)
inline constexpr bool kEnabled = true;
inline constexpr const char* kBackendName = "avx2";
#elif defined(AUTOFP_SIMD_NEON)
inline constexpr bool kEnabled = true;
inline constexpr const char* kBackendName = "neon";
#else
inline constexpr bool kEnabled = false;
inline constexpr const char* kBackendName = "scalar";
#endif

/// Runtime escape hatch: when set, the dispatching kernel entry points
/// (preprocess/kernels.h, Dot/Axpy below) take their scalar reference
/// path even in a SIMD build. Used by the property tests to compare both
/// paths inside one binary and by the micro-bench roofline report to
/// measure the scalar baseline. Not for production call sites.
///
/// The check sits on the hot path (Dot/Axpy run millions of times per
/// search), so it is an inlined relaxed load of a constant-initialised
/// flag: no call and no static-initialisation guard. Relaxed is enough:
/// the flag is a test/bench toggle flipped while no kernels run
/// concurrently. simd.cc applies the AUTOFP_FORCE_SCALAR environment
/// variable during static initialisation, before main.
namespace internal {
extern constinit std::atomic<bool> force_scalar;
}  // namespace internal

inline bool ForceScalarEnabled() {
  return internal::force_scalar.load(std::memory_order_relaxed);
}
inline void SetForceScalar(bool force) {
  internal::force_scalar.store(force, std::memory_order_relaxed);
}

/// RAII form for tests.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force) : previous_(ForceScalarEnabled()) {
    SetForceScalar(force);
  }
  ~ScopedForceScalar() { SetForceScalar(previous_); }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool previous_;
};

template <typename T>
struct Vec;

#if defined(AUTOFP_SIMD_AVX2)

template <>
struct Vec<double> {
  __m256d v;
  static constexpr size_t kLanes = 4;

  static Vec Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Vec Set1(double x) { return {_mm256_set1_pd(x)}; }
  static Vec Zero() { return {_mm256_setzero_pd()}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }

  Vec operator+(Vec o) const { return {_mm256_add_pd(v, o.v)}; }
  Vec operator-(Vec o) const { return {_mm256_sub_pd(v, o.v)}; }
  Vec operator*(Vec o) const { return {_mm256_mul_pd(v, o.v)}; }
  Vec operator/(Vec o) const { return {_mm256_div_pd(v, o.v)}; }

  static Vec Min(Vec a, Vec b) { return {_mm256_min_pd(a.v, b.v)}; }
  static Vec Max(Vec a, Vec b) { return {_mm256_max_pd(a.v, b.v)}; }
  Vec Abs() const {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), v)};
  }
  Vec Sqrt() const { return {_mm256_sqrt_pd(v)}; }

  /// Comparisons return an all-ones / all-zeros lane mask (as a Vec).
  static Vec Gt(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)}; }
  static Vec Ge(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)}; }
  static Vec Le(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)}; }
  static Vec Eq(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)}; }
  /// !(a < b): unlike Ge, set where either lane is NaN.
  static Vec NotLt(Vec a, Vec b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_NLT_UQ)};
  }
  /// Lanes set in both masks.
  static Vec And(Vec a, Vec b) { return {_mm256_and_pd(a.v, b.v)}; }
  /// Lanes from `a` where the mask lane is set, else from `b`.
  static Vec Select(Vec mask, Vec a, Vec b) {
    return {_mm256_blendv_pd(b.v, a.v, mask.v)};
  }

  /// Horizontal sum. Reassociates (pairwise) — tolerance-gated only.
  double Sum() const {
    __m128d lo = _mm256_castpd256_pd128(v);
    __m128d hi = _mm256_extractf128_pd(v, 1);
    __m128d pair = _mm_add_pd(lo, hi);
    __m128d swap = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
  }

  double Lane(size_t i) const {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    return lanes[i];
  }
};

/// Signed-64 index vector matching Vec<double>'s lane count; only what
/// the branchless table lookups need (add, masked add, conversion).
struct VecIdx {
  __m256i v;
  static constexpr size_t kLanes = 4;
  static VecIdx Set1(int64_t x) { return {_mm256_set1_epi64x(x)}; }
  static VecIdx Zero() { return {_mm256_setzero_si256()}; }
  VecIdx operator+(VecIdx o) const { return {_mm256_add_epi64(v, o.v)}; }
  /// this + (add where the comparison-mask lane is all-ones, else this).
  VecIdx AddWhere(Vec<double> mask, VecIdx add) const {
    return {_mm256_add_epi64(
        v, _mm256_and_si256(_mm256_castpd_si256(mask.v), add.v))};
  }
  int64_t Lane(size_t i) const {
    alignas(32) int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
    return lanes[i];
  }
};

template <>
struct Vec<float> {
  __m256 v;
  static constexpr size_t kLanes = 8;

  static Vec Load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static Vec Set1(float x) { return {_mm256_set1_ps(x)}; }
  static Vec Zero() { return {_mm256_setzero_ps()}; }
  void Store(float* p) const { _mm256_storeu_ps(p, v); }

  Vec operator+(Vec o) const { return {_mm256_add_ps(v, o.v)}; }
  Vec operator-(Vec o) const { return {_mm256_sub_ps(v, o.v)}; }
  Vec operator*(Vec o) const { return {_mm256_mul_ps(v, o.v)}; }
  Vec operator/(Vec o) const { return {_mm256_div_ps(v, o.v)}; }

  static Vec Min(Vec a, Vec b) { return {_mm256_min_ps(a.v, b.v)}; }
  static Vec Max(Vec a, Vec b) { return {_mm256_max_ps(a.v, b.v)}; }
  Vec Abs() const { return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), v)}; }
  static Vec Gt(Vec a, Vec b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)}; }
  static Vec Select(Vec mask, Vec a, Vec b) {
    return {_mm256_blendv_ps(b.v, a.v, mask.v)};
  }

  float Lane(size_t i) const {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, v);
    return lanes[i];
  }
};

/// refs[idx] per lane (table gather for the branchless quantile lookup).
inline Vec<double> Gather(const double* base, VecIdx idx) {
  return {_mm256_i64gather_pd(base, idx.v, 8)};
}

/// Exact int->double conversion for 0 <= idx < 2^52 (the classic
/// magic-number trick; AVX2 has no epi64->pd instruction).
inline Vec<double> ToDouble(VecIdx idx) {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  __m256d shifted = _mm256_castsi256_pd(_mm256_or_si256(idx.v, magic));
  return {_mm256_sub_pd(shifted, _mm256_set1_pd(4503599627370496.0))};
}

#elif defined(AUTOFP_SIMD_NEON)

template <>
struct Vec<double> {
  float64x2_t v;
  static constexpr size_t kLanes = 2;

  static Vec Load(const double* p) { return {vld1q_f64(p)}; }
  static Vec Set1(double x) { return {vdupq_n_f64(x)}; }
  static Vec Zero() { return {vdupq_n_f64(0.0)}; }
  void Store(double* p) const { vst1q_f64(p, v); }

  Vec operator+(Vec o) const { return {vaddq_f64(v, o.v)}; }
  Vec operator-(Vec o) const { return {vsubq_f64(v, o.v)}; }
  Vec operator*(Vec o) const { return {vmulq_f64(v, o.v)}; }
  Vec operator/(Vec o) const { return {vdivq_f64(v, o.v)}; }

  static Vec Min(Vec a, Vec b) { return {vminq_f64(a.v, b.v)}; }
  static Vec Max(Vec a, Vec b) { return {vmaxq_f64(a.v, b.v)}; }
  Vec Abs() const { return {vabsq_f64(v)}; }
  Vec Sqrt() const { return {vsqrtq_f64(v)}; }

  static Vec Gt(Vec a, Vec b) {
    return {vreinterpretq_f64_u64(vcgtq_f64(a.v, b.v))};
  }
  static Vec Ge(Vec a, Vec b) {
    return {vreinterpretq_f64_u64(vcgeq_f64(a.v, b.v))};
  }
  static Vec Le(Vec a, Vec b) {
    return {vreinterpretq_f64_u64(vcleq_f64(a.v, b.v))};
  }
  static Vec Eq(Vec a, Vec b) {
    return {vreinterpretq_f64_u64(vceqq_f64(a.v, b.v))};
  }
  static Vec NotLt(Vec a, Vec b) {
    return {vreinterpretq_f64_u32(
        vmvnq_u32(vreinterpretq_u32_u64(vcltq_f64(a.v, b.v))))};
  }
  static Vec And(Vec a, Vec b) {
    return {vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(a.v),
                                            vreinterpretq_u64_f64(b.v)))};
  }
  static Vec Select(Vec mask, Vec a, Vec b) {
    return {vbslq_f64(vreinterpretq_u64_f64(mask.v), a.v, b.v)};
  }

  double Sum() const { return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1); }
  double Lane(size_t i) const {
    return i == 0 ? vgetq_lane_f64(v, 0) : vgetq_lane_f64(v, 1);
  }
};

struct VecIdx {
  int64x2_t v;
  static constexpr size_t kLanes = 2;
  static VecIdx Set1(int64_t x) { return {vdupq_n_s64(x)}; }
  static VecIdx Zero() { return {vdupq_n_s64(0)}; }
  VecIdx operator+(VecIdx o) const { return {vaddq_s64(v, o.v)}; }
  VecIdx AddWhere(Vec<double> mask, VecIdx add) const {
    return {vaddq_s64(
        v, vandq_s64(vreinterpretq_s64_f64(mask.v), add.v))};
  }
  int64_t Lane(size_t i) const {
    return i == 0 ? vgetq_lane_s64(v, 0) : vgetq_lane_s64(v, 1);
  }
};

template <>
struct Vec<float> {
  float32x4_t v;
  static constexpr size_t kLanes = 4;

  static Vec Load(const float* p) { return {vld1q_f32(p)}; }
  static Vec Set1(float x) { return {vdupq_n_f32(x)}; }
  static Vec Zero() { return {vdupq_n_f32(0.0f)}; }
  void Store(float* p) const { vst1q_f32(p, v); }

  Vec operator+(Vec o) const { return {vaddq_f32(v, o.v)}; }
  Vec operator-(Vec o) const { return {vsubq_f32(v, o.v)}; }
  Vec operator*(Vec o) const { return {vmulq_f32(v, o.v)}; }
  Vec operator/(Vec o) const { return {vdivq_f32(v, o.v)}; }

  static Vec Min(Vec a, Vec b) { return {vminq_f32(a.v, b.v)}; }
  static Vec Max(Vec a, Vec b) { return {vmaxq_f32(a.v, b.v)}; }
  Vec Abs() const { return {vabsq_f32(v)}; }
  static Vec Gt(Vec a, Vec b) {
    return {vreinterpretq_f32_u32(vcgtq_f32(a.v, b.v))};
  }
  static Vec Select(Vec mask, Vec a, Vec b) {
    return {vbslq_f32(vreinterpretq_u32_f32(mask.v), a.v, b.v)};
  }

  float Lane(size_t i) const {
    switch (i) {
      case 0: return vgetq_lane_f32(v, 0);
      case 1: return vgetq_lane_f32(v, 1);
      case 2: return vgetq_lane_f32(v, 2);
      default: return vgetq_lane_f32(v, 3);
    }
  }
};

inline Vec<double> Gather(const double* base, VecIdx idx) {
  float64x2_t out = vdupq_n_f64(0.0);
  out = vsetq_lane_f64(base[vgetq_lane_s64(idx.v, 0)], out, 0);
  out = vsetq_lane_f64(base[vgetq_lane_s64(idx.v, 1)], out, 1);
  return {out};
}

inline Vec<double> ToDouble(VecIdx idx) { return {vcvtq_f64_s64(idx.v)}; }

#else  // scalar fallback

template <>
struct Vec<double> {
  double v;
  static constexpr size_t kLanes = 1;

  static Vec Load(const double* p) { return {*p}; }
  static Vec Set1(double x) { return {x}; }
  static Vec Zero() { return {0.0}; }
  void Store(double* p) const { *p = v; }

  Vec operator+(Vec o) const { return {v + o.v}; }
  Vec operator-(Vec o) const { return {v - o.v}; }
  Vec operator*(Vec o) const { return {v * o.v}; }
  Vec operator/(Vec o) const { return {v / o.v}; }

  static Vec Min(Vec a, Vec b) { return {b.v < a.v ? b.v : a.v}; }
  static Vec Max(Vec a, Vec b) { return {a.v < b.v ? b.v : a.v}; }
  Vec Abs() const { return {std::fabs(v)}; }
  Vec Sqrt() const { return {std::sqrt(v)}; }

  /// Scalar "masks" are plain bools consumed by Select/AddWhere.
  static bool Gt(Vec a, Vec b) { return a.v > b.v; }
  static bool Ge(Vec a, Vec b) { return a.v >= b.v; }
  static bool Le(Vec a, Vec b) { return a.v <= b.v; }
  static bool Eq(Vec a, Vec b) { return a.v == b.v; }
  static bool NotLt(Vec a, Vec b) { return !(a.v < b.v); }
  static bool And(bool a, bool b) { return a && b; }
  static Vec Select(bool mask, Vec a, Vec b) { return mask ? a : b; }

  double Sum() const { return v; }
  double Lane(size_t) const { return v; }
};

struct VecIdx {
  int64_t v;
  static constexpr size_t kLanes = 1;
  static VecIdx Set1(int64_t x) { return {x}; }
  static VecIdx Zero() { return {0}; }
  VecIdx operator+(VecIdx o) const { return {v + o.v}; }
  VecIdx AddWhere(bool mask, VecIdx add) const {
    return {v + (mask ? add.v : 0)};
  }
  int64_t Lane(size_t) const { return v; }
};


template <>
struct Vec<float> {
  float v;
  static constexpr size_t kLanes = 1;

  static Vec Load(const float* p) { return {*p}; }
  static Vec Set1(float x) { return {x}; }
  static Vec Zero() { return {0.0f}; }
  void Store(float* p) const { *p = v; }

  Vec operator+(Vec o) const { return {v + o.v}; }
  Vec operator-(Vec o) const { return {v - o.v}; }
  Vec operator*(Vec o) const { return {v * o.v}; }
  Vec operator/(Vec o) const { return {v / o.v}; }

  static Vec Min(Vec a, Vec b) { return {b.v < a.v ? b.v : a.v}; }
  static Vec Max(Vec a, Vec b) { return {a.v < b.v ? b.v : a.v}; }
  Vec Abs() const { return {std::fabs(v)}; }
  static bool Gt(Vec a, Vec b) { return a.v > b.v; }
  static Vec Select(bool mask, Vec a, Vec b) { return mask ? a : b; }

  float Lane(size_t) const { return v; }
};

inline Vec<double> Gather(const double* base, VecIdx idx) {
  return {base[idx.v]};
}

inline Vec<double> ToDouble(VecIdx idx) {
  return {static_cast<double>(idx.v)};
}

#endif

using VecD = Vec<double>;
using VecF = Vec<float>;
inline constexpr size_t kDoubleLanes = VecD::kLanes;

/// Branchless std::upper_bound over a sorted table: returns the number of
/// elements <= value (== upper_bound - begin). The iteration count
/// depends only on `n`, never on the data — which is what makes the
/// vectorized form below possible (all lanes share the control flow).
inline size_t UpperBoundIndex(const double* refs, size_t n, double value) {
  size_t base = 0;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base += refs[base + half - 1] <= value ? half : 0;
    len -= half;
  }
  // One element left: the window holds the answer directly.
  return base + (n > 0 && refs[base] <= value ? 1 : 0);
}

/// Branchless std::lower_bound: the number of elements < value. Same
/// shape as UpperBoundIndex with a strict comparison.
inline size_t LowerBoundIndex(const double* refs, size_t n, double value) {
  size_t base = 0;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base += refs[base + half - 1] < value ? half : 0;
    len -= half;
  }
  return base + (n > 0 && refs[base] < value ? 1 : 0);
}

/// Lane-parallel UpperBoundIndex: one gather + compare per level instead
/// of a data-dependent branchy descent per element.
inline VecIdx UpperBoundIndexV(const double* refs, size_t n, VecD value) {
  VecIdx base = VecIdx::Zero();
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    VecD probe = Gather(refs, base + VecIdx::Set1(static_cast<int64_t>(
                                        half - 1)));
    base = base.AddWhere(VecD::Le(probe, value), VecIdx::Set1(
                             static_cast<int64_t>(half)));
    len -= half;
  }
  if (n > 0) {
    VecD last = Gather(refs, base);
    base = base.AddWhere(VecD::Le(last, value), VecIdx::Set1(1));
  }
  return base;
}

/// Dot product. Vector accumulation reassociates the sum (lane-striped
/// plus a pairwise horizontal reduce), so results differ from the scalar
/// loop in the low bits: users (MLP/LSTM GEMM, LR logits) are
/// tolerance-gated, never bit-compared against scalar references.
inline double DotScalar(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

inline double Dot(const double* a, const double* b, size_t n) {
  if (VecD::kLanes == 1 || ForceScalarEnabled()) return DotScalar(a, b, n);
  VecD acc = VecD::Zero();
  const size_t vector_end = n - n % VecD::kLanes;
  size_t i = 0;
  for (; i < vector_end; i += VecD::kLanes) {
    acc = acc + VecD::Load(a + i) * VecD::Load(b + i);
  }
  double sum = acc.Sum();
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// y[i] += alpha * x[i]. Elementwise — bit-identical to the scalar loop
/// on every backend (each lane is one mul and one add, no reassociation).
inline void Axpy(double alpha, const double* x, double* y, size_t n) {
  size_t i = 0;
  if (VecD::kLanes > 1 && !ForceScalarEnabled()) {
    const VecD va = VecD::Set1(alpha);
    for (; i + VecD::kLanes <= n; i += VecD::kLanes) {
      (VecD::Load(y + i) + va * VecD::Load(x + i)).Store(y + i);
    }
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// Fills n doubles with `value` (vectorized memset for scratch reuse).
inline void Fill(double* p, double value, size_t n) {
  size_t i = 0;
  if (VecD::kLanes > 1) {
    const VecD v = VecD::Set1(value);
    for (; i + VecD::kLanes <= n; i += VecD::kLanes) v.Store(p + i);
  }
  for (; i < n; ++i) p[i] = value;
}

}  // namespace simd
}  // namespace autofp

#endif  // AUTOFP_UTIL_SIMD_H_
