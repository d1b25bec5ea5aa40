// AVX2+FMA kernel family. This translation unit is compiled with
// -mavx2 -mfma (set per-file by CMake when QOKIT_SIMD is ON and the target
// is x86-64) and contributes nothing to the build otherwise; dispatch picks
// it at runtime only when CPUID reports both extensions.
//
// Numerics: the phase kernel computes e^{-i gamma c} with an in-register
// sin/cos (Cody–Waite quadrant reduction + Cephes minimax polynomials,
// ~1 ulp over the reduced range, |angle| up to 1e9 with a libm fallback
// beyond). Reductions keep four independent accumulator lanes per block and
// collapse them in a fixed order, so every result is a deterministic
// function of the input alone. The parity suite pins both families to each
// other within 1e-12 per amplitude.
#include "simd/kernels.hpp"

#if QOKIT_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bitops.hpp"

namespace qokit {
namespace simd {
namespace {

// ------------------------------------------------------------- sin/cos
// Three-term Cody–Waite split of pi/2 (Cephes DP1..DP3 doubled). Each
// k*DPx product is formed inside a single-rounding fnmadd, so the
// reduction error is dominated by the residual pi/2 - (DP1+DP2+DP3)
// (~3e-22): at the kHugeAngle bound (|k| ~ 6.4e8) the reduced argument is
// off by at most ~2e-13 absolute, inside the layer's 1e-12 parity budget;
// for the |angle| <~ 1e4 regime real gammas produce it is ~1e-18.
constexpr double kDP1 = 1.57079625129699707031e+00;
constexpr double kDP2 = 7.54978941586159635335e-08;
constexpr double kDP3 = 5.39030285815811905290e-15;
constexpr double kTwoOverPi = 6.36619772367581382433e-01;
// Beyond this magnitude the int32 quadrant index could overflow; the caller
// falls back to libm for the whole 4-lane group (never hit by sane gammas).
constexpr double kHugeAngle = 1.0e9;

// Cephes minimax coefficients for sin/cos on |r| <= pi/4 (highest first).
constexpr double kSinCof[6] = {
    1.58962301576546568060e-10, -2.50507477628578072866e-8,
    2.75573136213857245213e-6,  -1.98412698295895385996e-4,
    8.33333333332211858878e-3,  -1.66666666666666307295e-1,
};
constexpr double kCosCof[6] = {
    -1.13585365213876817300e-11, 2.08757008419747316778e-9,
    -2.75573141792967388112e-7,  2.48015872888517179954e-5,
    -1.38888888888730564116e-3,  4.16666666666665929218e-2,
};

inline __m256d poly6(__m256d z, const double (&c)[6]) {
  __m256d p = _mm256_set1_pd(c[0]);
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[1]));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[2]));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[3]));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[4]));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(c[5]));
  return p;
}

/// Four simultaneous sin/cos. Precondition: every |x| <= kHugeAngle.
inline void sincos4(__m256d x, __m256d* s_out, __m256d* c_out) {
  // Quadrant index k = round(x * 2/pi) and reduced argument r in
  // [-pi/4, pi/4] via the three-term split.
  const __m256d k = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kTwoOverPi)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kDP1), x);
  r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kDP2), r);
  r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kDP3), r);

  const __m256i q = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));

  const __m256d z = _mm256_mul_pd(r, r);
  // sin(r) = r + r z P(z);  cos(r) = 1 - z/2 + z^2 Q(z).
  const __m256d sin_r =
      _mm256_fmadd_pd(_mm256_mul_pd(poly6(z, kSinCof), z), r, r);
  const __m256d cos_r = _mm256_fmadd_pd(
      poly6(z, kCosCof), _mm256_mul_pd(z, z),
      _mm256_fnmadd_pd(_mm256_set1_pd(0.5), z, _mm256_set1_pd(1.0)));

  // Quadrant fixup: q&1 swaps sin/cos; q&2 flips sin; (q+1)&2 flips cos.
  const __m256d swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(q, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(1)));
  const __m256d sin_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(q, _mm256_set1_epi64x(2)), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(q, _mm256_set1_epi64x(1)),
                       _mm256_set1_epi64x(2)),
      62));
  *s_out = _mm256_xor_pd(_mm256_blendv_pd(sin_r, cos_r, swap), sin_sign);
  *c_out = _mm256_xor_pd(_mm256_blendv_pd(cos_r, sin_r, swap), cos_sign);
}

// ------------------------------------------------- complex-multiply bits
// Interleaved packed complex layout: one __m256d holds [re0, im0, re1, im1].

/// (a * f) for interleaved a and broadcast factor halves f_re = [c,c,c',c'],
/// f_im = [s,s,s',s']: fmaddsub gives re = ar*c - ai*s, im = ai*c + ar*s.
inline __m256d cmul_bcast(__m256d a, __m256d f_re, __m256d f_im) {
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);  // [im0, re0, im1, re1]
  return _mm256_fmaddsub_pd(a, f_re, _mm256_mul_pd(a_sw, f_im));
}

/// The e^{-i beta X} update of amplitude register `a` against `b_sw`, its
/// partners with re/im swapped: re = c a_re + s b_im, im = c a_im - s b_re
/// (fmsubadd adds the product on even lanes, subtracts it on odd ones).
/// Equal bit for bit to fmadd(c, a, s * (b_sw with odd lanes negated)),
/// one FP op fewer: round(s * -y) == -round(s * y) and x - y == x + (-y)
/// in IEEE arithmetic (pinned against a std::fma reference by
/// test_simd_kernels).
inline __m256d rx_update(__m256d vc, __m256d vs, __m256d a, __m256d b_sw) {
  return _mm256_fmsubadd_pd(vc, a, _mm256_mul_pd(vs, b_sw));
}

/// Qubit-0 butterfly inside one register [x0, x1]: the partner operand
/// [i1, r1, i0, r0] is a full lane reversal.
inline __m256d rx_q0(__m256d vc, __m256d vs, __m256d a) {
  return rx_update(vc, vs, a, _mm256_permute4x64_pd(a, 0x1B));
}

/// Butterfly between two registers holding partner amplitudes lane for
/// lane (any qubit whose stride spans at least a register).
inline void rx_pair_regs(__m256d vc, __m256d vs, __m256d& a, __m256d& b) {
  const __m256d na = rx_update(vc, vs, a, _mm256_permute_pd(b, 0x5));
  b = rx_update(vc, vs, b, _mm256_permute_pd(a, 0x5));
  a = na;
}

// Tail/fallback elements run the *scalar family's* function (compiled
// without FMA contraction in its own TU), so they match the scalar dispatch
// level bit-for-bit — a local loop here would contract differently.
void phase_scalar_tail(cdouble* amp, const double* costs, std::uint64_t count,
                       double gamma) {
  if (count) detail::scalar_kernels.phase(amp, costs, count, gamma);
}

// --------------------------------------------------------------- kernels

void phase_avx2(cdouble* amp, const double* costs, std::uint64_t count,
                double gamma) {
  double* d = reinterpret_cast<double*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail(amp + i, costs + i, 4, gamma);
      continue;
    }
    __m256d vs, vc;
    sincos4(ang, &vs, &vc);
    // Spread [c0,c1,c2,c3] into per-complex broadcast halves.
    const __m256d f01_re = _mm256_permute4x64_pd(vc, 0x50);  // [c0,c0,c1,c1]
    const __m256d f01_im = _mm256_permute4x64_pd(vs, 0x50);
    const __m256d f23_re = _mm256_permute4x64_pd(vc, 0xFA);  // [c2,c2,c3,c3]
    const __m256d f23_im = _mm256_permute4x64_pd(vs, 0xFA);
    const __m256d a01 = _mm256_loadu_pd(d + 2 * i);
    const __m256d a23 = _mm256_loadu_pd(d + 2 * i + 4);
    _mm256_storeu_pd(d + 2 * i, cmul_bcast(a01, f01_re, f01_im));
    _mm256_storeu_pd(d + 2 * i + 4, cmul_bcast(a23, f23_re, f23_im));
  }
  phase_scalar_tail(amp + i, costs + i, count - i, gamma);
}

void phase_rx_avx2(cdouble* amp, const double* costs, std::uint64_t count,
                   double gamma, double c, double s) {
  // Fused phase + qubit-0 RX. The phase half is phase_avx2's body
  // verbatim (including the huge-angle scalar fallback, taken for the
  // same absolute groups of 4 since both drivers issue 4-aligned ranges);
  // the butterfly half is rx_pairs_avx2's qubit-0 update applied to the
  // phased registers — identical values whether kept in register or
  // stored and reloaded, so the pair of unfused kernels is reproduced bit
  // for bit with one memory round trip instead of two.
  double* d = reinterpret_cast<double*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256d p01, p23;
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail(amp + i, costs + i, 4, gamma);
      p01 = _mm256_loadu_pd(d + 2 * i);
      p23 = _mm256_loadu_pd(d + 2 * i + 4);
    } else {
      __m256d vsin, vcos;
      sincos4(ang, &vsin, &vcos);
      const __m256d f01_re = _mm256_permute4x64_pd(vcos, 0x50);
      const __m256d f01_im = _mm256_permute4x64_pd(vsin, 0x50);
      const __m256d f23_re = _mm256_permute4x64_pd(vcos, 0xFA);
      const __m256d f23_im = _mm256_permute4x64_pd(vsin, 0xFA);
      p01 = cmul_bcast(_mm256_loadu_pd(d + 2 * i), f01_re, f01_im);
      p23 = cmul_bcast(_mm256_loadu_pd(d + 2 * i + 4), f23_re, f23_im);
    }
    _mm256_storeu_pd(d + 2 * i, rx_q0(vc, vs, p01));
    _mm256_storeu_pd(d + 2 * i + 4, rx_q0(vc, vs, p23));
  }
  if (i < count) {
    // count % 4 == 2: one pair left. Scalar-family phase (the unfused
    // kernel's own tail policy), then the in-register qubit-0 butterfly
    // rx_pairs_avx2 applies to every pair.
    phase_scalar_tail(amp + i, costs + i, count - i, gamma);
    _mm256_storeu_pd(d + 2 * i, rx_q0(vc, vs, _mm256_loadu_pd(d + 2 * i)));
  }
}

inline __m256d load_factor_pair(const cdouble* f0, const cdouble* f1) {
  return _mm256_set_m128d(
      _mm_loadu_pd(reinterpret_cast<const double*>(f1)),
      _mm_loadu_pd(reinterpret_cast<const double*>(f0)));
}

/// amp[i] *= f_i for two complex at a time, factors fetched by the caller.
inline void table_mul2(double* d, std::uint64_t i, __m256d f) {
  const __m256d f_re = _mm256_movedup_pd(f);        // [re0, re0, re1, re1]
  const __m256d f_im = _mm256_permute_pd(f, 0xF);   // [im0, im0, im1, im1]
  const __m256d a = _mm256_loadu_pd(d + 2 * i);
  _mm256_storeu_pd(d + 2 * i, cmul_bcast(a, f_re, f_im));
}

void phase_table_avx2(cdouble* amp, const std::uint16_t* codes,
                      const cdouble* table, std::uint64_t count) {
  double* d = reinterpret_cast<double*>(amp);
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2)
    table_mul2(d, i, load_factor_pair(table + codes[i], table + codes[i + 1]));
  for (; i < count; ++i) amp[i] *= table[codes[i]];
}

void phase_popcount_avx2(cdouble* amp, std::uint64_t index_base,
                         std::uint64_t count, const cdouble* table) {
  double* d = reinterpret_cast<double*>(amp);
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2)
    table_mul2(d, i,
               load_factor_pair(table + popcount(index_base + i),
                                table + popcount(index_base + i + 1)));
  for (; i < count; ++i) amp[i] *= table[popcount(index_base + i)];
}

void rx_pairs_avx2(cdouble* x, int qubit, std::uint64_t kb, std::uint64_t ke,
                   double c, double s) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  double* d = reinterpret_cast<double*>(x);
  if (qubit == 0) {
    // Pair (x0, x1) is one register: [r0, i0, r1, i1].
    for (std::uint64_t k = kb; k < ke; ++k)
      _mm256_storeu_pd(d + 4 * k, rx_q0(vc, vs, _mm256_loadu_pd(d + 4 * k)));
    return;
  }
  // qubit >= 1: pairs form two contiguous streams of `stride` amplitudes.
  const std::uint64_t stride = 1ull << qubit;
  std::uint64_t k = kb;
  while (k < ke) {
    const std::uint64_t off = k & (stride - 1);
    const std::uint64_t run = std::min(ke - k, stride - off);
    double* p0 = reinterpret_cast<double*>(x + insert_zero_bit(k, qubit));
    double* p1 = p0 + 2 * stride;
    std::uint64_t j = 0;
    for (; j + 2 <= run; j += 2) {
      __m256d a = _mm256_loadu_pd(p0 + 2 * j);
      __m256d b = _mm256_loadu_pd(p1 + 2 * j);
      rx_pair_regs(vc, vs, a, b);
      _mm256_storeu_pd(p0 + 2 * j, a);
      _mm256_storeu_pd(p1 + 2 * j, b);
    }
    // Odd-pair remainder: delegate to the scalar family (same tail policy
    // as the phase kernel — a local loop here would FMA-contract).
    if (j < run) detail::scalar_kernels.rx_pairs(x, qubit, k + j, k + run, c, s);
    k += run;
  }
}

/// f(std::integral_constant<int, I>{}) for I = 0 .. N-1, expanded at
/// compile time: register arrays indexed by those constants stay in
/// registers (a runtime loop index spills them to the stack).
template <int N, class F>
inline void unroll(const F& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

/// Butterflies of block qubits [0, K) over 2^K registers, member m's
/// partner for block qubit j being r[m | 2^j]: ascending qubit order, every
/// intermediate in registers. `pair` is the precision's rx_pair_regs.
template <int K, class V, class Pair>
inline void rx_regs(V* r, const Pair& pair) {
  unroll<K>([&](auto j) {
    unroll<(1 << K)>([&](auto m) {
      constexpr int kJ = decltype(j)::value;
      constexpr int kM = decltype(m)::value;
      if constexpr (!((kM >> kJ) & 1)) pair(r[kM], r[kM | (1 << kJ)]);
    });
  });
}

template <int K>
void rx_block_avx2_k(cdouble* x, int q0, std::uint64_t gb, std::uint64_t ge,
                     double c, double s) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  const auto pair = [&](__m256d& a, __m256d& b) {
    rx_pair_regs(vc, vs, a, b);
  };
  double* d = reinterpret_cast<double*>(x);
  if (q0 == 0) {
    // Group g is the 2^K contiguous amplitudes from g * 2^K: qubit-0
    // pairs sit inside each register, block qubits 1.. between registers.
    constexpr int kRegs = 1 << (K - 1);
    for (std::uint64_t g = gb; g < ge; ++g) {
      double* p = d + (g << (K + 1));
      __m256d r[kRegs];
      unroll<kRegs>(
          [&](auto i) { r[i] = rx_q0(vc, vs, _mm256_loadu_pd(p + 4 * i)); });
      rx_regs<K - 1>(r, pair);
      unroll<kRegs>([&](auto i) { _mm256_storeu_pd(p + 4 * i, r[i]); });
    }
    return;
  }
  // q0 >= 1: runs of 2^q0 groups, two per register; member m of the
  // groups at run offset j starts at amplitude base + m * 2^q0 + j.
  const std::uint64_t stride = 1ull << q0;
  std::uint64_t g = gb;
  while (g < ge) {
    const std::uint64_t run = std::min(ge - g, stride - (g & (stride - 1)));
    double* p = reinterpret_cast<double*>(x + insert_zero_bits(g, q0, K));
    std::uint64_t j = 0;
    for (; j + 2 <= run; j += 2) {
      __m256d r[1 << K];
      unroll<(1 << K)>(
          [&](auto m) { r[m] = _mm256_loadu_pd(p + 2 * (m * stride + j)); });
      rx_regs<K>(r, pair);
      unroll<(1 << K)>(
          [&](auto m) { _mm256_storeu_pd(p + 2 * (m * stride + j), r[m]); });
    }
    // Partial vector step (only ranges outside the rx_block contract):
    // the scalar family, as rx_pairs' odd-pair remainder.
    if (j < run)
      detail::scalar_kernels.rx_block(x, q0, K, g + j, g + run, c, s);
    g += run;
  }
}

void rx_block_avx2(cdouble* x, int q0, int k, std::uint64_t gb,
                   std::uint64_t ge, double c, double s) {
  switch (k) {
    case 3:
      return rx_block_avx2_k<3>(x, q0, gb, ge, c, s);
    case 2:
      return rx_block_avx2_k<2>(x, q0, gb, ge, c, s);
    default:
      return rx_pairs_avx2(x, q0, gb, ge, c, s);
  }
}

void hadamard_pairs_avx2(cdouble* x, int qubit, std::uint64_t kb,
                         std::uint64_t ke) {
  constexpr double kInvSqrt2 = 0.70710678118654752440;
  const __m256d vk = _mm256_set1_pd(kInvSqrt2);
  double* d = reinterpret_cast<double*>(x);
  if (qubit == 0) {
    for (std::uint64_t k = kb; k < ke; ++k) {
      const __m256d a = _mm256_loadu_pd(d + 4 * k);
      const __m256d b = _mm256_permute2f128_pd(a, a, 0x01);
      // Lanes 0-1: x0 + x1; lanes 2-3: x0 - x1 (note b - a has the partner
      // first in the high half, giving the required x0 - x1 order).
      const __m256d out = _mm256_blend_pd(_mm256_add_pd(a, b),
                                          _mm256_sub_pd(b, a), 0xC);
      _mm256_storeu_pd(d + 4 * k, _mm256_mul_pd(out, vk));
    }
    return;
  }
  const std::uint64_t stride = 1ull << qubit;
  std::uint64_t k = kb;
  while (k < ke) {
    const std::uint64_t off = k & (stride - 1);
    const std::uint64_t run = std::min(ke - k, stride - off);
    double* p0 = reinterpret_cast<double*>(x + insert_zero_bit(k, qubit));
    double* p1 = p0 + 2 * stride;
    std::uint64_t j = 0;
    for (; j + 2 <= run; j += 2) {
      const __m256d a = _mm256_loadu_pd(p0 + 2 * j);
      const __m256d b = _mm256_loadu_pd(p1 + 2 * j);
      _mm256_storeu_pd(p0 + 2 * j,
                       _mm256_mul_pd(_mm256_add_pd(a, b), vk));
      _mm256_storeu_pd(p1 + 2 * j,
                       _mm256_mul_pd(_mm256_sub_pd(a, b), vk));
    }
    if (j < run)
      detail::scalar_kernels.hadamard_pairs(x, qubit, k + j, k + run);
    k += run;
  }
}

// ------------------------------------------------------------ reductions
// |amp|^2 for four complex: squares, then horizontal pair-add. hadd of the
// two square registers yields lane order [n0, n2, n1, n3]; cost/value
// registers are permuted with 0xD8 ([v0, v2, v1, v3]) to match.

inline __m256d norms4(const double* d, std::uint64_t i) {
  const __m256d a01 = _mm256_loadu_pd(d + 2 * i);
  const __m256d a23 = _mm256_loadu_pd(d + 2 * i + 4);
  return _mm256_hadd_pd(_mm256_mul_pd(a01, a01), _mm256_mul_pd(a23, a23));
}

/// Fixed-order horizontal sum: (l0 + l2) + (l1 + l3).
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

double expectation_avx2(const cdouble* amp, const double* costs,
                        std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    acc = _mm256_fmadd_pd(norms4(d, i), cp, acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i) out += std::norm(amp[i]) * costs[i];
  return out;
}

double expectation_u16_avx2(const cdouble* amp, const std::uint16_t* codes,
                            double offset, double scale, std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  const __m256d voff = _mm256_set1_pd(offset);
  const __m256d vscale = _mm256_set1_pd(scale);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i c16 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256d vals = _mm256_fmadd_pd(
        vscale, _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(c16)), voff);
    acc = _mm256_fmadd_pd(norms4(d, i), _mm256_permute4x64_pd(vals, 0xD8),
                          acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    out += std::norm(amp[i]) * (offset + scale * codes[i]);
  return out;
}

double norm_squared_avx2(const cdouble* amp, std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) acc = _mm256_add_pd(acc, norms4(d, i));
  double out = hsum(acc);
  for (; i < count; ++i) out += std::norm(amp[i]);
  return out;
}

double overlap_avx2(const cdouble* amp, const double* costs, double threshold,
                    std::uint64_t count) {
  const double* d = reinterpret_cast<const double*>(amp);
  const __m256d vthr = _mm256_set1_pd(threshold);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    const __m256d mask = _mm256_cmp_pd(cp, vthr, _CMP_LE_OQ);
    acc = _mm256_add_pd(acc, _mm256_and_pd(norms4(d, i), mask));
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    if (costs[i] <= threshold) out += std::norm(amp[i]);
  return out;
}

// ===================================================== f32 family
// Interleaved packed complex64 layout: one __m256 holds four complexes
// [r0, i0, r1, i1, r2, i2, r3, i3] — twice the f64 register density, half
// the bytes per pass. Angle math runs through the same double-precision
// sincos4 above and narrows once to float; reductions widen each 128-bit
// half back to double with cvtps_pd and reuse the f64 accumulation
// structure, so every reduction is double end to end (the error-
// containment contract). Tails and odd remainders delegate to the scalar
// f32 family, mirroring the f64 policy.

/// rx_update at f32: re = c a_re + s b_im, im = c a_im - s b_re.
inline __m256 rx_update_ps(__m256 vc, __m256 vs, __m256 a, __m256 b_sw) {
  return _mm256_fmsubadd_ps(vc, a, _mm256_mul_ps(vs, b_sw));
}

/// Qubit-0 butterflies inside one register: two pairs, one per 128-bit
/// lane [r0, i0, r1, i1], whose partner operand is a within-lane reversal.
inline __m256 rx_q0_ps(__m256 vc, __m256 vs, __m256 a) {
  return rx_update_ps(vc, vs, a, _mm256_permute_ps(a, 0x1B));
}

/// Qubit-1 butterflies inside one register [x0, x1, x2, x3] (partners
/// x0/x2 and x1/x3 across the 128-bit halves) with the scalar family's
/// separately rounded products: rx_pairs_avx2_f32 hands every qubit-1
/// pair to the scalar family (a stride-2 run never fills a register), so
/// this is the arithmetic to reproduce. vns = -s, and
/// addsub(x, -y) == x + y on even lanes, x - y on odd ones, exactly.
inline __m256 rx_q1_unfused_ps(__m256 vc, __m256 vns, __m256 a) {
  const __m256 b_sw =
      _mm256_permute_ps(_mm256_permute2f128_ps(a, a, 0x01), 0xB1);
  return _mm256_addsub_ps(_mm256_mul_ps(vc, a), _mm256_mul_ps(vns, b_sw));
}

/// Butterfly between two registers holding partner amplitudes lane for
/// lane (qubits whose stride spans at least a register).
inline void rx_pair_regs_ps(__m256 vc, __m256 vs, __m256& a, __m256& b) {
  const __m256 na = rx_update_ps(vc, vs, a, _mm256_permute_ps(b, 0xB1));
  b = rx_update_ps(vc, vs, b, _mm256_permute_ps(a, 0xB1));
  a = na;
}

/// (a * f) for interleaved a and per-complex broadcast halves
/// f_re = [c0,c0,c1,c1,...], f_im = [s0,s0,s1,s1,...].
inline __m256 cmul_bcast_ps(__m256 a, __m256 f_re, __m256 f_im) {
  const __m256 a_sw = _mm256_permute_ps(a, 0xB1);  // [im, re] per complex
  return _mm256_fmaddsub_ps(a, f_re, _mm256_mul_ps(a_sw, f_im));
}

/// Narrow four double factors [f0,f1,f2,f3] to float and spread each into
/// its complex's two lanes: [f0,f0,f1,f1,f2,f2,f3,f3].
inline __m256 spread4_ps(__m256d v) {
  const __m128 v4 = _mm256_cvtpd_ps(v);
  const __m256i idx = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  return _mm256_permutevar8x32_ps(_mm256_set_m128(v4, v4), idx);
}

void phase_scalar_tail_f32(cfloat* amp, const double* costs,
                           std::uint64_t count, double gamma) {
  if (count) detail::scalar_kernels_f32.phase(amp, costs, count, gamma);
}

void phase_avx2_f32(cfloat* amp, const double* costs, std::uint64_t count,
                    double gamma) {
  float* d = reinterpret_cast<float*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail_f32(amp + i, costs + i, 4, gamma);
      continue;
    }
    __m256d vs, vc;
    sincos4(ang, &vs, &vc);
    const __m256 a = _mm256_loadu_ps(d + 2 * i);
    _mm256_storeu_ps(d + 2 * i,
                     cmul_bcast_ps(a, spread4_ps(vc), spread4_ps(vs)));
  }
  phase_scalar_tail_f32(amp + i, costs + i, count - i, gamma);
}

void phase_rx_avx2_f32(cfloat* amp, const double* costs, std::uint64_t count,
                       double gamma, double c, double s) {
  // Fused phase + qubit-0 RX, two pairs per register. The cross-partner
  // operand [i1, -r1, i0, -r0] is a within-lane reversal + sign, so the
  // butterfly never crosses the 128-bit boundary.
  float* d = reinterpret_cast<float*>(amp);
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vhuge = _mm256_set1_pd(kHugeAngle);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  const __m256 vc = _mm256_set1_ps(static_cast<float>(c));
  const __m256 vs = _mm256_set1_ps(static_cast<float>(s));
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256 p;
    const __m256d ang = _mm256_mul_pd(vng, _mm256_loadu_pd(costs + i));
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_and_pd(ang, abs_mask), vhuge,
                                         _CMP_GT_OQ))) {
      phase_scalar_tail_f32(amp + i, costs + i, 4, gamma);
      p = _mm256_loadu_ps(d + 2 * i);
    } else {
      __m256d vsin, vcos;
      sincos4(ang, &vsin, &vcos);
      p = cmul_bcast_ps(_mm256_loadu_ps(d + 2 * i), spread4_ps(vcos),
                        spread4_ps(vsin));
    }
    _mm256_storeu_ps(d + 2 * i, rx_q0_ps(vc, vs, p));
  }
  // count % 4 == 2: one pair left; the scalar family fuses it whole.
  if (i < count)
    detail::scalar_kernels_f32.phase_rx(amp + i, costs + i, count - i, gamma,
                                        c, s);
}

/// Four complex64 factors gathered into [re0,im0,...,re3,im3].
inline __m256 load_factor4_ps(const cfloat* f0, const cfloat* f1,
                              const cfloat* f2, const cfloat* f3) {
  const __m128d lo = _mm_loadh_pd(
      _mm_load_sd(reinterpret_cast<const double*>(f0)),
      reinterpret_cast<const double*>(f1));
  const __m128d hi = _mm_loadh_pd(
      _mm_load_sd(reinterpret_cast<const double*>(f2)),
      reinterpret_cast<const double*>(f3));
  return _mm256_set_m128(_mm_castpd_ps(hi), _mm_castpd_ps(lo));
}

/// amp[i..i+3] *= f_0..3 for four complexes, factors fetched by the caller.
inline void table_mul4_ps(float* d, std::uint64_t i, __m256 f) {
  const __m256 f_re = _mm256_moveldup_ps(f);  // [re0, re0, re1, re1, ...]
  const __m256 f_im = _mm256_movehdup_ps(f);  // [im0, im0, im1, im1, ...]
  const __m256 a = _mm256_loadu_ps(d + 2 * i);
  _mm256_storeu_ps(d + 2 * i, cmul_bcast_ps(a, f_re, f_im));
}

void phase_table_avx2_f32(cfloat* amp, const std::uint16_t* codes,
                          const cfloat* table, std::uint64_t count) {
  float* d = reinterpret_cast<float*>(amp);
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4)
    table_mul4_ps(d, i,
                  load_factor4_ps(table + codes[i], table + codes[i + 1],
                                  table + codes[i + 2], table + codes[i + 3]));
  for (; i < count; ++i) amp[i] *= table[codes[i]];
}

void phase_popcount_avx2_f32(cfloat* amp, std::uint64_t index_base,
                             std::uint64_t count, const cfloat* table) {
  float* d = reinterpret_cast<float*>(amp);
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4)
    table_mul4_ps(d, i,
                  load_factor4_ps(table + popcount(index_base + i),
                                  table + popcount(index_base + i + 1),
                                  table + popcount(index_base + i + 2),
                                  table + popcount(index_base + i + 3)));
  for (; i < count; ++i) amp[i] *= table[popcount(index_base + i)];
}

void rx_pairs_avx2_f32(cfloat* x, int qubit, std::uint64_t kb,
                       std::uint64_t ke, double c, double s) {
  const __m256 vc = _mm256_set1_ps(static_cast<float>(c));
  const __m256 vs = _mm256_set1_ps(static_cast<float>(s));
  float* d = reinterpret_cast<float*>(x);
  if (qubit == 0) {
    std::uint64_t k = kb;
    for (; k + 2 <= ke; k += 2)
      _mm256_storeu_ps(d + 4 * k, rx_q0_ps(vc, vs, _mm256_loadu_ps(d + 4 * k)));
    if (k < ke) detail::scalar_kernels_f32.rx_pairs(x, qubit, k, ke, c, s);
    return;
  }
  // qubit >= 1: pairs form two contiguous streams of `stride` amplitudes.
  const std::uint64_t stride = 1ull << qubit;
  std::uint64_t k = kb;
  while (k < ke) {
    const std::uint64_t off = k & (stride - 1);
    const std::uint64_t run = std::min(ke - k, stride - off);
    float* p0 = reinterpret_cast<float*>(x + insert_zero_bit(k, qubit));
    float* p1 = p0 + 2 * stride;
    std::uint64_t j = 0;
    for (; j + 4 <= run; j += 4) {
      __m256 a = _mm256_loadu_ps(p0 + 2 * j);
      __m256 b = _mm256_loadu_ps(p1 + 2 * j);
      rx_pair_regs_ps(vc, vs, a, b);
      _mm256_storeu_ps(p0 + 2 * j, a);
      _mm256_storeu_ps(p1 + 2 * j, b);
    }
    if (j < run)
      detail::scalar_kernels_f32.rx_pairs(x, qubit, k + j, k + run, c, s);
    k += run;
  }
}

template <int K>
void rx_block_avx2_f32_k(cfloat* x, int q0, std::uint64_t gb,
                         std::uint64_t ge, double c, double s) {
  const __m256 vc = _mm256_set1_ps(static_cast<float>(c));
  const __m256 vs = _mm256_set1_ps(static_cast<float>(s));
  const __m256 vns = _mm256_set1_ps(-static_cast<float>(s));
  const auto pair = [&](__m256& a, __m256& b) {
    rx_pair_regs_ps(vc, vs, a, b);
  };
  const std::uint64_t stride = 1ull << q0;
  std::uint64_t g = gb;
  while (g < ge) {
    const std::uint64_t run = std::min(ge - g, stride - (g & (stride - 1)));
    float* p = reinterpret_cast<float*>(x + insert_zero_bits(g, q0, K));
    std::uint64_t j = 0;
    if (q0 < 2) {
      // A whole run (2^q0 groups) is 2^(q0+K) contiguous amplitudes:
      // block qubits below 2 pair inside each register (qubit 0 fused,
      // qubit 1 with rx_pairs' scalar-family rounding), the rest between
      // registers.
      if (run == stride) {
        if (q0 == 0) {
          constexpr int kRegs = 1 << (K - 2);
          __m256 r[kRegs];
          unroll<kRegs>([&](auto i) {
            r[i] = rx_q1_unfused_ps(
                vc, vns, rx_q0_ps(vc, vs, _mm256_loadu_ps(p + 8 * i)));
          });
          rx_regs<K - 2>(r, pair);
          unroll<kRegs>([&](auto i) { _mm256_storeu_ps(p + 8 * i, r[i]); });
        } else {
          constexpr int kRegs = 1 << (K - 1);
          __m256 r[kRegs];
          unroll<kRegs>([&](auto i) {
            r[i] = rx_q1_unfused_ps(vc, vns, _mm256_loadu_ps(p + 8 * i));
          });
          rx_regs<K - 1>(r, pair);
          unroll<kRegs>([&](auto i) { _mm256_storeu_ps(p + 8 * i, r[i]); });
        }
        j = run;
      }
    } else {
      // q0 >= 2: four groups per register; member m of the groups at run
      // offset j starts at amplitude base + m * 2^q0 + j.
      for (; j + 4 <= run; j += 4) {
        __m256 r[1 << K];
        unroll<(1 << K)>(
            [&](auto m) { r[m] = _mm256_loadu_ps(p + 2 * (m * stride + j)); });
        rx_regs<K>(r, pair);
        unroll<(1 << K)>(
            [&](auto m) { _mm256_storeu_ps(p + 2 * (m * stride + j), r[m]); });
      }
    }
    if (j < run)
      detail::scalar_kernels_f32.rx_block(x, q0, K, g + j, g + run, c, s);
    g += run;
  }
}

void rx_block_avx2_f32(cfloat* x, int q0, int k, std::uint64_t gb,
                       std::uint64_t ge, double c, double s) {
  switch (k) {
    case 3:
      return rx_block_avx2_f32_k<3>(x, q0, gb, ge, c, s);
    case 2:
      return rx_block_avx2_f32_k<2>(x, q0, gb, ge, c, s);
    default:
      return rx_pairs_avx2_f32(x, q0, gb, ge, c, s);
  }
}

void hadamard_pairs_avx2_f32(cfloat* x, int qubit, std::uint64_t kb,
                             std::uint64_t ke) {
  constexpr float kInvSqrt2f = 0.70710678118654752440f;
  const __m256 vk = _mm256_set1_ps(kInvSqrt2f);
  float* d = reinterpret_cast<float*>(x);
  if (qubit == 0) {
    std::uint64_t k = kb;
    for (; k + 2 <= ke; k += 2) {
      const __m256 a = _mm256_loadu_ps(d + 4 * k);
      // Swap the two complexes within each lane; blend keeps x0 + x1 in
      // the low complex and takes x0 - x1 (partner-first b - a) in the
      // high one.
      const __m256 b = _mm256_permute_ps(a, 0x4E);
      const __m256 out = _mm256_blend_ps(_mm256_add_ps(a, b),
                                         _mm256_sub_ps(b, a), 0xCC);
      _mm256_storeu_ps(d + 4 * k, _mm256_mul_ps(out, vk));
    }
    if (k < ke) detail::scalar_kernels_f32.hadamard_pairs(x, qubit, k, ke);
    return;
  }
  const std::uint64_t stride = 1ull << qubit;
  std::uint64_t k = kb;
  while (k < ke) {
    const std::uint64_t off = k & (stride - 1);
    const std::uint64_t run = std::min(ke - k, stride - off);
    float* p0 = reinterpret_cast<float*>(x + insert_zero_bit(k, qubit));
    float* p1 = p0 + 2 * stride;
    std::uint64_t j = 0;
    for (; j + 4 <= run; j += 4) {
      const __m256 a = _mm256_loadu_ps(p0 + 2 * j);
      const __m256 b = _mm256_loadu_ps(p1 + 2 * j);
      _mm256_storeu_ps(p0 + 2 * j, _mm256_mul_ps(_mm256_add_ps(a, b), vk));
      _mm256_storeu_ps(p1 + 2 * j, _mm256_mul_ps(_mm256_sub_ps(a, b), vk));
    }
    if (j < run)
      detail::scalar_kernels_f32.hadamard_pairs(x, qubit, k + j, k + run);
    k += run;
  }
}

// f32 reductions: widen each 128-bit half of the four loaded complexes to
// double with cvtps_pd, then reuse the f64 norms4/hsum structure — the
// accumulator registers are __m256d, so nothing aggregates at float.

inline __m256d norms4_f32(const float* d, std::uint64_t i) {
  const __m256 a = _mm256_loadu_ps(d + 2 * i);
  const __m256d a01 = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
  const __m256d a23 = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
  return _mm256_hadd_pd(_mm256_mul_pd(a01, a01), _mm256_mul_pd(a23, a23));
}

/// Scalar-tail |amp|^2 with the components widened to double first.
inline double norm_widened_f32(cfloat a) {
  const double re = a.real(), im = a.imag();
  return re * re + im * im;
}

double expectation_avx2_f32(const cfloat* amp, const double* costs,
                            std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    acc = _mm256_fmadd_pd(norms4_f32(d, i), cp, acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i) out += norm_widened_f32(amp[i]) * costs[i];
  return out;
}

double expectation_u16_avx2_f32(const cfloat* amp, const std::uint16_t* codes,
                                double offset, double scale,
                                std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  const __m256d voff = _mm256_set1_pd(offset);
  const __m256d vscale = _mm256_set1_pd(scale);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i c16 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256d vals = _mm256_fmadd_pd(
        vscale, _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(c16)), voff);
    acc = _mm256_fmadd_pd(norms4_f32(d, i),
                          _mm256_permute4x64_pd(vals, 0xD8), acc);
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    out += norm_widened_f32(amp[i]) * (offset + scale * codes[i]);
  return out;
}

double norm_squared_avx2_f32(const cfloat* amp, std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) acc = _mm256_add_pd(acc, norms4_f32(d, i));
  double out = hsum(acc);
  for (; i < count; ++i) out += norm_widened_f32(amp[i]);
  return out;
}

double overlap_avx2_f32(const cfloat* amp, const double* costs,
                        double threshold, std::uint64_t count) {
  const float* d = reinterpret_cast<const float*>(amp);
  const __m256d vthr = _mm256_set1_pd(threshold);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d cp =
        _mm256_permute4x64_pd(_mm256_loadu_pd(costs + i), 0xD8);
    const __m256d mask = _mm256_cmp_pd(cp, vthr, _CMP_LE_OQ);
    acc = _mm256_add_pd(acc, _mm256_and_pd(norms4_f32(d, i), mask));
  }
  double out = hsum(acc);
  for (; i < count; ++i)
    if (costs[i] <= threshold) out += norm_widened_f32(amp[i]);
  return out;
}

}  // namespace

namespace detail {

const Kernels avx2_kernels = {
    .phase = phase_avx2,
    .phase_table = phase_table_avx2,
    .phase_popcount = phase_popcount_avx2,
    .phase_rx = phase_rx_avx2,
    .rx_pairs = rx_pairs_avx2,
    .rx_block = rx_block_avx2,
    .hadamard_pairs = hadamard_pairs_avx2,
    .expectation = expectation_avx2,
    .expectation_u16 = expectation_u16_avx2,
    .norm_squared = norm_squared_avx2,
    .overlap = overlap_avx2,
};

const KernelsF32 avx2_kernels_f32 = {
    .phase = phase_avx2_f32,
    .phase_table = phase_table_avx2_f32,
    .phase_popcount = phase_popcount_avx2_f32,
    .phase_rx = phase_rx_avx2_f32,
    .rx_pairs = rx_pairs_avx2_f32,
    .rx_block = rx_block_avx2_f32,
    .hadamard_pairs = hadamard_pairs_avx2_f32,
    .expectation = expectation_avx2_f32,
    .expectation_u16 = expectation_u16_avx2_f32,
    .norm_squared = norm_squared_avx2_f32,
    .overlap = overlap_avx2_f32,
};

}  // namespace detail
}  // namespace simd
}  // namespace qokit

#else  // !QOKIT_SIMD_X86

// Scalar-only build: this family is absent and dispatch never selects it.
namespace qokit {
namespace simd {}
}  // namespace qokit

#endif  // QOKIT_SIMD_X86
