// Scalar kernel family: portable reference implementations of the block
// kernels in simd/kernels.hpp, templated on the amplitude scalar. These are
// the exact loops the simulators ran before the SIMD layer existed,
// reshaped into block-range form, and they double as the correctness oracle
// for the vectorized families (the parity suite asserts agreement within
// 1e-12 per amplitude for f64, 2e-6 for f32).
//
// Precision containment: at T = float the phase angle and its sin/cos are
// still computed in double (one rounding on the narrow to float), the
// butterfly coefficients c/s narrow once before the loop, and every
// reduction accumulates in double — only the amplitude arithmetic itself
// runs at T.
#include <cmath>
#include <complex>
#include <type_traits>

#include "common/bitops.hpp"
#include "simd/kernels.hpp"

namespace qokit {
namespace simd {
namespace {

template <class T>
void phase_scalar(std::complex<T>* amp, const double* costs,
                  std::uint64_t count, double gamma) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const double ang = -gamma * costs[i];
    amp[i] *= std::complex<T>(static_cast<T>(std::cos(ang)),
                              static_cast<T>(std::sin(ang)));
  }
}

template <class T>
void phase_table_scalar(std::complex<T>* amp, const std::uint16_t* codes,
                        const std::complex<T>* table, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) amp[i] *= table[codes[i]];
}

template <class T>
void phase_popcount_scalar(std::complex<T>* amp, std::uint64_t index_base,
                           std::uint64_t count, const std::complex<T>* table) {
  for (std::uint64_t i = 0; i < count; ++i)
    amp[i] *= table[popcount(index_base + i)];
}

/// e^{-i beta X} on one pair (p0 = x0, p1 = x1 as re/im arrays):
/// y0 = c x0 - i s x1, y1 = -i s x0 + c x1. In real arithmetic on re/im
/// parts this is four multiply-adds per pair, each product rounded on its
/// own (this TU has no FMA contraction).
template <class T>
inline void rx_butterfly(T* p0, T* p1, T tc, T ts) {
  const T x0re = p0[0], x0im = p0[1];
  const T x1re = p1[0], x1im = p1[1];
  p0[0] = tc * x0re + ts * x1im;
  p0[1] = tc * x0im - ts * x1re;
  p1[0] = tc * x1re + ts * x0im;
  p1[1] = tc * x1im - ts * x0re;
}

template <class T>
void phase_rx_scalar(std::complex<T>* amp, const double* costs,
                     std::uint64_t count, double gamma, double c, double s) {
  // Per adjacent pair: the exact statements of phase_scalar on both
  // amplitudes, then the exact qubit-0 update of rx_pairs_scalar — same
  // per-op rounding (this TU has no FMA contraction to drift), one pass.
  T* d = reinterpret_cast<T*>(amp);
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  for (std::uint64_t k = 0; 2 * k < count; ++k) {
    for (std::uint64_t i = 2 * k; i < 2 * k + 2; ++i) {
      const double ang = -gamma * costs[i];
      amp[i] *= std::complex<T>(static_cast<T>(std::cos(ang)),
                                static_cast<T>(std::sin(ang)));
    }
    rx_butterfly(d + 4 * k, d + 4 * k + 2, tc, ts);
  }
}

template <class T>
void rx_pairs_scalar(std::complex<T>* x, int qubit, std::uint64_t kb,
                     std::uint64_t ke, double c, double s) {
  T* d = reinterpret_cast<T*>(x);
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  const std::uint64_t stride = 1ull << qubit;
  for (std::uint64_t k = kb; k < ke; ++k) {
    const std::uint64_t i0 = insert_zero_bit(k, qubit) << 1;
    rx_butterfly(d + i0, d + i0 + (stride << 1), tc, ts);
  }
}

template <class T>
void rx_block_scalar(std::complex<T>* x, int q0, int k, std::uint64_t gb,
                     std::uint64_t ge, double c, double s) {
  // Gather the group's 2^k members, run the k butterflies in ascending
  // qubit order (member m's partner for qubit q0 + j is m | 2^j), scatter
  // back: the per-amplitude statements of k rx_pairs_scalar calls.
  const T tc = static_cast<T>(c);
  const T ts = static_cast<T>(s);
  const std::uint64_t stride = 1ull << q0;
  const unsigned members = 1u << k;
  T v[2 << detail::kRxBlockMax];
  for (std::uint64_t g = gb; g < ge; ++g) {
    std::complex<T>* base = x + insert_zero_bits(g, q0, k);
    for (unsigned m = 0; m < members; ++m) {
      v[2 * m] = base[m * stride].real();
      v[2 * m + 1] = base[m * stride].imag();
    }
    for (int j = 0; j < k; ++j)
      for (unsigned m = 0; m < members; ++m)
        if (!((m >> j) & 1u))
          rx_butterfly(v + 2 * m, v + 2 * (m | (1u << j)), tc, ts);
    for (unsigned m = 0; m < members; ++m)
      base[m * stride] = std::complex<T>(v[2 * m], v[2 * m + 1]);
  }
}

template <class T>
void hadamard_pairs_scalar(std::complex<T>* x, int qubit, std::uint64_t kb,
                           std::uint64_t ke) {
  constexpr T kInvSqrt2 = static_cast<T>(0.70710678118654752440);
  const std::uint64_t stride = 1ull << qubit;
  for (std::uint64_t k = kb; k < ke; ++k) {
    const std::uint64_t i0 = insert_zero_bit(k, qubit);
    const std::uint64_t i1 = i0 | stride;
    const std::complex<T> x0 = x[i0];
    const std::complex<T> x1 = x[i1];
    x[i0] = (x0 + x1) * kInvSqrt2;
    x[i1] = (x0 - x1) * kInvSqrt2;
  }
}

/// |amp[i]|^2 widened to double before the squares — the one sanctioned
/// pattern for touching f32 amplitudes in a reduction.
template <class T>
inline double norm_widened(const std::complex<T>& a) {
  if constexpr (std::is_same_v<T, double>) {
    return std::norm(a);
  } else {
    const double re = a.real(), im = a.imag();
    return re * re + im * im;
  }
}

template <class T>
double expectation_scalar(const std::complex<T>* amp, const double* costs,
                          std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i)
    acc += norm_widened(amp[i]) * costs[i];
  return acc;
}

template <class T>
double expectation_u16_scalar(const std::complex<T>* amp,
                              const std::uint16_t* codes, double offset,
                              double scale, std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i)
    acc += norm_widened(amp[i]) * (offset + scale * codes[i]);
  return acc;
}

template <class T>
double norm_squared_scalar(const std::complex<T>* amp, std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) acc += norm_widened(amp[i]);
  return acc;
}

template <class T>
double overlap_scalar(const std::complex<T>* amp, const double* costs,
                      double threshold, std::uint64_t count) {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < count; ++i)
    if (costs[i] <= threshold) acc += norm_widened(amp[i]);
  return acc;
}

}  // namespace

namespace detail {

const Kernels scalar_kernels = {
    .phase = phase_scalar<double>,
    .phase_table = phase_table_scalar<double>,
    .phase_popcount = phase_popcount_scalar<double>,
    .phase_rx = phase_rx_scalar<double>,
    .rx_pairs = rx_pairs_scalar<double>,
    .rx_block = rx_block_scalar<double>,
    .hadamard_pairs = hadamard_pairs_scalar<double>,
    .expectation = expectation_scalar<double>,
    .expectation_u16 = expectation_u16_scalar<double>,
    .norm_squared = norm_squared_scalar<double>,
    .overlap = overlap_scalar<double>,
};

const KernelsF32 scalar_kernels_f32 = {
    .phase = phase_scalar<float>,
    .phase_table = phase_table_scalar<float>,
    .phase_popcount = phase_popcount_scalar<float>,
    .phase_rx = phase_rx_scalar<float>,
    .rx_pairs = rx_pairs_scalar<float>,
    .rx_block = rx_block_scalar<float>,
    .hadamard_pairs = hadamard_pairs_scalar<float>,
    .expectation = expectation_scalar<float>,
    .expectation_u16 = expectation_u16_scalar<float>,
    .norm_squared = norm_squared_scalar<float>,
    .overlap = overlap_scalar<float>,
};

}  // namespace detail
}  // namespace simd
}  // namespace qokit
