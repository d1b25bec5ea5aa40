// Bit-index utilities shared by every simulator backend.
//
// Convention used throughout qokit-cpp: qubit q corresponds to bit q of the
// amplitude index (qubit 0 = least-significant bit). A computational basis
// state |b_{n-1} ... b_1 b_0> is stored at index sum_q b_q 2^q. Spins follow
// the paper's bijection B ~= {-1,+1}: bit 0 -> spin +1, bit 1 -> spin -1.
#pragma once

#include <bit>
#include <cstdint>

namespace qokit {

/// Number of set bits.
inline int popcount(std::uint64_t x) noexcept { return std::popcount(x); }

/// Parity of the set-bit count: 0 if even, 1 if odd.
inline int parity(std::uint64_t x) noexcept { return std::popcount(x) & 1; }

/// Spin-product sign for a term mask: +1 when an even number of the masked
/// bits are set in `x`, -1 otherwise. This is the XOR + popcount trick the
/// paper uses in its precomputation kernel.
inline double parity_sign(std::uint64_t x, std::uint64_t mask) noexcept {
  return parity(x & mask) ? -1.0 : 1.0;
}

/// Spin value of qubit `q` in basis state `x`: bit 0 -> +1, bit 1 -> -1.
inline int spin_of_bit(std::uint64_t x, int q) noexcept {
  return (x >> q) & 1ull ? -1 : 1;
}

/// Test bit `q`.
inline bool test_bit(std::uint64_t x, int q) noexcept {
  return (x >> q) & 1ull;
}

/// Set bit `q`.
inline std::uint64_t set_bit(std::uint64_t x, int q) noexcept {
  return x | (1ull << q);
}

/// Expand a (n-1)-bit index `k` into an n-bit index with a 0 inserted at bit
/// position `q`. Enumerating k = 0 .. 2^{n-1}-1 visits every amplitude pair
/// (i, i | 2^q) of a single-qubit gate on qubit q exactly once; this is the
/// index computation of Algorithm 1 in the paper collapsed to one loop.
inline std::uint64_t insert_zero_bit(std::uint64_t k, int q) noexcept {
  const std::uint64_t low = k & ((1ull << q) - 1ull);
  return ((k >> q) << (q + 1)) | low;
}

/// Inverse of insert_zero_bit: delete bit `q` from `x`, closing the gap.
/// For an amplitude index with bit q clear this recovers the pair index k
/// with insert_zero_bit(k, q) == x; the tiled butterfly passes use it to
/// translate a chunk base address into a kernel pair range.
inline std::uint64_t remove_bit(std::uint64_t x, int q) noexcept {
  const std::uint64_t low = x & ((1ull << q) - 1ull);
  return ((x >> (q + 1)) << q) | low;
}

/// Expand an (n-k)-bit index `g` into an n-bit index with k consecutive 0s
/// inserted at bits [q, q+k): the base amplitude of the 2^k-member group
/// of a k-qubit block gate on qubits [q, q+k). k == 1 is insert_zero_bit.
inline std::uint64_t insert_zero_bits(std::uint64_t g, int q,
                                      int k) noexcept {
  const std::uint64_t low = g & ((1ull << q) - 1ull);
  return ((g >> q) << (q + k)) | low;
}

/// Inverse of insert_zero_bits: delete bits [q, q+k) from `x`, closing
/// the gap. k == 1 is remove_bit.
inline std::uint64_t remove_bits(std::uint64_t x, int q, int k) noexcept {
  const std::uint64_t low = x & ((1ull << q) - 1ull);
  return ((x >> (q + k)) << q) | low;
}

/// Expand a (n-2)-bit index into an n-bit index with 0s inserted at bit
/// positions `q_lo` < `q_hi`. Enumerates the 4-element orbits of a two-qubit
/// gate. Precondition: q_lo < q_hi.
inline std::uint64_t insert_two_zero_bits(std::uint64_t k, int q_lo,
                                          int q_hi) noexcept {
  return insert_zero_bit(insert_zero_bit(k, q_lo), q_hi);
}

/// 2^n as an unsigned 64-bit value. Valid for n in [0, 63].
inline std::uint64_t dim_of(int num_qubits) noexcept {
  return 1ull << num_qubits;
}

}  // namespace qokit
