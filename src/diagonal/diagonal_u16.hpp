// Compressed uint16 cost vector (paper Sec. V-B).
//
// The optimal LABS energies are known to be < 2^16 for n < 65, so the paper
// stores the precomputed diagonal as uint16, cutting the memory overhead of
// precomputation from 100% of the state vector (double) to 12.5%. We
// generalize with an affine codec  value = offset + scale * code  that is
// exact whenever the spectrum is integral after shifting/scaling (LABS,
// MaxCut with integer weights, SAT clause counts scaled by 2^k).
//
// A second benefit implemented here: with at most 65536 distinct codes, the
// phase factors e^{-i gamma c_x} for a whole layer can be built as a lookup
// table over the codes in use (max_code() + 1 entries: at most |E| + 1
// for unit-weight MaxCut) and gathered, replacing a sin/cos pair per
// amplitude with a table load.
#pragma once

#include <complex>
#include <cstdint>

#include "common/aligned.hpp"
#include "diagonal/cost_diagonal.hpp"

namespace qokit {

/// uint16-coded diagonal with affine decode.
class DiagonalU16 {
 public:
  DiagonalU16() = default;

  /// Quantize `d` onto 65536 affine-spaced levels. If the values are exactly
  /// representable (integral spectrum with range < 2^16 after scaling),
  /// `is_exact()` is true and decode reproduces them bit-for-bit often
  /// enough for phase/expectation use; otherwise values are rounded to the
  /// nearest level.
  static DiagonalU16 encode(const CostDiagonal& d);

  int num_qubits() const noexcept { return n_; }
  std::uint64_t size() const noexcept { return codes_.size(); }

  /// Decoded cost of basis state x.
  double decode(std::uint64_t x) const noexcept {
    return offset_ + scale_ * codes_[x];
  }

  const std::uint16_t* codes() const noexcept { return codes_.data(); }
  double offset() const noexcept { return offset_; }
  double scale() const noexcept { return scale_; }

  /// True when every decoded value equals the original within 1e-12.
  bool is_exact() const noexcept { return exact_; }

  /// Largest |decode(x) - original| observed during encoding.
  double max_abs_error() const noexcept { return max_err_; }

  /// Largest code in the encoding; codes run 0 .. max_code().
  std::uint16_t max_code() const noexcept { return max_code_; }

  /// Entries of a phase table: one per code in use, max_code() + 1.
  std::uint64_t phase_table_size() const noexcept {
    return std::uint64_t{max_code_} + 1;
  }

  /// Memory held by the codes in bytes (2^n * 2).
  std::uint64_t memory_bytes() const noexcept {
    return size() * sizeof(std::uint16_t);
  }

  /// Phase-factor lookup table for angle gamma: lut[c] = e^{-i gamma
  /// decode(c)}. Size phase_table_size(); rebuild per distinct gamma.
  aligned_vector<std::complex<double>> phase_table(double gamma) const;

  /// Fill a caller-owned table instead of allocating one (resize reuses
  /// capacity), so the per-layer phase application can run with zero
  /// steady-state allocations like every other hot path. The complex64
  /// overload computes each factor in double and narrows once — the
  /// mixed-precision path's table build (half the bytes).
  void phase_table_into(double gamma,
                        aligned_vector<std::complex<double>>& lut) const;
  void phase_table_into(double gamma,
                        aligned_vector<std::complex<float>>& lut) const;

 private:
  int n_ = 0;
  double offset_ = 0.0;
  double scale_ = 1.0;
  bool exact_ = false;
  double max_err_ = 0.0;
  std::uint16_t max_code_ = 0;
  aligned_vector<std::uint16_t> codes_;
};

}  // namespace qokit
