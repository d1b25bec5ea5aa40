#include "diagonal/diagonal_u16.hpp"

#include <algorithm>
#include <cmath>

namespace qokit {

DiagonalU16 DiagonalU16::encode(const CostDiagonal& d) {
  DiagonalU16 out;
  out.n_ = d.num_qubits();
  const std::uint64_t dim = d.size();
  out.codes_.resize(dim);

  const double lo = d.min_value();
  const double hi = d.max_value();
  out.offset_ = lo;

  // Prefer scale 1 when the shifted spectrum already fits uint16 and is
  // integral -- the exact LABS case from the paper. Otherwise spread the
  // range over all 65536 levels.
  bool integral = true;
  for (std::uint64_t x = 0; x < dim && integral; ++x) {
    const double shifted = d[x] - lo;
    integral = std::abs(shifted - std::round(shifted)) < 1e-9;
  }
  if (integral && hi - lo <= 65535.0) {
    out.scale_ = 1.0;
  } else {
    out.scale_ = (hi > lo) ? (hi - lo) / 65535.0 : 1.0;
  }

  double max_err = 0.0;
  for (std::uint64_t x = 0; x < dim; ++x) {
    const double level = (d[x] - lo) / out.scale_;
    const double clamped = std::clamp(std::round(level), 0.0, 65535.0);
    out.codes_[x] = static_cast<std::uint16_t>(clamped);
    out.max_code_ = std::max(out.max_code_, out.codes_[x]);
    max_err = std::max(max_err,
                       std::abs(out.offset_ + out.scale_ * clamped - d[x]));
  }
  out.max_err_ = max_err;
  out.exact_ = max_err < 1e-12;
  return out;
}

aligned_vector<std::complex<double>> DiagonalU16::phase_table(
    double gamma) const {
  aligned_vector<std::complex<double>> lut;
  phase_table_into(gamma, lut);
  return lut;
}

void DiagonalU16::phase_table_into(
    double gamma, aligned_vector<std::complex<double>>& lut) const {
  lut.resize(phase_table_size());
  for (std::uint32_t c = 0; c < lut.size(); ++c) {
    const double ang = -gamma * (offset_ + scale_ * c);
    lut[c] = std::complex<double>(std::cos(ang), std::sin(ang));
  }
}

void DiagonalU16::phase_table_into(
    double gamma, aligned_vector<std::complex<float>>& lut) const {
  lut.resize(phase_table_size());
  for (std::uint32_t c = 0; c < lut.size(); ++c) {
    const double ang = -gamma * (offset_ + scale_ * c);
    lut[c] = std::complex<float>(static_cast<float>(std::cos(ang)),
                                 static_cast<float>(std::sin(ang)));
  }
}

}  // namespace qokit
