#include "diagonal/diagonal_u16.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "diagonal/ops.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/portfolio.hpp"

namespace qokit {
namespace {

TEST(DiagonalU16, ExactForLabs) {
  // LABS energies are non-negative integers < 2^16 (paper Sec. V-B).
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(10));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_TRUE(u.is_exact());
  EXPECT_DOUBLE_EQ(u.scale(), 1.0);
  for (std::uint64_t x = 0; x < d.size(); ++x)
    EXPECT_DOUBLE_EQ(u.decode(x), d[x]) << "x=" << x;
}

TEST(DiagonalU16, ExactForUnitWeightMaxCut) {
  // -cut is integral; the shifted spectrum is a small set of integers.
  const CostDiagonal d =
      CostDiagonal::precompute(maxcut_terms(Graph::random_regular(10, 3, 6)));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_TRUE(u.is_exact());
}

TEST(DiagonalU16, QuantizesNonIntegralSpectra) {
  const CostDiagonal d =
      CostDiagonal::precompute(portfolio_terms(random_portfolio(8, 3, 0.5, 1)));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_FALSE(u.is_exact());
  const double range = d.max_value() - d.min_value();
  EXPECT_LE(u.max_abs_error(), range / 65535.0);  // half-step rounding bound x2
  for (std::uint64_t x = 0; x < d.size(); ++x)
    EXPECT_NEAR(u.decode(x), d[x], range / 65535.0);
}

TEST(DiagonalU16, MemoryIsQuarterOfDouble) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(10));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_EQ(u.memory_bytes() * 4, d.memory_bytes());
}

TEST(DiagonalU16, PhaseTableMatchesDirectExponentials) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(8));
  const DiagonalU16 u = DiagonalU16::encode(d);
  const double gamma = 0.413;
  const auto lut = u.phase_table(gamma);
  ASSERT_EQ(lut.size(), u.phase_table_size());
  for (std::uint32_t c = 0; c < lut.size(); ++c) {
    const double ang = -gamma * (u.offset() + u.scale() * c);
    EXPECT_NEAR(lut[c].real(), std::cos(ang), 1e-14);
    EXPECT_NEAR(lut[c].imag(), std::sin(ang), 1e-14);
  }
}

TEST(DiagonalU16, PhaseTableCoversExactlyTheCodesInUse) {
  // The table holds one factor per code in use, not one per uint16 value:
  // LABS n=10 energies run 13..285, so the per-layer rebuild costs 273
  // sin/cos pairs instead of 65536.
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(10));
  const DiagonalU16 u = DiagonalU16::encode(d);
  ASSERT_TRUE(u.is_exact());
  EXPECT_EQ(u.phase_table_size(),
            static_cast<std::uint64_t>(d.max_value() - d.min_value()) + 1);
  EXPECT_EQ(u.phase_table_size(), 273u);
  std::uint16_t max_code = 0;
  for (std::uint64_t x = 0; x < u.size(); ++x)
    max_code = std::max(max_code, u.codes()[x]);
  EXPECT_EQ(u.max_code(), max_code);
  aligned_vector<std::complex<float>> lut32;
  u.phase_table_into(0.3, lut32);
  EXPECT_EQ(lut32.size(), u.phase_table_size());
}

TEST(DiagonalU16, ApplyPhaseMatchesDoublePath) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(9));
  const DiagonalU16 u = DiagonalU16::encode(d);
  StateVector a = StateVector::plus_state(9);
  StateVector b = StateVector::plus_state(9);
  apply_phase(a, d, 0.77);
  apply_phase(b, u, 0.77);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(DiagonalU16, ExpectationMatchesDoublePath) {
  const CostDiagonal d = CostDiagonal::precompute(labs_terms(9));
  const DiagonalU16 u = DiagonalU16::encode(d);
  StateVector sv = StateVector::plus_state(9);
  apply_phase(sv, d, 0.3);
  EXPECT_NEAR(expectation(sv, d), expectation(sv, u), 1e-10);
}

TEST(DiagonalU16, ConstantSpectrumHandled) {
  aligned_vector<double> v(16, 5.0);
  const CostDiagonal d = CostDiagonal::from_values(4, std::move(v));
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_TRUE(u.is_exact());
  for (std::uint64_t x = 0; x < 16; ++x) EXPECT_DOUBLE_EQ(u.decode(x), 5.0);
}

TEST(DiagonalU16, WideIntegerRangeFallsBackToScaling) {
  // Range 2^17 exceeds the exact-integer window; codec must scale.
  CostDiagonal d = CostDiagonal::from_function(
      4, [](std::uint64_t x) { return static_cast<double>(x) * 10000.0; });
  const DiagonalU16 u = DiagonalU16::encode(d);
  EXPECT_GT(u.scale(), 1.0);
  for (std::uint64_t x = 0; x < 16; ++x)
    EXPECT_NEAR(u.decode(x), d[x], u.scale());
}

}  // namespace
}  // namespace qokit
