// Parity suite for the runtime-dispatched SIMD kernel layer: every
// dispatched kernel must agree with the scalar family within 1e-12 per
// amplitude, across all qubit positions, both Exec policies, and the
// table-driven u16/popcount paths. Also holds the determinism contract
// (Serial == Parallel bitwise at a fixed dispatch level) and the sampler
// edge-case regressions from the hot-path bugfix sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "diagonal/diagonal_u16.hpp"
#include "diagonal/ops.hpp"
#include "fur/fwht.hpp"
#include "fur/simulator.hpp"
#include "fur/su2.hpp"
#include "problems/labs.hpp"
#include "simd/kernels.hpp"
#include "statevector/sampling.hpp"

namespace qokit {
namespace {

/// Restores the dispatch level that was active at test entry (which may be
/// a QOKIT_SIMD=scalar override, not the detected level).
struct SimdLevelGuard {
  SimdLevel entry = active_simd_level();
  ~SimdLevelGuard() { force_simd_level(entry); }
};

bool has_vector_level() {
  return detect_simd_level() != SimdLevel::Scalar;
}

StateVector random_state(int n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  for (std::uint64_t i = 0; i < sv.size(); ++i)
    sv[i] = cdouble(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  sv.normalize();
  return sv;
}

aligned_vector<double> random_costs(int n, std::uint64_t seed, double lo,
                                    double hi) {
  Rng rng(seed);
  aligned_vector<double> costs(dim_of(n));
  for (double& c : costs) c = rng.uniform(lo, hi);
  return costs;
}

void expect_states_close(const StateVector& a, const StateVector& b,
                         double tol, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LE(a.max_abs_diff(b), tol) << what;
}

constexpr Exec kExecs[] = {Exec::Serial, Exec::Parallel};

TEST(SimdDispatch, LevelIsConsistent) {
  SimdLevelGuard guard;
  EXPECT_TRUE(simd_level_compiled(SimdLevel::Scalar));
  const SimdLevel detected = detect_simd_level();
  if (detected == SimdLevel::Avx2) {
    EXPECT_TRUE(simd_level_compiled(SimdLevel::Avx2));
  }
  // Forcing scalar always succeeds; forcing the detected level restores it.
  EXPECT_EQ(force_simd_level(SimdLevel::Scalar), SimdLevel::Scalar);
  EXPECT_EQ(force_simd_level(detected), detected);
  EXPECT_EQ(active_simd_level(), detected);
}

TEST(SimdPhase, DispatchedMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  // n = 15 (2^15 elements) spans four kSimdBlock = 2^13 blocks; n = 9
  // exercises the sub-block and vector-tail paths.
  for (int n : {9, 15}) {
    const auto costs = random_costs(n, 11, -40.0, 40.0);
    for (double gamma : {0.37, -2.9, 123.456}) {
      for (Exec exec : kExecs) {
        StateVector a = random_state(n, 21);
        StateVector b = a;
        force_simd_level(SimdLevel::Scalar);
        apply_phase_slice(a.data(), costs.data(), a.size(), gamma, exec);
        force_simd_level(detect_simd_level());
        apply_phase_slice(b.data(), costs.data(), b.size(), gamma, exec);
        expect_states_close(a, b, 1e-12, "phase");
      }
    }
  }
}

TEST(SimdPhase, HugeAnglesFallBackToLibm) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  // |gamma * cost| beyond the vector sincos range must take the libm
  // fallback: groups where every angle is huge match the scalar family
  // exactly, mixed groups stay within the 1e-12 parity bound.
  const auto huge = random_costs(10, 13, 1.1e9, 3.0e9);
  StateVector a = random_state(10, 23);
  StateVector b = a;
  force_simd_level(SimdLevel::Scalar);
  apply_phase_slice(a.data(), huge.data(), a.size(), 1.0, Exec::Serial);
  force_simd_level(detect_simd_level());
  apply_phase_slice(b.data(), huge.data(), b.size(), 1.0, Exec::Serial);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);

  const auto mixed = random_costs(10, 15, -3.0e9, 3.0e9);
  StateVector c = random_state(10, 25);
  StateVector d = c;
  force_simd_level(SimdLevel::Scalar);
  apply_phase_slice(c.data(), mixed.data(), c.size(), 1.0, Exec::Serial);
  force_simd_level(detect_simd_level());
  apply_phase_slice(d.data(), mixed.data(), d.size(), 1.0, Exec::Serial);
  expect_states_close(c, d, 1e-12, "phase-mixed-huge");
}

TEST(SimdPhase, U16TablePathMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 12;
  // Integral spectrum so the u16 codec is exact.
  auto costs = random_costs(n, 17, -100.0, 100.0);
  for (double& c : costs) c = std::round(c);
  const auto diag = CostDiagonal::from_values(n, std::move(costs));
  const auto d16 = DiagonalU16::encode(diag);
  ASSERT_TRUE(d16.is_exact());
  for (Exec exec : kExecs) {
    StateVector a = random_state(n, 29);
    StateVector b = a;
    force_simd_level(SimdLevel::Scalar);
    apply_phase(a, d16, 0.81, exec);
    force_simd_level(detect_simd_level());
    apply_phase(b, d16, 0.81, exec);
    expect_states_close(a, b, 1e-12, "phase-u16");
  }
}

TEST(SimdPhase, PopcountTableMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 11;
  // Nonzero index_base mimics a distributed rank slice: the table covers
  // the global weights, and 12345 + 2^11 < 2^14 global amplitudes.
  const int n_global = 14;
  aligned_vector<cdouble> table(static_cast<std::size_t>(n_global) + 1);
  for (int w = 0; w <= n_global; ++w) {
    const double ang = 0.3 * w - 0.7;
    table[w] = cdouble(std::cos(ang), std::sin(ang));
  }
  for (std::uint64_t base : {0ull, 12345ull}) {
    StateVector a = random_state(n, 31);
    StateVector b = a;
    force_simd_level(SimdLevel::Scalar);
    simd::apply_phase_popcount(a.data(), base, a.size(), table.data(),
                               Exec::Serial);
    force_simd_level(detect_simd_level());
    simd::apply_phase_popcount(b.data(), base, b.size(), table.data(),
                               Exec::Serial);
    expect_states_close(a, b, 1e-12, "phase-popcount");
  }
}

TEST(SimdButterflies, RxMatchesScalarAtEveryQubit) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 12;
  const double c = std::cos(0.42), s = std::sin(0.42);
  for (int q = 0; q < n; ++q) {
    for (Exec exec : kExecs) {
      StateVector a = random_state(n, 37 + q);
      StateVector b = a;
      force_simd_level(SimdLevel::Scalar);
      kern::rx(a.data(), a.size(), q, c, s, exec);
      force_simd_level(detect_simd_level());
      kern::rx(b.data(), b.size(), q, c, s, exec);
      expect_states_close(a, b, 1e-12, "rx");
    }
  }
}

TEST(SimdButterflies, HadamardMatchesScalarAtEveryQubit) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 12;
  for (int q = 0; q < n; ++q) {
    for (Exec exec : kExecs) {
      StateVector a = random_state(n, 41 + q);
      StateVector b = a;
      force_simd_level(SimdLevel::Scalar);
      kern::hadamard(a.data(), a.size(), q, exec);
      force_simd_level(detect_simd_level());
      kern::hadamard(b.data(), b.size(), q, exec);
      expect_states_close(a, b, 1e-12, "hadamard");
    }
  }
}

TEST(SimdButterflies, FwhtMixerMatchesScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  for (Exec exec : kExecs) {
    StateVector a = random_state(13, 43);
    StateVector b = a;
    force_simd_level(SimdLevel::Scalar);
    apply_mixer_x_fwht(a, 0.77, exec);
    force_simd_level(detect_simd_level());
    apply_mixer_x_fwht(b, 0.77, exec);
    expect_states_close(a, b, 1e-11, "fwht-mixer");
  }
}

// ------------------------------------------- register-blocked butterflies

/// Every compiled family whose ISA this host runs, at amplitude scalar T
/// (index 0: scalar, index 1: AVX2).
template <class T>
std::vector<const simd::detail::KernelsT<T>*> runnable_families() {
  std::vector<const simd::detail::KernelsT<T>*> out;
  if constexpr (std::is_same_v<T, double>)
    out.push_back(&simd::detail::scalar_kernels);
  else
    out.push_back(&simd::detail::scalar_kernels_f32);
#if QOKIT_SIMD_X86
  if (detect_simd_level() == SimdLevel::Avx2) {
    if constexpr (std::is_same_v<T, double>)
      out.push_back(&simd::detail::avx2_kernels);
    else
      out.push_back(&simd::detail::avx2_kernels_f32);
  }
#endif
  return out;
}

template <class T>
aligned_vector<std::complex<T>> random_amplitudes(int n, std::uint64_t seed) {
  Rng rng(seed);
  aligned_vector<std::complex<T>> amp(dim_of(n));
  for (auto& a : amp)
    a = std::complex<T>(static_cast<T>(rng.uniform(-1.0, 1.0)),
                        static_cast<T>(rng.uniform(-1.0, 1.0)));
  return amp;
}

template <class T>
bool bitwise_equal(const aligned_vector<std::complex<T>>& a,
                   const aligned_vector<std::complex<T>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

/// rx_block over qubits [q0, q0+k) must reproduce k successive rx_pairs
/// calls bit for bit, in both forms the layer executor issues: contiguous
/// (the whole array, and one aligned tile of 2^(q0+k+1) amplitudes) and
/// strided rows (one chunk per member row; the executor's chunks are >= 4
/// amplitudes and never exceed the row stride 2^q0, so q0 >= 2).
template <class T>
void expect_rx_block_matches_rx_pairs() {
  const int n = 14;  // room for the q0 = 9, k = 3 tile at offset 2^13
  const std::uint64_t dim = dim_of(n);
  const double c = std::cos(0.61), s = std::sin(0.61);
  const auto families = runnable_families<T>();
  for (std::size_t f = 0; f < families.size(); ++f) {
    const simd::detail::KernelsT<T>* fam = families[f];
    for (const int q0 : {0, 1, 2, 3, 5, 9}) {
      for (int k = 1; k <= simd::detail::kRxBlockMax; ++k) {
        const std::string where = "family " + std::to_string(f) +
                                  " q0=" + std::to_string(q0) +
                                  " k=" + std::to_string(k);
        const auto input =
            random_amplitudes<T>(n, 101 + static_cast<std::uint64_t>(q0));
        // Contiguous: whole array, then one tile at offset `tile`.
        const std::uint64_t tile = dim_of(q0 + k + 1);
        for (const auto& [lo, hi] :
             {std::pair{std::uint64_t{0}, dim}, std::pair{tile, 2 * tile}}) {
          auto a = input;
          auto b = input;
          for (int j = 0; j < k; ++j)
            fam->rx_pairs(a.data(), q0 + j, lo >> 1, hi >> 1, c, s);
          fam->rx_block(b.data(), q0, k, lo >> k, hi >> k, c, s);
          EXPECT_TRUE(bitwise_equal(a, b))
              << "contiguous [" << lo << ", " << hi << ") " << where;
        }
        if (q0 < 2) continue;
        // Strided rows: the last `chunk` columns of the 2^k member rows
        // above base amplitude i0 (bits [q0, q0+k) clear); the odd chunk
        // also ends on a partial vector step.
        for (const std::uint64_t chunk : {4ull, 5ull, 16ull}) {
          if (chunk > dim_of(q0)) continue;
          const std::uint64_t i0 = dim_of(n - 1) + dim_of(q0) - chunk;
          auto a = input;
          auto b = input;
          for (int j = 0; j < k; ++j)
            for (std::uint64_t m = 0; m < (1ull << k); ++m) {
              if ((m >> j) & 1) continue;
              const std::uint64_t kb = remove_bit(i0 + (m << q0), q0 + j);
              fam->rx_pairs(a.data(), q0 + j, kb, kb + chunk, c, s);
            }
          const std::uint64_t gb = remove_bits(i0, q0, k);
          fam->rx_block(b.data(), q0, k, gb, gb + chunk, c, s);
          EXPECT_TRUE(bitwise_equal(a, b))
              << "strided chunk " << chunk << " " << where;
        }
      }
    }
  }
}

TEST(SimdButterflies, RxBlockEqualsSuccessiveRxPairsBitwise) {
  expect_rx_block_matches_rx_pairs<double>();
  expect_rx_block_matches_rx_pairs<float>();
}

#if QOKIT_SIMD_X86
/// The AVX2 rx_pairs against a std::fma reference of the formula it
/// compiled to before the fmsubadd rewrite:
///   re = fma(c, a_re, s * b_im),  im = fma(c, a_im, s * -b_re)
/// with the product s * b rounded on its own. f32 qubit-1 pairs never fill
/// a register and run the scalar family's separately rounded products.
template <class T>
void expect_avx2_rx_pairs_matches_fma_reference(
    const simd::detail::KernelsT<T>& avx2) {
  const int n = 11;
  const double c = std::cos(-0.37), s = std::sin(-0.37);
  const T tc = static_cast<T>(c), ts = static_cast<T>(s);
  for (int q = 0; q < n; ++q) {
    const auto input = random_amplitudes<T>(n, 211 + static_cast<unsigned>(q));
    auto got = input;
    avx2.rx_pairs(got.data(), q, 0, dim_of(n - 1), c, s);
    auto want = input;
    const bool fused = !(std::is_same_v<T, float> && q == 1);
    const auto update = [&](std::complex<T> a, std::complex<T> b) {
      const T bre = b.real(), bim = b.imag();
      if (fused)
        return std::complex<T>(std::fma(tc, a.real(), ts * bim),
                               std::fma(tc, a.imag(), ts * -bre));
      return std::complex<T>(tc * a.real() + ts * bim,
                             tc * a.imag() - ts * bre);
    };
    for (std::uint64_t k = 0; k < dim_of(n - 1); ++k) {
      const std::uint64_t i0 = insert_zero_bit(k, q);
      const std::uint64_t i1 = i0 | dim_of(q);
      const std::complex<T> x0 = input[i0], x1 = input[i1];
      want[i0] = update(x0, x1);
      want[i1] = update(x1, x0);
    }
    EXPECT_TRUE(bitwise_equal(got, want)) << "qubit " << q;
  }
}
#endif

TEST(SimdButterflies, Avx2RxPairsMatchesFmaReferenceBitwise) {
#if QOKIT_SIMD_X86
  if (detect_simd_level() != SimdLevel::Avx2)
    GTEST_SKIP() << "host lacks AVX2+FMA";
  expect_avx2_rx_pairs_matches_fma_reference(simd::detail::avx2_kernels);
  expect_avx2_rx_pairs_matches_fma_reference(simd::detail::avx2_kernels_f32);
#else
  GTEST_SKIP() << "scalar-only build";
#endif
}

TEST(SimdReductions, MatchScalar) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const int n = 14;
  const StateVector sv = random_state(n, 47);
  auto costs = random_costs(n, 53, -60.0, 60.0);
  for (double& c : costs) c = std::round(c);
  const auto diag = CostDiagonal::from_values(n, std::move(costs));
  const auto d16 = DiagonalU16::encode(diag);
  for (Exec exec : kExecs) {
    force_simd_level(SimdLevel::Scalar);
    const double e_s = expectation(sv, diag, exec);
    const double e16_s = expectation(sv, d16, exec);
    const double n_s = sv.norm_squared(exec);
    const double o_s = overlap_ground(sv, diag, 2.5, exec);
    force_simd_level(detect_simd_level());
    EXPECT_NEAR(expectation(sv, diag, exec), e_s, 1e-12 * 60.0);
    EXPECT_NEAR(expectation(sv, d16, exec), e16_s, 1e-12 * 60.0);
    EXPECT_NEAR(sv.norm_squared(exec), n_s, 1e-12);
    EXPECT_NEAR(overlap_ground(sv, diag, 2.5, exec), o_s, 1e-12);
  }
}

TEST(SimdReductions, SerialAndParallelAreBitIdentical) {
  // The blocked reduction combines per-block partials in block order
  // regardless of Exec policy or thread count, so Serial and Parallel must
  // agree bitwise at any fixed dispatch level.
  SimdLevelGuard guard;
  const int n = 17;  // above the parallel grain: OpenMP actually engages
  const StateVector sv = random_state(n, 59);
  const auto diag = CostDiagonal::from_values(n, random_costs(n, 61, -5, 5));
  EXPECT_EQ(expectation(sv, diag, Exec::Serial),
            expectation(sv, diag, Exec::Parallel));
  EXPECT_EQ(sv.norm_squared(Exec::Serial), sv.norm_squared(Exec::Parallel));
  StateVector a = sv;
  StateVector b = sv;
  apply_phase(a, diag, 0.9, Exec::Serial);
  apply_phase(b, diag, 0.9, Exec::Parallel);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST(SimdEndToEnd, SimulatorBackendsMatchScalarDispatch) {
  if (!has_vector_level()) GTEST_SKIP() << "scalar-only build/host";
  SimdLevelGuard guard;
  const TermList terms = labs_terms(10);
  const std::vector<double> gammas = {0.3, -0.8, 0.45};
  const std::vector<double> betas = {0.7, 0.2, -0.55};
  for (const char* name : {"serial", "threaded", "u16", "fwht"}) {
    force_simd_level(SimdLevel::Scalar);
    const auto sim_s = choose_simulator(terms, name);
    const StateVector r_s = sim_s->simulate_qaoa(gammas, betas);
    const double e_s = sim_s->get_expectation(r_s);
    const double o_s = sim_s->get_overlap(r_s);
    force_simd_level(detect_simd_level());
    const auto sim_v = choose_simulator(terms, name);
    const StateVector r_v = sim_v->simulate_qaoa(gammas, betas);
    // Under QOKIT_PREC=f32 the names resolve to float amplitudes, where
    // the scalar and vector families agree to float-rounding scale.
    const bool f32 = sim_s->precision() == Precision::F32;
    EXPECT_LE(r_s.max_abs_diff(r_v), f32 ? 5e-6 : 1e-11) << name;
    EXPECT_NEAR(sim_v->get_expectation(r_v), e_s, f32 ? 1e-4 : 1e-10)
        << name;
    EXPECT_NEAR(sim_v->get_overlap(r_v), o_s, f32 ? 1e-4 : 1e-10) << name;
  }
}

// ------------------------------------------------ sector-overlap bugfix

TEST(OverlapSector, MatchesBruteForceAndExecModes) {
  const int n = 10;
  const auto diag = CostDiagonal::from_values(n, random_costs(n, 67, -9, 9));
  const StateVector sv = random_state(n, 71);
  for (int weight : {0, 3, n}) {
    // Brute-force reference: the pre-fix two-scan semantics.
    double lo = 0.0;
    bool found = false;
    for (std::uint64_t x = 0; x < diag.size(); ++x) {
      if (popcount(x) != weight) continue;
      if (!found || diag[x] < lo) {
        lo = diag[x];
        found = true;
      }
    }
    ASSERT_TRUE(found);
    double mass = 0.0;
    for (std::uint64_t x = 0; x < diag.size(); ++x)
      if (popcount(x) == weight && diag[x] <= lo + 1e-9)
        mass += std::norm(sv[x]);
    EXPECT_EQ(diag.sector_min(weight), lo);
    EXPECT_NEAR(overlap_ground_sector(sv, diag, weight, 1e-9, Exec::Serial),
                mass, 1e-13);
    EXPECT_NEAR(overlap_ground_sector(sv, diag, weight, 1e-9, Exec::Parallel),
                mass, 1e-13);
  }
  // Cached second call returns the identical value.
  EXPECT_EQ(diag.sector_min(3), diag.sector_min(3));
  EXPECT_THROW(overlap_ground_sector(sv, diag, -1), std::invalid_argument);
  EXPECT_THROW(overlap_ground_sector(sv, diag, n + 1), std::invalid_argument);
}

// --------------------------------------------------- sampler regressions

TEST(SamplerRegression, FullMassVariateClampsToLastNonzeroState) {
  // Trailing amplitudes are zero: u = 1.0 lands past the final cumulative
  // entry and must not select a zero-probability bitstring (the pre-fix
  // clamp picked the last index overall).
  StateVector sv(3);
  sv[1] = cdouble(std::sqrt(0.5), 0.0);
  sv[3] = cdouble(0.0, std::sqrt(0.5));
  const StateSampler sampler(sv);
  EXPECT_EQ(sampler.sample_from_uniform(1.0), 3u);
  EXPECT_EQ(sampler.sample_from_uniform(std::nextafter(1.0, 0.0)), 3u);
  EXPECT_EQ(sampler.sample_from_uniform(0.0), 1u);
  Rng rng(73);
  for (int s = 0; s < 2000; ++s) {
    const std::uint64_t x = sampler.sample(rng);
    EXPECT_TRUE(x == 1u || x == 3u) << x;
  }
}

TEST(SamplerRegression, ShotCountValidation) {
  const StateVector sv = StateVector::plus_state(4);
  const StateSampler sampler(sv);
  Rng rng(79);
  EXPECT_THROW(sampler.sample(-1, rng), std::invalid_argument);
  EXPECT_THROW(sampler.sample_counts(-5, rng), std::invalid_argument);
  EXPECT_TRUE(sampler.sample(0, rng).empty());
  EXPECT_TRUE(sampler.sample_counts(0, rng).empty());
  const auto f = [](std::uint64_t x) { return static_cast<double>(x); };
  EXPECT_THROW(estimate_expectation_sampled(sv, f, -2, rng),
               std::invalid_argument);
  const SampledExpectation zero = estimate_expectation_sampled(sv, f, 0, rng);
  EXPECT_EQ(zero.shots, 0);
  EXPECT_EQ(zero.mean, 0.0);
  EXPECT_EQ(zero.std_error, 0.0);
}

}  // namespace
}  // namespace qokit
