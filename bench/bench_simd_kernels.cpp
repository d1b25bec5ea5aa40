// SIMD kernel layer: scalar family vs runtime-dispatched family, per
// kernel, n = 16..26, emitting BENCH_simd.json.
//
// Times the exact block kernels the simulators run (through the same
// dispatch + blocked decomposition; rx_block rows call the active family's
// register-blocked RX directly, as the layer pipeline does), with the
// dispatch level forced to Scalar and then restored to the detected one.
// Single-threaded (Exec::Serial) so the numbers isolate instruction-level
// speedup from OpenMP scaling. Butterfly rows also report ns per amplitude
// per qubit. Acceptance target: dispatched apply_phase_slice >= 2x
// over scalar at n = 24 on an AVX2 host.
//
// Smoke mode (QOKIT_BENCH_SMOKE=1 or --smoke): n = 16 only, 1 rep — used
// by CI to keep the JSON generation path alive without burning minutes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fur/su2.hpp"
#include "simd/kernels.hpp"
#include "statevector/state.hpp"

namespace {

using namespace qokit;

struct Result {
  std::string kernel;
  int n;
  int qubits;  // butterfly qubits per call; 0 for non-butterfly kernels
  double scalar_s;
  double dispatched_s;
};

/// Best-of-`reps` wall time.
template <class F>
double time_best(int reps, F&& run) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    run();
    best = std::min(best, t.seconds());
  }
  return best;
}

// Checksum accumulator so reduction results cannot be optimized away.
double g_sink = 0.0;

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) ||
      (std::getenv("QOKIT_BENCH_SMOKE") != nullptr);
  const int reps = smoke ? 1 : 3;
  const std::vector<int> ns =
      smoke ? std::vector<int>{16} : std::vector<int>{16, 18, 20, 22, 24, 26};
  const SimdLevel native = detect_simd_level();

  std::vector<Result> results;
  for (int n : ns) {
    const std::uint64_t dim = dim_of(n);
    Rng rng(9000 + static_cast<std::uint64_t>(n));
    StateVector sv(n);
    for (std::uint64_t i = 0; i < dim; ++i)
      sv[i] = cdouble(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    aligned_vector<double> costs(dim);
    for (double& c : costs) c = rng.uniform(-8.0, 8.0);
    aligned_vector<std::uint16_t> codes(dim);
    for (auto& c : codes)
      c = static_cast<std::uint16_t>(rng.uniform_int(1000));
    aligned_vector<cdouble> lut(65536);
    for (std::uint32_t c = 0; c < 65536; ++c)
      lut[c] = cdouble(std::cos(0.001 * c), std::sin(0.001 * c));

    cdouble* amp = sv.data();
    struct Case {
      const char* name;
      std::function<void()> run;
      int qubits = 0;
    };
    const std::vector<Case> cases = {
        {"apply_phase_slice",
         [&] {
           simd::apply_phase_slice(amp, costs.data(), dim, 0.37,
                                   Exec::Serial);
         }},
        {"apply_phase_u16",
         [&] {
           simd::apply_phase_table(amp, codes.data(), lut.data(), dim,
                                   Exec::Serial);
         }},
        {"rx_q0", [&] { kern::rx(amp, dim, 0, 0.8, 0.6, Exec::Serial); }, 1},
        {"rx_qtop",
         [&] { kern::rx(amp, dim, n - 1, 0.8, 0.6, Exec::Serial); }, 1},
        // The layer pipeline's register-blocked RX: three qubits per
        // load/store, through the active family (single call, serial).
        {"rx_block_q1",
         [&] {
           simd::detail::active_kernels().rx_block(amp, 1, 3, 0, dim >> 3,
                                                   0.8, 0.6);
         },
         3},
        {"rx_block_qtop",
         [&] {
           simd::detail::active_kernels().rx_block(amp, n - 3, 3, 0,
                                                   dim >> 3, 0.8, 0.6);
         },
         3},
        {"hadamard_q0", [&] { kern::hadamard(amp, dim, 0, Exec::Serial); },
         1},
        {"hadamard_qtop",
         [&] { kern::hadamard(amp, dim, n - 1, Exec::Serial); }, 1},
        {"expectation_slice",
         [&] {
           g_sink +=
               simd::expectation_slice(amp, costs.data(), dim, Exec::Serial);
         }},
        {"norm_squared",
         [&] { g_sink += simd::norm_squared(amp, dim, Exec::Serial); }},
        {"overlap_ground",
         [&] {
           g_sink += simd::overlap_ground(amp, costs.data(), -7.0, dim,
                                          Exec::Serial);
         }},
    };

    for (const Case& c : cases) {
      force_simd_level(SimdLevel::Scalar);
      const double scalar_s = time_best(reps, c.run);
      force_simd_level(native);
      const double disp_s = time_best(reps, c.run);
      results.push_back({c.name, n, c.qubits, scalar_s, disp_s});
      std::printf("n=%2d %-20s scalar %9.2f ms  dispatched %9.2f ms  %5.2fx",
                  n, c.name, scalar_s * 1e3, disp_s * 1e3,
                  scalar_s / disp_s);
      if (c.qubits > 0)
        std::printf("  %.3f ns/amp/qubit",
                    disp_s * 1e9 / (static_cast<double>(dim) * c.qubits));
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  force_simd_level(detect_simd_level());

  std::FILE* out = std::fopen("BENCH_simd.json", "w");
  if (!out) {
    std::perror("BENCH_simd.json");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_context(out, smoke);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"n\": %d, \"scalar_s\": %.6f, "
                 "\"dispatched_s\": %.6f, \"speedup\": %.3f",
                 r.kernel.c_str(), r.n, r.scalar_s, r.dispatched_s,
                 r.scalar_s / r.dispatched_s);
    // Butterfly rows also report dispatched ns per amplitude per qubit,
    // the unit that compares one-qubit and register-blocked kernels.
    if (r.qubits > 0)
      std::fprintf(out, ", \"qubits\": %d, \"ns_amp_qubit\": %.4f", r.qubits,
                   r.dispatched_s * 1e9 /
                       (static_cast<double>(dim_of(r.n)) * r.qubits));
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  // Keep the checksum alive (and give smoke runs a nonzero exit on NaN).
  return std::isfinite(g_sink) ? 0 : 2;
}
