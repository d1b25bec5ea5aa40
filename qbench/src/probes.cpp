#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/parallel.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "fur/simulator.hpp"
#include "simd/kernels.hpp"
#include "stats.hpp"
#include "tune/machine_probe.hpp"
#include "tune/profile.hpp"

namespace qbench {
namespace {

using qokit::Exec;

struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};

/// 64-byte aligned, uninitialized buffer of `bytes` (rounded up to 64).
std::unique_ptr<void, FreeDeleter> aligned_buffer(std::uint64_t bytes) {
  void* p = std::aligned_alloc(64, (bytes + 63) / 64 * 64);
  if (!p) throw std::bad_alloc();
  return std::unique_ptr<void, FreeDeleter>(p);
}

/// Median ns of `fn` over at least `min_reps` repetitions, repeating until
/// `budget_ns` of measured time has accumulated (at most 9 repetitions).
template <class F>
double median_ns(F&& fn, double budget_ns, int min_reps) {
  std::vector<double> t;
  double total = 0;
  while (static_cast<int>(t.size()) < min_reps ||
         (total < budget_ns && t.size() < 9)) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0));
    total += t.back();
  }
  return median(t);
}

double triad_gbs() {
  const qokit::tune::MachineTopology topo = qokit::tune::probe_machine();
  const std::uint64_t llc = topo.l3_bytes ? topo.l3_bytes : 64ull << 20;
  const std::uint64_t n = (4 * llc / 3 / sizeof(double) + 7) / 8 * 8;
  auto ba = aligned_buffer(n * sizeof(double));
  auto bb = aligned_buffer(n * sizeof(double));
  auto bc = aligned_buffer(n * sizeof(double));
  double* a = static_cast<double*>(ba.get());
  double* b = static_cast<double*>(bb.get());
  double* c = static_cast<double*>(bc.get());
  const auto len = static_cast<std::int64_t>(n);
  // First touch from the same static partition the triad uses.
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double scalar = 3.0;
  // Best of 7, as STREAM reports: the roof is what the machine can reach.
  double ns = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t t0 = now_ns();
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < len; ++i) a[i] = b[i] + scalar * c[i];
    const double t = static_cast<double>(now_ns() - t0);
    ns = rep == 0 ? t : std::min(ns, t);
  }
  if (a[len / 2] != 7.0) std::printf("roof: triad produced a wrong value\n");
  std::printf(
      "roof triad: LLC %.0f MiB, 3 arrays x %.0f MiB = %.0f MiB (%.1fx LLC), "
      "%d threads\n",
      static_cast<double>(llc) / 1048576.0,
      static_cast<double>(n * sizeof(double)) / 1048576.0,
      static_cast<double>(3 * n * sizeof(double)) / 1048576.0,
      static_cast<double>(3 * n * sizeof(double)) /
          static_cast<double>(llc),
      qokit::max_threads());
  // 32 bytes per element cross the memory bus: two reads, one write, and
  // the read that allocates the written line. A fused layer rewrites the
  // lines it read, so its computed bytes carry no such extra read.
  return 32.0 * static_cast<double>(n) / ns;
}

constexpr int kFmaChains = 12;

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) double fma_loop_avx2(long iters,
                                                         double seed) {
  __m256d acc[kFmaChains];
  for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm256_set1_pd(seed + k);
  const __m256d m = _mm256_set1_pd(0.9999999);
  const __m256d add = _mm256_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int k = 0; k < kFmaChains; ++k)
      acc[k] = _mm256_fmadd_pd(acc[k], m, add);
  __m256d sum = acc[0];
  for (int k = 1; k < kFmaChains; ++k) sum = _mm256_add_pd(sum, acc[k]);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}
#endif

double fma_loop_scalar(long iters, double seed) {
  double acc[kFmaChains];
  for (int k = 0; k < kFmaChains; ++k) acc[k] = seed + k;
  for (long i = 0; i < iters; ++i)
    for (int k = 0; k < kFmaChains; ++k)
      acc[k] = std::fma(acc[k], 0.9999999, 1e-7);
  double sum = 0;
  for (double v : acc) sum += v;
  return sum;
}

/// Single-core f64 FMA throughput in GFLOP/s (an FMA counts as 2 flops)
/// at the widest vector the dispatched kernels use.
double fma_gflops() {
  const long iters = 20'000'000;
  double lanes = 1;
  double sink = 0;
  const double ns = median_ns(
      [&] {
#if defined(__x86_64__)
        if (qokit::active_simd_level() == qokit::SimdLevel::Avx2) {
          lanes = 4;
          sink += fma_loop_avx2(iters, sink * 1e-300 + 1.0);
          return;
        }
#endif
        sink += fma_loop_scalar(iters, sink * 1e-300 + 1.0);
      },
      0.0, 5);
  if (!std::isfinite(sink)) std::printf("roof: fma loop diverged\n");
  return static_cast<double>(iters) * kFmaChains * lanes * 2.0 / ns;
}

/// Times the four kernel entry points at amplitude type C over `dim`
/// amplitudes (buffer `amp`, costs `costs`) and sets the simd.* metrics of
/// one (precision, exec) variant.
template <class C>
void probe_kernel_variant(Report& report, C* amp, const double* costs,
                          int n, Exec exec, const char* variant,
                          double gflops_roof) {
  namespace simd = qokit::simd;
  const std::uint64_t dim = std::uint64_t{1} << n;
  const auto len = static_cast<std::int64_t>(dim);
  const auto a0 = static_cast<typename C::value_type>(
      1.0 / std::sqrt(static_cast<double>(dim)));
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < len; ++i) amp[i] = C(a0, 0);
  const double budget = 2.5e8;  // 0.25 s per kernel
  const double c = std::cos(0.3), s = std::sin(0.3);
  const double d = static_cast<double>(dim);
  const std::string v = variant;
  double phase, rx_lo, rx_hi, expect;
  double sink = 0;
  {
    Span span("simd.apply_phase_slice");
    phase = median_ns([&] { simd::apply_phase_slice(amp, costs, dim, 0.2,
                                                    exec); },
                      budget, 2);
  }
  {
    Span span("simd.rx");
    rx_lo = median_ns([&] { simd::rx(amp, dim, 0, c, s, exec); }, budget, 2);
    rx_hi =
        median_ns([&] { simd::rx(amp, dim, n - 1, c, s, exec); }, budget, 2);
  }
  {
    Span span("simd.expectation_slice");
    expect = median_ns(
        [&] { sink += simd::expectation_slice(amp, costs, dim, exec); },
        budget, 2);
  }
  if (!std::isfinite(sink)) std::printf("simd: non-finite expectation\n");
  report.set("simd.phase_ns_amp." + v, phase / d, "ns");
  report.set("simd.rx_lo_ns_amp." + v, rx_lo / d, "ns");
  report.set("simd.rx_hi_ns_amp." + v, rx_hi / d, "ns");
  report.set("simd.expect_ns_amp." + v, expect / d, "ns");
  // The rx butterfly costs 6 flops per amplitude: each output component
  // is one multiply and one FMA.
  report.set("simd.fma_frac." + v, 6.0 / (rx_lo / d) / gflops_roof, "frac");
}

}  // namespace

void probe_roofs(Report& report) {
  double dram, fma;
  {
    Span span("roof.triad");
    dram = triad_gbs();
  }
  {
    Span span("roof.fma");
    fma = fma_gflops();
  }
  report.set("roof.dram_gbs", dram, "GB/s");
  report.set("roof.fma_gflops", fma, "GFLOP/s");
  std::printf("roof: dram %.2f GB/s (triad), fma %.2f GFLOP/s (1 core)\n",
              dram, fma);
}

qokit::TermList probe_setup_layers(
    Report& report, const std::function<qokit::TermList()>& build) {
  qokit::TermList terms;
  {
    Span span("problems.terms");
    terms = build();
    report.set("problems.terms_s", span.stop() * 1e-9, "s");
  }
  {
    Span span("tune.resolve_profile");
    qokit::tune::resolve_profile(qokit::tune::TuneMode::Auto);
    report.set("tune.resolve_s", span.stop() * 1e-9, "s");
  }
  {
    Span span("diagonal.precompute");
    const qokit::CostDiagonal diag = qokit::CostDiagonal::precompute(terms);
    const double ns = span.stop();
    report.set("diagonal.precompute_s", ns * 1e-9, "s");
    report.set("diagonal.ns_per_amp_term",
               ns / (static_cast<double>(diag.size()) *
                     static_cast<double>(terms.size())),
               "ns");
  }
  return terms;
}

std::unique_ptr<qokit::api::ProblemSession> build_session_traced(
    Report& report, const qokit::TermList& terms,
    const qokit::SimulatorSpec& spec) {
  Span span("api.ProblemSession");
  auto session = std::make_unique<qokit::api::ProblemSession>(terms, spec);
  const double ns = span.stop();
  report.set("api.session_build_self_s",
             (ns - static_cast<double>(session->precompute_ns())) * 1e-9,
             "s");
  return session;
}

void probe_eval_layers(Report& report,
                       const qokit::api::ProblemSession& session,
                       const qokit::QaoaParams& schedule, double expected,
                       double evaluate_ms) {
  const qokit::QaoaFastSimulatorBase& sim = session.simulator();
  const int n = session.num_qubits();
  const std::uint64_t dim = std::uint64_t{1} << n;
  const int p = schedule.p();
  const double amp_bytes =
      static_cast<double>(qokit::amplitude_bytes(sim.precision()));

  // Pipeline accounting from the plan the session built.
  const auto* fur = dynamic_cast<const qokit::FurQaoaSimulator*>(&sim);
  const bool planned = fur && fur->layer_plan().active();
  const int sweeps = planned ? fur->layer_plan().full_sweeps() : n + 1;
  const double cost_bytes = fur && fur->config().use_u16 ? 2.0 : 8.0;
  const double bytes_per_amp = sweeps * 2.0 * amp_bytes + cost_bytes;
  report.set("pipeline.sweeps", sweeps, "count");
  report.set("pipeline.bytes_per_amp", bytes_per_amp, "B");

  // Fused evaluation vs evolution followed by a separate reduction. One
  // repetition of each when a pass is long (deep states), more otherwise.
  const double budget = 5e8;
  std::vector<double> fused, from, reduce;
  double total = 0;
  std::string problem;  // first failed check, if any
  {
    qokit::StateVector state = session.batch().initial_state();
    while (fused.size() < 1 || (total < budget && fused.size() < 7)) {
      state = session.batch().initial_state();
      double e;
      {
        Span span("fur.simulate_qaoa_expectation");
        e = sim.simulate_qaoa_expectation(state, schedule.gammas,
                                          schedule.betas);
        fused.push_back(span.stop());
      }
      if (e != expected && problem.empty())
        problem = "fused expectation differs from session.evaluate";
      state = session.batch().initial_state();
      {
        Span span("pipeline.simulate_qaoa_from");
        state = sim.simulate_qaoa_from(std::move(state), schedule.gammas,
                                       schedule.betas);
        from.push_back(span.stop());
      }
      {
        Span span("statevector.get_expectation");
        e = sim.get_expectation(state);
        reduce.push_back(span.stop());
      }
      if (e != expected && problem.empty())
        problem = "two-pass expectation differs from session.evaluate";
      total += fused.back() + from.back() + reduce.back();
    }
    Span span("statevector.norm_squared");
    const double norm = state.norm_squared();
    if (!(std::abs(norm - 1.0) <= 1e-10) && problem.empty())
      problem = "state norm " + std::to_string(norm) + " is not 1";
  }
  report.attempt();
  if (!problem.empty()) report.fail(problem);
  const double layer_ms = median(from) / p * 1e-6;
  report.set("fur.fused_eval_ms", median(fused) * 1e-6, "ms");
  report.set("statevector.expectation_ms", median(reduce) * 1e-6, "ms");
  report.set("pipeline.layer_ms", layer_ms, "ms");
  report.set("api.evaluate_self_ms", evaluate_ms - median(fused) * 1e-6,
             "ms");
  const double dram = report.get("roof.dram_gbs");
  report.set("pipeline.dram_frac",
             bytes_per_amp * static_cast<double>(dim) / (layer_ms * 1e6) /
                 dram,
             "frac");

  // Kernel entry points at this size, f64 and f32, serial and threaded,
  // over one buffer wide enough for an f64 state.
  auto buf = aligned_buffer(dim * sizeof(qokit::cdouble));
  const double* costs = session.cost_diagonal().data();
  const double fma = report.get("roof.fma_gflops");
  const double threads = qokit::max_threads();
  auto* a64 = static_cast<qokit::cdouble*>(buf.get());
  auto* a32 = static_cast<qokit::cfloat*>(buf.get());
  probe_kernel_variant(report, a64, costs, n, Exec::Serial, "f64.serial",
                       fma);
  probe_kernel_variant(report, a64, costs, n, Exec::Parallel,
                       "f64.threaded", fma * threads);
  // f32 vectors hold twice the lanes, so the f32 roof is twice the f64 one.
  probe_kernel_variant(report, a32, costs, n, Exec::Serial, "f32.serial",
                       2 * fma);
  probe_kernel_variant(report, a32, costs, n, Exec::Parallel,
                       "f32.threaded", 2 * fma * threads);
}

void report_self_times(Report& report) {
  for (const auto& [module, ns] : trace_self_ns())
    if (report.has(module + ".self_ms"))
      report.set(module + ".self_ms", ns * 1e-6, "ms");
}

}  // namespace qbench
