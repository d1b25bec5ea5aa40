// Per-layer probes shared by every workload's traced run: the machine
// roofs, and the layer-by-layer split of one evaluation at the workload's
// problem size (terms -> tune -> diagonal -> session -> pipeline -> simd
// kernels -> fused vs two-pass expectation).
#pragma once

#include <functional>

#include "api/session.hpp"
#include "common.hpp"

namespace qbench {

/// STREAM-style triad over three arrays totalling >= 4x the reported LLC
/// (all threads), and a single-core FMA throughput loop. Sets
/// roof.dram_gbs and roof.fma_gflops and prints both sizes.
void probe_roofs(Report& report);

/// Time `build` (the problem's term construction) as problems.terms_s,
/// resolve the tune profile (tune.resolve_s, first resolution in the
/// process), and precompute a stand-alone CostDiagonal from the terms
/// (diagonal.precompute_s / diagonal.ns_per_amp_term). Returns the terms.
qokit::TermList probe_setup_layers(
    Report& report, const std::function<qokit::TermList()>& build);

/// Builds a session under `spec` inside an api.ProblemSession span and
/// sets api.session_build_self_s (constructor minus precompute and tune).
std::unique_ptr<qokit::api::ProblemSession> build_session_traced(
    Report& report, const qokit::TermList& terms,
    const qokit::SimulatorSpec& spec);

/// The evaluation split at the session's size: pipeline.sweeps,
/// pipeline.bytes_per_amp, pipeline.layer_ms, pipeline.dram_frac,
/// fur.fused_eval_ms, statevector.expectation_ms, api.evaluate_self_ms,
/// and the simd.* kernel family. `evaluate_ms` is the median traced
/// session.evaluate of `schedule`, already measured by the caller. Checks
/// that the fused and two-pass expectations equal `expected` bit for bit
/// and that the evolved state's norm is 1 within 1e-10.
void probe_eval_layers(Report& report,
                       const qokit::api::ProblemSession& session,
                       const qokit::QaoaParams& schedule, double expected,
                       double evaluate_ms);

/// The serve layer under open-loop traffic (serve.cpp): serve.*,
/// session_cache.* and loadgen.* metrics, with the fixed rung's client
/// latency and the highest sustainable rate on the ladder.
void probe_serve(std::uint64_t seed, Report& report);

/// Copies the span trace's per-module self times into <module>.self_ms.
void report_self_times(Report& report);

}  // namespace qbench
