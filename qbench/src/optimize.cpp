// optimize-labs-n20: LABS at n = 20, p = 6. An op is one
// ProblemSession::optimize Nelder-Mead run from a seeded linear ramp with a
// fixed budget of evaluations that it must spend in full, closed loop. The
// 16 MiB state stays in cache, the time goes to many short batch calls,
// and LABS's many-term precompute dominates set-up.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "api/session.hpp"
#include "optimize/nelder_mead.hpp"
#include "probes.hpp"
#include "problems/labs.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace qbench {
namespace {

constexpr int kQubits = 20;
constexpr int kDepth = 6;
constexpr int kBudget = 200;
constexpr int kSetups = 3;
constexpr int kMinOps = 3;
/// Every optimization must end at or below this mean sidelobe energy. The
/// uniform superposition sits at n(n-1)/2 = 190, the optimum at 26, and
/// the seeded starting ramps near 100.
constexpr double kEnergyTarget = 100.0;
constexpr double kRampTime = 0.3;
constexpr double kGammaScale = 0.1;
constexpr double kInitialStep = 0.02;

using qokit::api::ProblemSession;

qokit::api::OptimizerSpec optimizer_for(std::uint64_t seed) {
  Rng rng(seed);
  qokit::api::OptimizerSpec opt;
  opt.p = kDepth;
  // LABS costs span ~n^2, so the ramp's phase angles are scaled to
  // ~1/range(C) (as in examples/labs_merit.cpp); the ramp length carries a
  // seeded factor.
  opt.initial = qokit::linear_ramp(kDepth, kRampTime * rng.uniform(0.9, 1.1));
  for (double& g : opt.initial.gammas) g *= kGammaScale;
  opt.nelder_mead.initial_step = kInitialStep;
  opt.nelder_mead.max_evals = kBudget;
  // Zero tolerances: the run never stops early, so every op spends the
  // whole budget.
  opt.nelder_mead.xtol = 0;
  opt.nelder_mead.ftol = 0;
  return opt;
}

/// Why one optimization result is wrong (empty when it is right): it must
/// spend the budget, equal a fresh evaluate of its params bit for bit, meet
/// the energy target, and repeat `first` exactly (the optimizer is
/// deterministic).
std::string check_result(const ProblemSession& session,
                         const qokit::api::EvalResult& r,
                         const qokit::api::EvalResult& first) {
  const int evals = r.evaluations.value();
  // Nelder-Mead stops at the first iteration boundary at or past the
  // budget; an iteration that starts one short may spend one more.
  if (evals < kBudget || evals > kBudget + 1 || r.converged.value())
    return "optimization spent " + std::to_string(evals) +
           " evaluations, budget " + std::to_string(kBudget);
  const double fval = r.expectation.value();
  if (session.evaluate(r.params.value()).expectation.value() != fval)
    return "optimized <C> differs from a fresh evaluate of its params";
  if (!(fval <= kEnergyTarget))
    return "optimized <C> " + std::to_string(fval) +
           " misses the energy target";
  if (fval != first.expectation.value() ||
      r.params->flatten() != first.params->flatten())
    return "optimization result differs between ops";
  return {};
}

}  // namespace

void run_optimize(const Args& args, Report& report) {
  const qokit::api::OptimizerSpec opt = optimizer_for(args.seed);
  const qokit::SimulatorSpec spec{};
  const auto build_terms = [] { return qokit::labs_terms(kQubits); };

  if (args.trace) {
    trace_enable();
    probe_roofs(report);
    const qokit::TermList terms = probe_setup_layers(report, build_terms);
    const auto session = build_session_traced(report, terms, spec);
    const ProblemSession& s = *session;

    // Untraced op: the public optimize call.
    trace_enable(false);
    std::int64_t t0 = now_ns();
    const qokit::api::EvalResult first = s.optimize(opt);
    const double plain_ns = static_cast<double>(now_ns() - t0);
    report.attempt();
    if (const std::string why = check_result(s, first, first); !why.empty())
      report.fail(why);

    // Traced op: the same Nelder-Mead over a timed wrapper around
    // session.expectations. Its trajectory must match optimize() exactly.
    trace_enable(true);
    trace_set_op(1);
    std::vector<double> call_ns;
    long schedules = 0, outer = 0;
    const auto population =
        [&](const std::vector<std::vector<double>>& points) {
          std::vector<qokit::QaoaParams> batch;
          batch.reserve(points.size());
          for (const auto& x : points)
            batch.push_back(qokit::QaoaParams::unflatten(x));
          {
            Span span("batch.resolve_parallelism");
            outer += s.batch().resolve_parallelism(batch.size()) ==
                     qokit::BatchParallelism::Outer;
          }
          Span span("batch.expectations");
          std::vector<double> values = s.expectations(batch);
          call_ns.push_back(span.stop());
          schedules += static_cast<long>(batch.size());
          return values;
        };
    qokit::OptResult traced;
    double traced_ns;
    {
      Span span("optimize.nelder_mead_batched");
      traced = qokit::nelder_mead_batched(
          population, opt.initial.flatten(), opt.nelder_mead);
      traced_ns = span.stop();
    }
    trace_set_op(-1);
    report.attempt();
    if (traced.fval != first.expectation.value() ||
        traced.x != first.params->flatten() ||
        traced.evaluations != first.evaluations.value() ||
        static_cast<int>(call_ns.size()) != first.batches.value())
      report.fail("traced Nelder-Mead differs from session.optimize");

    double calls_total = 0;
    for (double t : call_ns) calls_total += t;
    const double calls = static_cast<double>(call_ns.size());
    report.set("trace.overhead_frac", traced_ns / plain_ns - 1, "frac");
    report.set("batch.calls", calls, "count");
    report.set("batch.schedules_per_call", schedules / calls, "count");
    report.set("batch.outer_frac", outer / calls, "frac");
    report.set("batch.call_ms", median(call_ns) * 1e-6, "ms");
    report.set("optimize.self_s", (traced_ns - calls_total) * 1e-9, "s");
    report.set("optimize.evals", traced.evaluations, "count");
    report.set("optimize.batches", calls, "count");

    // Layer split of one evaluation at the starting schedule.
    std::vector<double> eval_ns;
    double expected = 0;
    for (int i = 0; i < 5; ++i) {
      Span span("api.evaluate");
      expected = s.evaluate(opt.initial).expectation.value();
      eval_ns.push_back(span.stop());
    }
    probe_eval_layers(report, s, opt.initial, expected,
                      median(eval_ns) * 1e-6);
    probe_serve(args.seed, report);
    return;
  }

  std::vector<double> setups;
  std::unique_ptr<ProblemSession> session;
  for (int k = 0; k < kSetups; ++k) {
    session.reset();
    const std::int64_t t0 = now_ns();
    session = std::make_unique<ProblemSession>(build_terms(), spec);
    setups.push_back(static_cast<double>(now_ns() - t0));
  }
  report.set("setup_s", median(setups) * 1e-9, "s");

  std::vector<double> op_ns;
  std::vector<qokit::api::EvalResult> results;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (static_cast<int>(op_ns.size()) < kMinOps || now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    results.push_back(session->optimize(opt));
    op_ns.push_back(static_cast<double>(now_ns() - t0));
    report.attempt();
  }
  report_closed_loop(report, op_ns);
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  for (const qokit::api::EvalResult& r : results)
    if (const std::string why = check_result(*session, r, results.front());
        !why.empty())
      report.fail(why);
  std::printf("optimize-labs-n20: <E> %.6f after %d evaluations in %d "
              "batches, %zu ops\n",
              results.front().expectation.value(),
              results.front().evaluations.value(),
              results.front().batches.value(), op_ns.size());
}

}  // namespace qbench
