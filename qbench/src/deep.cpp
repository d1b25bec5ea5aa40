// deep-n26: one seeded 3-regular MaxCut graph at n = 26 and one seeded
// p = 8 schedule under the default `auto` spec; an op is one
// ProblemSession::evaluate (expectation only), closed loop, one at a time.
// The state (1 GiB) plus the diagonal (0.5 GiB) is several times the LLC,
// so the fused threaded layer streams from DRAM.
#include <cmath>
#include <cstdio>
#include <memory>

#include "api/session.hpp"
#include "probes.hpp"
#include "problems/maxcut.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace qbench {
namespace {

constexpr int kQubits = 26;
constexpr int kDepth = 8;
constexpr int kSetups = 3;
constexpr int kMinOps = 3;

using qokit::api::ProblemSession;

/// The same generator at n = 20 must match the unfused serial oracle.
void check_small_oracle(Report& report, std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedull);
  const qokit::Graph g = qokit::Graph::random_regular(20, 3, rng.next());
  const qokit::QaoaParams s = seeded_schedule(rng, kDepth);
  const qokit::TermList terms = qokit::maxcut_terms(g);
  const double fast = ProblemSession(terms).evaluate(s).expectation.value();
  const double oracle =
      ProblemSession(terms, qokit::SimulatorSpec::parse("serial:pipeline=off"))
          .evaluate(s)
          .expectation.value();
  report.attempt();
  if (!(std::abs(fast - oracle) <= 1e-10))
    report.fail("n=20 auto vs pipeline=off serial oracle differ by " +
                std::to_string(std::abs(fast - oracle)));
}

}  // namespace

void run_deep(const Args& args, Report& report) {
  Rng rng(args.seed);
  const qokit::Graph graph =
      qokit::Graph::random_regular(kQubits, 3, rng.next());
  const qokit::QaoaParams schedule = seeded_schedule(rng, kDepth);
  const qokit::SimulatorSpec spec{};
  const auto build_terms = [&] { return qokit::maxcut_terms(graph); };

  if (args.trace) {
    trace_enable();
    probe_roofs(report);
    const qokit::TermList terms = probe_setup_layers(report, build_terms);
    const auto session = build_session_traced(report, terms, spec);
    // Alternate untraced and traced ops after one warm-up op; the ratio of
    // their medians is the tracing overhead.
    std::vector<double> plain, traced;
    const double expected = session->evaluate(schedule).expectation.value();
    for (int i = 0; i < 4; ++i) {
      const bool on = i % 2 == 1;
      trace_enable(on);
      trace_set_op(i);
      Span span("api.evaluate");
      const double e = session->evaluate(schedule).expectation.value();
      (on ? traced : plain).push_back(span.stop());
      trace_set_op(-1);
      report.attempt();
      if (e != expected) report.fail("expectation differs between ops");
    }
    trace_enable(true);
    report.set("trace.overhead_frac", median(traced) / median(plain) - 1,
               "frac");
    probe_eval_layers(report, *session, schedule, expected,
                      median(traced) * 1e-6);
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

  // One untimed op first: the session allocates its scratch state on the
  // first evaluate, a once-per-session cost that would otherwise land on
  // the first timed op.
  const double expected = session->evaluate(schedule).expectation.value();

  std::vector<double> op_ns;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (static_cast<int>(op_ns.size()) < kMinOps || now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    const double e = session->evaluate(schedule).expectation.value();
    op_ns.push_back(static_cast<double>(now_ns() - t0));
    report.attempt();
    if (e != expected) report.fail("expectation differs between ops");
  }
  report_closed_loop(report, op_ns);
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Output checks after the measured phase (and after peak RSS was read):
  // the evolved state is normalized and its two-pass expectation equals
  // the fused one bit for bit.
  {
    const qokit::StateVector state = session->simulate(schedule);
    report.attempt();
    const double norm = state.norm_squared();
    if (!(std::abs(norm - 1.0) <= 1e-10))
      report.fail("state norm " + std::to_string(norm) + " is not 1");
    else if (session->simulator().get_expectation(state) != expected)
      report.fail("two-pass expectation differs from the fused one");
  }
  session.reset();
  check_small_oracle(report, args.seed);
  std::printf("deep-n26: <C> = %.12f over %zu ops\n", expected,
              op_ns.size());
}

void report_closed_loop(Report& report, const std::vector<double>& op_ns) {
  std::printf("%zu ops, ms:", op_ns.size());
  for (double t : op_ns) std::printf(" %.1f", t * 1e-6);
  std::printf("\n");
  // A handful of closed-loop ops supports no percentile with ten samples
  // beyond it; the upper quartile is the tail they can give without
  // hinging on one op.
  report.set("op_ms", median(op_ns) * 1e-6, "ms");
  report.set("tail_ms", quantile(op_ns, 0.75) * 1e-6, "ms");
  // One op in flight: throughput is the inverse of the median op time.
  report.set("ops_per_s", 1e9 / median(op_ns), "1/s");
}

}  // namespace qbench
