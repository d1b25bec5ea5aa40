// The benchmark's workloads. Each runs in its own process, builds its
// inputs from args.seed, and fills `report`: end-to-end metrics on an
// untraced run, per-layer metrics (plus the span file) on a traced one.
//
// End-to-end metrics, reported by every workload under the same names:
//   setup_s      time until the first op is ready (median of repeated
//                set-ups)
//   op_ms        median op latency: one evaluate (deep-n26), one
//                fixed-budget optimization (optimize-labs-n20)
//   tail_ms      upper quartile of op latency: a run's handful of ops
//                supports no percentile with ten samples beyond it
//   ops_per_s    1 / median op time (closed loop, one op in flight)
//   peak_rss_mb  peak resident set of the process
#pragma once

#include "common.hpp"

namespace qbench {

void run_deep(const Args& args, Report& report);
void run_optimize(const Args& args, Report& report);

/// Sets op_ms / tail_ms / ops_per_s from closed-loop op latencies (ns).
void report_closed_loop(Report& report, const std::vector<double>& op_ns);

}  // namespace qbench
