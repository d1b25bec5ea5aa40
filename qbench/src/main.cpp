// qbench: runs one named workload of the repository benchmark and prints
// its metrics, ending with one JSON result line.
//
//   qbench --workload <deep-n26|optimize-labs-n20>
//          --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// records spans around every library call the workload makes, reports the
// per-layer metrics, and writes the spans to --trace-out when it ends.
#include <cstdio>
#include <exception>

#include "probes.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace qbench;
  try {
    const Args args = parse_args(argc, argv);
    Report report;
    if (args.trace) report.declare_per_layer();
    print_context(args);
    if (args.workload == "deep-n26") {
      run_deep(args, report);
    } else if (args.workload == "optimize-labs-n20") {
      run_optimize(args, report);
    } else {
      std::fprintf(stderr, "qbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    if (args.trace) {
      report_self_times(report);
      if (!args.trace_out.empty() && !trace_write(args.trace_out)) {
        std::fprintf(stderr, "qbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
    }
    report.print(args.workload);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench: %s\n", e.what());
    return 1;
  }
}
