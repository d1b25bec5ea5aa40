// Shared plumbing of the qbench program: arguments, seeded inputs, the
// in-memory span trace, and the result report.
//
// Spans are recorded only from this directory, around calls into the
// library's public functions; nothing under src/ is instrumented. A span's
// name is "<module>.<call>", where <module> is the library layer whose
// per-layer metrics the span feeds (problems, tune, diagonal, pipeline,
// simd, fur, statevector, api, batch, optimize, serve, session_cache).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "optimize/params.hpp"

namespace qbench {

using steady = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span file of a traced run ("" = none)
};

/// Parses --workload/--seed/--seconds/--trace/--trace-out; throws
/// std::invalid_argument naming the offending argument.
Args parse_args(int argc, char** argv);

/// Seeded input generator (mt19937_64; the same seed gives the same
/// inputs on every platform this library builds on).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}
  std::uint64_t next() { return gen_(); }
  double uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Exponential inter-arrival gap with the given rate (events per unit).
  double exponential(double rate);

 private:
  std::mt19937_64 gen_;
};

/// linear_ramp(p) with every angle scaled by a seeded factor in
/// [1 - jitter, 1 + jitter]: a realistic schedule that differs per seed.
qokit::QaoaParams seeded_schedule(Rng& rng, int p, double jitter = 0.1);

// --------------------------------------------------------------- trace

/// One recorded span: times are ns since the trace started; parent is the
/// index of the enclosing span on the same thread (-1 at top level); op is
/// the benchmark operation it belongs to (-1 for set-up and probes).
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int op = -1;
};

/// Turns span recording on or off (the trace clock starts at the first
/// enable); spans opened while off are timed but not recorded.
void trace_enable(bool on = true);
/// Sets the op id stamped on spans the calling thread opens from now on.
void trace_set_op(int op);
/// Self time per module in ns: each span's duration minus the part its
/// child spans cover, summed by the module prefix of its name.
std::map<std::string, double> trace_self_ns();
/// Writes every span as JSON to `path`. Called once, when the run ends.
bool trace_write(const std::string& path);

/// RAII span. Always times its scope (two clock reads); records itself
/// only when tracing is enabled. stop() ends it early and returns the
/// duration in ns.
class Span {
 public:
  explicit Span(const char* name);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  double stop();

 private:
  const char* name_;
  std::int64_t start_;
  std::int64_t end_ = 0;
  int index_ = -1;
  int saved_parent_ = -1;
  bool open_ = true;
};

// --------------------------------------------------------------- report

/// The run's outcome: correctness, op counts, and named metrics.
class Report {
 public:
  void set(const std::string& name, double value, const char* unit);
  bool has(const std::string& name) const { return metrics_.count(name); }
  /// The metric's value; NaN when it was never set.
  double get(const std::string& name) const;
  /// Records a failed op; `why` is printed as a diagnostic line.
  void fail(const std::string& why);
  void attempt(long n = 1) { attempted_ += n; }
  /// Per-layer metrics every traced run reports; a layer the workload does
  /// not exercise reads 0 (it did no work).
  void declare_per_layer();
  /// Human-readable lines, then the one-line JSON result (the last line).
  void print(const std::string& workload) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  bool correct_ = true;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Peak resident set of this process so far, in MB (ru_maxrss).
double peak_rss_mb();

/// Prints the machine context line (CPU, SIMD level, threads, revision)
/// that bench/bench_report.hpp stamps on every BENCH_*.json.
void print_context(const Args& args);

}  // namespace qbench
