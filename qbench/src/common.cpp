#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "bench/bench_report.hpp"

namespace qbench {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value after " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else {
        throw std::invalid_argument("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      throw std::invalid_argument("bad value '" + val + "' for " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

qokit::QaoaParams seeded_schedule(Rng& rng, int p, double jitter) {
  qokit::QaoaParams s = qokit::linear_ramp(p);
  for (double& g : s.gammas) g *= rng.uniform(1 - jitter, 1 + jitter);
  for (double& b : s.betas) b *= rng.uniform(1 - jitter, 1 + jitter);
  return s;
}

// --------------------------------------------------------------- trace

namespace {

std::atomic<bool> g_trace_on{false};
std::int64_t g_epoch = 0;
std::mutex g_trace_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_trace_mu
thread_local int t_parent = -1;
thread_local int t_op = -1;

bool trace_enabled() { return g_trace_on.load(std::memory_order_relaxed); }

std::string module_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

void trace_enable(bool on) {
  if (on && g_epoch == 0) g_epoch = now_ns();
  g_trace_on.store(on);
}

void trace_set_op(int op) { t_op = op; }

Span::Span(const char* name) : name_(name), start_(now_ns()) {
  if (!trace_enabled()) return;
  const std::lock_guard<std::mutex> lock(g_trace_mu);
  index_ = static_cast<int>(g_spans.size());
  g_spans.push_back({name_, start_ - g_epoch, 0, t_parent, t_op});
  saved_parent_ = t_parent;
  t_parent = index_;
}

double Span::stop() {
  if (open_) {
    open_ = false;
    end_ = now_ns();
    if (index_ >= 0) {
      const std::lock_guard<std::mutex> lock(g_trace_mu);
      g_spans[static_cast<std::size_t>(index_)].end_ns = end_ - g_epoch;
      t_parent = saved_parent_;
    }
  }
  return static_cast<double>(end_ - start_);
}

std::map<std::string, double> trace_self_ns() {
  const std::lock_guard<std::mutex> lock(g_trace_mu);
  std::vector<double> self(g_spans.size());
  for (std::size_t i = 0; i < g_spans.size(); ++i)
    self[i] = static_cast<double>(g_spans[i].end_ns - g_spans[i].start_ns);
  // Children nest inside their parent's interval on the same thread, so
  // subtracting each child's duration removes exactly the covered part.
  for (const SpanRecord& s : g_spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < g_spans.size(); ++i)
    out[module_of(g_spans[i].name)] += self[i];
  return out;
}

bool trace_write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::lock_guard<std::mutex> lock(g_trace_mu);
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"op\": %d}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.op,
                 i + 1 < g_spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --------------------------------------------------------------- report

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them.
std::vector<Declared> per_layer_table() {
  std::vector<Declared> t = {
      {"roof.dram_gbs", "GB/s"},
      {"roof.fma_gflops", "GFLOP/s"},
      {"problems.terms_s", "s"},
      {"tune.resolve_s", "s"},
      {"diagonal.precompute_s", "s"},
      {"diagonal.ns_per_amp_term", "ns"},
      {"api.session_build_self_s", "s"},
      {"pipeline.sweeps", "count"},
      {"pipeline.bytes_per_amp", "B"},
      {"pipeline.layer_ms", "ms"},
      {"pipeline.dram_frac", "frac"},
  };
  static const char* const kKernels[] = {"phase_ns_amp", "rx_lo_ns_amp",
                                         "rx_hi_ns_amp", "expect_ns_amp"};
  static const char* const kVariants[] = {"f64.serial", "f64.threaded",
                                          "f32.serial", "f32.threaded"};
  static std::vector<std::string> names;  // owns the composed names
  if (names.empty())
    for (const char* v : kVariants) {
      for (const char* k : kKernels)
        names.push_back(std::string("simd.") + k + "." + v);
      names.push_back(std::string("simd.fma_frac.") + v);
    }
  for (const std::string& n : names)
    t.push_back({n.c_str(), n.find("fma_frac") != std::string::npos
                                ? "frac"
                                : "ns"});
  const std::vector<Declared> rest = {
      {"fur.fused_eval_ms", "ms"},
      {"statevector.expectation_ms", "ms"},
      {"api.evaluate_self_ms", "ms"},
      {"batch.calls", "count"},
      {"batch.schedules_per_call", "count"},
      {"batch.outer_frac", "frac"},
      {"batch.call_ms", "ms"},
      {"optimize.self_s", "s"},
      {"optimize.evals", "count"},
      {"optimize.batches", "count"},
      {"serve.latency_ms_p50", "ms"},
      {"serve.latency_ms_p99", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.eval_ms_p50", "ms"},
      {"serve.eval_ms_p99", "ms"},
      {"serve.handoff_ms", "ms"},
      {"serve.miss_eval_ms", "ms"},
      {"serve.queue_depth_max", "count"},
      {"serve.overloaded", "count"},
      {"loadgen.late_ms_p99", "ms"},
      {"serve.max_rps", "1/s"},
      {"session_cache.hit_ratio", "frac"},
      {"session_cache.misses", "count"},
      {"session_cache.evictions", "count"},
      {"session_cache.bytes", "B"},
      {"trace.overhead_frac", "frac"},
  };
  t.insert(t.end(), rest.begin(), rest.end());
  static const char* const kSelf[] = {
      "problems.self_ms", "tune.self_ms",      "diagonal.self_ms",
      "pipeline.self_ms", "simd.self_ms",      "fur.self_ms",
      "statevector.self_ms", "api.self_ms",    "batch.self_ms",
      "optimize.self_ms", "serve.self_ms",     "session_cache.self_ms"};
  for (const char* s : kSelf) t.push_back({s, "ms"});
  return t;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::set(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_[name] = {value, unit};
}

double Report::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? std::numeric_limits<double>::quiet_NaN()
                              : it->second.value;
}

void Report::fail(const std::string& why) {
  ++failed_;
  correct_ = false;
  std::printf("check failed: %s\n", why.c_str());
}

void Report::declare_per_layer() {
  for (const Declared& d : per_layer_table())
    if (!metrics_.count(d.name)) metrics_[d.name] = {0.0, d.unit};
}

void Report::print(const std::string& workload) const {
  for (const auto& [name, v] : metrics_)
    std::printf("%s %-34s %14.6g %s\n", workload.c_str(), name.c_str(),
                v.value, v.unit.c_str());
  std::printf("%s %-34s %14.6g (failed %ld / attempted %ld)\n",
              workload.c_str(), "error_rate",
              attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
              failed_, attempted_);
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(v.value) +
            ", \"unit\": \"" + v.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_context(const Args& args) {
  using namespace qokit::bench;
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"cpu_model\": \"%s\", \"simd_level\": \"%s\", "
      "\"threads\": %d, \"git\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, json_sanitize(cpu_model()).c_str(),
      qokit::simd_level_name(qokit::active_simd_level()),
      qokit::max_threads(), json_sanitize(git_describe()).c_str());
}

}  // namespace qbench
