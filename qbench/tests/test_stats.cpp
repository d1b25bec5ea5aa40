// Tests of the benchmark's own statistics (src/stats.hpp): how many
// samples a percentile needs, latency timed from the due time
// when the generator runs late, queue-growth detection across a rung, and
// the highest sustainable rate read off a ladder.
//
//   ctest --test-dir .bench_build/qbench
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_choice() {
  using namespace qbench;
  // Nearest rank: the q-quantile of 1..100 is ceil(100 q).
  CHECK(near(quantile(one_to(100), 0.99), 99));
  CHECK(near(quantile(one_to(100), 0.5), 50));
  CHECK(near(quantile(one_to(100), 1.0), 100));
  CHECK(near(quantile(one_to(1), 0.99), 1));
  CHECK(std::isnan(quantile({}, 0.5)));
  CHECK(near(median(one_to(4)), 2.5));
  CHECK(near(median(one_to(5)), 3));

  // Ten samples beyond the p99 needs 1000 samples, not 999.
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(samples_beyond(999, 0.99) == 9);
  CHECK(samples_for_quantile(0.99) == 1000);
  CHECK(samples_for_quantile(0.9) == 100);
  CHECK(samples_for_quantile(0.999) == 10000);
  CHECK(samples_for_quantile(0.99, 20) == 2000);
  CHECK(samples_beyond(99, 0.9) == 9);
}

void due_time_latency() {
  using namespace qbench;
  const std::int64_t ms = 1'000'000;
  // On time: latency is queue wait plus evaluation.
  CHECK(near(due_latency_ns(0, 0, 2 * ms, 5 * ms, true), 7.0 * ms));
  // A generator 3 ms late adds its lateness.
  CHECK(near(due_latency_ns(0, 3 * ms, 2 * ms, 5 * ms, true), 10.0 * ms));
  // Submitting early never makes a request faster than its service time.
  CHECK(near(due_latency_ns(5 * ms, 4 * ms, 0, 5 * ms, true), 5.0 * ms));
  // A generator stall: three requests due 0, 1, 2 ms all leave at 5 ms.
  // Each one pays the stall from its own due time.
  const double lat[] = {due_latency_ns(0, 5 * ms, 0, ms, true),
                        due_latency_ns(1 * ms, 5 * ms, 0, ms, true),
                        due_latency_ns(2 * ms, 5 * ms, 0, ms, true)};
  CHECK(near(lat[0], 6.0 * ms) && near(lat[1], 5.0 * ms) &&
        near(lat[2], 4.0 * ms));
  // Refused or failed: misses every limit.
  CHECK(std::isinf(due_latency_ns(0, 0, 0, 0, false)));
  // And a refusal lands in the tail percentile.
  std::vector<double> v(999, 1.0 * ms);
  for (int i = 0; i < 11; ++i) v[static_cast<std::size_t>(i)] = kInf;
  CHECK(std::isinf(quantile(v, 0.99)));
}

void queue_growth() {
  using namespace qbench;
  // Bursty but level: Poisson-like spikes that drain.
  std::vector<double> level;
  for (int i = 0; i < 400; ++i) level.push_back(i % 17 == 0 ? 9 : i % 3);
  CHECK(!queue_grows(level, 4));
  // A spike in the middle that drains again is not growth.
  std::vector<double> spike(400, 1.0);
  for (int i = 180; i < 220; ++i) spike[static_cast<std::size_t>(i)] = 40;
  CHECK(!queue_grows(spike, 4));
  // Arrivals outpacing service: depth climbs across the rung.
  std::vector<double> growing;
  for (int i = 0; i < 400; ++i) growing.push_back(i / 20.0);
  CHECK(queue_grows(growing, 4));
  // Slow growth below the threshold is not flagged; above it is.
  std::vector<double> slow;
  for (int i = 0; i < 400; ++i) slow.push_back(i / 200.0);
  CHECK(!queue_grows(slow, 4));
  CHECK(queue_grows(slow, 1.0));
  // Too few samples to judge.
  CHECK(!queue_grows({0, 1, 2, 3, 4, 5, 6}, 1));
}

void max_rate() {
  using namespace qbench;
  const double limit = 100;
  // Every rung passes: the top rung.
  CHECK(near(max_sustainable_rate({{100, 40, false}, {200, 60, false}},
                                  limit),
             200));
  // Halfway through the headroom between two rungs.
  CHECK(near(max_sustainable_rate(
                 {{100, 40, false}, {200, 60, false}, {300, 140, false}},
                 limit),
             250));
  // Failing on queue growth alone, or on refusals: no headroom.
  CHECK(near(max_sustainable_rate({{100, 40, false}, {200, 60, true}},
                                  limit),
             100));
  CHECK(near(max_sustainable_rate({{100, 40, false}, {200, kInf, true}},
                                  limit),
             100));
  // Rungs after the first failure are ignored.
  CHECK(near(max_sustainable_rate(
                 {{100, 40, false}, {200, 160, false}, {300, 50, false}},
                 limit),
             150));
  // Nothing passes: the first rate scaled by limit / p99, still positive.
  CHECK(near(max_sustainable_rate({{100, 200, false}}, limit), 50));
  CHECK(near(max_sustainable_rate({{100, kInf, false}}, limit), 50));
  CHECK(max_sustainable_rate({}, limit) == 0);
}

}  // namespace

int main() {
  percentile_choice();
  due_time_latency();
  queue_growth();
  max_rate();
  if (g_failures) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all stats checks passed\n");
  return 0;
}
