// Order statistics and open-loop bookkeeping for the qbench program.
//
// Header-only and free of library dependencies so tests/test_stats.cpp
// can pin every rule the reported numbers rest on: how many samples a
// percentile needs, how a request's latency is timed from its due
// time, when a queue counts as growing across a rung, and how the highest
// sustainable rate is read off a rate ladder.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace qbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile of `v` (0 < q <= 1): the smallest sample with at
/// least q * n samples at or below it. NaN for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

/// Median as the mean of the two middle samples (even counts), so a
/// median of repeated set-ups moves smoothly with its inputs.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Samples strictly beyond the nearest-rank q-quantile position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// Samples needed so the q-quantile has `min_beyond` samples beyond it: a
/// tail percentile is only reported where that many samples back it.
inline std::size_t samples_for_quantile(double q,
                                        std::size_t min_beyond = 10) {
  std::size_t n = min_beyond;
  while (samples_beyond(n, q) < min_beyond) ++n;
  return n;
}

/// Latency of one open-loop request in ns, timed from when it was due:
/// the generator's lateness (submit - due, never negative) plus the
/// server's queue wait and evaluation. A refused or failed request gets
/// +inf so it misses every latency limit.
inline double due_latency_ns(std::int64_t due_ns, std::int64_t submit_ns,
                             std::uint64_t queue_ns, std::uint64_t eval_ns,
                             bool ok) {
  if (!ok) return kInf;
  const std::int64_t late = std::max<std::int64_t>(0, submit_ns - due_ns);
  return static_cast<double>(late) + static_cast<double>(queue_ns) +
         static_cast<double>(eval_ns);
}

/// True when a queue-depth series sampled across one rung grows: the
/// median of its last quarter exceeds the median of its first quarter by
/// at least `min_growth` requests. A queue that drains as fast as it
/// fills keeps the two quarters level however bursty the arrivals are.
inline bool queue_grows(const std::vector<double>& depth,
                        double min_growth) {
  if (depth.size() < 8) return false;
  const std::size_t quarter = depth.size() / 4;
  const std::vector<double> first(depth.begin(), depth.begin() + quarter);
  const std::vector<double> last(depth.end() - quarter, depth.end());
  return median(last) - median(first) >= min_growth;
}

/// One rung of an offered-rate ladder after it ran.
struct Rung {
  double rate = 0;     ///< offered requests per second
  double p99_ms = 0;   ///< tail latency from due time (+inf if refused)
  bool grows = false;  ///< queue depth grew across the rung
};

/// Whether a rung meets the service objective.
inline bool rung_passes(const Rung& r, double limit_ms) {
  return r.p99_ms <= limit_ms && !r.grows;
}

/// Highest sustainable rate on a ladder (ascending rates): the last rung
/// of the passing prefix, moved toward the first failing rung by the
/// fraction of the latency headroom that remained, read linearly between
/// the two rungs' p99. A failing rung whose tail is infinite (refusals)
/// or which failed on queue growth alone adds no headroom. With no
/// passing rung the first rate is scaled down by limit / p99, so the
/// result stays positive and still orders machines.
inline double max_sustainable_rate(const std::vector<Rung>& ladder,
                                   double limit_ms) {
  if (ladder.empty()) return 0.0;
  std::size_t k = 0;
  while (k < ladder.size() && rung_passes(ladder[k], limit_ms)) ++k;
  if (k == 0) {
    const double p = ladder[0].p99_ms;
    return std::isfinite(p) && p > 0 ? ladder[0].rate * limit_ms / p
                                     : ladder[0].rate * 0.5;
  }
  const Rung& ok = ladder[k - 1];
  if (k == ladder.size()) return ok.rate;
  const Rung& bad = ladder[k];
  if (!std::isfinite(bad.p99_ms) || bad.p99_ms <= limit_ms) return ok.rate;
  const double frac = std::clamp(
      (limit_ms - ok.p99_ms) / (bad.p99_ms - ok.p99_ms), 0.0, 1.0);
  return ok.rate + frac * (bad.rate - ok.rate);
}

}  // namespace qbench
