// Summary statistics for the benchmark: medians, tail percentiles that
// refuse to speak without enough tail samples, and failure accounting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for even counts).
/// Throws std::invalid_argument on an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(),
                                         values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

/// Number of samples that lie strictly above the q-quantile position
/// (linear interpolation between closest ranks, q in [0, 1]).
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double pos = q * static_cast<double>(n - 1);
  const auto floor_rank = static_cast<std::size_t>(std::floor(pos));
  return n - 1 - floor_rank;
}

/// Minimum tail a reported percentile must have: a p99 is only reported
/// when at least this many samples lie beyond it.
constexpr std::size_t kMinTailSamples = 10;

/// q-quantile by linear interpolation between closest ranks, or nullopt
/// when fewer than kMinTailSamples samples lie beyond it. The median of
/// a small sample is refused too, so callers size their samples up front.
inline std::optional<double> percentile(std::vector<double> values, double q) {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile q outside [0, 1]");
  if (samples_beyond(values.size(), q) < kMinTailSamples) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Attempted/failed accounting. Every operation the benchmark starts is
/// recorded once: it fails when it ended non-ok (shed, errored, lost,
/// duplicated, mapper status other than ok) or failed a correctness check.
/// A failed check also marks the whole run incorrect.
class Tally {
 public:
  void record(bool ended_ok, bool checks_ok = true) {
    ++attempted_;
    if (!ended_ok || !checks_ok) ++failed_;
    if (!checks_ok) correct_ = false;
  }
  /// A check made after the operation was recorded (a sampled schedule
  /// re-derivation, a replay) or on the run as a whole (the daemon's exit):
  /// a failure counts one more failed operation, never more than were
  /// attempted, and marks the run incorrect.
  void check(bool ok) {
    if (ok) return;
    failed_ = std::min(failed_ + 1, attempted_);
    correct_ = false;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_; }
  /// Share of attempted operations that ended ok and passed their checks,
  /// in percent (100 - failed_pct).
  [[nodiscard]] double ok_pct() const {
    if (attempted_ == 0) return 0.0;
    return 100.0 * static_cast<double>(attempted_ - failed_) / static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench
