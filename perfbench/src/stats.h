// stats.h — the benchmark's arithmetic: percentiles under the
// ten-samples-beyond rule, medians, and outcome (error-rate) accounting.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie
// strictly beyond it; below that the tail is anecdote, not a measurement.
inline constexpr size_t kMinSamplesBeyond = 10;

// Nearest-rank percentile: rank = ceil(q * n), 1-based. Samples lying
// beyond that rank: n - rank.
[[nodiscard]] size_t nearest_rank(size_t n, double q);
[[nodiscard]] size_t samples_beyond(size_t n, double q);

// The q-quantile (0 < q < 1) of `samples` by nearest rank, or nullopt when
// fewer than kMinSamplesBeyond samples lie beyond it.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);

// Plain median (mean of the middle pair for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

// What one attempted operation came to. Everything but kOk is a failure.
enum class Outcome : uint8_t {
  kOk = 0,
  kDivergent,   // output bytes or counts differ from the host reference
  kTypedError,  // the system answered with a typed error
  kShed,        // refused by admission control
  kTransport,   // the connection broke or the response did not decode
};
inline constexpr size_t kOutcomeKinds = 5;

[[nodiscard]] const char* to_string(Outcome o);

struct OutcomeCounts {
  std::array<uint64_t, kOutcomeKinds> by{};

  void add(Outcome o) { ++by[static_cast<size_t>(o)]; }
  void merge(const OutcomeCounts& o);
  [[nodiscard]] uint64_t count(Outcome o) const {
    return by[static_cast<size_t>(o)];
  }
  [[nodiscard]] uint64_t attempted() const;
  [[nodiscard]] uint64_t failed() const { return attempted() - count(Outcome::kOk); }
  // Failed attempts over all attempts (0 when nothing was attempted).
  [[nodiscard]] double error_rate() const;
};

}  // namespace perfbench
