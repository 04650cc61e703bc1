#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t nearest_rank(size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

size_t samples_beyond(size_t n, double q) { return n - nearest_rank(n, q); }

std::optional<double> percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || samples_beyond(n, q) < kMinSamplesBeyond) return std::nullopt;
  const size_t idx = nearest_rank(n, q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return samples[idx];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kDivergent: return "divergent";
    case Outcome::kTypedError: return "typed_error";
    case Outcome::kShed: return "shed";
    case Outcome::kTransport: return "transport";
  }
  return "unknown";
}

void OutcomeCounts::merge(const OutcomeCounts& o) {
  for (size_t i = 0; i < kOutcomeKinds; ++i) by[i] += o.by[i];
}

uint64_t OutcomeCounts::attempted() const {
  uint64_t n = 0;
  for (uint64_t c : by) n += c;
  return n;
}

double OutcomeCounts::error_rate() const {
  const uint64_t n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(n);
}

}  // namespace perfbench
