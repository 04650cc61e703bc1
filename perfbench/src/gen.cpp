#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int64_t Rng::range(int64_t lo, int64_t hi) {
  const auto span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(next() % span);
}

uint64_t sub_seed(uint64_t seed, uint64_t tag) {
  Rng r(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return r.next();
}

std::vector<uint64_t> poisson_schedule(uint64_t seed, double rate_per_s,
                                       double duration_s) {
  std::vector<uint64_t> due;
  if (rate_per_s <= 0 || duration_s <= 0) return due;
  Rng rng(seed);
  due.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return due;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double acc = 0;
  for (size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

size_t Zipf::rank_at(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

std::vector<uint32_t> zipf_stream(uint64_t seed, size_t n, double s,
                                  size_t count, size_t block) {
  const Zipf z(n, s);
  Rng rng(seed);
  std::vector<uint32_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const size_t first = out.size();
    const double offset = rng.uniform();
    for (size_t i = 0; i < block && out.size() < count; ++i) {
      out.push_back(static_cast<uint32_t>(
          z.rank_at((offset + static_cast<double>(i)) /
                    static_cast<double>(block))));
    }
    for (size_t i = out.size() - first; i > 1; --i) {
      std::swap(out[first + i - 1],
                out[first + static_cast<size_t>(rng.next() % i)]);
    }
  }
  return out;
}

std::vector<int16_t> make_pixels(Rng& rng, size_t n) {
  std::vector<int16_t> v(n);
  for (auto& x : v) x = static_cast<int16_t>(rng.next() & 0xFF);
  return v;
}

std::vector<int16_t> make_samples(Rng& rng, size_t n, int16_t amplitude) {
  std::vector<int16_t> v(n);
  for (auto& x : v) x = static_cast<int16_t>(rng.range(-amplitude, amplitude));
  return v;
}

std::vector<uint8_t> make_bytes(Rng& rng, size_t n) {
  std::vector<uint8_t> v(n);
  for (auto& x : v) x = static_cast<uint8_t>(rng.next());
  return v;
}

std::vector<int16_t> make_frame(uint64_t seed, uint64_t index,
                                size_t pixels) {
  Rng rng(sub_seed(seed, 0x4652414D45ull + index));  // "FRAME" + index
  return make_pixels(rng, 3 * pixels);
}

std::vector<uint8_t> as_bytes(const std::vector<int16_t>& v) {
  std::vector<uint8_t> out(v.size() * 2);
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

}  // namespace perfbench
