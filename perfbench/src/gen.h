// gen.h — seeded input generators. Every input a workload feeds the
// program comes from here, as a pure function of the workload seed: the
// same seed gives the same Poisson schedule, Zipf shape stream and frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// splitmix64: small, fast, and fully specified here so a change to the
// program's own generators can never change the benchmark's inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi] inclusive.
  int64_t range(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

// Derive an independent stream seed from a workload seed and a purpose tag.
[[nodiscard]] uint64_t sub_seed(uint64_t seed, uint64_t tag);

// Poisson arrivals at `rate_per_s` over [0, duration_s): the due times, in
// nanoseconds from the start of the phase, ascending.
[[nodiscard]] std::vector<uint64_t> poisson_schedule(uint64_t seed,
                                                     double rate_per_s,
                                                     double duration_s);

// Zipf(s) over ranks 0..n-1: P(rank r) proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  // The rank whose cumulative probability interval holds u in [0, 1).
  [[nodiscard]] size_t rank_at(double u) const;

 private:
  std::vector<double> cdf_;
};

// `count` Zipf-distributed ranks over n, drawn by systematic sampling in
// blocks of `block`: block k takes the ranks at quantiles (u_k + i) / block
// for one seeded offset u_k, then is shuffled by the seed. Every block
// holds each rank floor or ceil of its expected count times, so the mix of
// a block barely depends on the seed (independent draws would let a few
// rare, expensive shapes swing a run), while which rare ranks appear, and
// the order, do.
[[nodiscard]] std::vector<uint32_t> zipf_stream(uint64_t seed, size_t n,
                                                double s, size_t count,
                                                size_t block);

// Sample generators matching the kernels' data contracts.
// 16-bit pixel lanes in [0, 255].
[[nodiscard]] std::vector<int16_t> make_pixels(Rng& rng, size_t n);
// Q15 signal samples in [-amplitude, amplitude].
[[nodiscard]] std::vector<int16_t> make_samples(Rng& rng, size_t n,
                                                int16_t amplitude);
[[nodiscard]] std::vector<uint8_t> make_bytes(Rng& rng, size_t n);

// One interleaved-RGB frame (3 * pixels lanes, 0..255) for frame `index`
// of the stream seeded by `seed`.
[[nodiscard]] std::vector<int16_t> make_frame(uint64_t seed, uint64_t index,
                                              size_t pixels);

// Reinterpret 16-bit lanes as the bytes the program's buffer spans carry.
[[nodiscard]] std::vector<uint8_t> as_bytes(const std::vector<int16_t>& v);

}  // namespace perfbench
