#include "runtime/history.h"

#include <cmath>

namespace subword::runtime {

HistoryKey HistoryKey::from_shape(const std::string& kernel, int repeats,
                                  bool use_spu, kernels::SpuMode mode,
                                  const core::CrossbarConfig& cfg,
                                  kernels::ExecBackend backend) {
  HistoryKey k;
  k.kernel = kernel;
  k.repeats = repeats;
  k.use_spu = use_spu;
  k.backend = backend;
  // Baseline executions ignore the mode and the crossbar, exactly like
  // OrchestrationKey normalization — one baseline entry per
  // (kernel, repeats, backend) no matter what knobs rode along.
  if (use_spu) {
    k.mode = mode;
    k.input_ports = cfg.input_ports;
    k.output_ports = cfg.output_ports;
    k.port_bits = cfg.port_bits;
    k.modes = cfg.modes;
  }
  return k;
}

std::shared_ptr<HistoryTable::Cell> HistoryTable::cell_for(
    const HistoryKey& key) {
  {
    std::shared_lock lock(map_mu_);
    auto it = map_.find(key);
    if (it != map_.end()) return it->second;
  }
  std::unique_lock lock(map_mu_);
  auto [it, fresh] = map_.try_emplace(key);
  if (fresh) it->second = std::make_shared<Cell>();
  return it->second;
}

void HistoryTable::record(const HistoryKey& key, double value) {
  const std::shared_ptr<Cell> cell = cell_for(key);
  std::lock_guard writer(cell->writer);

  // Enter the write critical section: odd seq tells lock-free readers the
  // payload is in flux and their snapshot must be retried. The release
  // fence keeps the payload stores below from being reordered before the
  // increment (a release RMW alone orders only what precedes it).
  cell->seq.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);

  // Welford's online aggregate.
  const uint64_t n0 = cell->count.load(std::memory_order_relaxed);
  const double mean0 = cell->mean.load(std::memory_order_relaxed);
  const double m2_0 = cell->m2.load(std::memory_order_relaxed);
  uint64_t n = n0 + 1;
  const double d0 = value - mean0;
  double mean = mean0 + d0 / static_cast<double>(n);
  double m2 = m2_0 + d0 * (value - mean);

  // Rolling drift window. Only meaningful once the aggregate holds more
  // than one window's worth of samples — before that the "window" IS the
  // aggregate and a comparison would be vacuous.
  bool invalidated = false;
  cell->window[cell->window_fill % kHistoryDriftWindow] = value;
  ++cell->window_fill;
  if (cell->window_fill % kHistoryDriftWindow == 0 &&
      n > kHistoryDriftWindow) {
    double wsum = 0;
    for (double w : cell->window) wsum += w;
    const double wmean = wsum / static_cast<double>(kHistoryDriftWindow);
    const double rel = std::abs(wmean - mean) / std::max(std::abs(mean), 1.0);
    const double mark = cell->drift_watermark.load(std::memory_order_relaxed);
    if (rel > mark) {
      cell->drift_watermark.store(rel, std::memory_order_relaxed);
    }
    if (rel > kHistoryDriftTolerance) {
      // The recent regime disagrees with the recorded past: drop the past
      // and rebuild the aggregate from the window alone.
      invalidated = true;
      n = kHistoryDriftWindow;
      mean = wmean;
      m2 = 0;
      for (double w : cell->window) m2 += (w - wmean) * (w - wmean);
      cell->invalidations.fetch_add(1, std::memory_order_relaxed);
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  cell->count.store(n, std::memory_order_relaxed);
  cell->mean.store(mean, std::memory_order_relaxed);
  cell->m2.store(m2, std::memory_order_relaxed);

  cell->seq.fetch_add(1, std::memory_order_release);

  // Epoch moves exactly when new history could change a memoized plan:
  // regime boundary crossings and drift resets.
  const bool crossed =
      (n0 < kHistoryMinSamples && n >= kHistoryMinSamples) ||
      (n0 < kHistoryFullSamples && n >= kHistoryFullSamples);
  if (crossed || invalidated) {
    epoch_.fetch_add(1, std::memory_order_release);
  }
}

std::optional<HistoryStats> HistoryTable::lookup(const HistoryKey& key) const {
  std::shared_ptr<Cell> cell;
  {
    std::shared_lock lock(map_mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    cell = it->second;
  }
  const auto copy = [&cell] {
    HistoryStats out;
    out.count = cell->count.load(std::memory_order_relaxed);
    const double m2 = cell->m2.load(std::memory_order_relaxed);
    out.mean = cell->mean.load(std::memory_order_relaxed);
    out.drift_watermark =
        cell->drift_watermark.load(std::memory_order_relaxed);
    out.invalidations = cell->invalidations.load(std::memory_order_relaxed);
    out.variance =
        out.count > 1 ? m2 / static_cast<double>(out.count - 1) : 0.0;
    return out;
  };
  // A cell is published into the map before its first record() writes it,
  // so a consistent snapshot may still be empty: that key was never
  // recorded, as far as this reader can tell.
  const auto finish = [](const HistoryStats& out) {
    return out.count == 0 ? std::nullopt : std::optional<HistoryStats>(out);
  };
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const uint64_t s0 = cell->seq.load(std::memory_order_acquire);
    if (s0 & 1) continue;  // write in flight
    const HistoryStats out = copy();
    std::atomic_thread_fence(std::memory_order_acquire);
    if (cell->seq.load(std::memory_order_relaxed) != s0) continue;
    return finish(out);
  }
  // Pathological writer livelock (not expected in practice): fall back to
  // serializing with the writer for a guaranteed-consistent read.
  std::lock_guard writer(cell->writer);
  return finish(copy());
}

size_t HistoryTable::size() const {
  std::shared_lock lock(map_mu_);
  return map_.size();
}

void HistoryTable::clear() {
  std::unique_lock lock(map_mu_);
  map_.clear();
  // Cleared history can change any memoized plan back to model-only.
  epoch_.fetch_add(1, std::memory_order_release);
}

}  // namespace subword::runtime
