// History-table tests: the measurement half of the feedback planner.
//
// The contracts pinned here are the ones the planner's blending and the
// cache's epoch-driven replanning lean on: aggregates must be exact and
// deterministic under a many-thread recording hammer (seqlock lookups may
// never observe a torn snapshot), equivalent execution shapes must fold
// into exactly one entry, injected skew must reset the aggregate to the
// recent window (drift invalidation), the epoch must advance exactly on
// threshold crossings and invalidations, and explore_rate == 0 must
// provably never deviate from the planned path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "runtime/batch_engine.h"
#include "runtime/history.h"
#include "runtime/orchestration_cache.h"

using namespace subword;
using runtime::BatchEngine;
using runtime::HistoryKey;
using runtime::HistoryTable;
using runtime::KernelJob;
using runtime::ScoreSource;

namespace {

HistoryKey sim_key(const std::string& kernel, int suffix) {
  HistoryKey k;
  k.kernel = kernel;
  k.repeats = suffix;
  k.use_spu = true;
  k.mode = kernels::SpuMode::Auto;
  k.backend = kernels::ExecBackend::kSimulator;
  k.input_ports = 4;
  k.output_ports = 2;
  k.port_bits = 128;
  return k;
}

KernelJob auto_job(const std::string& name, int repeats) {
  KernelJob j;
  j.kernel = name;
  j.repeats = repeats;
  j.use_spu = true;
  j.mode = kernels::SpuMode::Auto;
  j.cfg = core::kConfigA;
  return j;
}

KernelJob planned_job(const std::string& name, int repeats) {
  KernelJob j;
  j.kernel = name;
  j.repeats = repeats;
  j.plan = true;
  return j;
}

}  // namespace

// -- Aggregation --------------------------------------------------------------

TEST(History, WelfordAggregateMatchesDirectComputation) {
  HistoryTable t;
  const HistoryKey key = sim_key("FIR12", 1);
  for (int v = 1; v <= 10; ++v) t.record(key, static_cast<double>(v));

  const auto s = t.lookup(key);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count, 10u);
  EXPECT_DOUBLE_EQ(s->mean, 5.5);
  // Sample variance of 1..10: sum of squared deviations 82.5 over n-1 = 9.
  EXPECT_NEAR(s->variance, 82.5 / 9.0, 1e-12);
  EXPECT_EQ(s->invalidations, 0u);
  EXPECT_EQ(s->regime(), ScoreSource::kMeasured);
}

TEST(History, LookupOfUnknownKeyIsEmpty) {
  HistoryTable t;
  EXPECT_FALSE(t.lookup(sim_key("FIR12", 1)).has_value());
  EXPECT_EQ(t.size(), 0u);
}

TEST(History, RegimeFollowsSampleThresholds) {
  HistoryTable t;
  const HistoryKey key = sim_key("DCT", 2);
  for (uint64_t n = 1; n <= runtime::kHistoryFullSamples; ++n) {
    t.record(key, 100.0);
    const auto s = t.lookup(key);
    ASSERT_TRUE(s.has_value());
    const ScoreSource want = n >= runtime::kHistoryFullSamples
                                 ? ScoreSource::kMeasured
                             : n >= runtime::kHistoryMinSamples
                                 ? ScoreSource::kBlended
                                 : ScoreSource::kModel;
    EXPECT_EQ(s->regime(), want) << "after " << n << " samples";
  }
}

// -- Key identity -------------------------------------------------------------

TEST(History, BaselineShapesNormalizeToOneKey) {
  // from_shape zeroes mode and crossbar identity for baseline executions —
  // a baseline run is the same measurement no matter which SPU knobs the
  // job happened to carry.
  const auto a = HistoryKey::from_shape("FIR22", 8, /*use_spu=*/false,
                                        kernels::SpuMode::Auto, core::kConfigA,
                                        kernels::ExecBackend::kSimulator);
  const auto b = HistoryKey::from_shape("FIR22", 8, /*use_spu=*/false,
                                        kernels::SpuMode::Manual,
                                        core::kConfigD,
                                        kernels::ExecBackend::kSimulator);
  EXPECT_EQ(a, b);

  HistoryTable t;
  t.record(a, 50.0);
  t.record(b, 50.0);
  EXPECT_EQ(t.size(), 1u);
  const auto s = t.lookup(a);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count, 2u);
}

TEST(History, BackendsNeverShareAnEntry) {
  // Unit discipline: simulator entries aggregate cycles, native entries
  // wall-ns. One mean must never mix the two.
  auto sim = sim_key("IIR", 4);
  auto native = sim;
  native.backend = kernels::ExecBackend::kNativeSwar;
  HistoryTable t;
  t.record(sim, 1000.0);
  t.record(native, 7.0);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.lookup(sim)->mean, 1000.0);
  EXPECT_DOUBLE_EQ(t.lookup(native)->mean, 7.0);
}

// -- Concurrency --------------------------------------------------------------

TEST(History, ConcurrentHammerAggregatesExactlyAndReadsAreConsistent) {
  // kKeys keys, kThreads writers each folding kPerThread samples into every
  // key. All samples of one key share one value, so at every instant the
  // true mean IS that value and the true variance is zero — any deviation a
  // reader observes can only be a torn snapshot, which is exactly what the
  // seqlock must rule out.
  constexpr int kKeys = 4;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;

  HistoryTable t;
  std::vector<HistoryKey> keys;
  for (int k = 0; k < kKeys; ++k) keys.push_back(sim_key("FIR12", k + 1));
  auto value_of = [](int k) { return 1000.0 * (k + 1); };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < kKeys; ++k) {
          const auto s = t.lookup(keys[k]);
          if (!s.has_value()) continue;
          snapshots.fetch_add(1, std::memory_order_relaxed);
          ASSERT_DOUBLE_EQ(s->mean, value_of(k));
          ASSERT_DOUBLE_EQ(s->variance, 0.0);
          ASSERT_LE(s->count,
                    static_cast<uint64_t>(kThreads) * kPerThread);
          ASSERT_EQ(s->invalidations, 0u);
        }
      }
    });
  }

  // The scheduler may starve the readers for the writers' whole run (they
  // have spun on the empty table meanwhile), so the race is enforced, not
  // hoped for: after its first round each writer waits until a reader has
  // taken a snapshot, then writes the rest while the readers keep reading.
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        for (int k = 0; k < kKeys; ++k) t.record(keys[k], value_of(k));
        while (i == 0 && snapshots.load(std::memory_order_relaxed) == 0) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_GT(snapshots.load(), 0u) << "readers must have raced the writers";
  EXPECT_EQ(t.size(), static_cast<size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    const auto s = t.lookup(keys[k]);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->count, static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(s->mean, value_of(k));
    EXPECT_DOUBLE_EQ(s->variance, 0.0);
  }
  // Identical windows never drift, so the only epoch movement is the two
  // threshold crossings per key.
  EXPECT_EQ(t.invalidations(), 0u);
  EXPECT_EQ(t.epoch(), 2u * kKeys);
}

// -- Drift --------------------------------------------------------------------

TEST(History, DriftInvalidationResetsAggregateToRecentWindow) {
  HistoryTable t;
  const HistoryKey key = sim_key("DCT", 8);
  // Establish a stable regime (two full windows of 1000), then inject one
  // full window of 2000: the window mean deviates from the polluted
  // aggregate (16*1000 + 8*2000)/24 = 1333.3 by 50% — far past the 25%
  // tolerance — so the aggregate must reset to the window.
  for (int i = 0; i < 16; ++i) t.record(key, 1000.0);
  EXPECT_EQ(t.invalidations(), 0u);
  const uint64_t epoch_before = t.epoch();
  for (int i = 0; i < 8; ++i) t.record(key, 2000.0);

  EXPECT_EQ(t.invalidations(), 1u);
  EXPECT_GT(t.epoch(), epoch_before) << "drift must trigger replanning";
  const auto s = t.lookup(key);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count, 8u) << "aggregate reset to the recent window";
  EXPECT_DOUBLE_EQ(s->mean, 2000.0);
  EXPECT_DOUBLE_EQ(s->variance, 0.0);
  EXPECT_EQ(s->invalidations, 1u);
  EXPECT_GE(s->drift_watermark, runtime::kHistoryDriftTolerance);
}

TEST(History, StableSamplesNeverDrift) {
  HistoryTable t;
  const HistoryKey key = sim_key("IIR", 1);
  for (int i = 0; i < 64; ++i) t.record(key, 123.0);
  EXPECT_EQ(t.invalidations(), 0u);
  const auto s = t.lookup(key);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count, 64u);
  EXPECT_DOUBLE_EQ(s->drift_watermark, 0.0);
}

// -- Epoch semantics ----------------------------------------------------------

TEST(History, EpochAdvancesExactlyOnThresholdCrossings) {
  HistoryTable t;
  const HistoryKey key = sim_key("FIR22", 8);
  EXPECT_EQ(t.epoch(), 0u);
  uint64_t bumps = 0;
  for (uint64_t n = 1; n <= 24; ++n) {
    const uint64_t before = t.epoch();
    t.record(key, 500.0);
    if (t.epoch() != before) {
      ++bumps;
      EXPECT_TRUE(n == runtime::kHistoryMinSamples ||
                  n == runtime::kHistoryFullSamples)
          << "unexpected epoch bump at sample " << n;
    }
  }
  EXPECT_EQ(bumps, 2u);
}

TEST(History, ClearResetsEverythingButAdvancesTheEpoch) {
  HistoryTable t;
  const HistoryKey key = sim_key("FIR12", 2);
  for (int i = 0; i < 4; ++i) t.record(key, 10.0);
  const uint64_t epoch_before = t.epoch();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.lookup(key).has_value());
  EXPECT_GT(t.epoch(), epoch_before)
      << "cached plans computed on the dropped history must be recomputed";
}

// -- Engine integration -------------------------------------------------------

TEST(HistoryEngine, FixedConfigJobsFoldIntoExactlyOneEntry) {
  BatchEngine engine({.workers = 4, .cache = nullptr});
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back(auto_job("FIR12", 1));
  const auto results = engine.run_batch(jobs);
  ASSERT_EQ(results.size(), 12u);
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;

  const auto& hist = engine.cache().history();
  EXPECT_EQ(hist.size(), 1u) << "identical shapes share one history entry";
  const auto key = HistoryKey::from_shape(
      "FIR12", 1, /*use_spu=*/true, kernels::SpuMode::Auto, core::kConfigA,
      kernels::ExecBackend::kSimulator);
  const auto s = hist.lookup(key);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count, 12u);
  // The simulator is deterministic: twelve runs of one shape must report
  // one cycle count, so the aggregate is exact.
  ASSERT_TRUE(results[0].run.stats.has_cycles);
  EXPECT_DOUBLE_EQ(s->mean,
                   static_cast<double>(results[0].run.stats.cycles));
  EXPECT_DOUBLE_EQ(s->variance, 0.0);
  EXPECT_EQ(engine.stats().cache.history_entries, 1u);
}

// -- Exploration --------------------------------------------------------------

TEST(Explore, RateZeroNeverDeviatesFromThePlannedPath) {
  // The default engine must be provably plan-faithful: with
  // explore_rate == 0 no job may ever execute the runner-up shape, no
  // matter how much history accumulates or how many replans happen.
  BatchEngine engine({.workers = 2, .cache = nullptr});
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 24; ++i) jobs.push_back(planned_job("FIR22", 8));
  const auto results = engine.run_batch(jobs);
  ASSERT_EQ(results.size(), 24u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_NE(r.plan, nullptr);
    EXPECT_FALSE(r.explored);
  }
}

TEST(Explore, SessionSurfacesExploredAndDefaultsToNever) {
  api::Session session({.workers = 2, .cache = nullptr});
  for (int i = 0; i < 8; ++i) {
    auto r = session.request("FIR22").repeats(8).auto_plan().run();
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_FALSE(r->explored);
  }
}

TEST(Explore, RateOneAlwaysRunsTheRunnerUp) {
  // With a cold cache the FIR22 plan picks an SPU shape and nominates the
  // baseline as runner-up (the baseline anchors every future blend), so at
  // explore_rate == 1 every planned job must deviate — and still verify.
  BatchEngine engine({.workers = 1, .cache = nullptr, .explore_rate = 1.0});
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back(planned_job("FIR22", 8));
  const auto results = engine.run_batch(jobs);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_NE(r.plan, nullptr);
    EXPECT_TRUE(r.explored);
    EXPECT_TRUE(r.run.verified) << "explored shapes stay bit-exact";
  }
}

TEST(Explore, SamplingIsDeterministicAcrossIdenticalEngines) {
  // The explore decision hashes a per-engine counter, not wall-clock
  // entropy: two engines fed the same sequential job stream must explore
  // the same subset.
  auto pattern_of = [] {
    BatchEngine engine(
        {.workers = 1, .cache = nullptr, .explore_rate = 0.5});
    std::vector<bool> pattern;
    for (int i = 0; i < 16; ++i) {
      auto r = engine.submit(planned_job("FIR22", 8)).get();
      EXPECT_TRUE(r.ok) << r.error;
      pattern.push_back(r.explored);
    }
    return pattern;
  };
  const auto a = pattern_of();
  const auto b = pattern_of();
  EXPECT_EQ(a, b);
}
