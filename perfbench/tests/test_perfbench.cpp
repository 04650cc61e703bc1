// test_perfbench.cpp — the benchmark's own arithmetic and generators:
// percentiles under the ten-beyond rule, self time with nested and
// cross-thread children, outcome accounting, and seed determinism of the
// Poisson schedule, the Zipf shape stream and the frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>

#include "gen.h"
#include "metrics.h"
#include "stats.h"
#include "trace.h"

using namespace perfbench;

namespace {

std::vector<double> iota_samples(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

}  // namespace

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p50 of n samples leaves n - ceil(n/2) beyond it.
  EXPECT_FALSE(percentile(iota_samples(19), 0.5).has_value());
  ASSERT_TRUE(percentile(iota_samples(20), 0.5).has_value());
  EXPECT_EQ(*percentile(iota_samples(20), 0.5), 10.0);
  // p90 needs 100 samples, p99 needs 1000.
  EXPECT_FALSE(percentile(iota_samples(99), 0.9).has_value());
  ASSERT_TRUE(percentile(iota_samples(100), 0.9).has_value());
  EXPECT_EQ(*percentile(iota_samples(100), 0.9), 90.0);
  EXPECT_FALSE(percentile(iota_samples(999), 0.99).has_value());
  EXPECT_EQ(*percentile(iota_samples(1000), 0.99), 990.0);
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Percentile, NearestRankIgnoresInputOrder) {
  auto v = iota_samples(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(*percentile(v, 0.5), 100.0);
  EXPECT_EQ(*percentile(v, 0.9), 180.0);
  EXPECT_EQ(samples_beyond(200, 0.9), 20u);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, NestedChildren) {
  // root [0,100) > a [10,40) > a1 [20,30); root > b [50,60).
  std::vector<Span> s = {
      {"bench.root", 1, 0, 7, 0, 100, 1},
      {"api.a", 2, 1, 7, 10, 40, 1},
      {"engine.a1", 3, 2, 7, 20, 30, 1},
      {"api.b", 4, 1, 7, 50, 60, 1},
  };
  const auto self = span_self_ns(s);
  EXPECT_EQ(self[0], 60.0);  // 100 - (30 + 10); the grandchild is inside a
  EXPECT_EQ(self[1], 20.0);
  EXPECT_EQ(self[2], 10.0);
  EXPECT_EQ(self[3], 10.0);
  EXPECT_DOUBLE_EQ(unattributed_pct(s), 60.0);
}

TEST(SelfTime, OverlappingChildrenOnOtherThreadsCountOnce) {
  // Two children on other threads overlap each other, and one runs past
  // the parent's end: the covered part is the clipped union, [20, 100).
  std::vector<Span> s = {
      {"bench.root", 1, 0, 1, 0, 100, 1},
      {"native.x", 2, 1, 1, 20, 70, 2},
      {"native.y", 3, 1, 1, 50, 130, 3},
  };
  const auto self = span_self_ns(s);
  EXPECT_EQ(self[0], 20.0);
  EXPECT_EQ(self[1], 50.0);
  EXPECT_EQ(self[2], 80.0);
}

TEST(SelfTime, AggregatesByNameLargestFirst) {
  std::vector<Span> s = {
      {"bench.root", 1, 0, 1, 0, 100, 1},
      {"api.wait", 2, 1, 1, 0, 90, 1},
      {"bench.root", 3, 0, 2, 200, 300, 1},
      {"api.wait", 4, 3, 2, 200, 290, 1},
  };
  const auto rows = self_times(s);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "api.wait");
  EXPECT_EQ(rows[0].spans, 2u);
  EXPECT_EQ(rows[0].self_ns, 180.0);
  EXPECT_EQ(rows[1].self_ns, 20.0);
  EXPECT_EQ(rows[1].total_ns, 200.0);
}

TEST(Tracer, RecordsFromManyThreadsAndWritesChromeJson) {
  Tracer t(true);
  const uint64_t root = t.new_id();
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t, root, i] {
      t.add("engine.job", 10 + static_cast<uint64_t>(i), 20, root, 5);
    });
  }
  for (auto& th : threads) th.join();
  t.add("bench.request", 0, 100, 0, 5, root);
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(span_self_ns(spans).back(), 90.0);
  const std::string json = chrome_trace_json(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);

  Tracer off(false);
  EXPECT_EQ(off.add("x.y", 0, 1, 0, 0), 0u);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Outcomes, ShedTypedAndTransportAreFailures) {
  OutcomeCounts c;
  for (int i = 0; i < 6; ++i) c.add(Outcome::kOk);
  c.add(Outcome::kShed);
  c.add(Outcome::kTypedError);
  c.add(Outcome::kTransport);
  c.add(Outcome::kDivergent);
  EXPECT_EQ(c.attempted(), 10u);
  EXPECT_EQ(c.failed(), 4u);
  EXPECT_DOUBLE_EQ(c.error_rate(), 0.4);
  OutcomeCounts d;
  EXPECT_EQ(d.error_rate(), 0.0);
  d.merge(c);
  EXPECT_EQ(d.count(Outcome::kShed), 1u);
}

TEST(Generators, PoissonScheduleIsSeededAndHasItsRate) {
  const auto a = poisson_schedule(42, 1000, 5);
  const auto b = poisson_schedule(42, 1000, 5);
  const auto c = poisson_schedule(43, 1000, 5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 300.0);
  EXPECT_LT(a.back(), 5'000'000'000ull);
}

TEST(Generators, ZipfStreamIsSeededAndStratified) {
  const auto a = zipf_stream(7, 100, 1.0, 20000, 1000);
  EXPECT_EQ(a, zipf_stream(7, 100, 1.0, 20000, 1000));
  EXPECT_NE(a, zipf_stream(8, 100, 1.0, 20000, 1000));
  ASSERT_EQ(a.size(), 20000u);
  double h = 0;
  for (int r = 1; r <= 100; ++r) h += 1.0 / r;
  // Every block of 1000 holds rank r within one of its expected count.
  for (size_t b = 0; b < 20; ++b) {
    std::vector<size_t> hist(100);
    for (size_t i = b * 1000; i < (b + 1) * 1000; ++i) {
      ASSERT_LT(a[i], 100u);
      ++hist[a[i]];
    }
    for (size_t r = 0; r < 100; ++r) {
      const double expected = 1000.0 / (static_cast<double>(r + 1) * h);
      EXPECT_LE(std::abs(static_cast<double>(hist[r]) - expected), 1.0)
          << "block " << b << " rank " << r;
    }
  }
  // Shuffled within blocks: not in rank order.
  EXPECT_FALSE(std::is_sorted(a.begin(), a.begin() + 1000));
}

TEST(Generators, FramesAreSeededAndInPixelRange) {
  const auto a = make_frame(1, 0, 256);
  EXPECT_EQ(a, make_frame(1, 0, 256));
  EXPECT_NE(a, make_frame(1, 1, 256));
  EXPECT_NE(a, make_frame(2, 0, 256));
  ASSERT_EQ(a.size(), 3u * 256u);
  for (int16_t v : a) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 255);
  }
}

TEST(Report, ResultLineCarriesEveryMetricOfItsList) {
  Report r;
  for (const auto& d : end_to_end_metrics()) r.set(d.name, 1.5);
  OutcomeCounts c;
  c.add(Outcome::kOk);
  std::string missing;
  const std::string e2e = r.result_json(false, true, c, &missing);
  EXPECT_TRUE(missing.empty());
  for (const auto& d : end_to_end_metrics()) {
    EXPECT_NE(e2e.find(std::string("\"") + d.name + "\""), std::string::npos);
  }
  // Per-layer metrics of layers the workload never called read 0.
  const std::string layers = r.result_json(true, true, c, &missing);
  for (const auto& d : per_layer_metrics()) {
    EXPECT_NE(layers.find(std::string("\"") + d.name + "\""),
              std::string::npos);
  }
  Report empty;
  missing.clear();
  (void)empty.result_json(false, true, c, &missing);
  EXPECT_NE(missing.find("setup_s"), std::string::npos);
}
