// sim_batch.cpp — the simulator workload.
//
// A seeded Zipf stream over kernel shapes (11 kernels x {baseline, manual
// where it exists, auto} x configs A-D x repeats {1,2,4,8,16}) runs through
// api::Session on the cycle-level simulator, as a closed loop of 2 x
// workers client threads that each keep one job in flight. The cache
// starts cold, so first-seen shapes prepare mid-stream. Plan mode is left
// out: the planner's history thresholds race across workers, which would
// make the modelled totals nondeterministic.
//
// The first kModelledJobs jobs of the stream always run to completion, and
// their summed modelled counters (sim_cycles and the sim.*/spu.* counts)
// are an exact function of the seed.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "api/session.h"
#include "gen.h"
#include "kernels/registry.h"
#include "layers.h"
#include "refs.h"
#include "workload.h"

namespace perfbench {

namespace api = subword::api;
namespace core = subword::core;
namespace sk = subword::kernels;
namespace sim = subword::sim;

namespace {

constexpr int kRepeats[] = {1, 2, 4, 8, 16};
constexpr double kZipfExponent = 1.0;
// The popularity order of the shapes is fixed, independent of the seed:
// every seed draws from the same distribution, only the draws differ.
constexpr uint64_t kRankSeed = 0x53494D52414E4Bull;
constexpr size_t kModelledJobs = 1200;
constexpr size_t kStreamLength = size_t{1} << 17;
constexpr size_t kPrepareProbeShapes = 48;
// A set-up is a Session construction, tens of microseconds; many give a
// steady median.
constexpr int kSetupRepeats = 201;

struct Universe {
  std::vector<Shape> shapes;  // in popularity order (rank 0 first)
  // Expected primary output per buffer kernel (synthetic input).
  std::map<std::string, std::vector<uint8_t>> expected;
  std::vector<uint32_t> stream;  // ranks, seeded
};

Universe make_universe(const Options& opt) {
  Universe u;
  const core::CrossbarConfig cfgs[] = {core::kConfigA, core::kConfigB,
                                       core::kConfigC, core::kConfigD};
  for (const auto& info : sk::kernel_infos()) {
    const auto k = sk::make_kernel(info.name);
    for (int r : kRepeats) {
      u.shapes.push_back({info.name, r, false, sk::SpuMode::Auto,
                          core::kConfigA});
      for (const auto& cfg : cfgs) {
        if (k->build_spu(cfg, 1).has_value()) {
          u.shapes.push_back({info.name, r, true, sk::SpuMode::Manual, cfg});
        }
        u.shapes.push_back({info.name, r, true, sk::SpuMode::Auto, cfg});
      }
    }
    if (is_buffer_kernel(info.name)) {
      u.expected[info.name] =
          reference_output(info.name, synthetic_input(*k));
    }
  }
  Rng rank(kRankSeed);
  for (size_t i = u.shapes.size(); i > 1; --i) {
    std::swap(u.shapes[i - 1],
              u.shapes[static_cast<size_t>(rank.next() % i)]);
  }
  u.stream = zipf_stream(sub_seed(opt.seed, 0x53494D), u.shapes.size(),
                         kZipfExponent, kStreamLength, kModelledJobs);
  if (opt.corrupt_expected) {
    for (uint32_t rank_idx : u.stream) {
      auto it = u.expected.find(u.shapes[rank_idx].kernel);
      if (it != u.expected.end()) {
        it->second[0] ^= 1;
        break;
      }
    }
  }
  return u;
}

struct Measured {
  std::vector<double> latency_ms;
  std::vector<uint64_t> done_ns;
  std::vector<std::vector<double>> round_ms;  // latencies by completion round
  std::vector<double> round_rate;             // jobs/s per round
  std::vector<double> build_us, submit_us, wait_us, miss_prepare_us;
  uint64_t jobs = 0;
  double elapsed_s = 0;
  uint64_t cycles_all = 0;
  uint64_t execute_ns_all = 0;
  sim::RunStats modelled;  // summed over the first kModelledJobs jobs
  OutcomeCounts outcomes;
  subword::runtime::EngineStats before, after;
};

Measured measure(api::Session& session, const Universe& u, double seconds,
                 int clients, Tracer& tracer) {
  Measured m;
  std::mutex mu;  // guards m and `seen`
  // Shape index -> (cycles, instructions) of its first execution: every
  // later execution of the shape must reproduce them exactly.
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> seen;
  std::atomic<size_t> next{0};
  // When the first client stopped taking jobs: the end of the last round.
  // Jobs still in flight then count toward latency, not throughput.
  std::atomic<uint64_t> stop{UINT64_MAX};

  m.before = session.stats();
  const uint64_t start = now_ns();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);

  auto client = [&] {
    for (;;) {
      const size_t idx = next.fetch_add(1);
      if (idx >= kModelledJobs) {
        const uint64_t now = now_ns();
        if (now >= deadline) {
          uint64_t unset = UINT64_MAX;
          stop.compare_exchange_strong(unset, now);
          return;
        }
      }
      const uint32_t rank_idx = u.stream[idx % u.stream.size()];
      const Shape& s = u.shapes[rank_idx];
      auto req = session.request(s.kernel);
      req.repeats(s.repeats);
      if (!s.use_spu) {
        req.baseline();
      } else {
        req.spu(s.cfg);
        if (s.mode == sk::SpuMode::Auto) req.auto_orchestrate();
      }
      const auto exp = u.expected.find(s.kernel);
      std::vector<uint8_t> out;
      if (exp != u.expected.end()) {
        out.resize(exp->second.size());
        req.output(std::span<uint8_t>(out));
      }

      const uint64_t t0 = now_ns();
      if (tracer.enabled()) (void)req.build();
      const uint64_t t1 = now_ns();
      auto sub = req.submit();
      const uint64_t t2 = now_ns();
      std::optional<api::Result<api::Response>> res;
      if (sub.ok()) res.emplace(sub->wait());
      const uint64_t t3 = now_ns();

      Outcome outcome = Outcome::kOk;
      if (!sub.ok()) {
        outcome = outcome_of(sub.error().code);
      } else if (!res->ok()) {
        outcome = outcome_of(res->error().code);
      } else if (!(*res)->run.verified ||
                 (exp != u.expected.end() && out != exp->second)) {
        outcome = Outcome::kDivergent;
      }

      std::lock_guard lock(mu);
      m.latency_ms.push_back(static_cast<double>(t3 - t0) / 1e6);
      m.done_ns.push_back(t3);
      if (outcome == Outcome::kOk) {
        const api::Response& r = res->value();
        const auto& st = r.run.stats;
        const auto [it, fresh] =
            seen.emplace(rank_idx, std::make_pair(st.cycles, st.instructions));
        if (!fresh && it->second != std::make_pair(st.cycles, st.instructions)) {
          outcome = Outcome::kDivergent;
        }
        m.cycles_all += st.cycles;
        m.execute_ns_all += r.execute_ns;
        if (idx < kModelledJobs) m.modelled += st;
        if (!r.cache_hit) {
          m.miss_prepare_us.push_back(static_cast<double>(r.prepare_ns) / 1e3);
        }
        if (tracer.enabled()) {
          const uint64_t root = tracer.new_id();
          const uint64_t request = idx + 1;
          tracer.add("api.build", t0, t1, root, request);
          tracer.add("api.submit", t1, t2, root, request);
          const uint64_t wait = tracer.add("api.wait", t2, t3, root, request);
          add_reported_engine_spans(tracer, t2, t3, r.prepare_ns, r.execute_ns,
                                    "sim.execute", wait, request);
          tracer.add("bench.job", t0, t3, 0, request, root);
          m.build_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          m.submit_us.push_back(static_cast<double>(t2 - t1) / 1e3);
          m.wait_us.push_back(static_cast<double>(t3 - t2) / 1e3);
        }
      }
      m.outcomes.add(outcome);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();
  const uint64_t end = stop.load();
  m.elapsed_s = static_cast<double>(end - start) / 1e9;
  m.jobs = m.outcomes.attempted();
  m.round_ms.resize(kRounds);
  std::vector<uint64_t> count(kRounds, 0);
  for (size_t i = 0; i < m.done_ns.size(); ++i) {
    const size_t r = round_of(m.done_ns[i], start, end, kRounds);
    m.round_ms[r].push_back(m.latency_ms[i]);
    if (m.done_ns[i] <= end) ++count[r];
  }
  for (uint64_t c : count) {
    m.round_rate.push_back(static_cast<double>(c) * kRounds / m.elapsed_s);
  }
  m.after = session.stats();
  return m;
}

std::unique_ptr<api::Session> make_session(int workers) {
  api::SessionOptions o;
  o.workers = workers;
  return std::make_unique<api::Session>(o);
}

void report(Report& r, const Measured& m) {
  report_latency(r, m.round_ms);
  report_throughput(r, m.round_rate);
  const double mcycles_per_s =
      static_cast<double>(m.cycles_all) / m.elapsed_s / 1e6;
  r.set("sim_mcycles_per_s", mcycles_per_s);
  r.set("sim_cycles", static_cast<double>(m.modelled.cycles));
  report_engine(r, m.before, m.after);
  r.set("prepare.miss_p50_us", median(m.miss_prepare_us));
  r.set_samples("prepare.miss_p50_us", m.miss_prepare_us.size());
  r.set("api.build_us", median(m.build_us));
  r.set("api.submit_us", median(m.submit_us));
  r.set("api.wait_us", median(m.wait_us));

  const auto& s = m.modelled;
  r.set("sim.execute_ms", m.jobs == 0 ? 0.0
                                      : static_cast<double>(m.execute_ns_all) /
                                            static_cast<double>(m.jobs) / 1e6);
  r.set("sim.host_ns_per_cycle",
        m.cycles_all == 0 ? 0.0
                          : static_cast<double>(m.execute_ns_all) /
                                static_cast<double>(m.cycles_all));
  r.set("sim.mcycles_per_s", mcycles_per_s);
  r.set("sim.cycles", static_cast<double>(s.cycles));
  r.set("sim.instructions", static_cast<double>(s.instructions));
  r.set("sim.ipc", s.ipc());
  r.set("sim.stall_cycles", static_cast<double>(s.stall_cycles));
  r.set("sim.mmx_busy_fraction", s.mmx_busy_fraction());
  r.set("sim.branch_mispredicts", static_cast<double>(s.branch_mispredicts));
  r.set("sim.permutation_instructions", static_cast<double>(s.mmx_permutation));
  r.set("spu.routed_ops", static_cast<double>(s.spu_routed_ops));
  r.set("spu.mmio_stores", static_cast<double>(s.spu_mmio_stores));
}

}  // namespace

WorkloadRun run_sim_batch(const Options& opt) {
  // One malloc arena for every thread, set before the workload starts any.
  // With an arena per thread, which arena a job's allocations land in
  // decided how much stayed resident: peak_rss_mb read 14-20 MB across
  // runs of this workload, against 13.5-13.9 MB on one arena, at the same
  // throughput.
  mallopt(M_ARENA_MAX, 1);
  WorkloadRun run;
  const Universe u = make_universe(opt);
  const int workers = std::clamp(opt.nproc, 1, kMaxWorkers);
  const int clients = 2 * workers;

  // Warm-up on a throwaway session, so the measured session still starts
  // with a cold cache.
  Tracer off(false);
  {
    const auto warm = make_session(workers);
    run.outcomes.merge(measure(*warm, u, kWarmupSeconds, clients, off).outcomes);
  }
  // Set-up: a Session (engine workers, empty cache). The cache starts
  // cold on purpose, so there is no hot set to warm.
  std::unique_ptr<api::Session> session;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    const uint64_t t0 = now_ns();
    session = make_session(workers);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  run.report.set("setup_s", median(setup_s));
  run.report.set_samples("setup_s", setup_s.size());

  if (!opt.trace) {
    const Measured m = measure(*session, u, opt.seconds, clients, off);
    report(run.report, m);
    run.outcomes.merge(m.outcomes);
    return run;
  }

  // Traced: an untraced half and a traced half, each on a fresh, cold
  // session so both replay the same stream from the same state.
  const Measured plain = measure(*session, u, opt.seconds / 2, clients, off);
  session = make_session(workers);
  Tracer tracer(true);
  const Measured traced = measure(*session, u, opt.seconds / 2, clients, tracer);
  report(run.report, traced);
  run.outcomes.merge(plain.outcomes);
  run.outcomes.merge(traced.outcomes);
  run.spans = tracer.spans();
  report_trace(run.report, percentile(plain.latency_ms, 0.5).value_or(0),
               percentile(traced.latency_ms, 0.5).value_or(0), run.spans);

  // Prepare-half probe on the stream's first distinct shapes.
  PrepareProbe prep;
  std::vector<uint32_t> probed;
  for (uint32_t rank_idx : u.stream) {
    if (probed.size() >= kPrepareProbeShapes) break;
    if (std::find(probed.begin(), probed.end(), rank_idx) != probed.end()) {
      continue;
    }
    probed.push_back(rank_idx);
    const Shape& s = u.shapes[rank_idx];
    (void)prep.prepare(*sk::make_kernel(s.kernel), s, /*native=*/false);
  }
  prep.report(run.report);
  probe_service(opt, run.report, run.outcomes);
  return run;
}

}  // namespace perfbench
