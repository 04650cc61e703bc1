// serve_mixed.cpp — the serving workload.
//
// An in-process service::Server on loopback (one tenant, native backend
// only) driven by kConnections ServiceClient connections; connections
// plus engine workers stay within the CPU count. The request mix:
//   - the five buffer kernels with seeded random inputs, checked byte for
//     byte against the scalar references;
//   - the same kernels on their synthetic inputs (the server verifies
//     without a bound input), checked against the references of those
//     inputs;
//   - DCT, FFT128 and Matrix Transpose on synthetic inputs, checked by OK
//     status and an instruction count equal to a host-side reference run;
//   - planner (kPlan) requests with the backend pinned to native.
// Requests come from a seeded pool of kPoolSize entries whose expected
// outputs are computed before set-up.
//
// Phase 1 is an open loop: seeded Poisson arrivals at the fixed offered
// rate kOfferedRps, each request timed from its due time, so a stall
// delays the requests behind it and shows in their latency. Phase 2 is a
// closed loop on the same connections and gives throughput_per_s.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "api/session.h"
#include "gen.h"
#include "kernels/registry.h"
#include "layers.h"
#include "refs.h"
#include "runtime/planner.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workload.h"

namespace perfbench {

namespace api = subword::api;
namespace core = subword::core;
namespace sk = subword::kernels;
namespace svc = subword::service;

namespace {

constexpr size_t kConnections = 2;
// Fixed offered load of the open-loop phase, well below the closed-loop
// capacity of kConnections connections (13k-19k requests/s on an idle
// 4-CPU Xeon host, 7k when its neighbours load it). One request is in
// flight per connection, so near capacity each connection queues, and a
// host running 2-3x slower for a while (seen on shared hosts) would turn
// into an unbounded backlog instead of a slower response.
constexpr double kOfferedRps = 2000;
constexpr double kOpenShare = 0.6;  // of each round; the rest is closed loop
constexpr size_t kPoolSize = 256;
// The last stretch before a due time is spun rather than slept, so timer
// slack does not make the sender late.
constexpr uint64_t kSpinNs = 80'000;
// A sender whose own p99 lateness exceeds this is flagged as behind its
// schedule.
constexpr double kLateFlagUs = 1000;
constexpr size_t kProbeEntries = 64;
constexpr int kSetupRepeats = 9;
// Sequential round trips of probe_service (enough for a p99 with ten
// samples beyond it).
constexpr size_t kServiceProbeCalls = 2000;
constexpr int kCodecReps = 16;

enum class Category { kBound, kSynthetic, kCounted, kPlan };

struct Entry {
  Category cat = Category::kBound;
  Shape shape;  // meaningless for kPlan (the planner chooses)
  svc::WireRequest req;
  std::vector<uint8_t> input;              // bound input (kBound, kPlan)
  std::vector<uint8_t> expected;           // expected output bytes
  uint64_t expected_instructions = 0;      // kCounted
};

const char* const kCountedKernels[] = {"DCT", "FFT128", "Matrix Transpose"};

Shape mode_shape(const std::string& kernel, int mode) {
  // 0 baseline, 1 manual on config D, 2 auto on config D.
  if (mode == 0) return {kernel, 1, false, sk::SpuMode::Auto, core::kConfigA};
  return {kernel, 1, true, mode == 1 ? sk::SpuMode::Manual : sk::SpuMode::Auto,
          core::kConfigD};
}

svc::WireRequest wire_request(const Entry& e, uint64_t id) {
  svc::WireRequest r;
  r.request_id = id;
  r.kernel = e.shape.kernel;
  r.repeats = 1;
  r.backend = svc::WireBackend::kNativeSwar;
  if (e.cat == Category::kPlan) {
    r.mode = svc::WireMode::kPlan;
  } else if (!e.shape.use_spu) {
    r.mode = svc::WireMode::kBaseline;
  } else {
    r.mode = e.shape.mode == sk::SpuMode::Manual
                 ? svc::WireMode::kManualSpu
                 : svc::WireMode::kAutoOrchestrate;
    r.config = 3;  // config D
  }
  r.input = e.input;
  return r;
}

struct Pool {
  std::vector<Entry> warm;     // every shape once: the set-up's hot set
  std::vector<Entry> entries;  // the mix the load draws from
};

// Instruction count of a host-side reference run of `s` on the native
// backend (a kernel without a buffer contract).
uint64_t reference_instructions(const Shape& s) {
  const auto k = sk::make_kernel(s.kernel);
  sk::PreparedProgram p =
      s.use_spu ? sk::prepare_spu(*k, s.repeats, s.cfg, s.mode)
                : sk::prepare_baseline(*k, s.repeats);
  sk::lower_native(*k, p);
  const sk::KernelRun run = sk::execute_native(*k, p);
  return run.verified ? run.stats.instructions : 0;
}

// The mix as shares of the pool, spread evenly over each category's
// (kernel, mode) combinations.
struct Share {
  Category cat;
  double share;
};
constexpr Share kMix[] = {{Category::kBound, 0.55},
                          {Category::kSynthetic, 0.15},
                          {Category::kCounted, 0.15},
                          {Category::kPlan, 0.15}};

// Every (category, kernel, mode) combination gets its exact share of the
// pool (largest remainder), so the mix is the same for every seed; the
// seed picks the inputs and the order.
Pool make_pool(const Options& opt) {
  Pool pool;
  Rng rng(sub_seed(opt.seed, 0x504F4F4C));  // "POOL"
  std::map<std::string, std::vector<uint8_t>> synthetic_expected;
  std::map<std::string, uint64_t> counted_instructions;

  auto make = [&](Category cat, const std::string& kernel, int mode) {
    Entry e;
    e.cat = cat;
    e.shape = mode_shape(kernel, mode);
    switch (cat) {
      case Category::kBound:
      case Category::kPlan:
        e.input = random_input(kernel, rng);
        e.expected = reference_output(kernel, e.input);
        break;
      case Category::kSynthetic: {
        auto& want = synthetic_expected[kernel];
        if (want.empty()) {
          want = reference_output(kernel,
                                  synthetic_input(*sk::make_kernel(kernel)));
        }
        e.expected = want;
        break;
      }
      case Category::kCounted: {
        auto& n = counted_instructions[e.shape.label()];
        if (n == 0) n = reference_instructions(e.shape);
        e.expected_instructions = n;
        break;
      }
    }
    return e;
  };
  struct Combo {
    Category cat;
    std::string kernel;
    int mode;
    double quota;
  };
  std::vector<Combo> combos;
  for (const Share& sh : kMix) {
    std::vector<std::pair<std::string, int>> kms;
    if (sh.cat == Category::kCounted) {
      for (const char* k : kCountedKernels) kms.insert(kms.end(), {{k, 0}, {k, 2}});
    } else {
      for (const auto& k : buffer_kernels()) {
        if (sh.cat == Category::kPlan) {
          kms.push_back({k, 0});
        } else {
          for (int mode = 0; mode < 3; ++mode) kms.push_back({k, mode});
        }
      }
    }
    for (const auto& [k, mode] : kms) {
      combos.push_back({sh.cat, k, mode,
                        kPoolSize * sh.share / static_cast<double>(kms.size())});
    }
  }

  // The warm set: each distinct shape (bound and synthetic share one).
  for (const Combo& c : combos) {
    if (c.cat != Category::kSynthetic) pool.warm.push_back(make(c.cat, c.kernel, c.mode));
  }
  // Largest-remainder apportionment of kPoolSize over the combinations.
  std::vector<size_t> count(combos.size());
  size_t total = 0;
  for (size_t i = 0; i < combos.size(); ++i) {
    count[i] = static_cast<size_t>(combos[i].quota);
    total += count[i];
  }
  std::vector<size_t> order(combos.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return combos[a].quota - static_cast<double>(count[a]) >
           combos[b].quota - static_cast<double>(count[b]);
  });
  for (size_t i = 0; total < kPoolSize; ++i, ++total) ++count[order[i]];
  for (size_t i = 0; i < combos.size(); ++i) {
    for (size_t n = 0; n < count[i]; ++n) {
      pool.entries.push_back(make(combos[i].cat, combos[i].kernel, combos[i].mode));
    }
  }
  for (size_t i = pool.entries.size(); i > 1; --i) {
    std::swap(pool.entries[i - 1],
              pool.entries[static_cast<size_t>(rng.next() % i)]);
  }
  for (auto* list : {&pool.warm, &pool.entries}) {
    for (size_t i = 0; i < list->size(); ++i) {
      (*list)[i].req = wire_request((*list)[i], i + 1);
    }
  }
  if (opt.corrupt_expected) {
    for (auto& e : pool.entries) {
      if (!e.expected.empty()) {
        e.expected[0] ^= 1;
        break;
      }
    }
  }
  return pool;
}

Outcome check(const Entry& e, const svc::CallResult& res) {
  if (!res.transport_ok) return Outcome::kTransport;
  const svc::WireResponse& r = res.response;
  if (r.status == svc::WireStatus::kApiError) {
    api::ErrorCode code{};
    return svc::error_code_from_wire(r.error_code, &code) ? outcome_of(code)
                                                          : Outcome::kTypedError;
  }
  if (r.status != svc::WireStatus::kOk) return Outcome::kTypedError;
  if (r.request_id != e.req.request_id || r.output != e.expected ||
      (e.cat == Category::kCounted &&
       r.stats.instructions != e.expected_instructions) ||
      (e.cat == Category::kPlan &&
       (!r.has_plan || r.plan.backend != svc::WireBackend::kNativeSwar))) {
    return Outcome::kDivergent;
  }
  return Outcome::kOk;
}

struct System {
  std::unique_ptr<svc::Server> server;
  std::vector<svc::ServiceClient> clients;
};

// A server plus connected clients (into an empty `sys`), warmed with every
// shape of the pool. False when the server could not start or a
// connection failed.
bool set_up(System& sys, const Pool& pool, int workers, OutcomeCounts& out) {
  svc::ServerOptions so;
  svc::TenantOptions t;
  t.name = "default";
  t.workers = workers;
  so.tenants = {t};
  sys.server = std::make_unique<svc::Server>(so);
  std::string err;
  if (!sys.server->start(&err)) {
    std::fprintf(stderr, "serve_mixed: server start failed: %s\n", err.c_str());
    return false;
  }
  sys.clients.resize(kConnections);
  for (auto& c : sys.clients) {
    if (!c.connect(sys.server->port(), &err)) {
      std::fprintf(stderr, "serve_mixed: connect failed: %s\n", err.c_str());
      return false;
    }
  }
  for (const Entry& e : pool.warm) out.add(check(e, sys.clients[0].call(e.req)));
  return true;
}

void wait_until(uint64_t due) {
  for (uint64_t now = now_ns(); now < due; now = now_ns()) {
    if (due - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
    } else {
      std::this_thread::yield();
    }
  }
}

struct Measured {
  std::vector<std::vector<double>> round_ms;  // open loop, from due time
  std::vector<double> round_rate;             // closed loop, requests/s
  std::vector<double> rtt_us, overhead_us, late_us, miss_prepare_us;
  OutcomeCounts outcomes;
  subword::runtime::EngineStats before, after;
  svc::ServerStats server_before, server_after;
};

// Samples one connection's sender collects in a phase.
struct SenderSamples {
  std::vector<double> latency_ms, rtt_us, overhead_us, late_us, miss_prepare_us;
  OutcomeCounts outcomes;
};

// One open-loop phase's arrivals: seeded Poisson due times at kOfferedRps
// (ns from the phase start) and the pool entry each one sends.
struct Arrivals {
  std::vector<uint64_t> due;
  std::vector<uint32_t> picks;
};

Arrivals make_arrivals(const Pool& pool, double seconds, uint64_t seed) {
  Arrivals a;
  a.due = poisson_schedule(sub_seed(seed, 1), kOfferedRps, seconds);
  Rng rng(sub_seed(seed, 2));
  for (size_t i = 0; i < a.due.size(); ++i) {
    a.picks.push_back(static_cast<uint32_t>(rng.next() % pool.entries.size()));
  }
  return a;
}

// Connection c's share of an open-loop phase that started at `start`:
// arrivals c, c + kConnections, ..., each sent once it is due.
void open_sender(System& sys, const Pool& pool, const Arrivals& a, size_t c,
                 uint64_t start, uint64_t id_base, Tracer& tracer,
                 SenderSamples& pm) {
  uint64_t prev_done = 0;
  for (size_t i = c; i < a.due.size(); i += kConnections) {
    const Entry& e = pool.entries[a.picks[i]];
    const uint64_t due_at = start + a.due[i];
    wait_until(due_at);
    const uint64_t sent = now_ns();
    const svc::CallResult res = sys.clients[c].call(e.req);
    const uint64_t done = now_ns();
    const Outcome o = check(e, res);
    pm.outcomes.add(o);
    pm.latency_ms.push_back(static_cast<double>(done - due_at) / 1e6);
    // The sender's own lateness: how long after the request was both due
    // and sendable (the connection's previous call returned) it went out.
    pm.late_us.push_back(
        static_cast<double>(sent - std::max(due_at, prev_done)) / 1e3);
    prev_done = done;
    if (o != Outcome::kOk) continue;
    const auto& st = res.response.stats;
    const uint64_t rtt = done - sent;
    pm.rtt_us.push_back(static_cast<double>(rtt) / 1e3);
    pm.overhead_us.push_back(
        static_cast<double>(rtt - std::min(rtt, st.prepare_ns + st.execute_ns)) /
        1e3);
    if (!st.cache_hit) {
      pm.miss_prepare_us.push_back(static_cast<double>(st.prepare_ns) / 1e3);
    }
    if (tracer.enabled()) {
      const uint64_t request = id_base + i + 1;
      const uint64_t root = tracer.new_id();
      const uint64_t call = tracer.add("service.call", sent, done, root, request);
      add_reported_engine_spans(tracer, sent, done, st.prepare_ns,
                                st.execute_ns, "native.execute", call, request);
      tracer.add("bench.request", due_at, done, 0, request, root);
    }
  }
}

// Connection c's closed loop: its next request goes out as soon as the
// previous one returns, until `deadline`. Returns the requests completed.
uint64_t closed_sender(System& sys, const Pool& pool, size_t c, uint64_t seed,
                       uint64_t deadline, SenderSamples& pm) {
  Rng rng(sub_seed(seed, 10 + c));
  uint64_t done = 0;
  while (now_ns() < deadline) {
    const Entry& e = pool.entries[rng.next() % pool.entries.size()];
    pm.outcomes.add(check(e, sys.clients[c].call(e.req)));
    ++done;
  }
  return done;
}

// kRounds rounds, each an open-loop phase then a closed-loop phase. One
// thread per connection runs every phase; a barrier starts each phase on
// all connections at once.
Measured measure(System& sys, const Pool& pool, double seconds,
                 uint64_t phase_seed, Tracer& tracer) {
  Measured m;
  api::Session* session = sys.server->tenant_session("default");
  const double round_s = seconds / kRounds;
  const auto closed_ns =
      static_cast<uint64_t>(round_s * (1 - kOpenShare) * 1e9);
  std::vector<Arrivals> arrivals;
  for (uint64_t r = 0; r < kRounds; ++r) {
    arrivals.push_back(
        make_arrivals(pool, round_s * kOpenShare, sub_seed(phase_seed, 2 * r)));
  }
  std::vector<std::vector<SenderSamples>> per(
      kRounds, std::vector<SenderSamples>(kConnections));
  std::vector<std::vector<uint64_t>> closed_done(
      kRounds, std::vector<uint64_t>(kConnections));
  // Phase k (open r = 2r, closed r = 2r + 1, end = 2 * kRounds) starts when
  // the last connection arrives at the barrier.
  std::vector<uint64_t> phase_start(2 * kRounds + 1);
  size_t phase = 0;
  std::barrier sync(static_cast<std::ptrdiff_t>(kConnections),
                    [&]() noexcept { phase_start[phase++] = now_ns(); });

  m.before = session->stats();
  m.server_before = sys.server->stats();
  auto connection = [&](size_t c) {
    for (size_t r = 0; r < kRounds; ++r) {
      sync.arrive_and_wait();
      open_sender(sys, pool, arrivals[r], c, phase_start[2 * r], r * 1'000'000,
                  tracer, per[r][c]);
      sync.arrive_and_wait();
      closed_done[r][c] =
          closed_sender(sys, pool, c, sub_seed(phase_seed, 2 * r + 1),
                        phase_start[2 * r + 1] + closed_ns, per[r][c]);
    }
    sync.arrive_and_wait();
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) threads.emplace_back(connection, c);
  for (auto& t : threads) t.join();
  m.after = session->stats();
  m.server_after = sys.server->stats();

  for (size_t r = 0; r < kRounds; ++r) {
    uint64_t done = 0;
    for (uint64_t d : closed_done[r]) done += d;
    m.round_rate.push_back(
        static_cast<double>(done) * 1e9 /
        static_cast<double>(phase_start[2 * r + 2] - phase_start[2 * r + 1]));
    m.round_ms.emplace_back();
    for (SenderSamples& pm : per[r]) {
      m.outcomes.merge(pm.outcomes);
      m.round_ms.back().insert(m.round_ms.back().end(), pm.latency_ms.begin(),
                               pm.latency_ms.end());
      for (auto [dst, src] :
           {std::pair{&m.rtt_us, &pm.rtt_us}, {&m.overhead_us, &pm.overhead_us},
            {&m.late_us, &pm.late_us},
            {&m.miss_prepare_us, &pm.miss_prepare_us}}) {
        dst->insert(dst->end(), src->begin(), src->end());
      }
    }
  }
  return m;
}

// Untimed closed loop on every connection for kWarmupSeconds.
void warm_up(System& sys, const Pool& pool, uint64_t seed, OutcomeCounts& out) {
  const uint64_t deadline =
      now_ns() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  std::vector<SenderSamples> per(kConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      (void)closed_sender(sys, pool, c, seed, deadline, per[c]);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& pm : per) out.merge(pm.outcomes);
}

// Round trips, the overhead over the engine time the server reports, and
// the server's shed and protocol-error counts over a window.
void report_service(Report& r, const std::vector<double>& rtt_us,
                    const std::vector<double>& overhead_us,
                    const svc::ServerStats& before,
                    const svc::ServerStats& after) {
  r.set_percentile("service.rtt_p50_us", percentile(rtt_us, 0.5), rtt_us.size());
  r.set_percentile("service.rtt_p99_us", percentile(rtt_us, 0.99), rtt_us.size());
  r.set_percentile("service.overhead_p50_us", percentile(overhead_us, 0.5),
                   overhead_us.size());
  r.set_percentile("service.overhead_p99_us", percentile(overhead_us, 0.99),
                   overhead_us.size());
  r.set("service.shed",
        static_cast<double>(after.requests_shed - before.requests_shed));
  r.set("service.protocol_errors",
        static_cast<double>(after.protocol_errors - before.protocol_errors));
}

void report(Report& r, const Measured& m) {
  report_latency(r, m.round_ms);
  report_throughput(r, m.round_rate);
  report_engine(r, m.before, m.after);
  report_service(r, m.rtt_us, m.overhead_us, m.server_before, m.server_after);
  r.set("prepare.miss_p50_us", median(m.miss_prepare_us));
  r.set_samples("prepare.miss_p50_us", m.miss_prepare_us.size());
  r.set("loadgen.offered_rps", kOfferedRps);
  const auto late = percentile(m.late_us, 0.99);
  r.set_percentile("loadgen.late_p99_us", late, m.late_us.size());
  if (!late.has_value() || *late > kLateFlagUs) {
    r.flag("open-loop sender fell behind its schedule (p99 lateness " +
           std::to_string(late.value_or(-1)) + " us); latency is timed "
           "from due times, but the offered load was not fully applied");
  }
}

// Median microseconds per call of `fn` over kCodecReps calls.
template <typename Fn>
double time_call_us(Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < kCodecReps; ++i) {
    const uint64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

// Service-layer probes on the first kProbeEntries pool entries: the
// protocol codec on their frames, and the planner on the planned shapes.
void probe_codec_and_planner(System& sys, const Pool& pool, Report& r,
                             OutcomeCounts& out) {
  std::vector<double> enc_req, dec_req, enc_resp, dec_resp, plan_us;
  const auto cache = sys.server->tenant_session("default")->shared_cache();
  const size_t n = std::min(kProbeEntries, pool.entries.size());
  for (size_t i = 0; i < n; ++i) {
    const Entry& e = pool.entries[i];
    std::vector<uint8_t> frame;
    enc_req.push_back(time_call_us([&] {
      frame.clear();
      svc::encode_request(e.req, &frame);
    }));
    const auto req_body = std::span<const uint8_t>(frame).subspan(4);
    bool decoded = true;
    dec_req.push_back(time_call_us(
        [&] { decoded &= svc::decode_request(req_body).ok(); }));
    const svc::CallResult res = sys.clients[0].call(e.req);
    out.add(check(e, res));
    std::vector<uint8_t> resp_frame;
    enc_resp.push_back(time_call_us([&] {
      resp_frame.clear();
      svc::encode_response(res.response, &resp_frame);
    }));
    const auto resp_body = std::span<const uint8_t>(resp_frame).subspan(4);
    dec_resp.push_back(time_call_us(
        [&] { decoded &= svc::decode_response(resp_body).ok(); }));
    if (!decoded) out.add(Outcome::kTypedError);

    if (e.cat == Category::kPlan) {
      subword::runtime::PlanOptions po;
      po.backend = sk::ExecBackend::kNativeSwar;
      po.history = &cache->history();
      const uint64_t p0 = now_ns();
      const auto plan = subword::runtime::plan_kernel(e.shape.kernel, 1, po);
      plan_us.push_back(static_cast<double>(now_ns() - p0) / 1e3);
      out.add(plan.backend == sk::ExecBackend::kNativeSwar ? Outcome::kOk
                                                           : Outcome::kDivergent);
    }
  }
  r.set("service.encode_request_us", median(enc_req));
  r.set("service.decode_request_us", median(dec_req));
  r.set("service.encode_response_us", median(enc_resp));
  r.set("service.decode_response_us", median(dec_resp));
  r.set("planner.plan_us", median(plan_us));
  r.set_samples("planner.plan_us", plan_us.size());
}

// Execution-layer probes on the first kProbeEntries pool entries: the api
// facade on the tenant's own session (as the server drives it), and the
// prepare and native phases through the public functions.
void probe_execution(System& sys, const Pool& pool, Report& r,
                     OutcomeCounts& out) {
  std::vector<double> build_us, submit_us, wait_us;
  api::Session* session = sys.server->tenant_session("default");
  PrepareProbe prep;
  NativeProbe native;
  std::map<std::string, std::pair<std::unique_ptr<sk::MediaKernel>,
                                  sk::PreparedProgram>> prepared;
  const size_t n = std::min(kProbeEntries, pool.entries.size());
  for (size_t i = 0; i < n; ++i) {
    const Entry& e = pool.entries[i];
    auto req = session->request(e.shape.kernel);
    if (e.cat == Category::kPlan) {
      req.auto_plan();
    } else if (!e.shape.use_spu) {
      req.baseline();
    } else {
      req.spu(e.shape.cfg);
      if (e.shape.mode == sk::SpuMode::Auto) req.auto_orchestrate();
    }
    req.backend(api::ExecBackend::kNativeSwar);
    std::vector<uint8_t> output(e.expected.size());
    if (!output.empty()) req.output(std::span<uint8_t>(output));
    if (!e.input.empty()) req.input(std::span<const uint8_t>(e.input));
    const uint64_t t0 = now_ns();
    const bool built = req.build().ok();
    const uint64_t t1 = now_ns();
    auto sub = req.submit();
    const uint64_t t2 = now_ns();
    const bool ran = built && sub.ok() && [&] {
      auto done = sub->wait();
      return done.ok() && output == e.expected &&
             (e.cat != Category::kCounted ||
              done->run.stats.instructions == e.expected_instructions);
    }();
    const uint64_t t3 = now_ns();
    out.add(ran ? Outcome::kOk : Outcome::kDivergent);
    build_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    submit_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    wait_us.push_back(static_cast<double>(t3 - t2) / 1e3);

    // The planner picks plan entries' shapes; the native probe needs a
    // fixed one.
    if (e.cat == Category::kPlan) continue;
    auto& slot = prepared[e.shape.label()];
    if (slot.first == nullptr) {
      slot.first = sk::make_kernel(e.shape.kernel);
      slot.second = prep.prepare(*slot.first, e.shape, /*native=*/true);
    }
    out.add(native.sample(*slot.first, slot.second, e.input) ? Outcome::kOk
                                                             : Outcome::kDivergent);
  }
  r.set("api.build_us", median(build_us));
  r.set("api.submit_us", median(submit_us));
  r.set("api.wait_us", median(wait_us));
  prep.report(r);
  native.report(r);
}

}  // namespace

void probe_service(const Options& opt, Report& r, OutcomeCounts& out) {
  const Pool pool = make_pool(opt);
  System sys;
  if (!set_up(sys, pool, 1, out)) {
    out.add(Outcome::kTransport);
    return;
  }
  const svc::ServerStats before = sys.server->stats();
  std::vector<double> rtt_us, overhead_us;
  for (size_t i = 0; i < kServiceProbeCalls; ++i) {
    const Entry& e = pool.entries[i % pool.entries.size()];
    const uint64_t t0 = now_ns();
    const svc::CallResult res = sys.clients[0].call(e.req);
    const uint64_t rtt = now_ns() - t0;
    const Outcome o = check(e, res);
    out.add(o);
    if (o != Outcome::kOk) continue;
    const auto& st = res.response.stats;
    rtt_us.push_back(static_cast<double>(rtt) / 1e3);
    overhead_us.push_back(
        static_cast<double>(rtt - std::min(rtt, st.prepare_ns + st.execute_ns)) /
        1e3);
  }
  report_service(r, rtt_us, overhead_us, before, sys.server->stats());
  probe_codec_and_planner(sys, pool, r, out);
}

WorkloadRun run_serve_mixed(const Options& opt) {
  WorkloadRun run;
  const Pool pool = make_pool(opt);
  const int workers = std::max(1, opt.nproc - static_cast<int>(kConnections));

  System sys;
  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    sys.clients.clear();  // tear the previous set-up down, untimed
    sys.server.reset();
    const uint64_t t0 = now_ns();
    const bool ok = set_up(sys, pool, workers, run.outcomes);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!ok) run.outcomes.add(Outcome::kTransport);
    return ok;
  };
  Tracer off(false);
  if (!timed_set_up()) return run;
  warm_up(sys, pool, sub_seed(opt.seed, 0x5741524D), run.outcomes);  // "WARM"
  setup_s.clear();  // the first set-up ran on idle CPUs
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!timed_set_up()) return run;
  }
  run.report.set("setup_s", median(setup_s));
  run.report.set_samples("setup_s", setup_s.size());
  const uint64_t phase_seed = sub_seed(opt.seed, 0x4C4F4144);  // "LOAD"
  if (!opt.trace) {
    const Measured m = measure(sys, pool, opt.seconds, phase_seed, off);
    report(run.report, m);
    run.outcomes.merge(m.outcomes);
    return run;
  }

  const Measured plain = measure(sys, pool, opt.seconds / 2, phase_seed, off);
  if (!timed_set_up()) return run;
  Tracer tracer(true);
  const Measured traced =
      measure(sys, pool, opt.seconds / 2, phase_seed, tracer);
  report(run.report, traced);
  run.outcomes.merge(plain.outcomes);
  run.outcomes.merge(traced.outcomes);
  run.spans = tracer.spans();
  report_trace(run.report, percentile(pooled(plain.round_ms), 0.5).value_or(0),
               percentile(pooled(traced.round_ms), 0.5).value_or(0), run.spans);
  probe_codec_and_planner(sys, pool, run.report, run.outcomes);
  probe_execution(sys, pool, run.report, run.outcomes);
  return run;
}

}  // namespace perfbench
