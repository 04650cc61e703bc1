// frame_pipeline.cpp — the frame workload.
//
// A fresh seeded 640x360 RGB frame per iteration streams through
// api::Pipeline::tile(): Color Convert -> 2D Convolution -> Motion
// Estimation on the native backend (900 base tiles, 2,700 stage jobs per
// frame), one frame in flight, at most kMaxWorkers engine workers and a
// CPU left for the pipeline's driver thread. Every frame's
// 900 x 16 SAD scores are checked against the composed scalar reference
// of each tile, computed before timing starts. The set-up warms the cache
// with one frame, so the measured phase replays cached preparations only.
#include <algorithm>
#include <memory>

#include "api/session.h"
#include "gen.h"
#include "kernels/motion_est.h"
#include "kernels/registry.h"
#include "kernels/video_pipeline_ref.h"
#include "layers.h"
#include "refs.h"
#include "workload.h"

namespace perfbench {

namespace api = subword::api;
namespace core = subword::core;
namespace sk = subword::kernels;

namespace {

constexpr size_t kWidth = 640;
constexpr size_t kHeight = 360;
constexpr size_t kFramePixels = kWidth * kHeight;
constexpr size_t kTilePixels = 256;  // Color Convert's base tile
constexpr size_t kTiles = kFramePixels / kTilePixels;
constexpr size_t kSadsPerTile = sk::MotionEstKernel::kCandidates;
// Distinct frames generated up front; iteration i streams frame i % pool,
// so consecutive frames always differ.
constexpr size_t kFramePool = 6;
constexpr size_t kProbeTiles = 24;
// The measured phase runs for --seconds and, on a slow host, on until this
// many frames are done, so latency_p90_ms always has ten frames beyond it.
constexpr size_t kMinFrames = 110;
// Each set-up streams a whole frame, so a few give a steady median.
constexpr int kSetupRepeats = 5;
const char* const kStages[] = {"Color Convert", "2D Convolution",
                               "Motion Estimation"};

struct Frames {
  std::vector<std::vector<int16_t>> rgb;
  std::vector<std::vector<int16_t>> expected;  // kTiles * kSadsPerTile
};

Frames make_frames(const Options& opt) {
  Frames f;
  for (size_t i = 0; i < kFramePool; ++i) {
    f.rgb.push_back(make_frame(opt.seed, i, kFramePixels));
    std::vector<int16_t> want;
    want.reserve(kTiles * kSadsPerTile);
    const std::span<const int16_t> frame(f.rgb.back());
    for (size_t t = 0; t < kTiles; ++t) {
      const auto sads = sk::composed_video_pipeline_ref(
          frame.subspan(t * 3 * kTilePixels, 3 * kTilePixels));
      want.insert(want.end(), sads.begin(), sads.end());
    }
    f.expected.push_back(std::move(want));
  }
  if (opt.corrupt_expected) f.expected[0][0] ^= 1;
  return f;
}

api::Request stage(api::Session& s, const char* kernel) {
  return s.request(kernel).spu(core::kConfigD).backend(
      api::ExecBackend::kNativeSwar);
}

struct FrameResult {
  Outcome outcome = Outcome::kOk;
  uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;  // build, submit, wait, done
  double execute_ns = 0;                    // summed over stages and tiles
  int workers_used = 0;
  size_t tiles = 0;
};

FrameResult run_frame(api::Session& session, const Frames& frames,
                      size_t index) {
  FrameResult fr;
  const auto& rgb = frames.rgb[index % kFramePool];
  std::vector<int16_t> out(kTiles * kSadsPerTile);
  fr.t0 = now_ns();
  api::Pipeline pipe = session.pipeline()
                           .then(stage(session, kStages[0]))
                           .then(stage(session, kStages[1]))
                           .then(stage(session, kStages[2]))
                           .input(std::span<const int16_t>(rgb))
                           .output(std::span<int16_t>(out))
                           .tile();
  fr.t1 = now_ns();
  auto sub = pipe.submit();
  fr.t2 = now_ns();
  if (!sub.ok()) {
    fr.t3 = now_ns();
    fr.outcome = outcome_of(sub.error().code);
    return fr;
  }
  auto res = sub->wait();
  fr.t3 = now_ns();
  if (!res.ok()) {
    fr.outcome = outcome_of(res.error().code);
    return fr;
  }
  fr.tiles = res->tiles;
  for (const auto& st : res->stages) {
    fr.execute_ns += static_cast<double>(st.response.execute_ns);
    fr.workers_used = std::max(fr.workers_used, st.response.workers_used);
  }
  if (res->tiles != kTiles || out != frames.expected[index % kFramePool]) {
    fr.outcome = Outcome::kDivergent;
  }
  return fr;
}

struct Measured {
  std::vector<double> latency_ms, build_us, submit_us, wait_us, parallelism;
  std::vector<uint64_t> done_ns;
  // Rounds are runs of consecutive frames; a round's rate is its frames
  // over the time from the previous round's last completion to its own.
  std::vector<std::vector<double>> round_ms;
  std::vector<double> round_rate;
  std::vector<double> workers_used;
  double tiles = 0;
  OutcomeCounts outcomes;
  subword::runtime::EngineStats before, after;
};

// Streams frames for `seconds`, and on until `min_frames` are done.
Measured measure(api::Session& session, const Frames& frames, double seconds,
                 Tracer& tracer, size_t min_frames = kMinFrames) {
  Measured m;
  m.before = session.stats();
  const uint64_t start = now_ns();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0; i < min_frames || now_ns() < deadline; ++i) {
    const FrameResult fr = run_frame(session, frames, i);
    m.outcomes.add(fr.outcome);
    const double ns = static_cast<double>(fr.t3 - fr.t0);
    m.latency_ms.push_back(ns / 1e6);
    m.done_ns.push_back(fr.t3);
    m.build_us.push_back(static_cast<double>(fr.t1 - fr.t0) / 1e3);
    m.submit_us.push_back(static_cast<double>(fr.t2 - fr.t1) / 1e3);
    m.wait_us.push_back(static_cast<double>(fr.t3 - fr.t2) / 1e3);
    m.parallelism.push_back(fr.execute_ns / ns);
    m.workers_used.push_back(fr.workers_used);
    m.tiles = static_cast<double>(fr.tiles);
    if (tracer.enabled()) {
      const uint64_t root = tracer.new_id();
      const uint64_t request = i + 1;
      tracer.add("api.build", fr.t0, fr.t1, root, request);
      tracer.add("api.submit", fr.t1, fr.t2, root, request);
      tracer.add("api.wait", fr.t2, fr.t3, root, request);
      tracer.add("bench.frame", fr.t0, fr.t3, 0, request, root);
    }
  }
  m.after = session.stats();
  const size_t n = m.latency_ms.size();
  uint64_t round_start = start;
  for (size_t r = 0; r < kRounds; ++r) {
    const size_t lo = r * n / kRounds;
    const size_t hi = (r + 1) * n / kRounds;
    if (hi == lo) continue;
    m.round_ms.emplace_back(m.latency_ms.begin() + static_cast<long>(lo),
                            m.latency_ms.begin() + static_cast<long>(hi));
    m.round_rate.push_back(static_cast<double>(hi - lo) * 1e9 /
                           static_cast<double>(m.done_ns[hi - 1] - round_start));
    round_start = m.done_ns[hi - 1];
  }
  return m;
}

void report(Report& r, const Measured& m) {
  report_latency(r, m.round_ms);
  report_throughput(r, m.round_rate);
  report_engine(r, m.before, m.after);
  r.set("api.build_us", median(m.build_us));
  r.set("api.submit_us", median(m.submit_us));
  r.set("api.wait_us", median(m.wait_us));
  r.set("tiling.tiles_per_frame", m.tiles);
  r.set("tiling.workers_used", median(m.workers_used));
  r.set("tiling.parallelism", median(m.parallelism));
}

// The per-tile inputs of each stage, from the host references.
std::vector<std::vector<uint8_t>> stage_inputs(std::span<const int16_t> rgb) {
  std::vector<std::vector<uint8_t>> in;
  in.push_back(as_bytes({rgb.begin(), rgb.end()}));
  for (size_t s = 0; s + 1 < std::size(kStages); ++s) {
    const auto out = reference_output(kStages[s], in.back());
    const size_t next_bytes =
        sk::find_kernel_info(kStages[s + 1])->buffers.input_bytes;
    in.emplace_back(out.begin(), out.begin() + static_cast<long>(next_bytes));
  }
  return in;
}

}  // namespace

WorkloadRun run_frame_pipeline(const Options& opt) {
  WorkloadRun run;
  const Frames frames = make_frames(opt);
  // One CPU stays free for the pipeline's driver thread, which submits
  // and gathers all 2,700 jobs of a frame.
  const int workers = std::clamp(opt.nproc - 1, 1, kMaxWorkers);

  // Set-up: a Session plus one warm frame, which prepares and lowers the
  // three stage programs into the (fresh) cache.
  std::unique_ptr<api::Session> session;
  auto set_up = [&] {
    session.reset();
    const uint64_t t0 = now_ns();
    api::SessionOptions o;
    o.workers = workers;
    session = std::make_unique<api::Session>(o);
    run.outcomes.add(run_frame(*session, frames, 0).outcome);
    return static_cast<double>(now_ns() - t0) / 1e9;
  };
  Tracer off(false);
  (void)set_up();
  run.outcomes.merge(measure(*session, frames, kWarmupSeconds, off, 0).outcomes);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) setup_s.push_back(set_up());
  run.report.set("setup_s", median(setup_s));
  run.report.set_samples("setup_s", setup_s.size());

  if (!opt.trace) {
    const Measured m = measure(*session, frames, opt.seconds, off);
    report(run.report, m);
    run.outcomes.merge(m.outcomes);
    return run;
  }

  const Measured plain = measure(*session, frames, opt.seconds / 2, off);
  set_up();
  Tracer tracer(true);
  const Measured traced = measure(*session, frames, opt.seconds / 2, tracer);
  report(run.report, traced);
  run.outcomes.merge(plain.outcomes);
  run.outcomes.merge(traced.outcomes);
  run.spans = tracer.spans();
  report_trace(run.report, percentile(plain.latency_ms, 0.5).value_or(0),
               percentile(traced.latency_ms, 0.5).value_or(0), run.spans);

  // Phase probes: the three stage programs prepared from scratch, then
  // sampled tiles of frame 0 replayed stage by stage.
  PrepareProbe prep;
  NativeProbe native;
  std::vector<std::unique_ptr<sk::MediaKernel>> kernels;
  std::vector<sk::PreparedProgram> programs;
  for (const char* name : kStages) {
    kernels.push_back(sk::make_kernel(name));
    const Shape s{name, 1, true, sk::SpuMode::Manual, core::kConfigD};
    programs.push_back(prep.prepare(*kernels.back(), s, /*native=*/true));
  }
  const std::span<const int16_t> frame0(frames.rgb[0]);
  for (size_t i = 0; i < kProbeTiles; ++i) {
    const size_t t = i * (kTiles / kProbeTiles);
    const auto inputs =
        stage_inputs(frame0.subspan(t * 3 * kTilePixels, 3 * kTilePixels));
    for (size_t s = 0; s < std::size(kStages); ++s) {
      run.outcomes.add(native.sample(*kernels[s], programs[s], inputs[s])
                           ? Outcome::kOk
                           : Outcome::kDivergent);
    }
  }
  prep.report(run.report);
  native.report(run.report);
  probe_service(opt, run.report, run.outcomes);
  return run;
}

}  // namespace perfbench
