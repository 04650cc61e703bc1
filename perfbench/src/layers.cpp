#include "layers.h"

#include "backend/native.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

std::string Shape::label() const {
  std::string s = kernel + "/r" + std::to_string(repeats) + "/";
  if (!use_spu) return s + "baseline";
  return s + (mode == kernels::SpuMode::Manual ? "manual/" : "auto/") +
         std::string(cfg.name);
}

kernels::PreparedProgram PrepareProbe::prepare(const kernels::MediaKernel& k,
                                               const Shape& s, bool native) {
  const uint64_t t0 = now_ns();
  kernels::PreparedProgram p =
      s.use_spu ? kernels::prepare_spu(k, s.repeats, s.cfg, s.mode)
                : kernels::prepare_baseline(k, s.repeats);
  const uint64_t t1 = now_ns();
  const bool orchestrated = s.use_spu && s.mode == kernels::SpuMode::Auto;
  (orchestrated ? orchestrate_us_ : build_us_)
      .push_back(static_cast<double>(t1 - t0) / 1e3);
  if (native) {
    kernels::lower_native(k, p);
    lower_us_.push_back(static_cast<double>(now_ns() - t1) / 1e3);
  }
  return p;
}

void PrepareProbe::report(Report& r) const {
  r.set("prepare.build_us", median(build_us_));
  r.set("prepare.orchestrate_us", median(orchestrate_us_));
  r.set("prepare.lower_us", median(lower_us_));
}

NativeProbe::NativeProbe()
    : arena_(std::make_unique<sim::Memory>(kernels::kMemBytes)) {}

bool NativeProbe::sample(const kernels::MediaKernel& k,
                         const kernels::PreparedProgram& p,
                         std::span<const uint8_t> input) {
  const kernels::BufferSpec spec = k.buffer_spec();
  std::vector<uint8_t> out(spec.supported() ? spec.output_bytes : 0);
  kernels::BufferBinding binding{input, std::span<uint8_t>(out)};

  // The whole native execution as one call, on the probe's arena.
  uint64_t t0 = now_ns();
  const kernels::KernelRun whole = kernels::execute_native(
      k, p, arena_.get(), binding.empty() ? nullptr : &binding);
  execute_us_.push_back(static_cast<double>(now_ns() - t0) / 1e3);

  // The same execution, one public phase at a time.
  t0 = now_ns();
  arena_->clear();
  arena_->unmap_device();
  const uint64_t t1 = now_ns();
  k.init_memory(*arena_);
  const uint64_t t2 = now_ns();
  if (!input.empty()) k.bind_input(*arena_, input);
  const uint64_t t3 = now_ns();
  subword::backend::NativeState st;
  st.mem = arena_.get();
  subword::backend::run_trace(*p.native, st);
  const uint64_t t4 = now_ns();
  const bool ok = input.empty() ? k.verify(*arena_)
                                : k.verify_bound(*arena_, input);
  const uint64_t t5 = now_ns();
  std::vector<uint8_t> back;
  if (spec.supported()) {
    back = arena_->read_vector<uint8_t>(spec.output_addr, spec.output_bytes);
  }
  const uint64_t t6 = now_ns();
  const bool same = back == out;

  clear_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
  init_us_.push_back(static_cast<double>(t2 - t1) / 1e3);
  if (!input.empty()) bind_us_.push_back(static_cast<double>(t3 - t2) / 1e3);
  trace_us_.push_back(static_cast<double>(t4 - t3) / 1e3);
  verify_us_.push_back(static_cast<double>(t5 - t4) / 1e3);
  if (spec.supported()) {
    copyback_us_.push_back(static_cast<double>(t6 - t5) / 1e3);
  }
  ops_ += static_cast<double>(p.native->ops.size());
  trace_ns_ += static_cast<double>(t4 - t3);
  // Both executions must verify and agree byte for byte.
  return ok && whole.verified && same;
}

void NativeProbe::report(Report& r) const {
  r.set("native.execute_us", median(execute_us_));
  r.set("native.arena_clear_us", median(clear_us_));
  r.set("native.init_us", median(init_us_));
  r.set("native.bind_us", median(bind_us_));
  r.set("native.trace_us", median(trace_us_));
  r.set("native.verify_us", median(verify_us_));
  r.set("native.copyback_us", median(copyback_us_));
  const double n = static_cast<double>(trace_us_.size());
  r.set("native.trace_ops", n == 0 ? 0.0 : ops_ / n);
  r.set("native.ns_per_op", ops_ == 0 ? 0.0 : trace_ns_ / ops_);
  r.set_samples("native.execute_us", execute_us_.size());
}

}  // namespace perfbench
