#include "kernels/registry.h"

#include <cctype>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "kernels/color_convert.h"
#include "kernels/conv2d.h"
#include "kernels/dct.h"
#include "kernels/fft.h"
#include "kernels/fir.h"
#include "kernels/iir.h"
#include "kernels/matmul.h"
#include "kernels/motion_est.h"
#include "kernels/runner.h"
#include "kernels/transpose.h"

namespace subword::kernels {

namespace {

using KernelFactory = std::unique_ptr<MediaKernel> (*)();

template <typename K, auto... Args>
std::unique_ptr<MediaKernel> construct() {
  return std::make_unique<K>(Args...);
}

// Registry order. Constructing a kernel goes through this table, so a
// lookup by name builds only the kernel it returns.
constexpr KernelFactory kFactories[] = {
    construct<FirKernel, 12>,
    construct<FirKernel, 22>,
    construct<IirKernel>,
    construct<FftKernel, 1024>,
    construct<FftKernel, 128>,
    construct<DctKernel>,
    construct<MatMulKernel>,
    construct<TransposeKernel>,
    // Extended media suite (beyond the paper's Figure 9): the
    // video-pipeline workloads from the comparative SIMD-scheduling
    // literature.
    construct<MotionEstKernel>,
    construct<ColorConvertKernel>,
    construct<Conv2dKernel>,
};

std::unique_ptr<MediaKernel> kernel_at(size_t registry_index) {
  return kFactories[registry_index]();
}

// A manual variant may be realizable under only some crossbar geometries
// (the paper kernels target A, the extended ones D); MicroBuilder throws
// std::logic_error for routes the geometry cannot carry, so probe every
// registered configuration. has_manual_spu therefore means "a manual
// variant exists under at least one config" — realizability under the
// specific config a request passes is still checked at prepare time.
bool probe_manual_spu(const MediaKernel& k) {
  for (const auto& cfg : core::kAllConfigs) {
    try {
      if (k.build_spu(cfg, 1).has_value()) return true;
    } catch (const std::logic_error&) {
      continue;
    }
  }
  return false;
}

// A kernel earns the native_backend flag only if every preparation the
// differential suite exercises lowers: the baseline, the manual variant
// under each config where it is realizable, and the auto-orchestrated
// program under configs A and D. Probing runs the real lowering walker, so
// the flag can never drift from what the backend actually supports.
bool probe_native_backend(const MediaKernel& k, bool has_manual) {
  try {
    auto base = prepare_baseline(k, 1);
    lower_native(k, base);
    for (const auto& cfg : {core::kConfigA, core::kConfigD}) {
      if (has_manual) {
        try {
          auto manual = prepare_spu(k, 1, cfg, SpuMode::Manual);
          lower_native(k, manual);
        } catch (const std::logic_error&) {
          // Variant not realizable under this geometry — the simulator
          // backend cannot run it either, so it does not count against
          // native support.
        }
      }
      auto autop = prepare_spu(k, 1, cfg, SpuMode::Auto);
      lower_native(k, autop);
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// Probing a concrete (use_spu, mode, cfg) shape: prepare it for real at
// repeats=1 and attempt the lowering. Any failure — manual variant not
// realizable under this geometry, orchestrator rejection, lowering proof
// failure — means the native backend cannot run this exact request.
bool probe_native_combo(const MediaKernel& k, bool use_spu, SpuMode mode,
                        const core::CrossbarConfig& cfg) {
  try {
    auto p = use_spu ? prepare_spu(k, 1, cfg, mode) : prepare_baseline(k, 1);
    lower_native(k, p);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// Lazy capability memo, one slot per registered kernel. The probes build
// programs and (for the native proofs) run the orchestrator — ~100ms for
// the whole registry — so nothing here runs until a capability is actually
// consulted, and then exactly once per kernel (or per combination).
struct KernelCaps {
  std::once_flag manual_once;
  bool has_manual = false;
  std::once_flag native_once;
  bool native_all = false;
  std::mutex combo_mu;
  std::unordered_map<uint32_t, bool> combos;  // packed combo key -> support
};

std::vector<KernelCaps>& caps_table() {
  static std::vector<KernelCaps> table(std::size(kFactories));
  return table;
}

// Everything that distinguishes one preparation shape for the native
// backend: crossbar geometry + modes flag, SPU on/off, SPU mode.
uint32_t combo_key(bool use_spu, SpuMode mode,
                   const core::CrossbarConfig& cfg) {
  return static_cast<uint32_t>(cfg.input_ports) |
         (static_cast<uint32_t>(cfg.output_ports) << 8) |
         (static_cast<uint32_t>(cfg.port_bits) << 16) |
         (cfg.modes ? 1u << 24 : 0u) | (use_spu ? 1u << 25 : 0u) |
         (static_cast<uint32_t>(mode) << 26);
}

std::vector<KernelInfo> build_infos() {
  std::vector<KernelInfo> infos;
  const auto kernels = all_kernels();
  infos.reserve(kernels.size());
  for (size_t i = 0; i < kernels.size(); ++i) {
    const auto& k = *kernels[i];
    KernelInfo info;
    info.name = k.name();
    info.description = k.description();
    info.paper_suite = i < kPaperSuiteSize;
    info.buffers = k.buffer_spec();
    info.registry_index = i;
    infos.push_back(std::move(info));
  }
  return infos;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<std::unique_ptr<MediaKernel>> all_kernels() {
  std::vector<std::unique_ptr<MediaKernel>> v;
  v.reserve(std::size(kFactories));
  for (const KernelFactory make : kFactories) v.push_back(make());
  return v;
}

bool KernelInfo::has_manual_spu() const {
  auto& caps = caps_table().at(registry_index);
  std::call_once(caps.manual_once, [&] {
    caps.has_manual = probe_manual_spu(*kernel_at(registry_index));
  });
  return caps.has_manual;
}

bool KernelInfo::native_backend() const {
  auto& caps = caps_table().at(registry_index);
  const bool has_manual = has_manual_spu();
  std::call_once(caps.native_once, [&] {
    caps.native_all =
        probe_native_backend(*kernel_at(registry_index), has_manual);
  });
  return caps.native_all;
}

bool KernelInfo::native_supported(bool use_spu, SpuMode mode,
                                  const core::CrossbarConfig& cfg) const {
  auto& caps = caps_table().at(registry_index);
  const uint32_t key = combo_key(use_spu, mode, cfg);
  {
    std::lock_guard lock(caps.combo_mu);
    if (const auto it = caps.combos.find(key); it != caps.combos.end()) {
      return it->second;
    }
  }
  // Probe outside the lock: probing is idempotent and may be slow, so a
  // racing duplicate probe beats serializing every combo behind one mutex.
  const bool supported = probe_native_combo(*kernel_at(registry_index),
                                            use_spu, mode, cfg);
  std::lock_guard lock(caps.combo_mu);
  return caps.combos.emplace(key, supported).first->second;
}

const std::vector<KernelInfo>& kernel_infos() {
  static const std::vector<KernelInfo> infos = build_infos();
  return infos;
}

const KernelInfo* find_kernel_info(std::string_view name) {
  for (const auto& info : kernel_infos()) {
    if (iequals(info.name, name)) return &info;
  }
  return nullptr;
}

std::unique_ptr<MediaKernel> make_kernel(const std::string& name) {
  for (const auto& info : kernel_infos()) {
    if (info.name == name) return kernel_at(info.registry_index);
  }
  throw std::out_of_range("unknown kernel: " + name);
}

}  // namespace subword::kernels
