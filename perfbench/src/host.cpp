#include "host.h"

#include <pthread.h>
#include <sched.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

}  // namespace

HostInfo host_info(std::string commit, std::string digest) {
  HostInfo h;
  h.nproc = available_cpus();
  h.cpu_model = cpu_model();
  h.compiler = compiler();
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.commit = commit.empty() ? "unknown" : std::move(commit);
  h.source_digest = digest.empty() ? "unknown" : std::move(digest);
  return h;
}

std::string host_json(const HostInfo& h) {
  return "{\"nproc\":" + std::to_string(h.nproc) + ",\"cpu_model\":\"" +
         escaped(h.cpu_model) + "\",\"compiler\":\"" + escaped(h.compiler) +
         "\",\"build_type\":\"" + escaped(h.build_type) + "\",\"commit\":\"" +
         escaped(h.commit) + "\",\"source_digest\":\"" +
         escaped(h.source_digest) + "\",\"steal_pct\":" +
         std::to_string(h.steal_pct) + "}";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTicks t;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  uint64_t v = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user).
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

IdlePoller::IdlePoller(int cpus) {
  for (int i = 0; i < cpus; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdlePoller::~IdlePoller() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

}  // namespace perfbench
