#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/simd/kernel_dispatch.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

bool PercentileSupported(std::size_t samples, double q,
                         std::size_t min_beyond) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples)));
  return samples >= rank && samples - rank >= min_beyond;
}

PhaseFigures Figures(const PhaseResult& phase) {
  PhaseFigures figures;
  const std::size_t n = phase.jobs.size();
  figures.blocks = n >= PhaseFigures::kBlocks * 100 ? PhaseFigures::kBlocks : 1;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  figures.p90_supported = n > 0;
  for (std::size_t b = 0; b < figures.blocks && n > 0; ++b) {
    const std::size_t first = b * n / figures.blocks;
    const std::size_t last = (b + 1) * n / figures.blocks;  // exclusive
    const std::int64_t start =
        first == 0 ? phase.start_ns : phase.jobs[first - 1].end_ns;
    std::vector<double> latencies;
    std::uint64_t verified = 0;
    for (std::size_t j = first; j < last; ++j) {
      latencies.push_back(phase.jobs[j].ms);
      verified += phase.jobs[j].verified;
    }
    const double seconds =
        static_cast<double>(phase.jobs[last - 1].end_ns - start) * 1e-9;
    rates.push_back(seconds > 0.0 ? static_cast<double>(verified) / seconds / 1e6
                                  : 0.0);
    p50s.push_back(Percentile(latencies, 0.5));
    p90s.push_back(Percentile(latencies, 0.9));
    figures.p90_supported &= PercentileSupported(latencies.size(), 0.9);
  }
  figures.maccess_s = Percentile(rates, 0.5);
  figures.p50_ms = Percentile(p50s, 0.5);
  figures.p90_ms = Percentile(p90s, 0.5);
  return figures;
}

double PeakRssMb(const std::string& proc) {
  std::ifstream status("/proc/" + proc + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string FingerprintJson(const Options& options) {
  const char* kernel_env = std::getenv("ABENC_KERNEL");
  std::ostringstream out;
  out << "{\"cpu\":" << JsonString(CpuModel())
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
      << ",\"source_dir\":" << JsonString(PERFBENCH_SOURCE_DIR)
      << ",\"seed\":" << options.seed
      << ",\"workload\":" << JsonString(options.workload)
      << ",\"kernel_backend\":"
      << JsonString(abenc::simd::BackendName(abenc::simd::ActiveBackend()))
      << ",\"abenc_kernel_env\":"
      << JsonString(kernel_env == nullptr ? "" : kernel_env) << "}";
  return out.str();
}

}  // namespace perfbench
