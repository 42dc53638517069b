#include "core/simd/kernel_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

// The x86-64 build's POPCNT floor (src/core/CMakeLists.txt): a build
// that drops the option fails here rather than running libgcc popcounts.
#if defined(__x86_64__) && !defined(__POPCNT__)
#error "abenc_core on x86-64 requires -mpopcnt (see src/core/CMakeLists.txt)"
#endif

namespace abenc::simd {
namespace {

const KernelTable* TableFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &ScalarKernels();
    case KernelBackend::kAvx2:
#if defined(ABENC_HAVE_AVX2)
      return &Avx2Kernels();
#else
      return nullptr;
#endif
    case KernelBackend::kNeon:
#if defined(ABENC_HAVE_NEON)
      return &NeonKernels();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool HostSupports(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if defined(ABENC_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case KernelBackend::kNeon:
      // NEON is baseline on aarch64; compiled-in implies executable.
#if defined(ABENC_HAVE_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::string JoinNames(const std::vector<KernelBackend>& backends) {
  std::ostringstream out;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if (i != 0) out << ", ";
    out << BackendName(backends[i]);
  }
  return out.str();
}

// The active table, resolved lazily so ABENC_KERNEL is read exactly
// once, at first kernel use. A benign init race (two threads resolving
// the same value) is harmless: both compute identical pointers.
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* ResolveInitialTable() {
#if defined(__x86_64__)
  // Every backend, scalar included, is compiled with POPCNT; name the
  // requirement here instead of letting a later instruction raise
  // SIGILL.
  if (__builtin_cpu_supports("popcnt") == 0) {
    throw std::runtime_error(
        "this abenc build requires an x86-64 CPU with the POPCNT "
        "instruction (every x86-64 CPU since 2008-09 has it)");
  }
#endif
  const char* env = std::getenv("ABENC_KERNEL");
  if (env != nullptr && *env != '\0') {
    return TableFor(ResolveBackend(env));
  }
  return TableFor(SupportedBackends().back());
}

}  // namespace

const char* BackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kNeon:
      return "neon";
  }
  return "unknown";
}

std::vector<KernelBackend> CompiledBackends() {
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
#if defined(ABENC_HAVE_AVX2)
  backends.push_back(KernelBackend::kAvx2);
#endif
#if defined(ABENC_HAVE_NEON)
  backends.push_back(KernelBackend::kNeon);
#endif
  return backends;
}

std::vector<KernelBackend> SupportedBackends() {
  std::vector<KernelBackend> backends;
  for (KernelBackend backend : CompiledBackends()) {
    if (HostSupports(backend)) backends.push_back(backend);
  }
  return backends;
}

KernelBackend ResolveBackend(const std::string& name) {
  KernelBackend backend;
  if (name == "scalar") {
    backend = KernelBackend::kScalar;
  } else if (name == "avx2") {
    backend = KernelBackend::kAvx2;
  } else if (name == "neon") {
    backend = KernelBackend::kNeon;
  } else {
    throw std::invalid_argument(
        "unknown kernel backend '" + name +
        "' (expected one of: scalar, avx2, neon)");
  }
  if (TableFor(backend) == nullptr) {
    throw std::runtime_error("kernel backend '" + name +
                             "' is not compiled into this binary (compiled: " +
                             JoinNames(CompiledBackends()) + ")");
  }
  if (!HostSupports(backend)) {
    throw std::runtime_error("kernel backend '" + name +
                             "' is not executable on this host (supported: " +
                             JoinNames(SupportedBackends()) + ")");
  }
  return backend;
}

KernelBackend ActiveBackend() {
  const KernelTable* active = &ActiveKernels();
  for (KernelBackend backend : CompiledBackends()) {
    if (TableFor(backend) == active) return backend;
  }
  return KernelBackend::kScalar;
}

const KernelTable& ActiveKernels() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = ResolveInitialTable();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

void SetActiveBackend(KernelBackend backend) {
  // Route through ResolveBackend's validation so a forced backend obeys
  // the same compiled-in + host-executable rules as ABENC_KERNEL.
  const KernelBackend validated = ResolveBackend(BackendName(backend));
  g_active.store(TableFor(validated), std::memory_order_release);
}

}  // namespace abenc::simd
