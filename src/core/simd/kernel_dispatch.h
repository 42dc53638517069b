// Runtime selection of the SIMD kernel backend (core/simd/kernels.h).
//
// Dispatch rules:
//   1. At first use the process picks the best backend the host can
//      execute: the last entry of SupportedBackends(), which orders
//      scalar first and ISA backends after it.
//   2. The ABENC_KERNEL environment variable ("scalar" | "avx2" |
//      "neon") overrides the choice for the whole process. An unknown
//      name, or a backend that is not compiled in / not executable on
//      this host, throws on first use — a misconfigured CI matrix must
//      fail loudly, never silently fall back.
//   3. Tests and verify properties switch backends temporarily with
//      ScopedKernelBackend.
//
// Compiled-in backends are decided at build time: kernels_avx2.cpp is
// compiled (with a per-file -mavx2) only on x86-64, kernels_neon.cpp
// only on aarch64; ABENC_HAVE_AVX2 / ABENC_HAVE_NEON mirror that. At
// run time an AVX2 binary still probes the CPU before ever selecting
// the AVX2 table, so the same build runs on pre-AVX2 hardware. The one
// floor is POPCNT on x86-64, which the whole library is compiled for:
// the first table resolution throws std::runtime_error on a CPU
// without it.
#pragma once

#include <string>
#include <vector>

#include "core/simd/kernels.h"

namespace abenc::simd {

enum class KernelBackend { kScalar, kAvx2, kNeon };

/// Stable lower-case name ("scalar", "avx2", "neon") — the vocabulary
/// of ABENC_KERNEL and of KernelTable::name.
const char* BackendName(KernelBackend backend);

/// Backends compiled into this binary, scalar always first.
std::vector<KernelBackend> CompiledBackends();

/// Compiled backends the host CPU can actually execute, scalar first;
/// the dispatch default is the last (best) entry.
std::vector<KernelBackend> SupportedBackends();

/// Parse an ABENC_KERNEL value. Throws std::invalid_argument for an
/// unknown name and std::runtime_error when the named backend is not
/// compiled in or not executable on this host.
KernelBackend ResolveBackend(const std::string& name);

/// The backend whose table ActiveKernels() returns.
KernelBackend ActiveBackend();

/// The process-wide active kernel table. First call resolves
/// ABENC_KERNEL (or auto-detects); later calls are a single atomic
/// load.
const KernelTable& ActiveKernels();

/// Force a backend (validated like ResolveBackend). Prefer
/// ScopedKernelBackend in tests.
void SetActiveBackend(KernelBackend backend);

/// RAII backend override for tests and verify properties.
class ScopedKernelBackend {
 public:
  explicit ScopedKernelBackend(KernelBackend backend)
      : saved_(ActiveBackend()) {
    SetActiveBackend(backend);
  }
  ~ScopedKernelBackend() { SetActiveBackend(saved_); }
  ScopedKernelBackend(const ScopedKernelBackend&) = delete;
  ScopedKernelBackend& operator=(const ScopedKernelBackend&) = delete;

 private:
  KernelBackend saved_;
};

}  // namespace abenc::simd
