// Tests of the runtime SIMD kernel dispatch (core/simd): backend
// enumeration and name parsing, the loud-failure contract for
// misconfigured ABENC_KERNEL values, the guard that a compiled-in ISA
// backend the host can execute is never silently left unselected, and
// the per-backend bit-identity sweep that EvaluateBatched must pass
// over both the BusAccess span path and the zero-copy columnar path.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec_factory.h"
#include "core/simd/kernel_dispatch.h"
#include "core/stream_evaluator.h"
#include "core/trace_source.h"
#include "obs/metrics.h"
#include "trace/synthetic.h"

namespace abenc {
namespace {

namespace simd = abenc::simd;

bool Contains(const std::vector<simd::KernelBackend>& backends,
              simd::KernelBackend backend) {
  return std::find(backends.begin(), backends.end(), backend) !=
         backends.end();
}

TEST(KernelDispatchTest, BackendNamesAreStable) {
  EXPECT_STREQ(simd::BackendName(simd::KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(simd::BackendName(simd::KernelBackend::kAvx2), "avx2");
  EXPECT_STREQ(simd::BackendName(simd::KernelBackend::kNeon), "neon");
}

TEST(KernelDispatchTest, ScalarIsAlwaysCompiledFirstAndSupported) {
  const auto compiled = simd::CompiledBackends();
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled.front(), simd::KernelBackend::kScalar);

  const auto supported = simd::SupportedBackends();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), simd::KernelBackend::kScalar);

  // Supported is a subset of compiled: the host cannot execute a
  // backend that was never built.
  for (simd::KernelBackend backend : supported) {
    EXPECT_TRUE(Contains(compiled, backend))
        << simd::BackendName(backend) << " supported but not compiled";
  }
}

TEST(KernelDispatchTest, ResolveBackendParsesEverySupportedName) {
  for (simd::KernelBackend backend : simd::SupportedBackends()) {
    EXPECT_EQ(simd::ResolveBackend(simd::BackendName(backend)), backend);
  }
}

TEST(KernelDispatchTest, ResolveBackendFailsLoudlyOnBadNames) {
  // Unknown vocabulary: invalid_argument (a typo in ABENC_KERNEL).
  EXPECT_THROW(simd::ResolveBackend("sse9"), std::invalid_argument);
  EXPECT_THROW(simd::ResolveBackend(""), std::invalid_argument);
  EXPECT_THROW(simd::ResolveBackend("AVX2"), std::invalid_argument);
}

TEST(KernelDispatchTest, UnsupportedBackendsThrowRuntimeError) {
  const auto supported = simd::SupportedBackends();
  for (simd::KernelBackend backend :
       {simd::KernelBackend::kAvx2, simd::KernelBackend::kNeon}) {
    if (Contains(supported, backend)) continue;
    EXPECT_THROW(simd::ResolveBackend(simd::BackendName(backend)),
                 std::runtime_error)
        << simd::BackendName(backend);
  }
}

// The "silently never selected" guard: re-detect the host's ISA
// independently of the dispatch code. If this binary was compiled with
// the AVX2 backend and the CPU reports AVX2, the dispatcher MUST list
// it as supported (and therefore auto-select it, since it orders last);
// anything else means the fast path exists but never runs.
TEST(KernelDispatchTest, CompiledIsaBackendIsSelectedWhenHostSupportsIt) {
#if defined(ABENC_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    const auto supported = simd::SupportedBackends();
    ASSERT_TRUE(Contains(supported, simd::KernelBackend::kAvx2))
        << "host executes AVX2 and the backend is compiled in, but the "
           "dispatcher does not offer it";
    EXPECT_EQ(supported.back(), simd::KernelBackend::kAvx2)
        << "AVX2 is supported but would not be the auto-selected default";
  }
#endif
#if defined(ABENC_HAVE_NEON)
  // NEON is baseline on aarch64: compiled in implies supported.
  const auto supported = simd::SupportedBackends();
  ASSERT_TRUE(Contains(supported, simd::KernelBackend::kNeon));
  EXPECT_EQ(supported.back(), simd::KernelBackend::kNeon);
#endif
}

TEST(KernelDispatchTest, ActiveKernelsMatchesActiveBackend) {
  const simd::KernelBackend active = simd::ActiveBackend();
  EXPECT_TRUE(Contains(simd::SupportedBackends(), active));
  EXPECT_STREQ(simd::ActiveKernels().name, simd::BackendName(active));
}

TEST(KernelDispatchTest, ScopedBackendSwitchesAndRestores) {
  const simd::KernelBackend before = simd::ActiveBackend();
  for (simd::KernelBackend backend : simd::SupportedBackends()) {
    {
      const simd::ScopedKernelBackend scoped(backend);
      EXPECT_EQ(simd::ActiveBackend(), backend);
      EXPECT_STREQ(simd::ActiveKernels().name, simd::BackendName(backend));
    }
    EXPECT_EQ(simd::ActiveBackend(), before);
  }
}

// ---------------------------------------------------------------------------
// Per-backend bit-identity sweep
// ---------------------------------------------------------------------------

void ExpectSameResult(const EvalResult& reference, const EvalResult& got,
                      const std::string& context) {
  EXPECT_EQ(got.stream_length, reference.stream_length) << context;
  EXPECT_EQ(got.transitions, reference.transitions) << context;
  EXPECT_EQ(got.peak_transitions, reference.peak_transitions) << context;
  // Exact double equality on purpose: every backend must execute the
  // very same arithmetic (the bit-identity contract).
  EXPECT_EQ(got.in_sequence_percent, reference.in_sequence_percent)
      << context;
  EXPECT_EQ(got.per_line, reference.per_line) << context;
}

TEST(KernelDispatchTest, EveryBackendIsBitIdenticalOnEveryCodec) {
  SyntheticGenerator gen(0xD15);
  const std::vector<std::vector<BusAccess>> streams = {
      gen.Sequential(3000).ToBusAccesses(),
      gen.UniformRandom(3000).ToBusAccesses(),
      gen.MultiplexedLike(3000).ToBusAccesses(),
  };
  for (const auto& stream : streams) {
    const ColumnarTraceSource columnar =
        ColumnarTraceSource::FromAccesses(stream);
    for (const std::string& codec_name : AllCodecNames()) {
      const CodecOptions options;
      const EvalResult reference = Evaluate(*MakeCodec(codec_name, options),
                                            stream, options.stride, true);
      for (simd::KernelBackend backend : simd::SupportedBackends()) {
        const simd::ScopedKernelBackend scoped(backend);
        const std::string context =
            codec_name + " backend=" + simd::BackendName(backend);
        ExpectSameResult(
            reference,
            EvaluateBatched(*MakeCodec(codec_name, options),
                            SpanTraceSource(stream), options.stride, true),
            context + " span");
        ExpectSameResult(
            reference,
            EvaluateBatched(*MakeCodec(codec_name, options), columnar,
                            options.stride, true),
            context + " columnar");
      }
    }
  }
}

TEST(KernelDispatchTest, ColumnarFastPathActuallyRuns) {
  // A ColumnarTraceSource must be consumed through ViewColumns, not the
  // Read fallback — otherwise the zero-copy path exists but never runs.
  obs::MetricsRegistry registry;
  const obs::ScopedInstall install(&registry);
  SyntheticGenerator gen(9);
  const auto stream = gen.Sequential(10000).ToBusAccesses();
  const ColumnarTraceSource columnar =
      ColumnarTraceSource::FromAccesses(stream);
  const CodecOptions options;
  EvaluateBatched(*MakeCodec("gray", options), columnar, options.stride,
                  true);
  EXPECT_GT(
      registry.GetCounter("evaluator.batched.columnar_chunks").value(), 0u);
}

}  // namespace
}  // namespace abenc
