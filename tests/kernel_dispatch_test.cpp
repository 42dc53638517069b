// Tests of the runtime SIMD kernel dispatch (core/simd): backend
// enumeration and name parsing, the loud-failure contract for
// misconfigured ABENC_KERNEL values, the guard that a compiled-in ISA
// backend the host can execute is never silently left unselected, and
// the per-backend bit-identity sweep that EvaluateBatched must pass
// over both the BusAccess span path and the zero-copy columnar path,
// the transition sweep against the scalar reference at its edges, and
// the decode kernels against per-word Decode at theirs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bus_invert_codec.h"
#include "core/codec_factory.h"
#include "core/gray_codec.h"
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

// One sweep's outputs, starting from arbitrary carried-in values so the
// kernels must accumulate into them rather than overwrite.
struct SweepState {
  BusState prev{0x0123456789ABCDEFULL, 0x5};
  long long total = 11;
  int peak = 2;
  std::vector<long long> per_line;

  bool operator==(const SweepState&) const = default;
};

// Seeded random states in runs of up to 600 cycles. A run toggles every
// line each cycle, holds the bus still, or draws random words with bits
// past every mask set.
std::vector<BusState> RandomStates(std::size_t n, std::mt19937_64& rng) {
  std::vector<BusState> states(n);
  BusState last{};
  for (std::size_t i = 0; i < n;) {
    const std::uint64_t mode = rng() % 3;
    for (std::size_t end = std::min(n, i + 1 + rng() % 600); i < end; ++i) {
      if (mode == 0) {
        last = BusState{~last.lines, ~last.redundant};
      } else if (mode == 2) {
        last = BusState{rng(), rng()};
      }
      states[i] = last;
    }
  }
  return states;
}

// States that toggle every line on every cycle: each per-line counter
// of a sweep then rises by one per cycle, the fastest it can fill.
std::vector<BusState> ToggleEveryLine(std::size_t n) {
  std::vector<BusState> states(n);
  for (std::size_t i = 1; i < n; ++i) {
    states[i] = BusState{~states[i - 1].lines, ~states[i - 1].redundant};
  }
  return states;
}

TEST(KernelDispatchTest, SweepMatchesScalarAtEveryEdge) {
  std::mt19937_64 rng(0x5EE9);
  // Around the vector groups of 4 cycles and the AVX2 adder trees of 64
  // (63-65, 127-129, 255-257), and around the AVX2 sixteens counters'
  // flush bound: 63 trees, the 4032 cycles after the first state
  // (4032-4034, and twice the bound at 8065-8066).
  const std::size_t lengths[] = {0,    1,    2,    3,    4,    5,    6,
                                 7,    8,    9,    63,   64,   65,   127,
                                 128,  129,  255,  256,  257,  1019, 1020,
                                 1021, 4032, 4033, 4034, 4096, 8065, 8066};
  for (const unsigned width : {1u, 31u, 32u, 33u, 63u, 64u}) {
    for (const unsigned redundant_lines : {0u, 1u, 2u, 3u}) {
      const Word data_mask = LowMask(width);
      const Word redundant_mask = LowMask(redundant_lines);
      const auto check = [&](const std::vector<BusState>& states,
                             const std::string& what) {
        const std::size_t n = states.size();
        SweepState reference;
        reference.per_line.assign(width + redundant_lines, 3);
        SweepState start = reference;
        simd::detail::TransitionSweepScalar(
            states.data(), n, data_mask, redundant_mask, width,
            &reference.prev, &reference.total, &reference.peak,
            reference.per_line.data());
        for (simd::KernelBackend backend : simd::SupportedBackends()) {
          const simd::ScopedKernelBackend scoped(backend);
          const simd::TransitionSweepFn sweep = simd::ActiveKernels().sweep;
          const std::string context =
              std::string(simd::BackendName(backend)) + " width " +
              std::to_string(width) + " redundant " +
              std::to_string(redundant_lines) + " " + what + " length " +
              std::to_string(n);
          SweepState whole = start;
          sweep(states.data(), n, data_mask, redundant_mask, width,
                &whole.prev, &whole.total, &whole.peak,
                whole.per_line.data());
          EXPECT_EQ(whole, reference) << context << " in one call";
          // Chunks of 1-300 states, the previous state carried across.
          SweepState chunked = start;
          for (std::size_t at = 0; at < n;) {
            const std::size_t len =
                std::min<std::size_t>(1 + rng() % 300, n - at);
            sweep(states.data() + at, len, data_mask, redundant_mask, width,
                  &chunked.prev, &chunked.total, &chunked.peak,
                  chunked.per_line.data());
            at += len;
          }
          EXPECT_EQ(chunked, reference) << context << " in chunks";
        }
      };
      for (const std::size_t n : lengths) {
        check(RandomStates(n, rng), "random");
      }
      // One run past twice the flush bound, so the counters fill to it.
      check(ToggleEveryLine(8100), "every line toggling");
    }
  }
}

// Seeded bus states for the decoders, in runs of up to 600 cycles: random
// words (bits past every mask set), INV asserted on every cycle, or every
// line high.
std::vector<BusState> DecodeStates(std::size_t n, std::mt19937_64& rng) {
  std::vector<BusState> states(n);
  for (std::size_t i = 0; i < n;) {
    const std::uint64_t mode = rng() % 3;
    for (std::size_t end = std::min(n, i + 1 + rng() % 600); i < end; ++i) {
      states[i] = BusState{mode == 2 ? ~Word{0} : rng(),
                           mode == 1 ? ~Word{0} : rng()};
    }
  }
  return states;
}

TEST(KernelDispatchTest, DecodeMatchesPerWordAtEveryEdge) {
  std::mt19937_64 rng(0xDEC0DE);
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1021, 4096};
  for (const unsigned width : {1u, 31u, 32u, 33u, 63u, 64u}) {
    std::vector<std::pair<std::string, std::function<CodecPtr()>>> codecs;
    const std::set<Word> strides = {1, 2, 4, Word{1} << (width - 1)};
    for (const Word stride : strides) {
      if (Log2(stride) >= width) continue;
      codecs.emplace_back("gray stride " + std::to_string(stride), [=] {
        return std::make_unique<GrayCodec>(width, stride);
      });
    }
    for (const unsigned partitions : {1u, 2u}) {
      if (width % partitions != 0) continue;
      codecs.emplace_back(
          "bus-invert partitions " + std::to_string(partitions), [=] {
            return std::make_unique<BusInvertCodec>(width, partitions);
          });
    }
    for (const auto& [codec_name, make] : codecs) {
      for (const std::size_t n : lengths) {
        const std::vector<BusState> states = DecodeStates(n, rng);
        std::vector<BusAccess> accesses(n);
        for (BusAccess& access : accesses) access.sel = (rng() & 1) != 0;
        const AccessView view =
            n == 0 ? AccessView{} : AccessView::Rows(accesses.data());
        std::vector<Word> reference(n);
        const CodecPtr per_word = make();
        for (std::size_t i = 0; i < n; ++i) {
          reference[i] = per_word->Decode(states[i], accesses[i].sel);
        }
        for (simd::KernelBackend backend : simd::SupportedBackends()) {
          const simd::ScopedKernelBackend scoped(backend);
          const std::string context =
              std::string(simd::BackendName(backend)) + " width " +
              std::to_string(width) + " " + codec_name + " length " +
              std::to_string(n);
          std::vector<Word> whole(n, 0xBAD);
          make()->DecodeBatch(view, states, whole);
          EXPECT_EQ(whole, reference) << context << " in one call";
          const CodecPtr codec = make();
          std::vector<Word> chunked(n, 0xBAD);
          for (std::size_t at = 0; at < n;) {
            const std::size_t len =
                std::min<std::size_t>(1 + rng() % 300, n - at);
            codec->DecodeBatch(view.From(at),
                               std::span(states).subspan(at, len),
                               std::span(chunked).subspan(at, len));
            at += len;
          }
          EXPECT_EQ(chunked, reference) << context << " in chunks";
        }
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
