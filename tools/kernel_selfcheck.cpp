// kernel_selfcheck: cross-backend identity check with no test-framework
// dependency, so it builds under ABENC_CORE_ONLY and runs anywhere the
// library does — including under qemu in the aarch64 cross CI job.
//
// For every factory codec over a set of deterministic synthetic streams
// it computes the per-word Evaluate() reference (which never touches
// the kernel tables) and then, for every backend the host supports,
// re-runs EvaluateBatched twice — over a copied BusAccess span and over
// the zero-copy columnar path — requiring exact equality of every
// EvalResult field. Any divergence prints the first mismatch and exits
// nonzero.
//
// Flags:
//   --length N     accesses per stream (default 20000)
//   --backend B    check only backend B (default: all supported)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/codec_factory.h"
#include "core/simd/kernel_dispatch.h"
#include "core/stream_evaluator.h"
#include "core/trace_source.h"
#include "trace/synthetic.h"

namespace {

using abenc::BusAccess;
using abenc::EvalResult;

bool SameResult(const EvalResult& a, const EvalResult& b,
                std::string* what) {
  if (a.stream_length != b.stream_length) {
    *what = "stream_length";
    return false;
  }
  if (a.transitions != b.transitions) {
    *what = "transitions";
    return false;
  }
  if (a.peak_transitions != b.peak_transitions) {
    *what = "peak_transitions";
    return false;
  }
  // Exact double equality on purpose: both sides must run the very same
  // arithmetic (that is the bit-identity contract).
  if (a.in_sequence_percent != b.in_sequence_percent) {
    *what = "in_sequence_percent";
    return false;
  }
  if (a.per_line != b.per_line) {
    *what = "per_line";
    return false;
  }
  return true;
}

struct NamedStream {
  std::string name;
  std::vector<BusAccess> accesses;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t length = 20000;
  std::string only_backend;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--length") == 0 && i + 1 < argc) {
      length = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      only_backend = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--length N] [--backend B]\n", argv[0]);
      return 2;
    }
  }

  namespace simd = abenc::simd;
  std::printf("compiled backends:");
  for (simd::KernelBackend b : simd::CompiledBackends()) {
    std::printf(" %s", simd::BackendName(b));
  }
  std::printf("\nsupported backends:");
  for (simd::KernelBackend b : simd::SupportedBackends()) {
    std::printf(" %s", simd::BackendName(b));
  }
  std::printf("\nactive backend: %s\n",
              simd::BackendName(simd::ActiveBackend()));

  try {
    abenc::SyntheticGenerator gen(0xC0DEC);
    const std::vector<NamedStream> streams = {
        {"sequential", gen.Sequential(length).ToBusAccesses()},
        {"uniform", gen.UniformRandom(length).ToBusAccesses()},
        {"markov-0.7", gen.Markov(length, 0.7).ToBusAccesses()},
        {"multiplexed", gen.MultiplexedLike(length).ToBusAccesses()},
    };
    const std::vector<std::size_t> chunk_sizes = {0, 1, 61};

    std::size_t checks = 0;
    for (const NamedStream& stream : streams) {
      const abenc::SpanTraceSource rows(stream.accesses);
      const abenc::ColumnarTraceSource columnar =
          abenc::ColumnarTraceSource::FromAccesses(stream.accesses);
      for (const std::string& codec_name : abenc::AllCodecNames()) {
        const abenc::CodecOptions options;
        const EvalResult reference = abenc::Evaluate(
            *abenc::MakeCodec(codec_name, options), stream.accesses,
            options.stride, true);
        for (simd::KernelBackend backend : simd::SupportedBackends()) {
          if (!only_backend.empty() &&
              only_backend != simd::BackendName(backend)) {
            continue;
          }
          const simd::ScopedKernelBackend scoped(backend);
          for (std::size_t chunk : chunk_sizes) {
            const EvalResult span_result = abenc::EvaluateBatched(
                *abenc::MakeCodec(codec_name, options), rows, options.stride,
                true, chunk);
            const EvalResult columnar_result = abenc::EvaluateBatched(
                *abenc::MakeCodec(codec_name, options), columnar,
                options.stride, true, chunk);
            std::string what;
            if (!SameResult(reference, span_result, &what)) {
              std::fprintf(stderr,
                           "FAIL %s/%s backend=%s chunk=%zu span path: "
                           "%s diverges from per-word reference\n",
                           stream.name.c_str(), codec_name.c_str(),
                           simd::BackendName(backend), chunk, what.c_str());
              return 1;
            }
            if (!SameResult(reference, columnar_result, &what)) {
              std::fprintf(stderr,
                           "FAIL %s/%s backend=%s chunk=%zu columnar "
                           "path: %s diverges from per-word reference\n",
                           stream.name.c_str(), codec_name.c_str(),
                           simd::BackendName(backend), chunk, what.c_str());
              return 1;
            }
            checks += 2;
          }
        }
      }
    }
    std::printf(
        "kernel_selfcheck: %zu batched evaluations bit-identical to the "
        "per-word reference (%zu-access streams)\n",
        checks, length);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kernel_selfcheck: %s\n", e.what());
    return 1;
  }
  return 0;
}
