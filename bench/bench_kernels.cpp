// bench_kernels: throughput of the SIMD-dispatched encode kernels on a
// trace-scale stream, one column per backend the host can execute, plus
// the zero-copy mmap trace path — every timed run gated on bit-identity
// against the per-word reference (any divergence exits nonzero; a fast
// wrong kernel must never look like a win).
//
// Flags (unknown ones are ignored, like every bench):
//   --length N        accesses in the synthetic stream (default 2^20)
//   --min-speedup X   require geomean(best backend vs scalar) >= X when
//                     a non-scalar backend is supported (default 0: off)
//   --json <path>     write the deterministic `abenc.comparison.v1`
//                     document of the same stream (timings never enter
//                     it, so the bytes match across backends and hosts —
//                     the ISA-matrix CI job diffs exactly this)
//   --metrics <path>  as in every table bench
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/codec_factory.h"
#include "core/experiment.h"
#include "core/simd/kernel_dispatch.h"
#include "core/stream_evaluator.h"
#include "report/json_writer.h"
#include "trace/mmap_trace.h"
#include "trace/synthetic.h"
#include "trace/trace.h"

namespace {

namespace simd = abenc::simd;
using abenc::BusAccess;
using abenc::EvalResult;

bool Identical(const EvalResult& a, const EvalResult& b) {
  // Exact equality, doubles included: the bit-identity contract.
  return a.stream_length == b.stream_length &&
         a.transitions == b.transitions &&
         a.peak_transitions == b.peak_transitions &&
         a.in_sequence_percent == b.in_sequence_percent &&
         a.per_line == b.per_line;
}

/// Best-of-3 wall time of `run`, checking every repetition against
/// `reference`. Exits the process on divergence.
double TimedSeconds(const std::function<EvalResult()>& run,
                    const EvalResult& reference, const std::string& what) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const EvalResult result = run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (!Identical(result, reference)) {
      std::fprintf(stderr,
                   "bench_kernels: %s diverges from the per-word "
                   "reference — refusing to report a wrong-fast number\n",
                   what.c_str());
      std::exit(1);
    }
    if (rep == 0 || elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const abenc::bench::BenchOptions bench_options =
      abenc::bench::ParseBenchOptions(argc, argv);
  std::size_t length = std::size_t{1} << 20;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--length") == 0 && i + 1 < argc) {
      length = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::strtod(argv[++i], nullptr);
    }
  }
  abenc::bench::MetricsSession metrics(bench_options.metrics_path);

  const std::vector<std::string> codecs = {"binary", "gray",  "offset",
                                           "inc-xor", "t0",   "bus-invert"};
  abenc::SyntheticGenerator gen(7);
  const abenc::AddressTrace trace = gen.MultiplexedLike(length);
  const std::vector<BusAccess> stream = trace.ToBusAccesses();
  const abenc::SpanTraceSource rows(stream);
  const abenc::CodecOptions options;
  const std::vector<simd::KernelBackend> backends = simd::SupportedBackends();

  // The mmap path: the same stream through the columnar on-disk format.
  const std::string ctrace_path =
      (std::filesystem::temp_directory_path() / "abenc_bench_kernels.ctrace")
          .string();
  abenc::WriteColumnarTrace(ctrace_path, trace);
  const abenc::MmapTraceSource mapped(ctrace_path);

  std::printf("bench_kernels: %zu multiplexed accesses, backends:",
              stream.size());
  for (simd::KernelBackend b : backends) {
    std::printf(" %s", simd::BackendName(b));
  }
  std::printf("\n\n%-12s %10s", "codec", "per-word");
  for (simd::KernelBackend b : backends) {
    std::printf(" %9s", simd::BackendName(b));
  }
  std::printf(" %9s %8s\n", "mmap", "speedup");

  double log_speedup_sum = 0.0;
  for (const std::string& codec_name : codecs) {
    const EvalResult reference = abenc::Evaluate(
        *abenc::MakeCodec(codec_name, options), stream, options.stride);

    const auto start = std::chrono::steady_clock::now();
    (void)abenc::Evaluate(*abenc::MakeCodec(codec_name, options), stream,
                          options.stride);
    const std::chrono::duration<double> per_word_s =
        std::chrono::steady_clock::now() - start;

    double scalar_s = 0.0;
    double best_s = 0.0;
    std::vector<double> backend_s;
    for (simd::KernelBackend backend : backends) {
      const simd::ScopedKernelBackend scoped(backend);
      const double seconds = TimedSeconds(
          [&] {
            return abenc::EvaluateBatched(
                *abenc::MakeCodec(codec_name, options), rows, options.stride,
                false);
          },
          reference,
          codec_name + " backend=" + simd::BackendName(backend) + " (span)");
      backend_s.push_back(seconds);
      if (backend == simd::KernelBackend::kScalar) scalar_s = seconds;
      best_s = seconds;  // SupportedBackends orders best last
    }

    // Zero-copy path under the process-default (best) backend.
    const double mmap_s = TimedSeconds(
        [&] {
          return abenc::EvaluateBatched(*abenc::MakeCodec(codec_name, options),
                                        mapped, options.stride, false);
        },
        reference, codec_name + " (mmap)");

    const double speedup = scalar_s / best_s;
    log_speedup_sum += std::log(speedup);
    std::printf("%-12s %8.2fms", codec_name.c_str(),
                per_word_s.count() * 1e3);
    for (const double seconds : backend_s) {
      std::printf(" %7.2fms", seconds * 1e3);
    }
    std::printf(" %7.2fms %7.2fx\n", mmap_s * 1e3, speedup);
  }

  const double geomean =
      std::exp(log_speedup_sum / static_cast<double>(codecs.size()));
  std::printf("\ngeomean %s-vs-scalar speedup: %.2fx\n",
              simd::BackendName(backends.back()), geomean);

  std::filesystem::remove(ctrace_path);

  if (min_speedup > 0.0) {
    if (backends.size() < 2) {
      std::printf(
          "--min-speedup %.2f skipped: only the scalar backend is "
          "supported on this host\n",
          min_speedup);
    } else if (geomean < min_speedup) {
      std::fprintf(stderr,
                   "bench_kernels: geomean speedup %.2fx is below the "
                   "required %.2fx\n",
                   geomean, min_speedup);
      return 1;
    }
  }

  if (!bench_options.json_path.empty()) {
    // Deterministic results document (no timings): the regression gate
    // and the cross-backend byte-diff both consume this.
    const std::vector<std::string> cells(codecs.begin() + 1, codecs.end());
    const std::vector<abenc::NamedStream> streams = {
        abenc::NamedStream("multiplexed-synthetic", stream)};
    const abenc::Comparison comparison =
        abenc::RunComparison(cells, streams, options);
    abenc::WriteJsonFile(
        bench_options.json_path,
        abenc::ComparisonToJson(comparison,
                                "Kernel backends, multiplexed synthetic"));
    std::printf("wrote %s\n", bench_options.json_path.c_str());
  }
  metrics.WriteIfEnabled();
  return 0;
}
