// Shared driver for the Table 2-7 benches: runs the nine benchmark
// programs, evaluates a list of codes on one of the three bus streams and
// prints the paper-shaped table.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/program_library.h"

namespace abenc::bench {

/// Which of the three buses of Tables 2-7 to evaluate.
enum class StreamKind { kInstruction, kData, kMultiplexed };

/// Command-line knobs shared by every table bench.
struct BenchOptions {
  /// Write the table's `abenc.comparison.v1` JSON document here
  /// (empty: ASCII only). This is what the CI regression gate diffs
  /// against bench/baselines/.
  std::string json_path;
  /// Worker threads for the experiment engine; 0 = one per hardware
  /// thread, 1 = the sequential path. Results are identical either way.
  unsigned parallelism = 0;
  /// Write an `abenc.metrics.v1` document of everything the run's
  /// instrumentation recorded here (empty: observability stays off and
  /// costs nothing). Metrics never feed back into results: a --metrics
  /// run produces bit-identical tables and --json documents.
  std::string metrics_path;
};

/// Parse `--json <path>` / `--json=<path>`, `--parallelism <n>` /
/// `--parallelism=<n>` and `--metrics <path>` / `--metrics=<path>`.
/// Unknown arguments are ignored so the benches stay runnable under
/// generic harnesses (bench-specific flags such as bench_kernels'
/// `--length` share the command line). Throws std::invalid_argument
/// when a recognized flag is missing its value.
BenchOptions ParseBenchOptions(int argc, char** argv);

/// Owns the bench's MetricsRegistry: when `path` is nonempty the
/// registry is installed process-wide for the session's lifetime (so
/// every instrumented layer records into it) and WriteIfEnabled()
/// exports the `abenc.metrics.v1` document. With an empty path the
/// session is inert and the instrumentation stays on its zero-cost
/// disabled path.
class MetricsSession {
 public:
  explicit MetricsSession(std::string path);
  ~MetricsSession();

  MetricsSession(const MetricsSession&) = delete;
  MetricsSession& operator=(const MetricsSession&) = delete;

  bool enabled() const { return registry_ != nullptr; }
  obs::MetricsRegistry* registry() { return registry_.get(); }

  /// Write the snapshot to the session path and print a note; no-op when
  /// disabled.
  void WriteIfEnabled();

 private:
  std::string path_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::optional<obs::ScopedInstall> install_;
};

/// Print one experimental table: a row per benchmark with stream length,
/// in-sequence percentage, binary transition count, and per-code
/// transition counts with savings, then the paper-style "Average" row of
/// column means. Every code is also round-trip verified while encoding.
/// With `options.json_path` set, additionally write the machine-readable
/// document (see report/json_writer.h for the schema).
void PrintExperimentalTable(const std::string& title, StreamKind kind,
                            const std::vector<std::string>& codec_names,
                            const BenchOptions& options = {});

/// The stream of `kind` from one benchmark run; the multiplexed stream is
/// moved out, a dedicated one is filtered from it.
AddressTrace SelectStream(sim::ProgramTraces traces, StreamKind kind);

}  // namespace abenc::bench
