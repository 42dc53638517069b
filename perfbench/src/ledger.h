// The per-layer ledger of the traced run. Every row is measured from
// outside the program: spans around calls into each layer's public
// functions, during the real wire workloads and during an in-process
// replay of each workload's own windows through the lower layers.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "spans.h"
#include "wire.h"

namespace perfbench {

/// One per-layer metric, and which end-to-end metric on which workload
/// it should move (README.md and the traced run's output repeat this).
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;
};
const std::vector<LayerMetric>& LayerMetrics();

/// A traced wire phase: its spans and what the client and the server's
/// /proc entry counted.
struct WireTrace {
  std::vector<Span> spans;
  PhaseResult phase;
  WireCounters counters;     // since the server started, warm-up included
  double server_cpu_s = 0;   // abenc_serve user+sys CPU over the phase
  long long frames_out = -1; // the server's lifetime count (stop summary)
};

/// Runs `jobs` traced jobs of `shape` against a fresh server, for the
/// rows of a wire shape the traced workload does not run itself.
WireTrace TraceWire(const Options& options, WireShape shape,
                    std::size_t jobs);

/// Replays the workloads' windows through the lower layers and derives
/// every row of LayerMetrics() from the spans, keyed by the row's name
/// (it throws std::logic_error unless the keys are exactly those names).
/// The replay's own spans are appended to `spans`.
std::map<std::string, double> BuildLedger(const Options& options,
                                          const Corpus& corpus,
                                          const std::vector<Span>& setup_spans,
                                          std::size_t setups,
                                          const WireTrace& bulk,
                                          const WireTrace& interactive,
                                          double tracing_overhead_pct,
                                          std::vector<Span>& spans);

}  // namespace perfbench
