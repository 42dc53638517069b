// Batch evaluation: run a set of codes over a set of streams and collect
// the full result matrix — the API behind every table bench, exposed so
// downstream users can build their own studies without re-writing the
// bookkeeping.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "core/trace_source.h"

namespace abenc {

/// One stream under study. Either a materialized access vector or a
/// chunked TraceSource (e.g. an AddressTraceSource wrapping a captured
/// trace, see trace/trace_source.h); when `source` is set it wins and
/// `accesses` may stay empty, so producers never have to materialize a
/// BusAccess copy just to enter the engine.
struct NamedStream {
  NamedStream() = default;
  NamedStream(std::string stream_name, std::vector<BusAccess> stream_accesses,
              std::shared_ptr<const TraceSource> stream_source = nullptr)
      : name(std::move(stream_name)),
        accesses(std::move(stream_accesses)),
        source(std::move(stream_source)) {}

  std::string name;  // e.g. the benchmark name
  std::vector<BusAccess> accesses;
  std::shared_ptr<const TraceSource> source;

  std::size_t size() const {
    return source ? source->size() : accesses.size();
  }
};

/// The matrix cell for (stream, code).
struct ComparisonCell {
  EvalResult result;
  double savings_percent = 0.0;  // vs the binary reference on that stream
};

/// One stream's row: the binary reference plus a cell per code.
struct ComparisonRow {
  std::string stream_name;
  EvalResult binary;
  std::vector<ComparisonCell> cells;  // parallel to the codec name list
};

/// Aggregate of a full comparison.
struct Comparison {
  std::vector<std::string> codec_names;
  std::vector<ComparisonRow> rows;

  /// Paper-style column averages of the per-stream savings percentages.
  std::vector<double> average_savings() const;
  /// Average of the binary rows' in-sequence percentages.
  double average_in_sequence_percent() const;
};

/// Execution knobs of the experiment engine, orthogonal to the codec
/// parameters in CodecOptions.
struct RunOptions {
  /// Worker threads for the (stream, codec) cell grid. `1` runs the
  /// original single-threaded loop (no pool is created); `0` means one
  /// worker per hardware thread. Results are bit-identical at every
  /// setting — each cell constructs its own codec from reset and the
  /// matrix is reduced in (stream, codec) order regardless of which
  /// worker finished first.
  unsigned parallelism = 1;
};

/// Run every named code over every stream (from codec reset each time,
/// decode-verified, through EvaluateBatched). `configure` may adjust the
/// options per codec name (e.g. a stride per bus); by default all codes
/// share `options`.
///
/// With `run.parallelism != 1` the cells are sharded across a
/// ThreadPool; `configure` is then invoked concurrently from worker
/// threads (once per cell, exactly as in the sequential path) and must
/// be thread-safe — a pure function of (name, options), the common
/// case, always is. Exceptions thrown by `configure`, codec
/// construction or decode verification propagate to the caller in both
/// modes; under parallelism the pool is drained first and the failure
/// of the earliest cell in deterministic (stream, codec) order wins.
Comparison RunComparison(
    const std::vector<std::string>& codec_names,
    const std::vector<NamedStream>& streams, const CodecOptions& options,
    const std::function<void(const std::string&, CodecOptions&)>& configure =
        nullptr,
    const RunOptions& run = {});

}  // namespace abenc
