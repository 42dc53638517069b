#include "core/experiment.h"

#include <cstddef>
#include <exception>
#include <future>
#include <utility>

#include "core/thread_pool.h"
#include "obs/metrics.h"

namespace abenc {
namespace {

// Publishes one evaluated cell into the installed registry: wall time
// (overall and per codec), words and the codec's transition total.
// Purely observational — call only when a registry is installed.
void RecordCellMetrics(obs::MetricsRegistry& registry,
                       const std::string& codec_name,
                       const EvalResult& result, double elapsed_seconds) {
  registry.GetHistogram("experiment.cell_seconds", obs::DefaultLatencyBuckets())
      .Observe(elapsed_seconds);
  registry
      .GetHistogram("experiment.codec." + codec_name + ".cell_seconds",
                    obs::DefaultLatencyBuckets())
      .Observe(elapsed_seconds);
  registry.GetCounter("experiment.cells").Increment();
  registry.GetCounter("experiment.words").Increment(result.stream_length);
  registry.GetCounter("experiment.codec." + codec_name + ".words")
      .Increment(result.stream_length);
  registry.GetCounter("experiment.codec." + codec_name + ".transitions")
      .Increment(static_cast<std::uint64_t>(result.transitions));
}

// Runs one codec over one stream through the batched path,
// decode-verified.
EvalResult EvaluateStream(Codec& codec, const NamedStream& stream,
                          const CodecOptions& options) {
  if (stream.source) {
    return EvaluateBatched(codec, *stream.source, options.stride,
                           /*verify_decode=*/true);
  }
  return EvaluateBatched(codec, SpanTraceSource(stream.accesses),
                         options.stride, /*verify_decode=*/true);
}

// One (stream, codec) cell from codec reset, decode-verified. Shared by
// the sequential and parallel paths so both compute bit-identical cells.
ComparisonCell EvaluateCell(
    const std::string& codec_name, const NamedStream& stream,
    const CodecOptions& options,
    const std::function<void(const std::string&, CodecOptions&)>& configure) {
  CodecOptions codec_options = options;
  if (configure) configure(codec_name, codec_options);
  auto codec = MakeCodec(codec_name, codec_options);
  ComparisonCell cell;
  obs::MetricsRegistry* registry = obs::Installed();
  const double start = registry ? obs::MonotonicSeconds() : 0.0;
  cell.result = EvaluateStream(*codec, stream, options);
  if (registry) {
    RecordCellMetrics(*registry, codec_name, cell.result,
                      obs::MonotonicSeconds() - start);
  }
  return cell;
}

EvalResult EvaluateBinaryReference(const NamedStream& stream,
                                   const CodecOptions& options) {
  auto binary = MakeCodec("binary", options);
  obs::MetricsRegistry* registry = obs::Installed();
  const double start = registry ? obs::MonotonicSeconds() : 0.0;
  EvalResult result = EvaluateStream(*binary, stream, options);
  if (registry) {
    RecordCellMetrics(*registry, "binary", result,
                      obs::MonotonicSeconds() - start);
  }
  return result;
}

Comparison RunComparisonSequential(
    const std::vector<std::string>& codec_names,
    const std::vector<NamedStream>& streams, const CodecOptions& options,
    const std::function<void(const std::string&, CodecOptions&)>& configure) {
  Comparison comparison;
  comparison.codec_names = codec_names;
  comparison.rows.reserve(streams.size());
  for (const NamedStream& stream : streams) {
    ComparisonRow row;
    row.stream_name = stream.name;
    row.binary = EvaluateBinaryReference(stream, options);
    for (const std::string& name : codec_names) {
      ComparisonCell cell = EvaluateCell(name, stream, options, configure);
      cell.savings_percent =
          SavingsPercent(cell.result.transitions, row.binary.transitions);
      row.cells.push_back(std::move(cell));
    }
    comparison.rows.push_back(std::move(row));
  }
  return comparison;
}

Comparison RunComparisonParallel(
    const std::vector<std::string>& codec_names,
    const std::vector<NamedStream>& streams, const CodecOptions& options,
    const std::function<void(const std::string&, CodecOptions&)>& configure,
    unsigned parallelism) {
  Comparison comparison;
  comparison.codec_names = codec_names;
  comparison.rows.resize(streams.size());

  // Futures are collected in deterministic submission order — binary
  // reference then cells, stream-major — and reduced in that same
  // order below, so the first failure in grid order wins no matter
  // which worker hit it first.
  // Queue wait (submit-to-start latency per cell) is only measured when
  // a registry is installed; the histogram pointer doubles as the flag
  // so the disabled path takes no clock reads inside the workers.
  obs::MetricsRegistry* registry = obs::Installed();
  obs::Histogram* queue_wait =
      registry ? &registry->GetHistogram("experiment.queue_wait_seconds",
                                         obs::DefaultLatencyBuckets())
               : nullptr;
  auto observe_wait = [queue_wait](double submitted) {
    if (queue_wait) {
      queue_wait->Observe(obs::MonotonicSeconds() - submitted);
    }
  };

  std::vector<std::future<EvalResult>> binary_futures;
  std::vector<std::future<ComparisonCell>> cell_futures;
  binary_futures.reserve(streams.size());
  cell_futures.reserve(streams.size() * codec_names.size());
  {
    ThreadPool pool(parallelism);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const NamedStream* stream = &streams[s];
      const double submitted = queue_wait ? obs::MonotonicSeconds() : 0.0;
      binary_futures.push_back(
          pool.Submit([stream, &options, observe_wait, submitted]() {
            observe_wait(submitted);
            return EvaluateBinaryReference(*stream, options);
          }));
      for (std::size_t c = 0; c < codec_names.size(); ++c) {
        const std::string* name = &codec_names[c];
        const double cell_submitted =
            queue_wait ? obs::MonotonicSeconds() : 0.0;
        cell_futures.push_back(
            pool.Submit([name, stream, &options, &configure, observe_wait,
                         cell_submitted]() {
              observe_wait(cell_submitted);
              return EvaluateCell(*name, *stream, options, configure);
            }));
      }
    }
    // The pool destructor drains the queue: by the end of this block
    // every task has run, so every future below is ready and the
    // captured references above are no longer in use.
  }

  std::exception_ptr first_failure;
  auto harvest = [&first_failure](auto& future, auto& destination) {
    try {
      destination = future.get();
    } catch (...) {
      if (!first_failure) first_failure = std::current_exception();
    }
  };

  std::size_t cell_index = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    ComparisonRow& row = comparison.rows[s];
    row.stream_name = streams[s].name;
    harvest(binary_futures[s], row.binary);
    row.cells.resize(codec_names.size());
    for (std::size_t c = 0; c < codec_names.size(); ++c, ++cell_index) {
      harvest(cell_futures[cell_index], row.cells[c]);
      row.cells[c].savings_percent = SavingsPercent(
          row.cells[c].result.transitions, row.binary.transitions);
    }
  }
  if (first_failure) std::rethrow_exception(first_failure);
  return comparison;
}

}  // namespace

std::vector<double> Comparison::average_savings() const {
  std::vector<double> averages(codec_names.size(), 0.0);
  if (rows.empty()) return averages;
  for (const ComparisonRow& row : rows) {
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      averages[c] += row.cells[c].savings_percent;
    }
  }
  for (double& a : averages) a /= static_cast<double>(rows.size());
  return averages;
}

double Comparison::average_in_sequence_percent() const {
  if (rows.empty()) return 0.0;
  double sum = 0.0;
  for (const ComparisonRow& row : rows) {
    sum += row.binary.in_sequence_percent;
  }
  return sum / static_cast<double>(rows.size());
}

Comparison RunComparison(
    const std::vector<std::string>& codec_names,
    const std::vector<NamedStream>& streams, const CodecOptions& options,
    const std::function<void(const std::string&, CodecOptions&)>& configure,
    const RunOptions& run) {
  const unsigned parallelism =
      run.parallelism == 0 ? ThreadPool::DefaultParallelism()
                           : run.parallelism;
  obs::MetricsRegistry* registry = obs::Installed();
  const double start = registry ? obs::MonotonicSeconds() : 0.0;
  Comparison comparison =
      (parallelism <= 1 || streams.empty())
          ? RunComparisonSequential(codec_names, streams, options, configure)
          : RunComparisonParallel(codec_names, streams, options, configure,
                                  parallelism);
  if (registry) {
    const double elapsed = obs::MonotonicSeconds() - start;
    std::size_t words = 0;  // every evaluated access, reference included
    for (const NamedStream& stream : streams) {
      words += stream.size() * (codec_names.size() + 1);
    }
    registry->GetCounter("experiment.runs").Increment();
    registry->GetGauge("experiment.run_seconds").Add(elapsed);
    if (elapsed > 0.0) {
      registry->GetGauge("experiment.words_per_second")
          .Set(static_cast<double>(words) / elapsed);
    }
  }
  return comparison;
}

}  // namespace abenc
