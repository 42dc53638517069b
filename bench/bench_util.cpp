#include "bench/bench_util.h"

#include <iostream>

#include "core/cli_flags.h"
#include "core/codec_factory.h"
#include "core/experiment.h"
#include "obs/metrics_json.h"
#include "report/json_writer.h"
#include "report/table.h"
#include "trace/trace_source.h"

namespace abenc::bench {

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (MatchFlag("--json", argc, argv, i, options.json_path)) continue;
    if (MatchCount("--parallelism", argc, argv, i, options.parallelism)) {
      continue;
    }
    MatchFlag("--metrics", argc, argv, i, options.metrics_path);
    // Anything else is ignored.
  }
  return options;
}

MetricsSession::MetricsSession(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  registry_ = std::make_unique<obs::MetricsRegistry>();
  install_.emplace(registry_.get());
}

MetricsSession::~MetricsSession() = default;

void MetricsSession::WriteIfEnabled() {
  if (!enabled()) return;
  obs::WriteMetricsFile(path_, *registry_);
  std::cout << "metrics written to " << path_ << "\n";
}

AddressTrace SelectStream(sim::ProgramTraces traces, StreamKind kind) {
  switch (kind) {
    case StreamKind::kInstruction: return traces.instruction();
    case StreamKind::kData: return traces.data();
    case StreamKind::kMultiplexed: break;
  }
  return std::move(traces.multiplexed);
}

void PrintExperimentalTable(const std::string& title, StreamKind kind,
                            const std::vector<std::string>& codec_names,
                            const BenchOptions& bench_options) {
  const CodecOptions options;  // 32-bit bus, stride 4: the MIPS setup

  // Installed before the ISS runs so the whole pipeline — benchmark
  // execution, stream capture, experiment engine — records into it.
  MetricsSession metrics(bench_options.metrics_path);

  // Streams are handed to the engine as TraceSources: the engine reads
  // fixed-size chunks straight out of the captured trace instead of
  // materializing a second full-size BusAccess copy per stream.
  std::vector<NamedStream> streams;
  for (const sim::BenchmarkProgram& program : sim::BenchmarkPrograms()) {
    auto source =
        MakeTraceSource(SelectStream(sim::RunBenchmark(program), kind));
    streams.push_back(NamedStream{program.name, {}, std::move(source)});
  }

  RunOptions run;
  run.parallelism = bench_options.parallelism;
  const Comparison comparison =
      RunComparison(codec_names, streams, options, nullptr, run);

  std::vector<std::string> headers = {"Benchmark", "Stream Length",
                                      "In-Seq Addr.", "Binary Trans."};
  for (const std::string& name : codec_names) {
    const auto codec = MakeCodec(name, options);
    headers.push_back(codec->display_name() + " Trans.");
    headers.push_back("Savings");
  }
  TextTable table(headers);

  for (const ComparisonRow& row : comparison.rows) {
    std::vector<std::string> cells = {
        row.stream_name,
        FormatCount(static_cast<long long>(row.binary.stream_length)),
        FormatPercent(row.binary.in_sequence_percent),
        FormatCount(row.binary.transitions)};
    for (const ComparisonCell& cell : row.cells) {
      cells.push_back(FormatCount(cell.result.transitions));
      cells.push_back(FormatPercent(cell.savings_percent));
    }
    table.AddRow(std::move(cells));
  }

  std::vector<std::string> average = {
      "Average", "", FormatPercent(comparison.average_in_sequence_percent()),
      ""};
  for (double savings : comparison.average_savings()) {
    average.push_back("");
    average.push_back(FormatPercent(savings));
  }
  table.AddRule();
  table.AddRow(std::move(average));

  std::cout << title << "\n" << table.ToString() << "\n";

  if (!bench_options.json_path.empty()) {
    WriteJsonFile(bench_options.json_path,
                  ComparisonToJson(comparison, title));
    std::cout << "JSON written to " << bench_options.json_path << "\n";
  }
  metrics.WriteIfEnabled();
}

}  // namespace abenc::bench
