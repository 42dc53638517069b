// The adaptive meta-codec's bench: phase-changing and mixed-phase
// streams where no single member code wins everywhere, so the per-window
// selector has room to show (or lose) its margin. Rows are exact
// transition counts via the experiment engine; --json emits the
// `abenc.comparison.v1` document the CI regression gate diffs against
// bench/baselines/adaptive.json.
//
// Every stream is generated from SplitMix64 alone (no std distributions,
// whose output is implementation-defined), so the committed baseline is
// bit-identical across platforms.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/adaptive_codec.h"
#include "core/codec_factory.h"
#include "core/experiment.h"
#include "report/json_writer.h"
#include "report/table.h"
#include "verify/stream_gen.h"

namespace abenc {
namespace {

constexpr unsigned kWidth = 32;
constexpr Word kStride = 4;

/// Phase generators: each appends `length` accesses of one regime.
void SequentialPhase(std::vector<BusAccess>& stream, Word base, Word stride,
                     std::size_t length) {
  const Word mask = LowMask(kWidth);
  for (std::size_t i = 0; i < length; ++i) {
    stream.push_back(BusAccess{(base + stride * i) & mask, true});
  }
}

void RandomPhase(std::vector<BusAccess>& stream, std::uint64_t& chain,
                 std::size_t length) {
  const Word mask = LowMask(kWidth);
  for (std::size_t i = 0; i < length; ++i) {
    stream.push_back(BusAccess{verify::MixSeed(chain++) & mask, true});
  }
}

void AlternatingPhase(std::vector<BusAccess>& stream, std::size_t length) {
  const Word mask = LowMask(kWidth);
  for (std::size_t i = 0; i < length; ++i) {
    stream.push_back(BusAccess{i % 2 == 0 ? Word{0} : mask, true});
  }
}

std::vector<NamedStream> PhaseStreams() {
  std::vector<NamedStream> streams;

  // Abrupt stride changes: the configured stride (T0 freezes the bus)
  // against a stride-1 scan (Gray's single-toggle regime).
  {
    std::vector<BusAccess> s;
    std::uint64_t chain = 0x5742101;
    for (int cycle = 0; cycle < 8; ++cycle) {
      SequentialPhase(s, verify::MixSeed(chain++) & ~Word{0xFFF}, kStride,
                      512);
      SequentialPhase(s, verify::MixSeed(chain++) & ~Word{0xFFF}, 1, 512);
    }
    streams.emplace_back("phase-stride4-stride1", std::move(s));
  }

  // Sequential runs against uniform noise (bus-invert's regime).
  {
    std::vector<BusAccess> s;
    std::uint64_t chain = 0x5EC7A2D;
    for (int cycle = 0; cycle < 8; ++cycle) {
      SequentialPhase(s, verify::MixSeed(chain++) & ~Word{0xFFF}, kStride,
                      512);
      RandomPhase(s, chain, 512);
    }
    streams.emplace_back("phase-seq-random", std::move(s));
  }

  // Sequential runs against worst-case alternating patterns, where
  // bus-invert caps the toggle bill at one line.
  {
    std::vector<BusAccess> s;
    std::uint64_t chain = 0x5EC2A17;
    for (int cycle = 0; cycle < 8; ++cycle) {
      SequentialPhase(s, verify::MixSeed(chain++) & ~Word{0xFFF}, kStride,
                      512);
      AlternatingPhase(s, 512);
    }
    streams.emplace_back("phase-seq-alternating", std::move(s));
  }

  // The acceptance gate's three-regime mix, at bench scale.
  {
    std::vector<BusAccess> s;
    std::uint64_t chain = 0x3D1FEED;
    for (int cycle = 0; cycle < 8; ++cycle) {
      SequentialPhase(s, verify::MixSeed(chain++) & ~Word{0xFFF}, kStride,
                      512);
      SequentialPhase(s, verify::MixSeed(chain++) & ~Word{0xFFF}, 1, 512);
      RandomPhase(s, chain, 512);
    }
    streams.emplace_back("mixed-three-regime", std::move(s));
  }

  return streams;
}

}  // namespace
}  // namespace abenc

int main(int argc, char** argv) {
  using namespace abenc;

  const bench::BenchOptions bench_options =
      bench::ParseBenchOptions(argc, argv);
  bench::MetricsSession metrics(bench_options.metrics_path);

  CodecOptions options;
  options.width = kWidth;
  options.stride = kStride;

  std::vector<std::string> codecs = AdaptiveCodec::DefaultPalette();
  codecs.push_back("adaptive");

  RunOptions run;
  run.parallelism = bench_options.parallelism;
  const std::string title =
      "Adaptive meta-codec on phase-changing streams (32-bit bus, "
      "window 64, hysteresis 16)";
  const Comparison comparison =
      RunComparison(codecs, PhaseStreams(), options, nullptr, run);

  std::vector<std::string> headers = {"Stream", "Length", "Binary Trans."};
  for (const std::string& name : codecs) {
    headers.push_back(MakeCodec(name, options)->display_name() + " Trans.");
    headers.push_back("Savings");
  }
  TextTable table(std::move(headers));
  for (const ComparisonRow& row : comparison.rows) {
    std::vector<std::string> cells = {
        row.stream_name, std::to_string(row.binary.stream_length),
        std::to_string(row.binary.transitions)};
    for (const ComparisonCell& cell : row.cells) {
      cells.push_back(std::to_string(cell.result.transitions));
      cells.push_back(FormatPercent(cell.savings_percent));
    }
    table.AddRow(std::move(cells));
  }
  std::vector<std::string> average = {"Average", "", ""};
  for (double savings : comparison.average_savings()) {
    average.push_back("");
    average.push_back(FormatPercent(savings));
  }
  table.AddRule();
  table.AddRow(std::move(average));

  std::cout << title << "\n" << table.ToString() << "\n";
  std::cout << "Adaptive wins wherever the regime dwell time amortizes\n"
               "the one-window decision lag (and must never lose to\n"
               "binary); on phase-seq-alternating the lag is the whole\n"
               "story — each stale window burns ~32 toggles/word until\n"
               "the switch lands, which is exactly the hysteresis\n"
               "trade the window knob controls.\n"
               "tests/adaptive_acceptance_test asserts the hard claims:\n"
               "strictly best on the three-regime mix, never worse than\n"
               "binary on the nine paper streams.\n";

  if (!bench_options.json_path.empty()) {
    WriteJsonFile(bench_options.json_path, ComparisonToJson(comparison, title));
    std::cout << "JSON written to " << bench_options.json_path << "\n";
  }
  metrics.WriteIfEnabled();
  return 0;
}
