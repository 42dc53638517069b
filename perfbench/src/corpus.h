// The address streams every workload cuts its inputs from: the nine
// ISS-captured multiplexed streams of the paper's benchmark programs
// (sim::RunBenchmark), so no workload runs on guessed traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "spans.h"

namespace perfbench {

struct Corpus {
  std::vector<std::string> names;
  std::vector<std::vector<abenc::BusAccess>> streams;
};

/// Runs the nine paper programs on the ISS and keeps their multiplexed
/// bus streams (one "sim.RunBenchmark" span per program).
Corpus CaptureCorpus(Tracer& tracer);

struct Window {
  std::size_t stream = 0;
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Every non-overlapping `length`-access window of every stream, in an
/// order the seed picks.
std::vector<Window> CutWindows(const Corpus& corpus, std::size_t length,
                               std::uint64_t seed);

inline std::span<const abenc::BusAccess> View(const Corpus& corpus,
                                              const Window& window) {
  return std::span<const abenc::BusAccess>(corpus.streams[window.stream])
      .subspan(window.offset, window.length);
}

/// Packs a window into a columnar .ctrace file at `path`
/// (WriteColumnarTrace; SEL asserted = instruction slot).
void WriteWindow(const Corpus& corpus, const Window& window,
                 const std::string& path);

/// Column copies of a window (the layout Codec::EncodeColumns and the
/// SUBMIT_STREAM encoder read).
struct Columns {
  std::vector<abenc::Word> addresses;
  std::vector<std::uint8_t> sel;
};
Columns ToColumns(std::span<const abenc::BusAccess> accesses);

}  // namespace perfbench
