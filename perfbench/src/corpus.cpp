#include "corpus.h"

#include "bench.h"
#include "sim/program_library.h"
#include "trace/mmap_trace.h"
#include "trace/trace.h"

namespace perfbench {

Corpus CaptureCorpus(Tracer& tracer) {
  Corpus corpus;
  for (const abenc::sim::BenchmarkProgram& program :
       abenc::sim::BenchmarkPrograms()) {
    ScopedSpan span(tracer, "sim.RunBenchmark");
    // Keep only the multiplexed stream; the split streams are dropped
    // with the ProgramTraces at the end of this iteration.
    const abenc::sim::ProgramTraces traces =
        abenc::sim::RunBenchmark(program);
    corpus.names.push_back(program.name);
    corpus.streams.push_back(traces.multiplexed.ToBusAccesses());
    span.items = corpus.streams.back().size();
  }
  return corpus;
}

std::vector<Window> CutWindows(const Corpus& corpus, std::size_t length,
                               std::uint64_t seed) {
  std::vector<Window> windows;
  for (std::size_t s = 0; s < corpus.streams.size(); ++s) {
    for (std::size_t at = 0; at + length <= corpus.streams[s].size();
         at += length) {
      windows.push_back(Window{s, at, length});
    }
  }
  Rng rng(seed ^ (0xC0FFEEULL * length));
  Shuffle(windows, rng);
  return windows;
}

void WriteWindow(const Corpus& corpus, const Window& window,
                 const std::string& path) {
  abenc::AddressTrace trace(corpus.names[window.stream]);
  trace.Reserve(window.length);
  for (const abenc::BusAccess& access : View(corpus, window)) {
    trace.Append(access.address, access.sel ? abenc::AccessKind::kInstruction
                                            : abenc::AccessKind::kData);
  }
  abenc::WriteColumnarTrace(path, trace);
}

Columns ToColumns(std::span<const abenc::BusAccess> accesses) {
  Columns columns;
  columns.addresses.reserve(accesses.size());
  columns.sel.reserve(accesses.size());
  for (const abenc::BusAccess& access : accesses) {
    columns.addresses.push_back(access.address);
    columns.sel.push_back(access.sel ? 1 : 0);
  }
  return columns;
}

}  // namespace perfbench
