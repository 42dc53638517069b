// Extension: the codes on a DRAM's multiplexed row/column address pins
// behind the memory controller — the paper's "main memory" bus. The
// post-L1 miss streams of the nine benchmarks are converted to RAS/CAS
// cycles (open-page policy) and each code is scored on the narrow DRAM
// address bus. The RAS/CAS strobe stands in for SEL, so the dual codes
// apply unchanged; T0-family strides are 1 (columns step by words within
// a burst).
#include <iostream>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "report/table.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/program_library.h"

int main() {
  using namespace abenc;
  using sim::CacheConfig;

  const CacheConfig l1{16, 128, 2};
  const sim::DramConfig dram;  // 10 column bits, 12 row bits, open page

  CodecOptions options;
  options.width = dram.bus_width();
  options.stride = 4;  // a 16-byte line fetch steps the column by 4 words

  const std::vector<std::string> codes = {"t0", "bus-invert", "dual-t0-bi"};
  std::vector<std::string> headers = {"Benchmark", "Bus cycles",
                                      "Page hits", "In-Seq"};
  for (const auto& name : codes) {
    headers.push_back(MakeCodec(name, options)->display_name());
  }
  // The dual codes gate their T0 section on SEL; on a DRAM bus the
  // sequential phase is the CAS cycle, so the sensible gating asserts
  // "SEL" on columns, not rows. Report that variant explicitly.
  headers.push_back("Dual T0_BI (CAS-gated)");
  TextTable table(std::move(headers));

  std::cout << "Extension: codes on the DRAM row/column address pins\n"
            << "(post-L1 data misses; " << dram.row_bits << "-bit rows, "
            << dram.column_bits << "-bit columns, open-page; RAS/CAS acts "
               "as SEL)\n\n";

  std::vector<double> sums(codes.size() + 1, 0.0);
  double hit_sum = 0.0;
  std::size_t rows = 0;
  for (const sim::BenchmarkProgram& program : sim::BenchmarkPrograms()) {
    const sim::CachedProgramTraces cached =
        sim::RunBenchmarkWithCaches(program, l1, l1);
    sim::DramBusStats stats;
    const AddressTrace bus =
        sim::ToDramBusTrace(cached.external.data(), dram, &stats);
    if (bus.size() < 32) continue;  // cache-resident kernel
    const auto accesses = bus.ToBusAccesses();

    auto binary = MakeCodec("binary", options);
    const EvalResult base =
        Evaluate(*binary, accesses, options.stride, true);

    std::vector<std::string> row = {
        program.name, FormatCount(static_cast<long long>(bus.size())),
        FormatPercent(100.0 * stats.page_hit_rate()),
        FormatPercent(base.in_sequence_percent)};
    hit_sum += 100.0 * stats.page_hit_rate();
    for (std::size_t c = 0; c < codes.size(); ++c) {
      auto codec = MakeCodec(codes[c], options);
      const EvalResult r = Evaluate(*codec, accesses, options.stride, true);
      const double savings =
          SavingsPercent(r.transitions, base.transitions);
      sums[c] += savings;
      row.push_back(FormatPercent(savings));
    }
    {
      // CAS-gated dual code: flip SEL so the T0 section tracks columns.
      std::vector<BusAccess> flipped = accesses;
      for (BusAccess& a : flipped) a.sel = !a.sel;
      auto codec = MakeCodec("dual-t0-bi", options);
      const EvalResult r = Evaluate(*codec, flipped, options.stride, true);
      const double savings =
          SavingsPercent(r.transitions, base.transitions);
      sums[codes.size()] += savings;
      row.push_back(FormatPercent(savings));
    }
    table.AddRow(std::move(row));
    ++rows;
  }

  std::vector<std::string> average = {
      "Average", "", FormatPercent(hit_sum / static_cast<double>(rows)), ""};
  for (double s : sums) {
    average.push_back(FormatPercent(s / static_cast<double>(rows)));
  }
  table.AddRule();
  table.AddRow(std::move(average));
  std::cout << table.ToString();
  std::cout << "\nPlain T0 wins on page-friendly kernels (consecutive CAS\n"
               "cycles are adjacent on the bus); the row-gated dual code\n"
               "is useless here — rows are never sequential — but the\n"
               "CAS-gated variant tracks column bursts across interleaved\n"
               "row cycles: picking what SEL means per bus is exactly the\n"
               "per-hierarchy tailoring the paper's future work calls for.\n";
  return 0;
}
