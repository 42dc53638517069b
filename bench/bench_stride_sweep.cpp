// Ablation: the paper notes the T0 increment "can be parametric,
// reflecting the addressability scheme adopted in the given architecture".
// This bench quantifies the cost of getting the stride wrong: T0 savings
// on the real benchmark instruction streams (word-addressed, stride 4)
// when the codec is configured with S = 1, 2, 4, 8, 16.
#include <iostream>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "report/table.h"
#include "sim/program_library.h"

int main() {
  using namespace abenc;

  const std::vector<Word> strides = {1, 2, 4, 8, 16};

  std::vector<std::string> headers = {"Benchmark"};
  for (Word s : strides) headers.push_back("T0 S=" + std::to_string(s));
  TextTable table(std::move(headers));

  std::cout << "Ablation: T0 savings on instruction streams vs configured "
               "stride\n(the machine is word-addressed: S = 4 is correct)\n\n";

  std::vector<double> sums(strides.size(), 0.0);
  std::size_t rows = 0;
  for (const sim::BenchmarkProgram& program : sim::BenchmarkPrograms()) {
    const auto accesses =
        sim::RunBenchmark(program).instruction().ToBusAccesses();

    CodecOptions options;
    auto binary = MakeCodec("binary", options);
    const EvalResult base =
        Evaluate(*binary, accesses, options.stride, true);

    std::vector<std::string> row = {program.name};
    for (std::size_t i = 0; i < strides.size(); ++i) {
      options.stride = strides[i];
      auto codec = MakeCodec("t0", options);
      const EvalResult r = Evaluate(*codec, accesses, options.stride, true);
      const double savings =
          SavingsPercent(r.transitions, base.transitions);
      sums[i] += savings;
      row.push_back(FormatPercent(savings));
    }
    table.AddRow(std::move(row));
    ++rows;
  }

  std::vector<std::string> average = {"Average"};
  for (double s : sums) {
    average.push_back(FormatPercent(s / static_cast<double>(rows)));
  }
  table.AddRule();
  table.AddRow(std::move(average));
  std::cout << table.ToString();
  std::cout << "\nA mis-configured stride silently degrades T0 to binary\n"
               "(the INC line simply never fires).\n";
  return 0;
}
