// Extension: the reliability price of redundancy. Every code is hit with
// random single-bit bus upsets on a benchmark multiplexed stream; the
// table reports the average number of corrupted decoded addresses per
// upset and the worst observed propagation. Plain binary and the invert
// codes corrupt exactly one address; the history-carrying codes smear the
// error until they resynchronise — the hidden cost of the power savings.
#include <algorithm>
#include <iostream>
#include <tuple>

#include "channel/upset.h"
#include "core/resilience.h"
#include "report/table.h"
#include "sim/program_library.h"

int main() {
  using namespace abenc;

  const sim::ProgramTraces traces =
      sim::RunBenchmark(sim::FindBenchmarkProgram("gzip"));
  auto accesses = traces.multiplexed.ToBusAccesses();
  accesses.resize(std::min<std::size_t>(accesses.size(), 20000));
  const CodecOptions options;

  std::cout << "Extension: damage per single-bit bus upset (gzip "
               "multiplexed stream, " << accesses.size()
            << " references, 60 random injections per code)\n\n";

  TextTable table({"Code", "Avg corrupted addrs", "Worst observed",
                   "Worst recovery (cycles)"});
  constexpr std::size_t kInjections = 60;
  for (const std::string& name : UpsetStudyCodecNames()) {
    const double average =
        AverageUpsetCorruption(name, options, accesses, kInjections, 77);
    // Probe a few fixed spots for the worst case.
    std::size_t worst = 0;
    std::size_t worst_recovery = 0;
    for (std::size_t cycle = 500; cycle < accesses.size();
         cycle += accesses.size() / 12) {
      const UpsetResult r =
          MeasureSingleUpset(name, options, accesses, cycle, 5);
      worst = std::max(worst, r.corrupted_addresses);
      worst_recovery = std::max(worst_recovery, r.recovery_cycles);
    }
    table.AddRow({name, FormatFixed(average, 2),
                  FormatCount(static_cast<long long>(worst)),
                  FormatCount(static_cast<long long>(worst_recovery))});
  }
  std::cout << table.ToString();

  // Protected variants: the same experiment through the channel layer.
  // SECDED corrects any single flipped line before the decoder sees it;
  // a period-64 resync beacon leaves corruption in but caps how long a
  // history code can smear it.
  std::cout << "\nProtected variants (channel layer, 20 injections per "
               "row):\n\n";
  TextTable protected_table({"Code", "Protection", "Avg corrupted addrs",
                             "Worst recovery (cycles)"});
  constexpr std::size_t kProtectedInjections = 20;
  constexpr std::size_t kBeaconPeriod = 64;
  for (const std::string& name :
       {std::string("t0"), std::string("dual-t0-bi"), std::string("offset"),
        std::string("inc-xor"), std::string("working-zone"),
        std::string("mtf")}) {
    for (const auto& [protection, period, label] :
         {std::tuple{Protection::kSecded, std::size_t{0}, "secded"},
          std::tuple{Protection::kNone, kBeaconPeriod, "beacon-64"}}) {
      ChannelConfig config;
      config.codec_name = name;
      config.protection = protection;
      config.resync_period = period;
      const double average =
          AverageUpsetCorruption(config, accesses, kProtectedInjections, 77);
      std::size_t worst_recovery = 0;
      for (std::size_t cycle = 500; cycle < accesses.size();
           cycle += accesses.size() / 12) {
        worst_recovery = std::max(
            worst_recovery,
            MeasureSingleUpset(config, accesses, cycle, 5).recovery_cycles);
      }
      protected_table.AddRow(
          {name, label, FormatFixed(average, 2),
           FormatCount(static_cast<long long>(worst_recovery))});
    }
  }
  std::cout << protected_table.ToString();

  std::cout << "\nThree regimes: stateless decodes (binary, Gray,\n"
               "bus-invert) lose exactly one address. The T0 family is\n"
               "nearly as good — during frozen cycles the decoder ignores\n"
               "the data lines entirely, so most upsets are absorbed, and\n"
               "a poisoned regeneration base resyncs at the next binary\n"
               "cycle. The accumulating decoders (offset, INC-XOR) and the\n"
               "dictionary codes (working-zone, MTF) can smear one flip\n"
               "across thousands of addresses: the hidden reliability\n"
               "price of their power savings.\n";
  return 0;
}
