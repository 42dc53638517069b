// Extension: what fault tolerance costs, per code and protection layer.
//
// Each code from the resilience study is run through a BusChannel four
// ways — bare, with one parity line, with width-generic SECDED, and with
// a resync beacon (K = 64, no ECC) — over the gzip multiplexed stream.
// Table A charges the check/beacon overhead against the paper's
// Tables 2-4 savings (savings are vs the *bare binary* bus, so the
// columns answer: how much of the power win survives each protection
// level?). Table B reports what each level buys back in resilience:
// average corrupted addresses per single-line upset and the worst-case
// recovery span.
#include <algorithm>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "bench/bench_util.h"
#include "channel/fault_models.h"
#include "channel/upset.h"
#include "core/stream_evaluator.h"
#include "report/json_writer.h"
#include "report/table.h"
#include "sim/program_library.h"

namespace {

using namespace abenc;

ChannelConfig Configure(const std::string& code, Protection protection,
                        std::size_t resync_period) {
  ChannelConfig config;
  config.codec_name = code;
  config.protection = protection;
  config.resync_period = resync_period;
  return config;
}

double TransitionsPerCycle(const ChannelConfig& config,
                           std::span<const BusAccess> stream) {
  BusChannel channel(config);
  return RunStream(channel, stream).average_transitions_per_cycle();
}

// Worst recovery span over a deterministic probe grid (the same grid
// bench_error_resilience uses, plus a redundant-line probe).
std::size_t WorstRecovery(const ChannelConfig& config,
                          std::span<const BusAccess> stream) {
  BusChannel probe(config);
  std::size_t worst = 0;
  for (std::size_t cycle = 500; cycle < stream.size();
       cycle += stream.size() / 8) {
    for (unsigned line : {5u, probe.total_lines() - 1}) {
      worst = std::max(
          worst, MeasureSingleUpset(config, stream, cycle, line)
                     .recovery_cycles);
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace abenc;

  const bench::BenchOptions bench_options =
      bench::ParseBenchOptions(argc, argv);
  // Installed before any BusChannel is built so the channels' counters
  // (fault injections, SECDED repairs, recovery dwell) resolve and record.
  bench::MetricsSession metrics(bench_options.metrics_path);

  const sim::ProgramTraces traces =
      sim::RunBenchmark(sim::FindBenchmarkProgram("gzip"));
  auto accesses = traces.multiplexed.ToBusAccesses();
  accesses.resize(std::min<std::size_t>(accesses.size(), 20000));
  constexpr std::size_t kBeaconPeriod = 64;
  constexpr std::size_t kInjections = 24;

  const std::vector<std::string> codes = UpsetStudyCodecNames();

  std::cout << "Extension: power overhead vs recovery bound per protection "
               "layer\n(gzip multiplexed stream, "
            << accesses.size() << " references; savings vs bare binary)\n\n";

  const double binary_tpc =
      TransitionsPerCycle(Configure("binary", Protection::kNone, 0),
                          accesses);
  const long long binary_total =
      static_cast<long long>(binary_tpc * static_cast<double>(accesses.size()));

  // The machine-readable mirror of both tables (one outcome per
  // (code, layer) pair), emitted with --json.
  ProtectionStudy study;
  study.stream_name = "gzip-multiplexed";
  const std::vector<std::pair<std::string,
                              std::pair<Protection, std::size_t>>> layers = {
      {"none", {Protection::kNone, 0}},
      {"parity", {Protection::kParity, 0}},
      {"secded", {Protection::kSecded, 0}},
      {"beacon64", {Protection::kNone, kBeaconPeriod}}};

  TextTable power({"Code", "Bare t/c", "Sav.%", "+Parity", "Sav.%",
                   "+SECDED", "Sav.%", "+Beacon64", "Sav.%"});
  for (const std::string& code : codes) {
    std::vector<std::string> row = {code};
    for (const auto& [layer_name, layer] : layers) {
      const auto& [protection, period] = layer;
      const double tpc =
          TransitionsPerCycle(Configure(code, protection, period), accesses);
      const long long total =
          static_cast<long long>(tpc * static_cast<double>(accesses.size()));
      row.push_back(FormatFixed(tpc, 2));
      row.push_back(FormatFixed(SavingsPercent(total, binary_total), 1));
      ProtectionOutcome outcome;
      outcome.codec = code;
      outcome.protection = layer_name;
      outcome.transitions_per_cycle = tpc;
      outcome.savings_percent = SavingsPercent(total, binary_total);
      study.outcomes.push_back(std::move(outcome));
    }
    power.AddRow(row);
  }
  std::cout << power.ToString() << '\n';

  auto outcome_of = [&study](const std::string& code,
                             const std::string& layer_name)
      -> ProtectionOutcome& {
    for (ProtectionOutcome& outcome : study.outcomes) {
      if (outcome.codec == code && outcome.protection == layer_name) {
        return outcome;
      }
    }
    throw std::logic_error("unknown (code, layer): " + code + ", " +
                           layer_name);
  };

  // Table B uses a shorter stream: each cell is kInjections full runs.
  auto probe_stream = accesses;
  probe_stream.resize(std::min<std::size_t>(probe_stream.size(), 12000));
  TextTable damage({"Code", "Corr/upset bare", "Corr/upset +SECDED",
                    "Worst recovery bare", "Worst recovery +Beacon64"});
  for (const std::string& code : codes) {
    const ChannelConfig bare = Configure(code, Protection::kNone, 0);
    const ChannelConfig secded = Configure(code, Protection::kSecded, 0);
    const ChannelConfig beacon =
        Configure(code, Protection::kNone, kBeaconPeriod);
    const double bare_corruption =
        AverageUpsetCorruption(bare, probe_stream, kInjections, 77);
    const double secded_corruption =
        AverageUpsetCorruption(secded, probe_stream, kInjections, 77);
    const std::size_t bare_recovery = WorstRecovery(bare, probe_stream);
    const std::size_t beacon_recovery = WorstRecovery(beacon, probe_stream);
    outcome_of(code, "none").average_corruption = bare_corruption;
    outcome_of(code, "none").worst_recovery_cycles = bare_recovery;
    outcome_of(code, "secded").average_corruption = secded_corruption;
    outcome_of(code, "beacon64").worst_recovery_cycles = beacon_recovery;
    damage.AddRow(
        {code, FormatFixed(bare_corruption, 2),
         FormatFixed(secded_corruption, 2),
         FormatCount(static_cast<long long>(bare_recovery)),
         FormatCount(static_cast<long long>(beacon_recovery))});
  }
  std::cout << damage.ToString();

  if (!bench_options.json_path.empty()) {
    WriteJsonFile(bench_options.json_path, ProtectionStudyToJson(study));
    std::cout << "\nJSON written to " << bench_options.json_path << "\n";
  }

  std::cout << "\nReading the two tables together: SECDED zeroes the damage\n"
               "column outright for every code — any single flipped line,\n"
               "check lines included, is located and repaired before the\n"
               "decoder sees it — at the price of 7 extra lines' worth of\n"
               "transitions. The parity line costs almost nothing but only\n"
               "*detects* (feeding the recovery state machine); the beacon\n"
               "keeps the full code savings minus a verbatim cycle every\n"
               "64, and in exchange caps the history codes' worst-case\n"
               "smear at the beacon period.\n";
  metrics.WriteIfEnabled();
  return 0;
}
