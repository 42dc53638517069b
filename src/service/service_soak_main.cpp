// service_soak: the soak core run in-process (service/soak.h).
// Opens --sessions simultaneous planned sessions, pushes every stream
// through the bounded admission path from --clients threads, drains,
// and puts each session through the core's gate.
//
// Exit status: 0 soak passed; 1 verification failures; 2 time budget
// exceeded or bad usage. See EXPERIMENTS.md for the flag reference.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "core/cli_flags.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "service/soak.h"

namespace {

using abenc::MatchCount;
using abenc::MatchFlag;
using abenc::MatchFraction;
using abenc::service::ParseSoakFlag;
using abenc::service::ReportSoakExit;
using abenc::service::RunSoak;
using abenc::service::SoakOptions;
using abenc::service::SoakOutcome;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "service_soak: " << error << "\n"
            << "usage: service_soak [--sessions N] [--length N]\n"
            << "  [--shards N] [--parallelism N] [--clients N] [--seed N]\n"
            << "  [--codec NAME] [--queue-cap N] [--watermark N]\n"
            << "  [--chunk N] [--fault-fraction F]\n"
            << "  [--renegotiate-fraction F] [--columnar-fraction F]\n"
            << "  [--evict-idle N] [--budget N] [--stall-shard]\n"
            << "  [--time-budget-s F] [--metrics PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions options;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    try {
      if (ParseSoakFlag(argc, argv, i, options) ||
          MatchCount("--sessions", argc, argv, i, options.sessions) ||
          MatchFraction("--columnar-fraction", argc, argv, i,
                        options.columnar_fraction) ||
          MatchCount("--evict-idle", argc, argv, i, options.idle_evict_steps) ||
          MatchCount("--budget", argc, argv, i, options.access_budget) ||
          MatchFlag("--metrics", argc, argv, i, metrics_path)) {
        continue;
      }
    } catch (const std::invalid_argument& e) {
      Usage(e.what());
    }
    if (std::string_view(argv[i]) == "--stall-shard") {
      options.stall_shard = true;
    } else {
      Usage(std::string("unknown flag ") + argv[i]);
    }
  }

  std::unique_ptr<abenc::obs::MetricsRegistry> registry;
  std::unique_ptr<abenc::obs::ScopedInstall> install;
  if (!metrics_path.empty()) {
    registry = std::make_unique<abenc::obs::MetricsRegistry>();
    install = std::make_unique<abenc::obs::ScopedInstall>(registry.get());
  }

  SoakOutcome outcome;
  try {
    outcome = RunSoak(options);
  } catch (const std::exception& e) {
    std::cerr << "service_soak: fatal: " << e.what() << "\n";
    return 1;
  }

  std::cout << "service_soak: " << outcome.sessions << " sessions, "
            << outcome.accesses << " accesses in " << outcome.elapsed_s
            << "s\n"
            << "  transport: " << outcome.corrected_transfers
            << " corrected, " << outcome.recovered_transfers
            << " recovered, " << outcome.degraded_transfers
            << " degraded deliveries\n"
            << "  sessions degraded: " << outcome.degraded_sessions
            << ", evicted: " << outcome.evicted_sessions
            << " (idle sweeps evicted " << outcome.idle_evictions << ")"
            << ", rejected batches (resubmitted): "
            << outcome.rejected_batches
            << ", failovers: " << outcome.failovers << "\n"
            << "  renegotiation: " << outcome.renegotiations
            << " acked switches, " << outcome.renegotiate_refusals
            << " clean refusals; columnar sessions: "
            << outcome.columnar_sessions << "\n";

  if (!metrics_path.empty()) {
    abenc::obs::WriteMetricsFile(metrics_path, *registry);
    std::cout << "  metrics written to " << metrics_path << "\n";
  }
  return ReportSoakExit("service_soak", outcome, options.time_budget_s);
}
