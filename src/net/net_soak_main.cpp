// net_soak: the soak core over the wire (net/net_soak.h). Serves the
// planned sessions from a loopback abenc_serve to --clients concurrent
// connections (a --disconnect-fraction of them killed mid-stream and
// resumed via ATTACH) while --fuzz hostile connections walk the
// protocol-violation catalogue, and puts each session through the
// core's gate.
//
// Exit status: 0 soak passed; 1 verification failures; 2 time budget
// exceeded or bad usage. See EXPERIMENTS.md for the flag reference.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "core/cli_flags.h"
#include "net/net_soak.h"

namespace {

using abenc::MatchCount;
using abenc::MatchFlag;
using abenc::MatchFraction;
using abenc::MatchMillis;
using abenc::net::NetSoakOptions;
using abenc::net::NetSoakOutcome;
using abenc::net::RunNetSoak;
using abenc::service::ParseSoakFlag;
using abenc::service::ReportSoakExit;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "net_soak: " << error << "\n"
            << "usage: net_soak [--clients N] [--sessions-per-client N]\n"
            << "  [--length N] [--seed N] [--codec NAME] [--chunk N]\n"
            << "  [--queue-cap N] [--watermark N] [--fault-fraction F]\n"
            << "  [--disconnect-fraction F] [--renegotiate-fraction F]\n"
            << "  [--pipeline-fraction F] [--shards N] [--parallelism N]\n"
            << "  [--fuzz N] [--endpoint tcp:HOST:PORT|unix:PATH]\n"
            << "  [--io-timeout-ms N] [--time-budget-s F]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  NetSoakOptions options;
  for (int i = 1; i < argc; ++i) {
    try {
      if (ParseSoakFlag(argc, argv, i, options) ||
          MatchCount("--sessions-per-client", argc, argv, i,
                     options.sessions_per_client) ||
          MatchFraction("--disconnect-fraction", argc, argv, i,
                        options.disconnect_fraction) ||
          MatchFraction("--pipeline-fraction", argc, argv, i,
                        options.pipeline_fraction) ||
          MatchCount("--fuzz", argc, argv, i, options.fuzz_connections) ||
          MatchFlag("--endpoint", argc, argv, i, options.endpoint) ||
          MatchMillis("--io-timeout-ms", argc, argv, i, options.io_timeout)) {
        continue;
      }
    } catch (const std::invalid_argument& e) {
      Usage(e.what());
    }
    Usage(std::string("unknown flag ") + argv[i]);
  }

  NetSoakOutcome outcome;
  try {
    outcome = RunNetSoak(options);
  } catch (const std::exception& e) {
    std::cerr << "net_soak: fatal: " << e.what() << "\n";
    return 1;
  }

  std::cout << "net_soak: " << outcome.sessions << " sessions, "
            << outcome.accesses << " accesses over the wire in "
            << outcome.elapsed_s << "s\n"
            << "  flow control: " << outcome.slowdowns << " slow-downs, "
            << outcome.rejections << " rejections (resubmitted)\n"
            << "  disconnect injection: " << outcome.disconnects
            << " kills, " << outcome.resumes << " ATTACH resumes\n"
            << "  fuzz: " << outcome.fuzz_frames << " hostile deliveries, "
            << outcome.fuzz_errors << " clean protocol errors\n"
            << "  renegotiation: " << outcome.renegotiations
            << " acked switches, " << outcome.renegotiate_refusals
            << " clean refusals\n"
            << "  pipelining: " << outcome.pipelined_sessions
            << " SUBMIT_STREAM sessions, " << outcome.old_version_sessions
            << " v1 old-client sessions\n"
            << "  transport: " << outcome.corrected_transfers
            << " corrected, " << outcome.recovered_transfers
            << " recovered, " << outcome.degraded_transfers
            << " degraded deliveries (" << outcome.degraded_sessions
            << " sessions degraded)\n"
            << "  server: " << outcome.server.connections_accepted
            << " connections, " << outcome.server.frames_received
            << " frames in, " << outcome.server.frames_sent
            << " frames out, " << outcome.server.protocol_errors
            << " protocol errors, " << outcome.server.timeouts
            << " timeouts\n";
  return ReportSoakExit("net_soak", outcome, options.time_budget_s);
}
