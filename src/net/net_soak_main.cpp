// net_soak: the encoding service's network front-end under concurrent
// wire clients, disconnect injection and a malformed-frame fuzz swarm.
//
// Starts a loopback abenc_serve instance, drives --clients concurrent
// connections through the full wire path (HELLO/OPEN/SUBMIT backpressure
// /DRAIN-STATS/CLOSE, with a --disconnect-fraction of the sessions
// killed mid-stream — the second kill mid-frame — and resumed via
// ATTACH), runs --fuzz hostile connections through the protocol
// violation catalogue concurrently, then verifies every session's
// wire-reported accounting bit-for-bit against a serial
// EvaluateWithSchedule() of the identical stream.
//
// Exit status: 0 soak passed; 1 verification failures; 2 time budget
// exceeded or bad usage. See EXPERIMENTS.md for the flag reference.
#include <cstdlib>
#include <iostream>
#include <string>

#include "net/net_soak.h"

namespace {

using abenc::net::NetSoakOptions;
using abenc::net::NetSoakOutcome;
using abenc::net::RunNetSoak;

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

/// `--flag value` and `--flag=value`, mirroring service_soak.
bool TakeValue(int argc, char** argv, int& i, const std::string& flag,
               std::string& value) {
  const std::string arg = argv[i];
  if (arg == flag) {
    if (i + 1 >= argc) Usage(flag + " requires a value");
    value = argv[++i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    value = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  NetSoakOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    try {
      if (TakeValue(argc, argv, i, "--clients", value)) {
        options.clients = static_cast<unsigned>(std::stoul(value));
      } else if (TakeValue(argc, argv, i, "--sessions-per-client", value)) {
        options.sessions_per_client = std::stoul(value);
      } else if (TakeValue(argc, argv, i, "--length", value)) {
        options.length = std::stoul(value);
      } else if (TakeValue(argc, argv, i, "--seed", value)) {
        options.seed = std::stoull(value);
      } else if (TakeValue(argc, argv, i, "--codec", value)) {
        options.codec = value;
      } else if (TakeValue(argc, argv, i, "--chunk", value)) {
        options.chunk = std::stoul(value);
      } else if (TakeValue(argc, argv, i, "--queue-cap", value)) {
        options.queue_capacity = std::stoul(value);
      } else if (TakeValue(argc, argv, i, "--watermark", value)) {
        options.slowdown_watermark = std::stoul(value);
      } else if (TakeValue(argc, argv, i, "--fault-fraction", value)) {
        options.fault_fraction = std::stod(value);
      } else if (TakeValue(argc, argv, i, "--disconnect-fraction", value)) {
        options.disconnect_fraction = std::stod(value);
      } else if (TakeValue(argc, argv, i, "--renegotiate-fraction", value)) {
        options.renegotiate_fraction = std::stod(value);
      } else if (TakeValue(argc, argv, i, "--pipeline-fraction", value)) {
        options.pipeline_fraction = std::stod(value);
      } else if (TakeValue(argc, argv, i, "--shards", value)) {
        options.shards = static_cast<unsigned>(std::stoul(value));
      } else if (TakeValue(argc, argv, i, "--parallelism", value)) {
        options.parallelism = static_cast<unsigned>(std::stoul(value));
      } else if (TakeValue(argc, argv, i, "--fuzz", value)) {
        options.fuzz_connections = std::stoul(value);
      } else if (TakeValue(argc, argv, i, "--endpoint", value)) {
        options.endpoint = value;
      } else if (TakeValue(argc, argv, i, "--io-timeout-ms", value)) {
        options.io_timeout = std::chrono::milliseconds(std::stoll(value));
      } else if (TakeValue(argc, argv, i, "--time-budget-s", value)) {
        options.time_budget_s = std::stod(value);
      } else {
        Usage(std::string("unknown flag ") + argv[i]);
      }
    } catch (const std::invalid_argument&) {
      Usage(std::string("bad value for ") + argv[i]);
    } catch (const std::out_of_range&) {
      Usage(std::string("bad value for ") + argv[i]);
    }
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

  if (outcome.timed_out) {
    std::cerr << "net_soak: TIME BUDGET EXCEEDED ("
              << options.time_budget_s << "s)\n";
    return 2;
  }
  if (!outcome.failures.empty()) {
    std::cerr << "net_soak: " << outcome.failures.size()
              << " failure(s):\n";
    for (const std::string& failure : outcome.failures) {
      std::cerr << "  " << failure << "\n";
    }
    return 1;
  }
  std::cout << "  bit-identity vs serial EvaluateWithSchedule: OK\n";
  return 0;
}
