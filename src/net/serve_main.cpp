// abenc_serve: the always-on encoding service behind a socket.
//
// Listens on --endpoint (tcp:HOST:PORT or unix:PATH) and speaks the
// versioned wire protocol of docs/PROTOCOL.md: codec/palette negotiation
// at OPEN, per-session bounded queues whose Admission verdicts travel
// back as SUBMIT_ACK status codes (client-visible flow control), STATS
// on demand, and token-based ATTACH so a disconnected client resumes
// its sessions exactly-once.
//
// --fault-planner enables the soak/test hook that maps OPEN's
// fault_seed to the deterministic soak fault palette; without it any
// nonzero fault_seed is refused (production servers take no
// wire-specified faults).
//
// Runs until SIGINT/SIGTERM, which the main thread waits for in
// sigwait (no timer). Exit status: 0 clean shutdown, 2 bad usage or bind
// failure.
#include <pthread.h>

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "core/cli_flags.h"
#include "net/server.h"
#include "service/soak.h"

namespace {

using abenc::MatchCount;
using abenc::MatchFlag;
using abenc::MatchMillis;
using abenc::net::Server;
using abenc::net::ServerConfig;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "abenc_serve: " << error << "\n"
            << "usage: abenc_serve [--endpoint tcp:HOST:PORT|unix:PATH]\n"
            << "  [--shards N] [--parallelism N] [--max-frame-bytes N]\n"
            << "  [--read-timeout-ms N] [--write-timeout-ms N]\n"
            << "  [--fault-planner] [--fault-length N]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  bool fault_planner = false;
  std::size_t fault_length = 512;
  for (int i = 1; i < argc; ++i) {
    try {
      if (MatchFlag("--endpoint", argc, argv, i, config.endpoint) ||
          MatchCount("--shards", argc, argv, i, config.service.shards) ||
          MatchCount("--parallelism", argc, argv, i,
                     config.service.parallelism) ||
          MatchCount("--max-frame-bytes", argc, argv, i,
                     config.max_frame_bytes) ||
          MatchMillis("--read-timeout-ms", argc, argv, i,
                      config.read_timeout) ||
          MatchMillis("--write-timeout-ms", argc, argv, i,
                      config.write_timeout) ||
          MatchCount("--fault-length", argc, argv, i, fault_length)) {
        continue;
      }
    } catch (const std::invalid_argument& e) {
      Usage(e.what());
    }
    if (std::string_view(argv[i]) == "--fault-planner") {
      fault_planner = true;
    } else {
      Usage(std::string("unknown flag ") + argv[i]);
    }
  }
  if (fault_planner) {
    config.fault_planner = [fault_length](std::uint64_t seed) {
      return abenc::service::PlanSoakFault(seed, fault_length);
    };
  }

  // Blocked before the Server starts its threads, which inherit the
  // mask: the stop signals reach only the sigwait below.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  std::unique_ptr<Server> server;
  try {
    server = std::make_unique<Server>(std::move(config));
    server->Start();
  } catch (const std::exception& e) {
    std::cerr << "abenc_serve: " << e.what() << "\n";
    return 2;
  }
  std::cout << "abenc_serve: listening on " << server->endpoint()
            << std::endl;

  int received = 0;
  sigwait(&stop_signals, &received);

  const abenc::net::ServerStats stats = server->stats();
  server->Stop();
  std::cout << "abenc_serve: stopped ("
            << stats.connections_accepted << " connections, "
            << stats.frames_received << " frames in, "
            << stats.frames_sent << " frames out, "
            << stats.protocol_errors << " protocol errors)\n";
  return 0;
}
