// The network soak: the soak core's sessions (service/soak.h —
// one plan, one gate, one tally) served by a loopback abenc_serve to N
// concurrent wire clients, each session's STATS read back over the wire
// through the core's gate. What the wire adds to the core's checks:
//  - exactly-once resume: seeded mid-stream kills (every second one
//    mid-frame) resume via ATTACH without dropping or duplicating an
//    access — the admitted count must equal the planned length;
//  - the v1 conversation is untouched by v2 frames and fields;
//  - failure containment: every fuzz connection's garbage, truncated,
//    oversized or protocol-violating frames end in a clean protocol
//    ERROR or an orderly close, never a wedged connection, and a
//    post-fuzz session still passes the gate (current protocol and v1).
// Its own draws (salt table in service/soak.cpp): kill points, submit
// mode, the v1 client, and the 1-in-5 empty switch target that asks the
// server's policy. Faults are installed server-side through the OPEN
// fault_seed hook mapped to service::PlanSoakFault.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "net/protocol.h"
#include "net/server.h"
#include "service/soak.h"

namespace abenc::net {

struct NetSoakOptions : service::SoakCommonOptions {
  NetSoakOptions() { clients = 64; }  // concurrent loopback clients

  std::size_t sessions_per_client = 1;
  /// Fraction of sessions whose client kills its connection mid-stream
  /// (second kill is mid-frame) and resumes via ATTACH.
  double disconnect_fraction = 0.5;
  /// Fraction of sessions submitting via windowed SUBMIT_STREAM frames
  /// instead of lock-step SUBMIT (alternating pipelined ack-every-frame
  /// and streaming sparse-ack modes).
  double pipeline_fraction = 0.0;
  /// Malformed-frame fuzz connections run concurrently with the
  /// traffic; each walks the whole violation catalogue.
  std::size_t fuzz_connections = 16;
  std::string endpoint = "tcp:127.0.0.1:0";
  std::chrono::milliseconds io_timeout{20000};
};

struct NetSoakOutcome : service::SoakTally {
  std::uint64_t slowdowns = 0;     // kSlowDown acks observed
  std::uint64_t rejections = 0;    // kRejected acks (resubmitted)
  std::uint64_t disconnects = 0;   // injected connection kills
  std::uint64_t resumes = 0;       // successful ATTACH resumes
  std::uint64_t fuzz_frames = 0;   // hostile frames/blobs delivered
  std::uint64_t fuzz_errors = 0;   // clean protocol ERRORs received
  std::uint64_t pipelined_sessions = 0;    // sessions on SUBMIT_STREAM
  std::uint64_t old_version_sessions = 0;  // v1-client sessions verified
  ServerStats server;  // loop counters at shutdown
};

/// A STATS reply as the gate's read-back (admitted count included).
service::ReadBack ReadBackOf(const StatsReply& stats);

NetSoakOutcome RunNetSoak(const NetSoakOptions& options);

}  // namespace abenc::net
