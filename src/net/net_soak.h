// The network soak harness: a loopback abenc_serve instance under N
// concurrent wire clients, seeded disconnect injection and a
// malformed-frame fuzz swarm — then every session's server-side
// accounting, read back over the wire, is checked bit-for-bit against a
// serial EvaluateWithSchedule() of the identical stream.
//
// What one run proves (the ISSUE's acceptance bar):
//  - bit-identity across the wire: the STATS reply of every session
//    (transitions, peak, per-line histogram, in-sequence percentage,
//    transport reconciliation) equals the serial oracle, no matter how
//    frames interleaved, which clients were paced or rejected, or which
//    connections were killed mid-frame and resumed via ATTACH;
//  - exactly-once resume: a disconnect injected mid-stream (including
//    mid-frame) never drops or duplicates an access — the ATTACH reply's
//    accepted count is the resume point, and the final stream length
//    must equal the planned length exactly;
//  - failure containment: every fuzz connection feeding garbage,
//    truncated, oversized or protocol-violating frames receives a clean
//    protocol ERROR or an orderly close — never a wedged connection
//    (receive timeout), and the server keeps serving healthy clients
//    throughout (a full post-fuzz session must still verify).
//
// Deterministic per --seed: streams, codec rotation, fault seeds and
// disconnect points all derive via verify::MixSeed; channel faults are
// installed server-side through the OPEN fault_seed hook mapped to
// service::PlanSoakFault.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/server.h"

namespace abenc::net {

struct NetSoakOptions {
  unsigned clients = 64;   // concurrent loopback client threads
  std::size_t sessions_per_client = 1;
  std::size_t length = 512;  // accesses per session stream
  std::uint64_t seed = 1;
  /// Restrict every session to one codec (empty: rotate
  /// service::SoakCodecPalette()).
  std::string codec;
  std::size_t chunk = 64;                // accesses per SUBMIT frame
  std::size_t queue_capacity = 256;      // small on purpose: exercise
  std::size_t slowdown_watermark = 192;  // wire backpressure under load
  /// Fraction of sessions with server-side channel faults installed.
  double fault_fraction = 0.5;
  /// Fraction of sessions whose client kills its connection mid-stream
  /// (second kill is mid-frame) and resumes via ATTACH.
  double disconnect_fraction = 0.5;
  /// Fraction of sessions that issue mid-stream RENEGOTIATE requests
  /// (palette-drawn targets at deterministic thresholds); the oracle
  /// then replays the acked switch schedule via EvaluateWithSchedule.
  double renegotiate_fraction = 0.0;
  /// Fraction of sessions submitting via windowed SUBMIT_STREAM frames
  /// instead of lock-step SUBMIT (alternating pipelined ack-every-frame
  /// and streaming sparse-ack modes). When either of these fractions is
  /// nonzero, one in eight sessions also runs as a v1 old-version
  /// client to prove the legacy path is untouched.
  double pipeline_fraction = 0.0;
  unsigned shards = 4;
  unsigned parallelism = 2;
  /// Malformed-frame fuzz connections run concurrently with the
  /// traffic; each walks the whole violation catalogue.
  std::size_t fuzz_connections = 16;
  std::string endpoint = "tcp:127.0.0.1:0";
  std::chrono::milliseconds io_timeout{20000};
  /// Abort (outcome.timed_out) past this many seconds; 0 = no budget.
  double time_budget_s = 0.0;
};

struct NetSoakOutcome {
  std::size_t sessions = 0;
  std::uint64_t accesses = 0;      // verified accesses, summed
  std::uint64_t slowdowns = 0;     // kSlowDown acks observed
  std::uint64_t rejections = 0;    // kRejected acks (resubmitted)
  std::uint64_t disconnects = 0;   // injected connection kills
  std::uint64_t resumes = 0;       // successful ATTACH resumes
  std::uint64_t fuzz_frames = 0;   // hostile frames/blobs delivered
  std::uint64_t fuzz_errors = 0;   // clean protocol ERRORs received
  std::uint64_t renegotiations = 0;        // RENEGOTIATE_ACKs received
  std::uint64_t renegotiate_refusals = 0;  // clean refusals (tolerated)
  std::uint64_t pipelined_sessions = 0;    // sessions on SUBMIT_STREAM
  std::uint64_t old_version_sessions = 0;  // v1-client sessions verified
  std::size_t degraded_sessions = 0;
  std::uint64_t recovered_transfers = 0;
  std::uint64_t corrected_transfers = 0;
  std::uint64_t degraded_transfers = 0;
  ServerStats server;  // loop counters at shutdown
  double elapsed_s = 0.0;
  bool timed_out = false;
  std::vector<std::string> failures;  // empty == soak passed

  bool ok() const { return failures.empty() && !timed_out; }
};

NetSoakOutcome RunNetSoak(const NetSoakOptions& options);

}  // namespace abenc::net
