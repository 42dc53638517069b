// The service soak harness: thousands of simultaneous synthetic
// sessions, driven by concurrent client threads through the full
// backpressure path, under composable per-session fault injection and
// (optionally) mid-stream codec renegotiation — then every session's
// accounting is checked bit-for-bit against a serial
// EvaluateWithSchedule() of the same stream, replaying the acked switch
// schedule and the session's reset points.
//
// What one soak run proves (the ISSUE's acceptance bar):
//  - bit-identity: per-session transitions, peak, per-line histogram,
//    stream length and in-sequence percentage all equal the serial
//    reference, no matter how shards interleaved the drains or what
//    faults hit the transport;
//  - accounted delivery: clean + corrected + recovered +
//    degraded_deliveries == transfers for every session — each injected
//    fault was either healed (SECDED / resync-retry) or demoted to the
//    binary fallback, never silently corrupted;
//  - bounded queues: no session's observed peak depth ever exceeded its
//    configured capacity, and rejected batches were resubmitted by the
//    client (nothing dropped);
//  - liveness: the service drained and stopped within the time budget,
//    including (optionally) with one shard deliberately wedged so the
//    watchdog failover path runs under full load.
//
// Everything is a pure function of --seed: sessions rotate
// deterministically through the factory codecs, the verify subsystem's
// six adversarial stream families and a palette of channel fault models,
// with per-session sub-seeds derived via verify::MixSeed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "channel/bus_channel.h"

namespace abenc::service {

/// The soak codec rotation: the paper's main history and stateless
/// codes, a redundant-line code and the dual multiplexed code, so a
/// rotating workload exercises every frame geometry the channel knows.
/// Shared with the network soak harness (src/net) so both soaks stress
/// the same palette.
std::span<const char* const> SoakCodecPalette();

/// Deterministic per-session fault plan: maps a sub-seed and stream
/// length to a channel fault installer drawn from the soak's fault
/// palette (upset / burst / noise / mid-stream stuck-at). Pure function
/// of its arguments — the property that lets a server-side injection
/// (net_soak's OPEN fault_seed hook) be replayed bit-for-bit.
std::function<void(BusChannel&)> PlanSoakFault(std::uint64_t seed,
                                               std::size_t length);

struct SoakOptions {
  std::size_t sessions = 1000;     // simultaneous sessions
  std::size_t length = 512;        // accesses per session stream
  unsigned shards = 4;
  unsigned parallelism = 2;        // pool workers (>=2 enables failover)
  unsigned clients = 4;            // submitting client threads
  std::uint64_t seed = 1;
  /// Restrict every session to one codec (empty: rotate the palette).
  std::string codec;
  std::size_t queue_capacity = 256;     // small on purpose: exercise
  std::size_t slowdown_watermark = 192; // backpressure under load
  std::size_t chunk = 64;               // client submission batch size
  /// Fraction of sessions with fault models installed on their channel.
  double fault_fraction = 0.5;
  /// Fraction of sessions issuing mid-stream Renegotiate() requests
  /// (palette-drawn target codecs at deterministic submission
  /// thresholds, including one pinned to the exact end of the stream);
  /// the oracle then replays the acked switch schedule via
  /// EvaluateWithSchedule.
  double renegotiate_fraction = 0.0;
  /// Fraction of sessions submitting through the zero-copy columnar
  /// path (SubmitColumns) instead of the row-wise Submit span.
  double columnar_fraction = 0.0;
  /// Shard policy: evict a session after this many idle drain passes
  /// (0 = never) — exercises mid-stream eviction + lazy re-admission.
  std::uint64_t idle_evict_steps = 0;
  /// Per-session access budget (0 = unlimited): forces evictions while
  /// traffic is still arriving.
  std::uint64_t access_budget = 0;
  /// Wedge shard 0 at a deterministic point and require the watchdog to
  /// fail it over mid-run.
  bool stall_shard = false;
  /// Abort (outcome.timed_out) if the run exceeds this many seconds;
  /// 0 = no budget.
  double time_budget_s = 0.0;
};

/// One verification failure, human-readable (session id + what diverged).
struct SoakOutcome {
  std::size_t sessions = 0;
  std::uint64_t accesses = 0;           // total processed
  std::size_t degraded_sessions = 0;    // rung 3 taken at least once
  std::size_t evicted_sessions = 0;     // >=1 reset point logged
  std::uint64_t recovered_transfers = 0;
  std::uint64_t corrected_transfers = 0;
  std::uint64_t degraded_transfers = 0;
  std::uint64_t rejected_batches = 0;   // backpressure hits (resubmitted)
  std::uint64_t renegotiations = 0;        // acked codec switches
  std::uint64_t renegotiate_refusals = 0;  // clean refusals (tolerated)
  std::size_t columnar_sessions = 0;       // sessions on SubmitColumns
  std::uint64_t failovers = 0;
  double elapsed_s = 0.0;
  bool timed_out = false;
  std::vector<std::string> failures;    // empty == soak passed

  bool ok() const { return failures.empty() && !timed_out; }
};

SoakOutcome RunSoak(const SoakOptions& options);

}  // namespace abenc::service
