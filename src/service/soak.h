// The soak core: what the two soak harnesses share. `RunSoak` (below,
// CLI service_soak) drives the encoding service in-process;
// `net::RunNetSoak` (net/net_soak.h, CLI net_soak) serves the same
// sessions through a loopback abenc_serve. The core owns:
//  - one plan (PlanSoakSessions): every session fixed up front from the
//    seed, each choice a Draw(sub_seed, salt) on the salt table in
//    soak.cpp. A draw one transport makes alone stays in that soak;
//  - one gate (CheckServedSession): what the service reported back
//    against a serial per-word EvaluateWithSchedule() of the stream,
//    replaying the acked switches and reset points, plus accounted
//    deliveries and a bounded queue;
//  - one tally and exit status, one parse of the shared flags;
//  - one release gate (SoakTally::CheckReleased): the run ends with
//    every session closed, drained and freed.
// The in-process soak adds thousands of simultaneous sessions pushed
// through the admission path (optionally the columnar one), idle
// eviction, access budgets and an optionally wedged shard the watchdog
// must fail over under load, and releases each session after its
// read-back; over the wire the server releases each one at its CLOSE.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "channel/bus_channel.h"
#include "core/stream_evaluator.h"
#include "service/service.h"

namespace abenc::service {

/// The soak codec rotation — every frame geometry the channel knows.
/// Planned sessions open with, and switch to, its members.
std::span<const char* const> SoakCodecPalette();

/// A channel fault installer (upset / burst / noise / mid-stream
/// stuck-at) drawn from a sub-seed. A pure function of its arguments, so
/// a server-side injection (the OPEN fault_seed hook) replays exactly.
std::function<void(BusChannel&)> PlanSoakFault(std::uint64_t seed,
                                               std::size_t length);

/// One deterministic draw; `salt` tells apart the choices of one seed.
std::uint64_t Draw(std::uint64_t seed, std::uint64_t salt);

/// True on a `fraction` of seeds (never when `fraction` is 0).
bool DrawFraction(std::uint64_t seed, std::uint64_t salt, double fraction);

/// The flags both soak binaries take, with the same meaning in each.
struct SoakCommonOptions {
  unsigned clients = 4;      // submitting client threads
  std::size_t length = 512;  // accesses per session stream
  std::uint64_t seed = 1;
  /// Restrict every session to one codec (empty: rotate the palette).
  std::string codec;
  std::size_t chunk = 64;                // accesses per submission
  std::size_t queue_capacity = 256;      // small on purpose: exercise
  std::size_t slowdown_watermark = 192;  // backpressure under load
  /// Fraction of sessions with channel fault models installed.
  double fault_fraction = 0.5;
  /// Fraction of sessions requesting mid-stream codec switches at
  /// deterministic submission thresholds, one of them (on half of those
  /// sessions) pinned to the exact end of the stream.
  double renegotiate_fraction = 0.0;
  unsigned shards = 4;
  unsigned parallelism = 2;  // pool workers driving the shards
  /// Abort (timed_out) past this many seconds; 0 = no budget.
  double time_budget_s = 0.0;
};

/// Consumes argv[i] (and its value) when it is one of the shared flags:
/// --clients --length --seed --codec --chunk --queue-cap --watermark
/// --fault-fraction --renegotiate-fraction --shards --parallelism
/// --time-budget-s. Throws std::invalid_argument on a bad value.
bool ParseSoakFlag(int argc, char** argv, int& i, SoakCommonOptions& options);

/// The service both soaks run: the flags' shards and parallelism and a
/// patient watchdog, which fails a wedged shard over within ~1 s but
/// gives one merely starved for CPU (sanitizers, busy CI) time first. It
/// checks every millisecond, and each check is an idle sweep.
ServiceConfig SoakServiceConfig(const SoakCommonOptions& options);

/// A run's clock, started at construction, against --time-budget-s.
class SoakClock {
 public:
  explicit SoakClock(double budget_s) : budget_s_(budget_s) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  /// Never with no budget.
  bool OutOfTime() const {
    return budget_s_ > 0.0 && ElapsedSeconds() >= budget_s_;
  }
  /// What is left of the budget; 60 s with no budget.
  std::chrono::milliseconds Left() const {
    const double left = budget_s_ > 0.0 ? budget_s_ - ElapsedSeconds() : 60.0;
    return std::chrono::milliseconds(static_cast<std::int64_t>(left * 1e3));
  }

 private:
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start_ = Clock::now();
  const double budget_s_;
};

/// A planned mid-stream codec switch, requested once the client's
/// submitted count reaches `at` (`at` == stream length pins it to the
/// exact end of the stream). `codec_name` was drawn on salt `salt` + 17.
struct PlannedSwitch {
  std::size_t at = 0;
  std::string codec_name;
  std::uint64_t salt = 0;
};

/// Everything about one session, fixed before any traffic, so the
/// oracle can be recomputed after the run from the same plan.
struct SoakSessionPlan {
  std::size_t index = 0;
  std::uint64_t seed = 0;  // the sub-seed every draw below is keyed on
  std::string codec_name;
  CodecOptions codec_options;
  std::vector<BusAccess> stream;
  /// Faults from PlanSoakFault(seed, length) on the session's channel.
  bool faulted = false;
  Protection protection = Protection::kSecded;
  std::vector<PlannedSwitch> switches;  // ascending by `at`

  /// "session <index> (<codec>, <length> accesses)", for failures.
  std::string Label() const;
};

std::vector<SoakSessionPlan> PlanSoakSessions(
    const SoakCommonOptions& options, std::size_t sessions);

/// The gate's oracle input: what the client opened, submitted and was
/// acked for one session.
struct GateInput {
  std::string codec_name;  // the codec the session opened with
  CodecOptions codec_options;
  std::span<const BusAccess> stream;
  std::span<const CodecSwitchPoint> acked;  // acked switches, in order
  std::size_t queue_capacity = 0;
};

/// What the service reported back for the session. Each transport
/// adapts its own report (SessionReport here, the wire's StatsReply in
/// net/net_soak.h) into this.
struct ReadBack {
  std::optional<std::uint64_t> admitted;  // the wire's admitted count
  EvalResult result;
  std::vector<CodecSwitchPoint> applied;  // applied switch schedule
  std::vector<std::size_t> reset_points;
  TransportCounters transport;
  std::uint64_t peak_queue_depth = 0;
  bool degraded = false;
};

ReadBack ReadBackOf(const SessionReport& report);

/// One check of the gate (GateCheckName says what failed). The first
/// three are preconditions: when one fails the oracle is not run.
enum class GateCheck {
  kAdmitted,
  kLength,
  kSchedule,
  kTransitions,
  kPeak,
  kPerLine,
  kInSequence,
  kReconciliation,
  kTransfers,
  kQueueCapacity,
};

std::string_view GateCheckName(GateCheck check);

/// Every check the read-back fails, in the order above; empty == pass.
std::vector<GateCheck> CheckServedSession(const GateInput& input,
                                          const ReadBack& read_back);

/// The counts both soaks report, and the verdict.
struct SoakTally {
  std::size_t sessions = 0;  // sessions read back
  std::uint64_t accesses = 0;
  std::size_t degraded_sessions = 0;
  std::uint64_t recovered_transfers = 0;
  std::uint64_t corrected_transfers = 0;
  std::uint64_t degraded_transfers = 0;
  std::uint64_t renegotiations = 0;        // acked codec switches
  std::uint64_t renegotiate_refusals = 0;  // clean refusals (tolerated)
  std::uint64_t released_sessions = 0;     // sessions the service freed
  double elapsed_s = 0.0;
  bool timed_out = false;
  std::vector<std::string> failures;  // empty == soak passed

  /// Counts one read-back session and files its failed checks under
  /// `label`.
  void Record(std::string_view label, const ReadBack& read_back,
              std::span<const GateCheck> failed);

  /// The release gate, once the run is over: every session was closed,
  /// drained and freed, so `service` holds none. Counts the releases.
  void CheckReleased(const EncodingService& service);

  bool ok() const { return failures.empty() && !timed_out; }
};

/// Prints the verdict and returns the exit status: 0 pass (one OK line
/// on stdout, with the sessions released), 1 failures (listed on
/// stderr), 2 time budget exceeded.
int ReportSoakExit(std::string_view tool, const SoakTally& tally,
                   double time_budget_s);

struct SoakOptions : SoakCommonOptions {
  std::size_t sessions = 1000;  // simultaneous sessions
  /// Fraction of sessions submitting through the zero-copy columnar
  /// path (SubmitColumns) instead of the row-wise Submit span.
  double columnar_fraction = 0.0;
  /// Shard policy: evict a session after this many consecutive idle
  /// sweeps, one per watchdog interval of 1 ms (0 = never) — exercises
  /// eviction + lazy re-admission.
  std::uint64_t idle_evict_steps = 0;
  /// Per-session access budget (0 = unlimited): forces evictions while
  /// traffic is still arriving.
  std::uint64_t access_budget = 0;
  /// Wedge shard 0 at a deterministic point and require the watchdog to
  /// fail it over mid-run.
  bool stall_shard = false;
};

struct SoakOutcome : SoakTally {
  std::size_t evicted_sessions = 0;    // >=1 reset point logged
  std::uint64_t idle_evictions = 0;    // evictions by an idle sweep
  std::uint64_t rejected_batches = 0;  // backpressure hits (resubmitted)
  std::size_t columnar_sessions = 0;   // sessions on SubmitColumns
  std::uint64_t failovers = 0;
};

SoakOutcome RunSoak(const SoakOptions& options);

}  // namespace abenc::service
