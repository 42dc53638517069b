// One client of the always-on encoding service: an independent codec FSM
// with Evaluate()-identical accounting, a bounded submission queue with
// backpressure, and a fault-tolerant BusChannel transport with a
// retry/resync/degrade recovery ladder.
//
// The paper's codes are per-stream FSMs, so a service scales by giving
// every client its own pair of FSM ends — there is no cross-session
// codec state to share or protect. What the service adds around that FSM
// is robustness:
//
//  - the submission queue is bounded: Submit() is all-or-nothing and
//    answers kRejected when a batch would overflow the cap (the queue
//    can never grow without bound) and kSlowDown above a soft watermark,
//    so well-behaved clients pace themselves before hitting the wall;
//  - every access is delivered over the session's BusChannel; a failed
//    delivery walks the degradation ladder (below) and is always
//    *observed* — delivery failures are counted, never silent;
//  - an idle or over-budget session can be evicted: its codec FSM and
//    channel are torn down deterministically, the teardown index is
//    logged, and re-admission builds a fresh FSM. By the reset-replay
//    property (src/verify/properties.h) a fresh codec encodes exactly
//    like a Reset() one, so lifetime accounting of an evicted session
//    equals EvaluateWithSchedule(codec, options, stream, {},
//    reset_points) — the contract tests/service_test.cpp and the soak
//    harness pin.
//
// The degradation ladder for one access whose delivery fails
// (receiver's word != transmitted address, or the protection layer
// flagged the frame):
//
//  1. in-line correction: SECDED repairs single line errors during the
//     transfer itself (counted `corrected`, no service action);
//  2. retry with backoff: force a resync beacon (both FSM ends drop
//     history, the next frame travels verbatim) and re-send, up to
//     max_retries times with attempt-scaled backoff — this heals any
//     transient desynchronization of a history code (`recovered`);
//  3. graceful degradation: a delivery that retries cannot heal (e.g. a
//     stuck-at line past the protection's budget) permanently demotes
//     the session's transport to plain binary — a stateless code whose
//     future faults cost one address each instead of a history smear.
//     Deliveries that still fail afterwards remain individually counted
//     (`degraded_deliveries`): degraded, never silently corrupted.
//
// Accounting (the EvalResult the session reports — the paper's metrics)
// is computed on the transmitter-side FSM and is therefore unaffected by
// wire faults. It runs the same BlockTransitionAccumulator as
// EvaluateBatched, one segment per fresh FSM, and the soak harness
// asserts it is bit-identical to the serial per-word
// EvaluateWithSchedule() of the same stream no matter what was injected
// on the channel.
//
// Locking: `queue_mutex_` guards the client side (queue, input_closed_,
// admission bookkeeping); `drain_mutex_` guards the processing side
// (FSMs, counters, eviction state). The owning shard serializes drains,
// but the mutex also makes the brief double-ownership window during
// watchdog failover safe: two drainers interleave whole batches, each
// popped and processed atomically under drain_mutex_, so stream order is
// preserved. Lock order is always drain_mutex_ before queue_mutex_.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/bus_channel.h"
#include "core/adaptive_codec.h"
#include "core/codec_factory.h"
#include "core/codec_kernel.h"
#include "core/stream_evaluator.h"
#include "obs/metrics.h"

namespace abenc::service {

/// Client-visible admission verdict for one submitted batch.
enum class Admission : unsigned char {
  kAccepted,  // queued
  kSlowDown,  // queued, but the queue is above the slow-down watermark
  kRejected,  // queue full — nothing was queued; back off and retry
  kClosed,    // session input was closed; nothing was queued
};

std::string AdmissionName(Admission admission);

/// Where a session is in its lifecycle. Input-closed is orthogonal
/// (an evicted session can be closed and vice versa).
enum class SessionState : unsigned char {
  kActive,   // FSMs built, processing
  kEvicted,  // FSMs torn down; new traffic re-admits lazily
};

std::string SessionStateName(SessionState state);

/// One submitted batch in columnar layout — the `.ctrace` / wire-SUBMIT
/// shape (all addresses, then all SEL bytes). The queue holds these
/// whole, and DrainStep moves them out and back (offset tracks the
/// drained prefix of a partially processed batch), so a batch decoded
/// straight off the wire reaches EncodeColumns without ever being
/// rewritten as BusAccess rows.
struct ColumnBatch {
  std::vector<Word> addresses;
  std::vector<std::uint8_t> sel;
  std::size_t offset = 0;  // accesses already processed from this batch

  std::size_t size() const { return addresses.size(); }
  std::size_t remaining() const { return addresses.size() - offset; }
};

/// Outcome of a Renegotiate() request. Refusals are total: nothing about
/// the session changed, and the client may retry later (e.g. once the
/// channel's recovery FSM promotes back to active).
enum class RenegotiateStatus : unsigned char {
  kScheduled,         // pinned; applies exactly at switch_index
  kApplied,           // queue was empty: applied immediately at switch_index
  kRefusedBadCodec,   // unknown codec / invalid at this geometry
  kRefusedClosed,     // input closed; the stream end is already pinned
  kRefusedDegraded,   // transport permanently degraded to binary
  kRefusedRecovering, // channel mid-recovery (fallback mode); retry later
  kRefusedPending,    // an earlier switch has not applied yet
  kRefusedUnchanged,  // requested codec is already active
};

std::string RenegotiateStatusName(RenegotiateStatus status);

struct RenegotiateOutcome {
  RenegotiateStatus status = RenegotiateStatus::kRefusedBadCodec;
  /// Lifetime admitted-access index the switch is pinned to: every
  /// access before it is encoded by the old codec, every access from it
  /// on by the new one. Meaningful only when ok().
  std::uint64_t switch_index = 0;
  std::string codec_name;

  bool ok() const {
    return status == RenegotiateStatus::kScheduled ||
           status == RenegotiateStatus::kApplied;
  }
};

/// What the server-side renegotiation policy reads per session: the last
/// completed AdaptiveWindowStats window plus enough state to know
/// whether a proposal is even admissible. Taken with try-lock so the
/// serving thread never blocks behind a long drain (nullopt then).
struct RenegotiationSnapshot {
  AdaptiveWindowStats window;  // last completed window
  std::size_t windows_completed = 0;
  unsigned width = 0;  // bus width the policy's density threshold scales with
  std::string active_codec;
  bool switch_pending = false;
  bool degraded = false;
};

/// Per-session transport outcomes. Every processed access lands in
/// exactly one of clean / corrected / recovered / degraded_deliveries,
/// so those four always sum to `transfers` — the reconciliation the soak
/// harness asserts ("every injected fault recovered or degraded, never
/// silently corrupted").
struct TransportCounters {
  std::uint64_t transfers = 0;            // primary deliveries (= accesses)
  std::uint64_t clean = 0;                // delivered, nothing flagged
  std::uint64_t corrected = 0;            // delivered; protection repaired
  std::uint64_t recovered = 0;            // resync + retry converged
  std::uint64_t degraded_deliveries = 0;  // failed past retries; degraded
  std::uint64_t retries = 0;              // extra transfers on the ladder
  std::uint64_t forced_resyncs = 0;
};

/// Service-layer metric handles, resolved once against the installed
/// MetricsRegistry and shared by every session and shard; all null when
/// observability is off, making each site a pointer test.
struct ServiceMetrics {
  obs::Counter* sessions_opened = nullptr;
  obs::Counter* sessions_closed = nullptr;
  obs::Counter* sessions_evicted = nullptr;
  obs::Counter* sessions_readmitted = nullptr;
  obs::Counter* sessions_degraded = nullptr;
  obs::Counter* submitted_accesses = nullptr;
  obs::Counter* slowdown_batches = nullptr;
  obs::Counter* rejected_batches = nullptr;
  obs::Counter* processed_accesses = nullptr;
  obs::Counter* transfers_clean = nullptr;
  obs::Counter* transfers_corrected = nullptr;
  obs::Counter* transfers_recovered = nullptr;
  obs::Counter* transfers_degraded = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* forced_resyncs = nullptr;
  obs::Counter* shard_steps = nullptr;
  obs::Counter* shard_errors = nullptr;
  obs::Counter* watchdog_checks = nullptr;
  obs::Counter* watchdog_failovers = nullptr;
  obs::Gauge* queue_high_watermark = nullptr;

  /// Resolve every handle against obs::Installed(); inert when none.
  static ServiceMetrics Resolve();
};

/// Null-safe increment for the resolved handles above.
inline void Bump(obs::Counter* counter, std::uint64_t delta = 1) {
  if (counter) counter->Increment(delta);
}

struct SessionConfig {
  std::string codec_name = "t0";
  CodecOptions codec_options;
  /// Stride passed to the in-sequence statistic, exactly Evaluate()'s
  /// `stride_for_stats` (independent of the codec's own stride).
  Word stride_for_stats = 4;

  // Transport: the session's BusChannel.
  Protection protection = Protection::kSecded;
  std::size_t resync_period = 0;  // periodic beacons; 0 = on-demand only
  bool channel_recovery = false;  // the channel's own demote/promote FSM
  /// Installed on the channel at (re-)admission — the soak harness's
  /// fault injection hook. Must be deterministic per session.
  std::function<void(BusChannel&)> fault_installer;

  // Robustness knobs.
  std::size_t queue_capacity = 4096;      // hard cap, in accesses
  std::size_t slowdown_watermark = 3072;  // kSlowDown above this depth
  unsigned max_retries = 3;               // recovery ladder, per access
  std::uint64_t access_budget = 0;        // 0 = unlimited; else evictable
                                          // once processed >= budget

  /// Window (in accesses) of the session's AdaptiveStatsTracker — the
  /// stream-shape statistics the renegotiation policy reads.
  std::size_t stats_window = 64;
};

/// Quiescent snapshot of a session (Report()).
struct SessionReport {
  std::uint64_t id = 0;
  std::string codec_name;
  SessionState state = SessionState::kActive;
  bool input_closed = false;
  bool degraded = false;  // transport ever demoted to binary
  /// Accounting over everything processed so far; bit-identical to
  /// EvaluateWithSchedule(codec, options, stream, renegotiations,
  /// reset_points) on the submitted stream.
  EvalResult result;
  TransportCounters transport;
  /// Stream indices where the codec FSM was torn down (evictions).
  std::vector<std::size_t> reset_points;
  /// Applied codec switches in stream order — together with
  /// reset_points this is the full schedule EvaluateWithSchedule()
  /// replays serially.
  std::vector<CodecSwitchPoint> renegotiations;
  /// Factory name of the codec currently encoding the stream (the
  /// OPENed codec until the first applied renegotiation).
  std::string active_codec;
  std::uint64_t readmissions = 0;
  std::uint64_t rejected_batches = 0;
  std::size_t peak_queue_depth = 0;
};

class Session {
 public:
  /// Builds the codec FSM and channel eagerly, so an invalid codec name
  /// or option set throws here (CodecConfigError / ChannelConfigError),
  /// at admission time, not on a shard thread.
  Session(std::uint64_t id, SessionConfig config,
          const ServiceMetrics* metrics);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::uint64_t id() const { return id_; }
  const SessionConfig& config() const { return config_; }

  // -- client side (any thread) --

  /// All-or-nothing enqueue of a batch; see Admission. Converts the
  /// rows to a ColumnBatch at the boundary (the only row walk left on
  /// the submission path).
  Admission Submit(std::span<const BusAccess> batch);

  /// Zero-copy enqueue: the columns (e.g. decoded straight from a wire
  /// SUBMIT_STREAM frame or sliced off an mmap-backed `.ctrace`) are
  /// moved into the queue whole. `batch.offset` must be 0 and the two
  /// columns equally long (std::invalid_argument otherwise).
  Admission SubmitColumns(ColumnBatch&& batch);

  /// No further submissions are admitted; queued work still drains.
  void CloseInput();

  /// Request a codec switch, pinned to the current lifetime
  /// admitted-access count so both ends of a wire conversation replay
  /// the decision deterministically (docs/PROTOCOL.md). All-or-nothing:
  /// a refusal changes nothing. With an empty queue the switch applies
  /// immediately; otherwise it is scheduled and DrainStep splits
  /// processing runs exactly at the pinned index.
  RenegotiateOutcome Renegotiate(const std::string& codec_name);

  /// Policy input (see RenegotiationSnapshot); nullopt when the drain
  /// lock is busy — callers on the serving thread just skip the hint.
  std::optional<RenegotiationSnapshot> StatsSnapshot() const;

  // -- shard side --

  /// Pop and process up to `max_accesses` queued accesses; returns how
  /// many were processed. Re-admits an evicted session lazily when new
  /// work is queued.
  std::size_t DrainStep(std::size_t max_accesses);

  /// Consecutive DrainStep() calls that found no work (idle-eviction
  /// input; maintained by DrainStep, reset when work arrives).
  std::uint64_t idle_steps() const {
    return idle_steps_.load(std::memory_order_relaxed);
  }

  /// Accesses queued but not yet processed. Reaches zero only after the
  /// last popped batch finished processing, so a zero sum across
  /// sessions means the service is quiescent.
  std::size_t queued() const {
    return queued_.load(std::memory_order_acquire);
  }

  /// Accesses processed over the session's lifetime.
  std::uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }

  /// Whether the access budget (if any) has been spent.
  bool OverBudget() const {
    return config_.access_budget != 0 &&
           processed() >= config_.access_budget;
  }

  // -- lifecycle --

  /// Deterministic teardown: logs the reset point and destroys the codec
  /// FSM and channel (re-admission opens the next accounting segment).
  /// Only an active session with an empty queue can be evicted; returns
  /// whether it was.
  bool Evict();

  SessionState state() const;

  /// Quiescent snapshot; safe from any thread at any time, but only
  /// guaranteed complete once queued() == 0.
  SessionReport Report() const;

 private:
  void BuildTransport();  // channel + fault models (drain_mutex_ held)
  // Fresh accounting FSM on active_codec_name_, opening the next
  // accounting segment, plus a fresh transport (drain_mutex_ held).
  void BuildFsms();
  void Readmit();  // fresh FSMs after eviction (drain_mutex_ held)
  // Process `count` accesses, splitting runs at a pending codec switch
  // (drain_mutex_ held).
  void ProcessColumns(const Word* addresses, const std::uint8_t* sel,
                      std::size_t count);
  // One switch-free run: batched accounting (EncodeColumns into the
  // stream accumulator), then the per-access transport ladder.
  void ProcessRun(const Word* addresses, const std::uint8_t* sel,
                  std::size_t count);
  // Deliver one access over the channel and walk the recovery ladder.
  void TransferOne(Word address, bool sel);
  // Apply a codec switch at the current processed index: log the
  // switch and rebuild the FSMs on the new codec, opening a new
  // accounting segment (drain_mutex_ held; a name change only when
  // evicted — Readmit builds the new codec lazily).
  void ApplySwitchLocked(const std::string& codec_name);

  const std::uint64_t id_;
  const SessionConfig config_;
  const ServiceMetrics* metrics_;  // never null; resolve to inert handles
  const Word mask_;

  // Client side.
  mutable std::mutex queue_mutex_;
  std::deque<ColumnBatch> queue_;
  /// Admission depth in accesses: batches resident in queue_ plus the
  /// unprocessed tail of a batch DrainStep currently holds — exactly
  /// the depth the flat row queue used to expose, so the admission
  /// boundaries (capacity / watermark) are unchanged.
  std::size_t queue_accesses_ = 0;
  bool input_closed_ = false;
  std::uint64_t rejected_batches_ = 0;
  std::size_t peak_queue_depth_ = 0;

  // Processing side.
  mutable std::mutex drain_mutex_;
  CodecPtr acc_codec_;  // transmitter-side accounting FSM (ground truth)
  std::unique_ptr<BusChannel> channel_;
  // Lifetime accounting, one segment per accounting FSM, and that FSM's
  // name() for the report (it outlives the FSM across an eviction).
  BlockTransitionAccumulator accounting_;
  std::string acc_codec_name_;
  std::vector<ColumnBatch> drained_;          // popped batches (moved, not copied)
  std::vector<BusState> states_;              // EncodeColumns output scratch
  std::string active_codec_name_;             // factory name, post-switches
  std::optional<CodecSwitchPoint> pending_switch_;
  std::vector<CodecSwitchPoint> renegotiations_;  // applied switches
  AdaptiveStatsTracker stats_tracker_;
  std::vector<std::size_t> reset_points_;
  TransportCounters transport_;
  SessionState state_ = SessionState::kActive;  // writers hold both locks
  bool degraded_ = false;       // ladder rung 3 taken on current FSMs
  bool ever_degraded_ = false;  // sticky, for the report
  std::uint64_t readmissions_ = 0;

  // Cross-thread progress signals.
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> idle_steps_{0};
};

}  // namespace abenc::service
