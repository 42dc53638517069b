// The always-on encoding service: N client sessions, each an independent
// codec FSM, sharded across workers on the core thread pool, multiplexed
// over the fault-tolerant bus channel as transport, instrumented via
// the process MetricsRegistry.
//
// Composition (docs/ARCHITECTURE.md "Service layer"):
//
//   clients ──Submit()──► Session queues (bounded, backpressure)
//                               │ drained by
//                         Shard::Step()  × config.shards
//                               │ driven by self-rescheduling tasks on
//                         ThreadPool(config.parallelism)
//                               │ watched by
//                         watchdog thread (heartbeats → failover)
//
// Robustness contracts:
//  - Submission is never unbounded: a batch that would overflow a
//    session's queue bounces with Admission::kRejected and nothing is
//    queued; above the soft watermark admission returns kSlowDown.
//  - A stuck shard (heartbeat frozen while its sessions hold queued
//    work for `watchdog_stuck_strikes` consecutive checks) is failed
//    over: marked dead, its sessions migrated to the surviving shards.
//    Failover needs a surviving worker, so services that want it should
//    run with parallelism >= 2.
//  - Stop() bounds shutdown with ThreadPool::Shutdown(deadline): a
//    wedged driver cannot block destruction forever (it is abandoned
//    and the pool's backlog discarded).
//  - Results are ground truth: every session's accounting is
//    bit-identical to a serial EvaluateWithSchedule() of its stream
//    regardless of channel faults, shard scheduling, failover or
//    eviction — the property the service_soak harness pins at scale.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "service/shard.h"

namespace abenc::service {

struct ServiceConfig {
  unsigned shards = 4;
  /// Pool workers driving the shards; 0 = one per hardware thread.
  unsigned parallelism = 0;
  /// When false no pool or watchdog is started and the caller drives
  /// processing with StepAll() — the deterministic mode the lifecycle
  /// tests use.
  bool start_drivers = true;

  std::size_t drain_batch = 256;
  std::uint64_t idle_evict_steps = 0;  // 0 = never idle-evict
  /// Defaults for OpenSession() without an explicit config.
  SessionConfig session;

  bool enable_watchdog = true;
  std::chrono::milliseconds watchdog_interval{20};
  /// Consecutive frozen-heartbeat checks (with pending work) before a
  /// shard is declared stuck and failed over.
  unsigned watchdog_stuck_strikes = 5;
  /// Driver nap after a pass that found no work, so an idle service
  /// does not spin a core.
  std::chrono::milliseconds idle_backoff{1};
};

class EncodingService {
 public:
  explicit EncodingService(ServiceConfig config);

  /// Stops with a generous default deadline (see Stop()).
  ~EncodingService();

  EncodingService(const EncodingService&) = delete;
  EncodingService& operator=(const EncodingService&) = delete;

  /// Admit a new session; returns its id. Throws CodecConfigError /
  /// ChannelConfigError for an invalid configuration.
  std::uint64_t OpenSession();
  std::uint64_t OpenSession(const SessionConfig& session_config);

  /// Submit a batch to a session's queue. Unknown ids throw
  /// std::out_of_range. An evicted session accepts work and is
  /// re-admitted lazily at its next drain.
  Admission Submit(std::uint64_t session_id,
                   std::span<const BusAccess> batch);

  /// Zero-copy submission of a columnar batch (Session::SubmitColumns).
  Admission SubmitColumns(std::uint64_t session_id, ColumnBatch&& batch);

  /// Request a codec switch for one session, pinned to its lifetime
  /// admitted count (Session::Renegotiate). Unknown ids throw
  /// std::out_of_range; refusals come back in the outcome.
  RenegotiateOutcome Renegotiate(std::uint64_t session_id,
                                 const std::string& codec_name);

  /// Non-blocking policy snapshot of a session's windowed stream stats
  /// (Session::StatsSnapshot); nullopt when the drain side is busy.
  std::optional<RenegotiationSnapshot> StatsSnapshot(
      std::uint64_t session_id) const;

  /// Close a session's input; queued work still drains.
  void CloseSession(std::uint64_t session_id);

  /// Explicit eviction (tests, admin): deterministic teardown if the
  /// session is active with an empty queue. Returns whether it happened.
  bool EvictSession(std::uint64_t session_id);

  SessionReport Report(std::uint64_t session_id) const;
  std::vector<SessionReport> ReportAll() const;

  /// Whether `session_id` names a live session (any state). The network
  /// front-end uses this for attach/stats checks without the throwing
  /// lookup.
  bool HasSession(std::uint64_t session_id) const;

  /// Accesses queued and not yet processed for one session; zero means
  /// the session is quiescent and Report() is complete (the wait_drained
  /// deferral in src/net relies on this). Unknown ids throw
  /// std::out_of_range.
  std::size_t SessionQueued(std::uint64_t session_id) const;

  /// Wait until every queue is empty and all popped work has been
  /// processed, or the deadline passes; returns whether the service is
  /// quiescent. In manual mode (start_drivers = false) this also steps
  /// the shards itself.
  bool Drain(std::chrono::milliseconds deadline);

  /// Stop drivers and watchdog. Bounded by ThreadPool::Shutdown: a
  /// wedged shard driver is abandoned at the deadline rather than
  /// blocking forever. Idempotent.
  ShutdownResult Stop(
      std::chrono::milliseconds deadline = std::chrono::milliseconds(5000));

  /// Manual mode: one Step() of every live shard on the caller thread.
  void StepAll();

  /// Accesses queued and not yet processed, summed over all sessions.
  std::size_t total_queued() const;

  std::uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }

  unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  /// Test access to a shard (stall hooks, heartbeats).
  Shard& shard(unsigned index) { return *shards_[index]; }

 private:
  void DriveShard(std::size_t index);
  void WatchdogLoop();
  void FailOver(std::size_t index);

  ServiceConfig config_;
  ServiceMetrics metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex sessions_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
  std::size_t next_shard_ = 0;  // round-robin placement

  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // Stop() ran to completion (main thread only)
  std::atomic<std::uint64_t> failovers_{0};

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
};

}  // namespace abenc::service
