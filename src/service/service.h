// The always-on encoding service: N client sessions, each an independent
// codec FSM, sharded across workers on the core thread pool, multiplexed
// over the fault-tolerant bus channel as transport, instrumented via
// the process MetricsRegistry.
//
// Composition (docs/ARCHITECTURE.md "Service layer"):
//
//   clients ──Submit()──► Session queues (bounded, backpressure)
//                               │ runnable sessions join their shard's
//                         run queue, drained by
//                         Shard::Step()  × config.shards
//                               │ driven by per-shard tasks on
//                         ThreadPool(config.parallelism)
//                               │ watched by
//                         watchdog thread (heartbeats → failover,
//                                          idle-eviction sweeps)
//
// Everything wakes on work, never on a clock: the submission that makes
// a session runnable schedules its shard's driver, which steps while its
// run queue holds sessions and returns when it is empty. It keeps its
// worker between passes unless another driver waits for one, and never
// blocks a worker waiting for work, so shards > parallelism still drains
// every shard. A session that drains to empty notifies Drain()
// waiters and, when armed with NotifyWhenDrained(), the drain listener.
// Only the watchdog keeps a clock: once per watchdog_interval it checks
// heartbeats and sweeps for idle sessions to evict. Without idle
// eviction it parks, untimed, after a check that finds no shard with a
// driver scheduled, and the next ScheduleDriver wakes it.
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
#include <condition_variable>
#include <cstdint>
#include <functional>
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

  /// Evict a session after this many consecutive idle sweeps (one per
  /// StepAll() in manual mode, one per watchdog_interval when the
  /// drivers run); 0 = never idle-evict.
  std::uint64_t idle_evict_steps = 0;
  /// Defaults for OpenSession() without an explicit config.
  SessionConfig session;

  /// Heartbeat checks and failover. The watchdog thread also runs, for
  /// the idle sweeps alone, when this is off but idle_evict_steps is set.
  bool enable_watchdog = true;
  std::chrono::milliseconds watchdog_interval{20};
  /// Consecutive frozen-heartbeat checks (with pending work) before a
  /// shard is declared stuck and failed over.
  unsigned watchdog_stuck_strikes = 5;
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

  /// Close a session's input; queued work still drains, and Report()
  /// stays readable until ReleaseSession().
  void CloseSession(std::uint64_t session_id);

  /// Free a session whose input is closed and whose queue has drained
  /// (queued() == 0): it leaves the service and its shard, and every
  /// later call naming its id throws std::out_of_range. Returns false,
  /// keeping the session, while its input is open or work is queued.
  /// Unknown ids throw std::out_of_range.
  bool ReleaseSession(std::uint64_t session_id);

  /// Explicit eviction (tests, admin): deterministic teardown if the
  /// session is active with an empty queue. Returns whether it happened.
  bool EvictSession(std::uint64_t session_id);

  SessionReport Report(std::uint64_t session_id) const;

  /// Accesses queued and not yet processed for one session; zero means
  /// the session is quiescent and Report() is complete. Unknown ids
  /// throw std::out_of_range.
  std::size_t SessionQueued(std::uint64_t session_id) const;

  /// Arm a one-shot signal for when `session_id` drains to empty (the
  /// wait_drained deferral in src/net). Returns true when the session is
  /// quiescent already: nothing will be signalled, answer now. Otherwise
  /// the draining thread calls the drain listener with the id once the
  /// queue is empty. Unknown ids throw std::out_of_range.
  bool NotifyWhenDrained(std::uint64_t session_id);

  /// Install (or, with an empty function, remove) the drain listener.
  /// It runs on a shard thread and must not block; once removal returns
  /// no call is in flight.
  void SetDrainListener(std::function<void(std::uint64_t)> listener);

  /// Wait until every queue is empty and all popped work has been
  /// processed, or the deadline passes; returns whether the service is
  /// quiescent. With drivers it sleeps until a session drains to empty;
  /// in manual mode (start_drivers = false) it steps the shards itself.
  bool Drain(std::chrono::milliseconds deadline);

  /// Stop drivers and watchdog. Bounded by ThreadPool::Shutdown: a
  /// wedged shard driver is abandoned at the deadline rather than
  /// blocking forever. Idempotent.
  ShutdownResult Stop(
      std::chrono::milliseconds deadline = std::chrono::milliseconds(5000));

  /// Manual mode: one Step() of every live shard on the caller thread,
  /// then one idle sweep of each.
  void StepAll();

  /// Accesses queued and not yet processed, summed over all sessions.
  std::size_t total_queued() const;

  /// Sessions opened and not yet released.
  std::size_t session_count() const;

  /// Sessions freed by ReleaseSession().
  std::uint64_t sessions_released() const {
    return sessions_released_.load(std::memory_order_relaxed);
  }

  std::uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }

  /// Sessions evicted by idle sweeps (not by budget or EvictSession).
  std::uint64_t idle_evictions() const {
    return idle_evictions_.load(std::memory_order_relaxed);
  }

  /// Test access to a shard (stall hooks, heartbeats).
  Shard& shard(unsigned index) { return *shards_[index]; }

 private:
  // A shard asks for its driver (Shard::Enqueue) and reports a session
  // drained to empty (Shard::Drained).
  friend class Shard;
  void ScheduleDriver(unsigned index);
  void SessionDrained(Session& session);

  void DriveShard(std::size_t index);
  void SweepIdle();  // one idle sweep of every shard
  void WatchdogLoop();
  bool AnyDriverScheduled() const;  // over the live shards
  void FailOver(std::size_t index);

  ServiceConfig config_;
  ServiceMetrics metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;

  // Also held by FailOver from TakeAll to the last Add, so a session is
  // on exactly one shard's list whenever this is free.
  mutable std::mutex sessions_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
  std::size_t next_shard_ = 0;  // round-robin placement

  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // Stop() ran to completion (main thread only)
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> idle_evictions_{0};
  std::atomic<std::uint64_t> sessions_released_{0};

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
  // The watchdog waits untimed for ScheduleDriver; set and cleared under
  // watchdog_mutex_, read without it on the scheduling path.
  std::atomic<bool> watchdog_parked_{false};

  // Drain(): notified whenever a session drains to empty.
  std::mutex drained_mutex_;
  std::condition_variable drained_cv_;

  std::mutex listener_mutex_;
  std::function<void(std::uint64_t)> drain_listener_;
};

}  // namespace abenc::service
