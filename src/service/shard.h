// A shard of the encoding service: the unit of parallelism and of
// failure containment. Each shard owns a set of sessions and a run queue
// of the ones with queued work. Step() drains every session on the run
// queue once, one bounded batch each, round-robin; a session that still
// has work re-queues itself at the end of its DrainStep. The submission
// that makes a session runnable puts it on its shard's run queue, and
// the first one to find the shard unscheduled asks the service to
// schedule the shard's driver (EncodingService::ScheduleDriver). The
// driver steps while the run queue is non-empty and returns when it is
// empty (FinishPass), so an idle shard costs nothing.
//
// Robustness hooks:
//  - a heartbeat counter advances at the end of every Step(), so the
//    service watchdog can tell a wedged shard (heartbeat frozen while it
//    has work) from an idle one;
//  - a Step() that a session's drain throws out of still ends the pass:
//    the sessions it had not drained go back on the run queue (the one
//    that threw behind the rest) and the heartbeat advances, so one
//    failing session neither strands the others nor reads as a wedge;
//  - MarkDead() fences a failed-over shard: a zombie Step() that resumes
//    after failover observes the flag and exits without touching the
//    sessions, which by then belong to another shard (session drains are
//    additionally serialized by each session's own drain mutex, so even
//    the fence race is safe);
//  - TakeAll() migrates the sessions out for failover; Add() on the
//    survivor re-queues each one that has work;
//  - a stall hook injects the "stuck shard" fault itself — the soak
//    harness and tests wedge a shard on purpose to prove the watchdog
//    path end to end.
//
// Eviction policy: Step() evicts an over-budget session right after the
// drain that empties it; SweepIdle() evicts sessions that stayed without
// work for `idle_evict_steps` consecutive sweeps (the service sweeps
// once per StepAll() in manual mode and once per watchdog interval when
// its drivers run) — bounded state, deterministic teardown (see
// session.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "service/session.h"

namespace abenc::service {

class EncodingService;

class Shard {
 public:
  /// Accesses drained per session per Step().
  static constexpr std::size_t kDrainBatch = 256;

  /// `idle_evict_steps` 0 = never idle-evict.
  Shard(unsigned index, std::uint64_t idle_evict_steps,
        const ServiceMetrics* metrics, EncodingService& service)
      : index_(index),
        idle_evict_steps_(idle_evict_steps),
        metrics_(metrics),
        service_(service) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  unsigned index() const { return index_; }

  /// Take ownership of a session; it joins the run queue if it has work.
  void Add(std::shared_ptr<Session> session);

  /// Remove and return every session and empty the run queue (watchdog
  /// failover).
  std::vector<std::shared_ptr<Session>> TakeAll();

  /// Drop a released session from the shard's list. Its run-queue entry,
  /// if a pass still holds one, drains nothing and is dropped by it.
  void Remove(const Session& session);

  /// Put a runnable session on the run queue and schedule the driver if
  /// it is not already scheduled (Session calls this).
  void Enqueue(std::shared_ptr<Session> session);

  /// Session calls this when its queue drained to empty; the service
  /// wakes Drain() waiters and an armed drain signal's listener.
  void Drained(Session& session);

  /// One drain pass over the run queue. No-op once dead. An exception
  /// from a session's drain ends the pass early and is rethrown, after
  /// the undrained sessions are back on the run queue.
  void Step();

  /// The driver's end of pass: true while the run queue holds sessions
  /// (step again); false clears the scheduled flag, under the same lock
  /// Enqueue() takes, so a submission cannot slip between the two.
  bool FinishPass();

  /// Count one idle sweep for every owned session without queued work
  /// and evict those idle for `idle_evict_steps` sweeps; returns how many
  /// it evicted.
  std::size_t SweepIdle();

  /// Advances at the end of every Step(), one a drain threw out of too.
  std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_acquire);
  }

  /// Whether the shard has work: sessions on its run queue or a Step()
  /// in progress (the watchdog only needs "is there work").
  bool has_work() const;

  /// Whether a driver was requested and has not finished its last pass
  /// (always, once anything was queued, in manual mode). Only
  /// ScheduleDriver sets it, which is what wakes a parked watchdog.
  bool scheduled() const;

  bool dead() const { return dead_.load(std::memory_order_acquire); }
  void MarkDead() { dead_.store(true, std::memory_order_release); }

  /// Fault-injection hook, fired at the start of every Step(); install
  /// before traffic starts. A hook that blocks models a wedged shard.
  void SetStallHook(std::function<void()> hook);

 private:
  // Drain the sessions on the run queue (Step() after its stall hook).
  void DrainReady();
  // Clear stepping_ and advance the heartbeat: the pass is over.
  void EndStep();

  const unsigned index_;
  const std::uint64_t idle_evict_steps_;
  const ServiceMetrics* metrics_;
  EncodingService& service_;

  // Guards sessions_, run_queue_, scheduled_, stepping_ and stall_hook_.
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::vector<std::shared_ptr<Session>> run_queue_;
  // A driver task was requested and has not finished its last pass (in
  // manual mode the service runs none, and this stays set).
  bool scheduled_ = false;
  bool stepping_ = false;   // a Step() is between its hook and heartbeat
  std::function<void()> stall_hook_;

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> dead_{false};
};

}  // namespace abenc::service
