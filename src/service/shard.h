// A shard of the encoding service: the unit of parallelism and of
// failure containment. Each shard owns a set of sessions and drains them
// round-robin, one bounded batch per session per Step(); a driver task
// on the service's thread pool calls Step() in a loop.
//
// Robustness hooks:
//  - a heartbeat counter advances at the end of every Step(), so the
//    service watchdog can tell a wedged shard (heartbeat frozen while
//    sessions have queued work) from an idle one;
//  - MarkDead() fences a failed-over shard: a zombie Step() that resumes
//    after failover observes the flag and exits without touching the
//    sessions, which by then belong to another shard (session drains are
//    additionally serialized by each session's own drain mutex, so even
//    the fence race is safe);
//  - TakeAll() migrates the sessions out for failover;
//  - a stall hook injects the "stuck shard" fault itself — the soak
//    harness and tests wedge a shard on purpose to prove the watchdog
//    path end to end.
//
// Step() also applies the eviction policy after draining each session:
// idle sessions (no work for `idle_evict_steps` consecutive steps) and
// over-budget sessions are evicted — bounded state, deterministic
// teardown (see session.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "service/session.h"

namespace abenc::service {

class Shard {
 public:
  /// Accesses drained per session per Step().
  static constexpr std::size_t kDrainBatch = 256;

  /// `idle_evict_steps` 0 = never idle-evict.
  Shard(unsigned index, std::uint64_t idle_evict_steps,
        const ServiceMetrics* metrics)
      : index_(index), idle_evict_steps_(idle_evict_steps), metrics_(metrics) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  unsigned index() const { return index_; }

  void Add(std::shared_ptr<Session> session);

  /// Remove and return every session (watchdog failover).
  std::vector<std::shared_ptr<Session>> TakeAll();

  /// One drain pass over all owned sessions; returns whether any access
  /// was processed. No-op once dead.
  bool Step();

  /// Advances at the end of every completed Step().
  std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_acquire);
  }

  /// Total accesses queued across owned sessions (approximate — sampled
  /// without stopping the world; the watchdog only needs "is there
  /// work").
  std::size_t pending() const;

  bool dead() const { return dead_.load(std::memory_order_acquire); }
  void MarkDead() { dead_.store(true, std::memory_order_release); }

  /// Fault-injection hook, fired at the start of every Step(); install
  /// before traffic starts. A hook that blocks models a wedged shard.
  void SetStallHook(std::function<void()> hook);

 private:
  const unsigned index_;
  const std::uint64_t idle_evict_steps_;
  const ServiceMetrics* metrics_;

  mutable std::mutex mutex_;  // guards sessions_ and stall_hook_
  std::vector<std::shared_ptr<Session>> sessions_;
  std::function<void()> stall_hook_;

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> dead_{false};
};

}  // namespace abenc::service
