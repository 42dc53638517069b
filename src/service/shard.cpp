#include "service/shard.h"

#include <utility>

namespace abenc::service {

void Shard::Add(std::shared_ptr<Session> session) {
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.push_back(std::move(session));
}

std::vector<std::shared_ptr<Session>> Shard::TakeAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Session>> taken;
  taken.swap(sessions_);
  return taken;
}

void Shard::SetStallHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  stall_hook_ = std::move(hook);
}

bool Shard::Step() {
  if (dead()) return false;
  std::function<void()> hook;
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hook = stall_hook_;
    sessions = sessions_;
  }
  if (hook) hook();       // injected fault: a wedged shard hangs here
  if (dead()) return false;  // failed over while we were stuck

  bool worked = false;
  for (const std::shared_ptr<Session>& session : sessions) {
    if (dead()) break;
    const std::size_t processed = session->DrainStep(kDrainBatch);
    worked |= processed != 0;
    // Eviction policy: bounded state for quiet or over-budget sessions.
    // Evict() itself re-checks eligibility (active, queue empty) under
    // the session's locks, so these are cheap pre-filters.
    if (session->OverBudget()) {
      session->Evict();
    } else if (processed == 0 && idle_evict_steps_ != 0 &&
               session->idle_steps() >= idle_evict_steps_ &&
               session->state() == SessionState::kActive) {
      session->Evict();
    }
  }
  Bump(metrics_->shard_steps);
  heartbeat_.fetch_add(1, std::memory_order_release);
  return worked;
}

std::size_t Shard::pending() const {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions = sessions_;
  }
  std::size_t total = 0;
  for (const std::shared_ptr<Session>& session : sessions) {
    total += session->queued();
  }
  return total;
}

}  // namespace abenc::service
