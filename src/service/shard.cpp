#include "service/shard.h"

#include <utility>

#include "service/service.h"

namespace abenc::service {

void Shard::Add(std::shared_ptr<Session> session) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.push_back(session);
  }
  session->MoveTo(this);  // may Enqueue(), so outside the lock
}

std::vector<std::shared_ptr<Session>> Shard::TakeAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Session>> taken;
  taken.swap(sessions_);
  run_queue_.clear();
  return taken;
}

void Shard::Remove(const Session& session) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(sessions_, [&](const std::shared_ptr<Session>& owned) {
    return owned.get() == &session;
  });
}

void Shard::Enqueue(std::shared_ptr<Session> session) {
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    run_queue_.push_back(std::move(session));
    if (!scheduled_ && !dead()) {
      scheduled_ = true;
      schedule = true;
    }
  }
  if (schedule) service_.ScheduleDriver(index_);
}

void Shard::Drained(Session& session) { service_.SessionDrained(session); }

bool Shard::FinishPass() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!run_queue_.empty()) return true;
  scheduled_ = false;
  return false;
}

void Shard::SetStallHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  stall_hook_ = std::move(hook);
}

void Shard::Step() {
  if (dead()) return;
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hook = stall_hook_;
    stepping_ = true;
  }
  try {
    if (hook) hook();  // injected fault: a wedged shard hangs here
    DrainReady();
  } catch (...) {
    EndStep();
    throw;
  }
  EndStep();
}

void Shard::DrainReady() {
  if (dead()) return;  // failed over while we were stuck
  // This pass owns the sessions queued so far; each one that keeps work
  // re-queues itself for the next pass, which makes the pass round-robin.
  std::vector<std::shared_ptr<Session>> ready;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ready.swap(run_queue_);
  }
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (dead()) break;  // failover re-queues the rest on the survivors
    Session& session = *ready[i];
    try {
      session.DrainStep(kDrainBatch);
      // Over-budget eviction right after the drain; Evict() itself
      // re-checks eligibility (active, queue empty) under the session's
      // locks, so this is a cheap pre-filter.
      if (session.OverBudget()) session.Evict();
    } catch (...) {
      // Sessions keep their runnable flag while on no run queue, so no
      // submission would re-queue them: put the rest of the pass back in
      // order, ahead of later arrivals, and the one that threw behind
      // everything, so a session that keeps throwing cannot starve the
      // others. A dead shard's sessions are re-queued by failover.
      std::lock_guard<std::mutex> lock(mutex_);
      if (!dead()) {
        run_queue_.insert(run_queue_.begin(), ready.begin() + i + 1,
                          ready.end());
        run_queue_.push_back(std::move(ready[i]));
      }
      throw;
    }
  }
}

void Shard::EndStep() {
  Bump(metrics_->shard_steps);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stepping_ = false;
  }
  heartbeat_.fetch_add(1, std::memory_order_release);
}

std::size_t Shard::SweepIdle() {
  if (idle_evict_steps_ == 0 || dead()) return 0;
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions = sessions_;
  }
  std::size_t evicted = 0;
  for (const std::shared_ptr<Session>& session : sessions) {
    if (session->queued() != 0) continue;
    if (session->CountIdleSweep() >= idle_evict_steps_ && session->Evict()) {
      ++evicted;
    }
  }
  return evicted;
}

bool Shard::has_work() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stepping_ || !run_queue_.empty();
}

bool Shard::scheduled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scheduled_;
}

}  // namespace abenc::service
