#include "service/service.h"

#include <stdexcept>
#include <utility>

namespace abenc::service {

EncodingService::EncodingService(ServiceConfig config)
    : config_(std::move(config)), metrics_(ServiceMetrics::Resolve()) {
  if (config_.shards == 0) {
    throw std::invalid_argument("EncodingService: shards must be nonzero");
  }
  shards_.reserve(config_.shards);
  for (unsigned i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, config_.idle_evict_steps,
                                              &metrics_, *this));
  }
  if (config_.start_drivers) {
    const unsigned workers = config_.parallelism != 0
                                 ? config_.parallelism
                                 : ThreadPool::DefaultParallelism();
    pool_ = std::make_unique<ThreadPool>(workers);
    if (config_.enable_watchdog || config_.idle_evict_steps != 0) {
      watchdog_ = std::thread([this]() { WatchdogLoop(); });
    }
  }
}

EncodingService::~EncodingService() { Stop(); }

std::uint64_t EncodingService::OpenSession() {
  return OpenSession(config_.session);
}

std::uint64_t EncodingService::OpenSession(
    const SessionConfig& session_config) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const std::uint64_t id = next_session_id_++;
  auto session = std::make_shared<Session>(id, session_config, &metrics_);
  // Round-robin placement over live shards; a dead shard never gets new
  // sessions.
  for (std::size_t probe = 0; probe < shards_.size(); ++probe) {
    Shard& shard = *shards_[next_shard_++ % shards_.size()];
    if (!shard.dead()) {
      shard.Add(session);
      sessions_.emplace(id, std::move(session));
      Bump(metrics_.sessions_opened);
      return id;
    }
  }
  throw std::runtime_error("EncodingService: every shard has failed");
}

namespace {

std::shared_ptr<Session> FindSession(
    const std::map<std::uint64_t, std::shared_ptr<Session>>& sessions,
    std::uint64_t id, std::mutex& mutex) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = sessions.find(id);
  if (it == sessions.end()) {
    throw std::out_of_range("EncodingService: unknown session id " +
                            std::to_string(id));
  }
  return it->second;
}

}  // namespace

Admission EncodingService::Submit(std::uint64_t session_id,
                                  std::span<const BusAccess> batch) {
  return FindSession(sessions_, session_id, sessions_mutex_)->Submit(batch);
}

Admission EncodingService::SubmitColumns(std::uint64_t session_id,
                                         ColumnBatch&& batch) {
  return FindSession(sessions_, session_id, sessions_mutex_)
      ->SubmitColumns(std::move(batch));
}

RenegotiateOutcome EncodingService::Renegotiate(
    std::uint64_t session_id, const std::string& codec_name) {
  return FindSession(sessions_, session_id, sessions_mutex_)
      ->Renegotiate(codec_name);
}

std::optional<RenegotiationSnapshot> EncodingService::StatsSnapshot(
    std::uint64_t session_id) const {
  return FindSession(sessions_, session_id, sessions_mutex_)
      ->StatsSnapshot();
}

void EncodingService::CloseSession(std::uint64_t session_id) {
  FindSession(sessions_, session_id, sessions_mutex_)->CloseInput();
}

bool EncodingService::ReleaseSession(std::uint64_t session_id) {
  // Destroyed after the lock is dropped, unless a shard pass still holds
  // it; then that pass destroys it.
  std::shared_ptr<Session> released;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      throw std::out_of_range("EncodingService: unknown session id " +
                              std::to_string(session_id));
    }
    // Closed and drained stays drained: no submission is admitted.
    if (!it->second->input_closed() || it->second->queued() != 0) {
      return false;
    }
    released = std::move(it->second);
    sessions_.erase(it);
    // FailOver holds this lock from TakeAll to its last Add, so the
    // owning shard is the one whose list holds the session.
    released->shard()->Remove(*released);
  }
  sessions_released_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool EncodingService::EvictSession(std::uint64_t session_id) {
  return FindSession(sessions_, session_id, sessions_mutex_)->Evict();
}

SessionReport EncodingService::Report(std::uint64_t session_id) const {
  return FindSession(sessions_, session_id, sessions_mutex_)->Report();
}

std::size_t EncodingService::SessionQueued(std::uint64_t session_id) const {
  return FindSession(sessions_, session_id, sessions_mutex_)->queued();
}

bool EncodingService::NotifyWhenDrained(std::uint64_t session_id) {
  return FindSession(sessions_, session_id, sessions_mutex_)
      ->ArmDrainSignal();
}

void EncodingService::SetDrainListener(
    std::function<void(std::uint64_t)> listener) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  drain_listener_ = std::move(listener);
}

void EncodingService::SessionDrained(Session& session) {
  {
    // Taking the waiters' mutex orders this notify after a waiter that
    // just found work left, so Drain() cannot miss it.
    std::lock_guard<std::mutex> lock(drained_mutex_);
  }
  drained_cv_.notify_all();
  if (session.TakeDrainSignal()) {
    // Called under the lock, so SetDrainListener({}) returning means no
    // call is in flight: the listener's owner may then be destroyed.
    std::lock_guard<std::mutex> lock(listener_mutex_);
    if (drain_listener_) drain_listener_(session.id());
  }
}

std::size_t EncodingService::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::size_t EncodingService::total_queued() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::size_t total = 0;
  for (const auto& [id, session] : sessions_) total += session->queued();
  return total;
}

bool EncodingService::Drain(std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  if (config_.start_drivers) {
    std::unique_lock<std::mutex> lock(drained_mutex_);
    return drained_cv_.wait_until(lock, until,
                                  [this]() { return total_queued() == 0; });
  }
  for (;;) {
    if (total_queued() == 0) return true;
    if (std::chrono::steady_clock::now() >= until) return false;
    StepAll();
  }
}

ShutdownResult EncodingService::Stop(std::chrono::milliseconds deadline) {
  if (stopped_) return ShutdownResult::kDrained;
  {
    // Set under the watchdog's mutex, so a parked watchdog cannot miss
    // the notify.
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  ShutdownResult result = ShutdownResult::kDrained;
  if (pool_) {
    // The pool object lives on until the service does: a submission on a
    // client thread may still schedule a driver, which a stopped pool
    // refuses (ScheduleDriver). On kTimedOut its workers were detached
    // and share its internal state; destroying the service is then safe,
    // but the wedged task itself must not touch the service after that —
    // the caller unwedges or leaks it, as with any deadline-abandonment
    // scheme.
    result = pool_->Shutdown(deadline);
  }
  stopped_ = true;
  return result;
}

void EncodingService::StepAll() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->dead()) shard->Step();
  }
  SweepIdle();
}

void EncodingService::SweepIdle() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    idle_evictions_.fetch_add(shard->SweepIdle(), std::memory_order_relaxed);
  }
}

void EncodingService::ScheduleDriver(unsigned index) {
  // Manual mode runs no drivers: StepAll() steps the shards.
  if (!config_.start_drivers || stopping_.load(std::memory_order_acquire)) {
    return;
  }
  // The shard set its scheduled flag under its lock before calling, so a
  // watchdog that parked after finding no driver scheduled is seen here.
  if (watchdog_parked_.load()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mutex_);
      watchdog_parked_.store(false);
    }
    watchdog_cv_.notify_all();
  }
  try {
    pool_->Submit([this, index]() { DriveShard(index); });
  } catch (const std::logic_error&) {
    // Shutdown began between the check above and the submit; done.
  }
}

void EncodingService::DriveShard(std::size_t index) {
  Shard& shard = *shards_[index];
  for (;;) {
    if (stopping_.load(std::memory_order_acquire) || shard.dead()) return;
    try {
      shard.Step();
    } catch (...) {
      // A shard pass must never take the pool down; count and carry on.
      Bump(metrics_.shard_errors);
    }
    if (stopping_.load(std::memory_order_acquire) || shard.dead()) return;
    // Done until a submission schedules the driver again.
    if (!shard.FinishPass()) return;
    // Sessions are still ready. Step again on this worker unless another
    // driver waits for one; then queue behind it, so shards take turns
    // when there are more shards than workers. Resubmitting after every
    // pass would instead wake an idle worker for each kDrainBatch.
    if (pool_->queued() != 0) {
      ScheduleDriver(static_cast<unsigned>(index));
      return;
    }
  }
}

void EncodingService::WatchdogLoop() {
  std::vector<std::uint64_t> last_beat(shards_.size(), 0);
  std::vector<unsigned> strikes(shards_.size(), 0);
  // Idle sweeps count intervals, so a watchdog that runs them never
  // parks.
  const bool may_park =
      config_.enable_watchdog && config_.idle_evict_steps == 0;
  const auto stopping = [this]() {
    return stopping_.load(std::memory_order_acquire);
  };
  bool park = false;
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!stopping()) {
    if (park) {
      // Published before the re-check: a driver scheduled after it finds
      // the flag set and wakes us (ScheduleDriver).
      watchdog_parked_.store(true);
      if (!AnyDriverScheduled()) {
        watchdog_cv_.wait(lock, [&]() {
          return stopping() || !watchdog_parked_.load();
        });
      }
      watchdog_parked_.store(false);
    }
    // A full interval before the next check, after a park too, so new
    // work is not struck against before its driver has had one.
    watchdog_cv_.wait_for(lock, config_.watchdog_interval, stopping);
    if (stopping()) return;
    SweepIdle();
    if (!config_.enable_watchdog) continue;
    Bump(metrics_.watchdog_checks);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      if (shard.dead()) continue;
      const std::uint64_t beat = shard.heartbeat();
      if (beat != last_beat[i]) {
        last_beat[i] = beat;
        strikes[i] = 0;
        continue;
      }
      if (!shard.has_work()) {
        strikes[i] = 0;  // frozen but idle: nothing to miss
        continue;
      }
      if (++strikes[i] >= config_.watchdog_stuck_strikes) {
        // Never fail over the last live shard: a starved-but-alive
        // shard will eventually drain, whereas killing it would strand
        // every session on a dead shard and deadlock Drain().
        unsigned live = 0;
        for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
          if (!shard_ptr->dead()) ++live;
        }
        if (live > 1) FailOver(i);
        strikes[i] = 0;
      }
    }
    park = may_park && !AnyDriverScheduled();
  }
}

bool EncodingService::AnyDriverScheduled() const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->dead() && shard->scheduled()) return true;
  }
  return false;
}

void EncodingService::FailOver(std::size_t index) {
  Shard& stuck = *shards_[index];
  stuck.MarkDead();  // fence: a resuming zombie Step() exits untouched
  // Held until every orphan is on its new shard, so ReleaseSession never
  // finds one between two lists.
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::vector<std::shared_ptr<Session>> orphans = stuck.TakeAll();
  // Migrate to the surviving shards, round-robin. With no survivor the
  // sessions are parked back on the dead shard: nothing will drain them,
  // but Report()/Submit() still work and Stop() stays bounded.
  std::vector<Shard*> alive;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->dead()) alive.push_back(shard.get());
  }
  // Add() re-queues each migrated session that has work on its new
  // shard and schedules that shard's driver, so the survivors drain them
  // without a further submission.
  std::size_t target = 0;
  for (std::shared_ptr<Session>& orphan : orphans) {
    if (alive.empty()) {
      stuck.Add(std::move(orphan));
    } else {
      alive[target++ % alive.size()]->Add(std::move(orphan));
    }
  }
  failovers_.fetch_add(1, std::memory_order_relaxed);
  Bump(metrics_.watchdog_failovers);
}

}  // namespace abenc::service
