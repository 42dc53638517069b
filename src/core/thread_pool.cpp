#include "core/thread_pool.h"

#include <algorithm>
#include <stdexcept>

namespace abenc {

ThreadPool::ThreadPool(unsigned workers)
    : state_(std::make_shared<State>()) {
  const unsigned count = std::max(1u, workers);
  state_->alive = count;
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([state = state_]() { WorkerLoop(state); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stopping = true;
  }
  state_->work_available.notify_all();
  // Workers detached by a timed-out Shutdown() are no longer joinable
  // and are skipped — that is what keeps a hung task from blocking here.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ShutdownResult ThreadPool::Shutdown(std::chrono::milliseconds deadline) {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->stopping = true;
  state_->work_available.notify_all();
  const bool drained = state_->worker_exited.wait_for(
      lock, deadline, [this]() { return state_->alive == 0; });
  if (drained) {
    lock.unlock();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    return ShutdownResult::kDrained;
  }
  // At least one worker is wedged inside a task. Discard the unstarted
  // backlog (destroying a queued packaged_task breaks its promise, so
  // waiting futures throw instead of hanging) and abandon the workers.
  std::queue<std::function<void()>> discarded;
  discarded.swap(state_->tasks);
  lock.unlock();
  discarded = {};  // destroy outside the lock; futures see broken_promise
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.detach();
  }
  return ShutdownResult::kTimedOut;
}

unsigned ThreadPool::DefaultParallelism() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->tasks.size();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->stopping) {
      throw std::logic_error("ThreadPool: Submit after shutdown began");
    }
    state_->tasks.push(std::move(task));
  }
  state_->work_available.notify_one();
}

void ThreadPool::WorkerLoop(const std::shared_ptr<State>& state) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->work_available.wait(
          lock, [&]() { return state->stopping || !state->tasks.empty(); });
      if (state->tasks.empty()) {  // stopping and drained (or discarded)
        --state->alive;
        state->worker_exited.notify_all();
        return;
      }
      task = std::move(state->tasks.front());
      state->tasks.pop();
    }
    task();  // packaged_task: exceptions are captured into the future
  }
}

}  // namespace abenc
