// Minimal fixed-size worker pool behind the parallel experiment engine
// and the encoding service's shard drivers.
//
// Deliberately small: a FIFO task queue, `Submit` returning a
// `std::future` (so exceptions thrown inside a task surface at
// `future::get`, never `std::terminate`), and a join-on-destruction
// contract that drains every queued task before the destructor returns.
// Determinism is the caller's job — the pool promises only that each
// submitted task runs exactly once on some worker; callers that need
// reproducible output write results into pre-allocated slots keyed by
// submission index (see `RunComparison` in core/experiment.h).
//
// For long-running services the drain-on-destruct contract has a failure
// mode: one hung task blocks destruction forever. `Shutdown(deadline)`
// bounds that — it drains with a timeout and, on expiry, abandons the
// stuck workers (detaching them) and discards the unstarted backlog so
// the destructor can return.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace abenc {

/// Outcome of ThreadPool::Shutdown().
enum class ShutdownResult : unsigned char {
  kDrained,   // every task ran; all workers exited within the deadline
  kTimedOut,  // stuck workers were abandoned; queued tasks were discarded
};

/// Fixed set of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `workers` threads; `workers` is clamped to at least 1.
  explicit ThreadPool(unsigned workers);

  /// Joins after draining the queue: every task submitted before
  /// destruction runs to completion. After a timed-out Shutdown() the
  /// abandoned workers are already detached and the destructor returns
  /// immediately.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a callable; the future carries its return value or the
  /// exception it threw.
  template <typename F>
  auto Submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    Enqueue([packaged]() { (*packaged)(); });
    return future;
  }

  /// Timed drain. Stops intake (Submit afterwards throws
  /// std::logic_error), lets the workers finish the backlog, and waits up
  /// to `deadline` for all of them to exit.
  ///
  /// On kDrained the pool is cleanly stopped and destruction is free. On
  /// kTimedOut every task still queued is discarded — its future reports
  /// std::future_error(broken_promise) — and the workers (at least one of
  /// which is wedged inside a task) are detached, so destruction cannot
  /// block; the abandoned task keeps running on its detached thread and
  /// must not touch caller state that dies with the pool's owner — the
  /// same hazard any deadline-abandonment scheme carries. Pool-internal
  /// state is shared-owned by the workers and stays valid. Idempotent:
  /// repeat calls re-wait for still-alive workers.
  ShutdownResult Shutdown(std::chrono::milliseconds deadline);

  /// Tasks submitted and not yet taken by a worker.
  std::size_t queued() const;

  /// `std::thread::hardware_concurrency()`, never reported as 0.
  static unsigned DefaultParallelism();

 private:
  /// Queue state shared with the workers, so threads abandoned by a
  /// timed-out Shutdown() can finish their loop after the pool is gone.
  struct State {
    std::mutex mutex;
    std::condition_variable work_available;
    std::condition_variable worker_exited;
    std::queue<std::function<void()>> tasks;
    bool stopping = false;
    unsigned alive = 0;
  };

  void Enqueue(std::function<void()> task);
  static void WorkerLoop(const std::shared_ptr<State>& state);

  std::shared_ptr<State> state_;
  std::vector<std::thread> workers_;
};

}  // namespace abenc
