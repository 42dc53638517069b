// The parallel experiment engine's contract: bit-identical results to
// the sequential path, clean exception propagation from worker tasks,
// and a stable JSON round trip for the machine-readable output.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/thread_pool.h"
#include "report/json_writer.h"
#include "trace/synthetic.h"

namespace abenc {
namespace {

std::vector<NamedStream> StudyStreams() {
  SyntheticGenerator gen(42);
  return {
      NamedStream{"sequential",
                  gen.Sequential(4000, 0x400000, 4, 32).ToBusAccesses()},
      NamedStream{"random", gen.UniformRandom(4000, 32).ToBusAccesses()},
      NamedStream{"strided",
                  gen.Sequential(4000, 0x10000, 8, 32).ToBusAccesses()},
  };
}

const std::vector<std::string> kStudyCodecs = {"t0", "bus-invert",
                                               "dual-t0-bi", "working-zone"};

void ExpectSameEvalResult(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.codec_name, b.codec_name);
  EXPECT_EQ(a.stream_length, b.stream_length);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.peak_transitions, b.peak_transitions);
  // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit-identical.
  EXPECT_EQ(a.in_sequence_percent, b.in_sequence_percent);
  EXPECT_EQ(a.per_line, b.per_line);
}

void ExpectSameComparison(const Comparison& a, const Comparison& b) {
  ASSERT_EQ(a.codec_names, b.codec_names);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t s = 0; s < a.rows.size(); ++s) {
    EXPECT_EQ(a.rows[s].stream_name, b.rows[s].stream_name);
    ExpectSameEvalResult(a.rows[s].binary, b.rows[s].binary);
    ASSERT_EQ(a.rows[s].cells.size(), b.rows[s].cells.size());
    for (std::size_t c = 0; c < a.rows[s].cells.size(); ++c) {
      ExpectSameEvalResult(a.rows[s].cells[c].result,
                           b.rows[s].cells[c].result);
      EXPECT_EQ(a.rows[s].cells[c].savings_percent,
                b.rows[s].cells[c].savings_percent);
    }
  }
  EXPECT_EQ(a.average_savings(), b.average_savings());
  EXPECT_EQ(a.average_in_sequence_percent(), b.average_in_sequence_percent());
}

TEST(ParallelComparisonTest, BitIdenticalToSequential) {
  const auto streams = StudyStreams();
  const CodecOptions options;
  const Comparison sequential =
      RunComparison(kStudyCodecs, streams, options, nullptr,
                    RunOptions{.parallelism = 1});
  for (const unsigned parallelism : {2u, 4u, 0u}) {
    const Comparison parallel =
        RunComparison(kStudyCodecs, streams, options, nullptr,
                      RunOptions{.parallelism = parallelism});
    ExpectSameComparison(sequential, parallel);
  }
}

TEST(ParallelComparisonTest, ConfigureCallbackPathIsBitIdentical) {
  const auto streams = StudyStreams();
  CodecOptions options;
  options.stride = 4;
  const auto configure = [](const std::string& name, CodecOptions& o) {
    if (name == "t0") o.stride = 8;
    if (name == "working-zone") o.wz_zones = 2;
  };
  const Comparison sequential =
      RunComparison(kStudyCodecs, streams, options, configure,
                    RunOptions{.parallelism = 1});
  const Comparison parallel =
      RunComparison(kStudyCodecs, streams, options, configure,
                    RunOptions{.parallelism = 4});
  ExpectSameComparison(sequential, parallel);
  // And the configure hook actually took effect (stride 8 helps the
  // strided stream's T0 column).
  EXPECT_GT(parallel.rows[2].cells[0].savings_percent, 99.0);
}

TEST(ParallelComparisonTest, ThrowingConfigurePropagatesFromWorkers) {
  const auto streams = StudyStreams();
  const auto throwing = [](const std::string& name, CodecOptions&) {
    if (name == "bus-invert") {
      throw std::runtime_error("configure rejected bus-invert");
    }
  };
  for (const unsigned parallelism : {1u, 4u}) {
    try {
      RunComparison(kStudyCodecs, streams, CodecOptions{}, throwing,
                    RunOptions{.parallelism = parallelism});
      FAIL() << "expected the configure exception to propagate";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "configure rejected bus-invert");
    }
  }
}

TEST(ParallelComparisonTest, FirstFailureInGridOrderWins) {
  // Two codecs fail with different messages; the earliest cell in
  // (stream, codec) order must win deterministically, every run.
  const auto streams = StudyStreams();
  const auto throwing = [](const std::string& name, CodecOptions&) {
    if (name == "t0") throw std::runtime_error("first in grid order");
    if (name == "working-zone") throw std::runtime_error("later cell");
  };
  for (int repeat = 0; repeat < 3; ++repeat) {
    try {
      RunComparison(kStudyCodecs, streams, CodecOptions{}, throwing,
                    RunOptions{.parallelism = 4});
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "first in grid order");
    }
  }
}

TEST(ParallelComparisonTest, InvalidCodecNamePropagates) {
  const auto streams = StudyStreams();
  EXPECT_THROW(RunComparison({"no-such-code"}, streams, CodecOptions{},
                             nullptr, RunOptions{.parallelism = 4}),
               std::exception);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i, &counter]() {
      counter.fetch_add(1);
      return i * i;
    }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ExceptionsSurfaceAtFutureGet) {
  ThreadPool pool(2);
  auto ok = pool.Submit([]() { return 7; });
  auto bad = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_EQ(pool.Submit([]() { return 3; }).get(), 3);
}

TEST(ThreadPoolTest, DefaultParallelismIsPositive) {
  EXPECT_GE(ThreadPool::DefaultParallelism(), 1u);
}

TEST(ThreadPoolTest, QueuedCountsTasksNoWorkerHasTaken) {
  // The service's shard drivers read queued() to decide whether to keep
  // their worker for another pass.
  ThreadPool pool(1);
  EXPECT_EQ(pool.queued(), 0u);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::future<void> busy = pool.Submit([&started, gate]() {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();  // the only worker holds this task
  std::future<int> second = pool.Submit([]() { return 2; });
  std::future<int> third = pool.Submit([]() { return 3; });
  EXPECT_EQ(pool.queued(), 2u);
  release.set_value();
  EXPECT_EQ(second.get() + third.get(), 5);
  busy.get();
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ThreadPoolTest, ShutdownDrainsTheBacklogWithinDeadline) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  EXPECT_EQ(pool.Shutdown(std::chrono::milliseconds(10000)),
            ShutdownResult::kDrained);
  EXPECT_EQ(counter.load(), 64);
  // Idempotent after a clean drain.
  EXPECT_EQ(pool.Shutdown(std::chrono::milliseconds(1)),
            ShutdownResult::kDrained);
}

TEST(ThreadPoolTest, ShutdownAbandonsAStuckTaskAndDiscardsQueue) {
  // The satellite contract: one hung task must not block destruction.
  // The gate lives in a shared_ptr because the stuck task outlives the
  // pool (it is detached at the deadline) and must not touch test-frame
  // state after we move on.
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  std::future<void> stuck;
  std::future<int> queued;
  {
    ThreadPool pool(1);
    stuck = pool.Submit([gate]() {
      std::unique_lock<std::mutex> lock(gate->mutex);
      gate->cv.wait(lock, [&]() { return gate->open; });
    });
    queued = pool.Submit([]() { return 42; });  // never starts
    EXPECT_EQ(pool.Shutdown(std::chrono::milliseconds(50)),
              ShutdownResult::kTimedOut);
    // Intake is closed for good.
    EXPECT_THROW(pool.Submit([]() { return 0; }), std::logic_error);
    // The destructor must now return immediately despite the wedged
    // worker — that is the whole point of the timed drain.
  }
  // The discarded task's future reports the broken promise rather than
  // hanging its waiter.
  EXPECT_THROW(queued.get(), std::future_error);
  // Unwedge the abandoned task; its future completes normally because
  // the packaged task's shared state outlives the pool.
  {
    std::lock_guard<std::mutex> lock(gate->mutex);
    gate->open = true;
  }
  gate->cv.notify_all();
  EXPECT_EQ(stuck.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
}

TEST(ThreadPoolTest, SubmitRacingShutdownIsNeverLost) {
  // Pinned behavior from the Submit-vs-Shutdown audit: both paths take
  // state_->mutex and gate on `stopping`, so a Submit racing Shutdown
  // has exactly three legal outcomes — the task runs (drained before
  // the stop), its future breaks (queued but discarded by a timed-out
  // drain; impossible here since no task wedges), or Submit throws
  // std::logic_error (intake already closed). Anything else — a lost
  // task, a hang, a torn queue — is the bug this test pins against,
  // and the TSan CI job runs it to catch the data-race variant.
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::atomic<int> accepted{0};
    std::atomic<int> refused{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    submitters.reserve(4);
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&]() {
        while (!go.load()) {
        }
        for (int i = 0; i < 64; ++i) {
          try {
            pool.Submit([&ran]() { ran.fetch_add(1); });
            accepted.fetch_add(1);
          } catch (const std::logic_error&) {
            refused.fetch_add(1);
            return;  // intake is closed for good; later tries also throw
          }
        }
      });
    }
    go.store(true);
    const ShutdownResult result =
        pool.Shutdown(std::chrono::milliseconds(10000));
    for (std::thread& t : submitters) t.join();
    EXPECT_EQ(result, ShutdownResult::kDrained) << "round " << round;
    // Every accepted task ran exactly once; every refusal was the
    // documented logic_error, so the totals reconcile with no losses.
    EXPECT_EQ(ran.load(), accepted.load()) << "round " << round;
    EXPECT_EQ(pool.Shutdown(std::chrono::milliseconds(1)),
              ShutdownResult::kDrained);
    EXPECT_THROW(pool.Submit([]() { return 0; }), std::logic_error);
  }
}

TEST(JsonWriterTest, ComparisonRoundTripsThroughParseExactly) {
  const auto streams = StudyStreams();
  const Comparison comparison =
      RunComparison({"t0", "bus-invert"}, streams, CodecOptions{});
  const JsonValue document = ComparisonToJson(comparison, "Round Trip");
  const JsonValue reparsed = JsonValue::Parse(document.Dump(2));

  EXPECT_EQ(reparsed.At("schema").as_string(), "abenc.comparison.v1");
  EXPECT_EQ(reparsed.At("title").as_string(), "Round Trip");

  const auto& codecs = reparsed.At("codecs").as_array();
  ASSERT_EQ(codecs.size(), 2u);
  EXPECT_EQ(codecs[0].as_string(), "t0");

  const auto& rows = reparsed.At("rows").as_array();
  ASSERT_EQ(rows.size(), comparison.rows.size());
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const ComparisonRow& row = comparison.rows[s];
    EXPECT_EQ(rows[s].At("stream").as_string(), row.stream_name);
    const JsonValue& binary = rows[s].At("binary");
    EXPECT_EQ(binary.At("transitions").as_number(),
              static_cast<double>(row.binary.transitions));
    EXPECT_EQ(binary.At("stream_length").as_number(),
              static_cast<double>(row.binary.stream_length));
    const auto& cells = rows[s].At("cells").as_array();
    ASSERT_EQ(cells.size(), row.cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      // Doubles must survive the round trip bit-exactly (shortest
      // round-trip formatting), not merely within a tolerance.
      EXPECT_EQ(cells[c].At("savings_percent").as_number(),
                row.cells[c].savings_percent);
      EXPECT_EQ(cells[c].At("transitions").as_number(),
                static_cast<double>(row.cells[c].result.transitions));
      const auto& per_line = cells[c].At("per_line").as_array();
      ASSERT_EQ(per_line.size(), row.cells[c].result.per_line.size());
      for (std::size_t l = 0; l < per_line.size(); ++l) {
        EXPECT_EQ(per_line[l].as_number(),
                  static_cast<double>(row.cells[c].result.per_line[l]));
      }
    }
  }

  const auto& averages = reparsed.At("average_savings").as_array();
  const std::vector<double> expected = comparison.average_savings();
  ASSERT_EQ(averages.size(), expected.size());
  for (std::size_t c = 0; c < averages.size(); ++c) {
    EXPECT_EQ(averages[c].At("codec").as_string(),
              comparison.codec_names[c]);
    EXPECT_EQ(averages[c].At("savings_percent").as_number(), expected[c]);
  }
  EXPECT_EQ(reparsed.At("average_in_sequence_percent").as_number(),
            comparison.average_in_sequence_percent());
}

TEST(JsonWriterTest, ProtectionStudyRoundTrips) {
  ProtectionStudy study;
  study.stream_name = "gzip-multiplexed";
  study.outcomes.push_back(ProtectionOutcome{
      "t0", "secded", 17.25, -12.5, 0.0, 0});
  study.outcomes.push_back(ProtectionOutcome{
      "t0", "beacon64", 11.031250000000001, 9.87, 3.5, 64});
  const JsonValue reparsed =
      JsonValue::Parse(ProtectionStudyToJson(study).Dump(2));
  EXPECT_EQ(reparsed.At("schema").as_string(), "abenc.protection.v1");
  EXPECT_EQ(reparsed.At("stream").as_string(), "gzip-multiplexed");
  const auto& outcomes = reparsed.At("outcomes").as_array();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[1].At("protection").as_string(), "beacon64");
  EXPECT_EQ(outcomes[1].At("transitions_per_cycle").as_number(),
            11.031250000000001);
  EXPECT_EQ(outcomes[1].At("worst_recovery_cycles").as_number(), 64.0);
}

TEST(JsonWriterTest, ValueModelCoversEdgeCases) {
  // String escaping both ways.
  JsonValue object = JsonValue::MakeObject();
  object.Set("key \"quoted\"\n\t", "value\\with\x01control");
  const JsonValue reparsed = JsonValue::Parse(object.Dump(0));
  EXPECT_EQ(reparsed.At("key \"quoted\"\n\t").as_string(),
            std::string("value\\with\x01control"));

  // Compact dump is a single line; pretty dump is stable.
  EXPECT_EQ(JsonValue::Parse("[1, 2.5, -3e2, true, false, null]").Dump(0),
            "[1,2.5,-300,true,false,null]");

  // Kind mismatches and missing keys throw JsonError, not UB.
  EXPECT_THROW(object.At("absent"), JsonError);
  EXPECT_THROW(object.At("key \"quoted\"\n\t").as_number(), JsonError);
  EXPECT_THROW(JsonValue::Parse("{broken"), JsonError);
  EXPECT_THROW(JsonValue::Parse("[1,]"), JsonError);
  EXPECT_THROW(JsonValue::Parse("42 trailing"), JsonError);

  // Set overwrites in place, preserving insertion order.
  JsonValue ordered = JsonValue::MakeObject();
  ordered.Set("b", 1);
  ordered.Set("a", 2);
  ordered.Set("b", 3);
  EXPECT_EQ(ordered.Dump(0), "{\"b\":3,\"a\":2}");
}

}  // namespace
}  // namespace abenc
