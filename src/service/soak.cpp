#include "service/soak.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "channel/fault_models.h"
#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "service/service.h"
#include "verify/stream_gen.h"

namespace abenc::service {
namespace {

using Clock = std::chrono::steady_clock;

/// The codec rotation: the paper's main history and stateless codes,
/// including a redundant-line code (bus-invert) and a dual multiplexed
/// code, so the soak exercises every frame geometry the channel knows.
/// Exposed via SoakCodecPalette().
const char* const kCodecPalette[] = {"t0",      "gray",   "bus-invert",
                                     "inc-xor", "offset", "dual-t0-bi",
                                     "adaptive"};

/// The renegotiation rotation: the same palette the network policy
/// proposes from, so the in-process soak and the wire soak pin switches
/// across identical geometry transitions (including the redundant-line
/// bus-invert and the multiplexed dual code).
const char* const kSwitchPalette[] = {"binary", "gray", "t0", "bus-invert",
                                      "dual-t0-bi"};

/// A planned mid-stream codec switch: issued once the client has
/// submitted `at` accesses. `at == stream length` pins the switch to the
/// exact end of the stream (the boundary the end-of-stream apply fixed).
struct PlannedSwitch {
  std::size_t at = 0;
  std::string codec_name;
};

/// Everything about one synthetic session, fixed up front so the serial
/// reference can be recomputed after the run from the same plan.
/// Mutable progress fields are owned by exactly one client thread (plans
/// are sliced by index), so they need no synchronisation.
struct SessionPlan {
  std::size_t index = 0;
  std::uint64_t id = 0;  // assigned at OpenSession
  std::string codec_name;
  std::vector<BusAccess> stream;
  SessionConfig config;
  std::size_t submitted = 0;        // client progress, in accesses
  std::uint64_t backoff_us = 100;   // client-side rejection backoff
  bool columnar = false;            // submit via zero-copy SubmitColumns
  std::vector<PlannedSwitch> switch_plan;   // ascending by `at`
  std::size_t next_switch = 0;
  std::vector<CodecSwitchPoint> acked;      // ok() outcomes, in order
  std::uint64_t refusals = 0;               // tolerated clean refusals
  std::vector<std::string> renegotiate_failures;  // hard failures
};

/// Deterministic fault palette for one session; `salt` tells apart the
/// draws so one MixSeed chain yields independent choices.
std::uint64_t Draw(std::uint64_t seed, std::uint64_t salt) {
  return verify::MixSeed(seed + 0x9E3779B97F4A7C15ULL * (salt + 1));
}

std::function<void(BusChannel&)> MakeFaultInstaller(std::uint64_t seed,
                                                    std::size_t length) {
  const std::uint64_t kind = Draw(seed, 1) % 4;
  const std::size_t cycle = Draw(seed, 2) % std::max<std::size_t>(length, 1);
  const std::uint64_t line_pick = Draw(seed, 3);
  const bool stuck_value = (Draw(seed, 4) & 1) != 0;
  switch (kind) {
    case 0:
      return [cycle, line_pick](BusChannel& channel) {
        channel.AddFault(std::make_unique<SingleUpsetFault>(
            cycle, static_cast<unsigned>(line_pick % channel.total_lines())));
      };
    case 1:
      return [cycle, line_pick](BusChannel& channel) {
        const unsigned total = channel.total_lines();
        const unsigned span = std::min(2u, total);
        const unsigned first =
            static_cast<unsigned>(line_pick % (total - span + 1));
        channel.AddFault(
            std::make_unique<BurstFault>(cycle, first, span, 2));
      };
    case 2:
      return [seed](BusChannel& channel) {
        channel.AddFault(std::make_unique<RandomNoiseFault>(0.001, seed));
      };
    default:
      // A hard fault from mid-stream on: the case retries cannot heal,
      // exercising rung 3 (graceful degradation to binary).
      return [length, line_pick, stuck_value](BusChannel& channel) {
        channel.AddFault(std::make_unique<StuckAtFault>(
            static_cast<unsigned>(line_pick % channel.total_lines()),
            stuck_value, length / 2));
      };
  }
}

/// The stall-shard gate: the injected "wedged shard" blocks here until
/// the harness opens it after verification traffic has drained.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this]() { return open; });
  }
};

std::string Describe(const SessionPlan& plan, const char* what) {
  std::ostringstream out;
  out << "session " << plan.id << " (" << plan.codec_name << ", "
      << plan.stream.size() << " accesses): " << what;
  return out.str();
}

}  // namespace

std::span<const char* const> SoakCodecPalette() {
  return std::span<const char* const>(kCodecPalette,
                                      std::size(kCodecPalette));
}

std::function<void(BusChannel&)> PlanSoakFault(std::uint64_t seed,
                                               std::size_t length) {
  return MakeFaultInstaller(seed, length);
}

SoakOutcome RunSoak(const SoakOptions& options) {
  SoakOutcome outcome;
  const auto start = Clock::now();
  const bool budgeted = options.time_budget_s > 0.0;
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      budgeted ? options.time_budget_s : 0.0));
  auto out_of_time = [&]() {
    return budgeted && Clock::now() >= deadline;
  };

  ServiceConfig service_config;
  service_config.shards = std::max(1u, options.shards);
  service_config.parallelism =
      options.stall_shard ? std::max(2u, options.parallelism)
                          : std::max(1u, options.parallelism);
  service_config.idle_evict_steps = options.idle_evict_steps;
  // A patient watchdog: a wedged shard is still failed over within ~1s,
  // but a shard that is merely starved for CPU (oversubscribed CI
  // machines, sanitizer slowdowns) gets time to advance its heartbeat
  // before being declared stuck.
  service_config.watchdog_interval = std::chrono::milliseconds(100);
  service_config.watchdog_stuck_strikes = 10;
  EncodingService service(service_config);

  auto gate = std::make_shared<Gate>();
  if (options.stall_shard) {
    service.shard(0).SetStallHook([gate]() { gate->Wait(); });
  }

  // Plan and admit every session up front, so all of them are live
  // simultaneously before the first client thread starts submitting.
  const std::size_t palette_size = std::size(kCodecPalette);
  const std::vector<verify::StreamFamily> families =
      verify::AllStreamFamilies();
  std::vector<SessionPlan> plans(options.sessions);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    SessionPlan& plan = plans[i];
    plan.index = i;
    plan.codec_name =
        options.codec.empty() ? kCodecPalette[i % palette_size] : options.codec;
    const std::uint64_t sub_seed =
        verify::MixSeed(options.seed + 0x9E3779B97F4A7C15ULL * (i + 1));
    plan.stream = verify::GenerateStream(
        families[i % families.size()], sub_seed, options.length,
        plan.config.codec_options.width, plan.config.codec_options.stride);
    plan.config.codec_name = plan.codec_name;
    plan.config.queue_capacity = options.queue_capacity;
    plan.config.slowdown_watermark = options.slowdown_watermark;
    plan.config.access_budget = options.access_budget;
    const bool faulted =
        options.fault_fraction > 0.0 &&
        static_cast<double>(Draw(sub_seed, 0) % 10000) <
            options.fault_fraction * 10000.0;
    if (faulted) {
      plan.config.fault_installer =
          MakeFaultInstaller(sub_seed, options.length);
      // Rotate the protection layer: SECDED sessions exercise in-line
      // correction (rung 1), parity/unprotected sessions push the same
      // faults into retry-resync (rung 2) and, for hard faults,
      // degradation to binary (rung 3).
      switch (Draw(sub_seed, 5) % 3) {
        case 0: plan.config.protection = Protection::kSecded; break;
        case 1: plan.config.protection = Protection::kParity; break;
        default: plan.config.protection = Protection::kNone; break;
      }
    }
    plan.columnar =
        options.columnar_fraction > 0.0 &&
        static_cast<double>(Draw(sub_seed, 6) % 10000) <
            options.columnar_fraction * 10000.0;
    const bool renegotiates =
        options.renegotiate_fraction > 0.0 &&
        static_cast<double>(Draw(sub_seed, 7) % 10000) <
            options.renegotiate_fraction * 10000.0;
    if (renegotiates && !plan.stream.empty()) {
      const std::size_t length = plan.stream.size();
      const std::size_t palette =
          std::size(kSwitchPalette);
      plan.switch_plan.push_back(
          {length / 4, kSwitchPalette[Draw(sub_seed, 8) % palette]});
      plan.switch_plan.push_back(
          {(3 * length) / 5, kSwitchPalette[Draw(sub_seed, 9) % palette]});
      if (Draw(sub_seed, 10) % 2 == 0) {
        // Pin one switch to the exact end of the stream: the schedule
        // must still apply it even though no further access arrives.
        plan.switch_plan.push_back(
            {length, kSwitchPalette[Draw(sub_seed, 11) % palette]});
      }
    }
    plan.id = service.OpenSession(plan.config);
  }

  // Concurrent clients: each owns a slice of the sessions and pushes its
  // streams through the admission path, pacing on kSlowDown and backing
  // off-and-retrying on kRejected. No access is ever dropped — the bit
  // identity checked below would catch it if one were.
  std::atomic<std::uint64_t> rejected_total{0};
  const unsigned clients = std::max(1u, options.clients);
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c]() {
      bool work_left = true;
      while (work_left && !out_of_time()) {
        work_left = false;
        for (std::size_t i = c; i < plans.size(); i += clients) {
          SessionPlan& plan = plans[i];
          // Issue every switch whose submission threshold has been
          // crossed — including one pinned past the final access, which
          // this pass reaches because the submitting pass before it left
          // work_left set.
          while (plan.next_switch < plan.switch_plan.size() &&
                 plan.submitted >= plan.switch_plan[plan.next_switch].at) {
            const PlannedSwitch& planned =
                plan.switch_plan[plan.next_switch];
            const RenegotiateOutcome outcome =
                service.Renegotiate(plan.id, planned.codec_name);
            if (outcome.ok()) {
              plan.acked.push_back(
                  {outcome.switch_index, outcome.codec_name});
            } else if (outcome.status ==
                       RenegotiateStatus::kRefusedBadCodec) {
              // The palette is all factory codecs — a bad-codec refusal
              // here means validation itself regressed.
              plan.renegotiate_failures.push_back(
                  Describe(plan, "renegotiation refused as bad codec"));
            } else {
              ++plan.refusals;
            }
            ++plan.next_switch;
          }
          if (plan.submitted >= plan.stream.size()) continue;
          work_left = true;
          const std::size_t n = std::min(
              options.chunk == 0 ? std::size_t{64} : options.chunk,
              plan.stream.size() - plan.submitted);
          Admission admission;
          if (plan.columnar) {
            ColumnBatch batch;
            batch.addresses.reserve(n);
            batch.sel.reserve(n);
            for (std::size_t j = 0; j < n; ++j) {
              const BusAccess& access = plan.stream[plan.submitted + j];
              batch.addresses.push_back(access.address);
              batch.sel.push_back(access.sel ? 1 : 0);
            }
            admission = service.SubmitColumns(plan.id, std::move(batch));
          } else {
            admission = service.Submit(
                plan.id,
                std::span<const BusAccess>(plan.stream)
                    .subspan(plan.submitted, n));
          }
          switch (admission) {
            case Admission::kAccepted:
              plan.submitted += n;
              plan.backoff_us = 100;
              break;
            case Admission::kSlowDown:
              plan.submitted += n;
              plan.backoff_us = 100;
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              break;
            case Admission::kRejected:
              rejected_total.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::sleep_for(
                  std::chrono::microseconds(plan.backoff_us));
              plan.backoff_us = std::min<std::uint64_t>(
                  plan.backoff_us * 2, 5000);
              break;
            case Admission::kClosed:
              // Never closed while submitting; surface as a failure by
              // leaving the stream unfinished.
              plan.submitted = plan.stream.size();
              break;
          }
        }
      }
    });
  }
  for (std::thread& thread : client_threads) thread.join();

  for (const SessionPlan& plan : plans) service.CloseSession(plan.id);

  const bool drained = service.Drain(
      budgeted ? std::chrono::duration_cast<std::chrono::milliseconds>(
                     deadline - Clock::now())
               : std::chrono::milliseconds(60000));

  if (options.stall_shard) {
    // The wedged shard must have been failed over while traffic was
    // live; only then open the gate so its driver can exit for Stop().
    if (service.failovers() == 0) {
      outcome.failures.push_back(
          "stall-shard: watchdog never failed over the wedged shard");
    }
    gate->Open();
  }
  outcome.failovers = service.failovers();

  if (!drained) {
    outcome.timed_out = true;
    service.Stop();
    outcome.elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    return outcome;
  }

  service.Stop();

  // Serial verification: every session against EvaluateWithSchedule on
  // the identical stream (replaying the acked switch schedule and the
  // reset points), faults and scheduling notwithstanding.
  outcome.sessions = plans.size();
  outcome.rejected_batches =
      rejected_total.load(std::memory_order_relaxed);
  for (const SessionPlan& plan : plans) {
    const SessionReport report = service.Report(plan.id);
    outcome.accesses += report.result.stream_length;
    outcome.recovered_transfers += report.transport.recovered;
    outcome.corrected_transfers += report.transport.corrected;
    outcome.degraded_transfers += report.transport.degraded_deliveries;
    if (report.degraded) ++outcome.degraded_sessions;
    if (!report.reset_points.empty()) ++outcome.evicted_sessions;
    if (plan.columnar) ++outcome.columnar_sessions;
    outcome.renegotiations += plan.acked.size();
    outcome.renegotiate_refusals += plan.refusals;
    for (const std::string& failure : plan.renegotiate_failures) {
      outcome.failures.push_back(failure);
    }

    if (report.result.stream_length != plan.stream.size()) {
      outcome.failures.push_back(Describe(plan, "stream length mismatch"));
      continue;
    }
    // Every switch the session acked must have applied — in order, at
    // its pinned index — and nothing else may have applied. A mismatch
    // here means an acked switch was dropped (or applied off-index),
    // which would desynchronise any decoder replaying the schedule.
    if (report.renegotiations != plan.acked) {
      outcome.failures.push_back(Describe(
          plan, "applied switch schedule != the acked renegotiations"));
      continue;
    }
    const EvalResult expected = EvaluateWithSchedule(
        plan.codec_name, plan.config.codec_options, plan.stream,
        report.renegotiations, report.reset_points,
        plan.config.stride_for_stats);
    if (report.result.transitions != expected.transitions) {
      outcome.failures.push_back(Describe(plan, "transition count diverged"));
    }
    if (report.result.peak_transitions != expected.peak_transitions) {
      outcome.failures.push_back(Describe(plan, "peak transitions diverged"));
    }
    if (report.result.per_line != expected.per_line) {
      outcome.failures.push_back(
          Describe(plan, "per-line histogram diverged"));
    }
    if (report.result.in_sequence_percent != expected.in_sequence_percent) {
      outcome.failures.push_back(
          Describe(plan, "in-sequence percentage diverged"));
    }
    const TransportCounters& t = report.transport;
    if (t.clean + t.corrected + t.recovered + t.degraded_deliveries !=
        t.transfers) {
      outcome.failures.push_back(Describe(
          plan, "transport reconciliation failed (a delivery outcome "
                "was lost — silent corruption)"));
    }
    if (t.transfers != plan.stream.size()) {
      outcome.failures.push_back(
          Describe(plan, "transfer count != stream length"));
    }
    if (report.peak_queue_depth > plan.config.queue_capacity) {
      outcome.failures.push_back(
          Describe(plan, "queue exceeded its configured capacity"));
    }
  }

  outcome.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (budgeted && outcome.elapsed_s > options.time_budget_s) {
    outcome.timed_out = true;
  }
  return outcome;
}

}  // namespace abenc::service
