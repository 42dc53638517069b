#include "service/soak.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <iostream>
#include <memory>
#include <thread>

#include "channel/fault_models.h"
#include "core/cli_flags.h"
#include "verify/stream_gen.h"

namespace abenc::service {
namespace {

const char* const kCodecPalette[] = {"t0",      "gray",   "bus-invert",
                                     "inc-xor", "offset", "dual-t0-bi",
                                     "adaptive"};

// The salt table. Session i's sub-seed is Draw(--seed, i), and each of
// its choices is Draw(sub-seed, salt):
//
//   salt        choice                                   made by
//   0           faulted (--fault-fraction)               core
//   1-4         the fault model (PlanSoakFault)          core
//   5           protection of a faulted session          core
//   6           columnar submit / connection kills       in-process / wire
//   7           switch schedule (--renegotiate-fraction) core
//   8           v1 client                                wire
//   9, 10, 12   empty target: the server's policy picks  wire
//   11          a third switch at the stream end         core
//   13, 14      SUBMIT_STREAM and its ack mode           wire
//   26, 27, 29  switch targets (salt 9, 10, 12 + 17)     core
constexpr std::uint64_t kTargetSaltOffset = 17;

// Indexed by GateCheck.
constexpr std::string_view kGateCheckNames[] = {
    "admitted count != planned stream length",
    "processed stream length != planned stream length",
    "applied switch schedule != the acked switches (a switch was lost, "
    "duplicated or re-pinned)",
    "transition count diverged",
    "peak transitions diverged",
    "per-line histogram diverged",
    "in-sequence percentage diverged",
    "transport reconciliation failed (a delivery outcome was lost — "
    "silent corruption)",
    "transfer count != stream length",
    "queue exceeded its configured capacity",
};
static_assert(std::size(kGateCheckNames) ==
              static_cast<std::size_t>(GateCheck::kQueueCapacity) + 1);

/// One session's client-side progress, owned by exactly one client
/// thread (sessions are sliced by index), so it needs no locking.
struct ClientProgress {
  std::uint64_t id = 0;            // assigned at OpenSession
  bool columnar = false;           // submit via zero-copy SubmitColumns
  std::size_t submitted = 0;       // in accesses
  std::uint64_t backoff_us = 100;  // rejection backoff
  std::size_t next_switch = 0;
  std::vector<CodecSwitchPoint> acked;  // ok() outcomes, in order
  std::uint64_t refusals = 0;           // tolerated clean refusals
  std::vector<std::string> failures;    // hard renegotiation failures
};

}  // namespace

std::string SoakSessionPlan::Label() const {
  return "session " + std::to_string(index) + " (" + codec_name + ", " +
         std::to_string(stream.size()) + " accesses)";
}

std::span<const char* const> SoakCodecPalette() {
  return std::span<const char* const>(kCodecPalette,
                                      std::size(kCodecPalette));
}

std::function<void(BusChannel&)> PlanSoakFault(std::uint64_t seed,
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

std::uint64_t Draw(std::uint64_t seed, std::uint64_t salt) {
  return verify::MixSeed(seed + 0x9E3779B97F4A7C15ULL * (salt + 1));
}

bool DrawFraction(std::uint64_t seed, std::uint64_t salt, double fraction) {
  return fraction > 0.0 &&
         static_cast<double>(Draw(seed, salt) % 10000) < fraction * 10000.0;
}

bool ParseSoakFlag(int argc, char** argv, int& i, SoakCommonOptions& options) {
  return MatchCount("--clients", argc, argv, i, options.clients) ||
         MatchCount("--length", argc, argv, i, options.length) ||
         MatchCount("--seed", argc, argv, i, options.seed) ||
         MatchFlag("--codec", argc, argv, i, options.codec) ||
         MatchCount("--chunk", argc, argv, i, options.chunk) ||
         MatchCount("--queue-cap", argc, argv, i, options.queue_capacity) ||
         MatchCount("--watermark", argc, argv, i, options.slowdown_watermark) ||
         MatchFraction("--fault-fraction", argc, argv, i,
                       options.fault_fraction) ||
         MatchFraction("--renegotiate-fraction", argc, argv, i,
                       options.renegotiate_fraction) ||
         MatchCount("--shards", argc, argv, i, options.shards) ||
         MatchCount("--parallelism", argc, argv, i, options.parallelism) ||
         MatchSeconds("--time-budget-s", argc, argv, i, options.time_budget_s);
}

ServiceConfig SoakServiceConfig(const SoakCommonOptions& options) {
  ServiceConfig config;
  config.shards = std::max(1u, options.shards);
  config.parallelism = std::max(1u, options.parallelism);
  // Checks every millisecond, so idle sweeps (one per check) come often
  // enough to evict sessions waiting for their client; 1000 frozen
  // checks in a row, about a second, declare a shard wedged.
  config.watchdog_interval = std::chrono::milliseconds(1);
  config.watchdog_stuck_strikes = 1000;
  return config;
}

std::vector<SoakSessionPlan> PlanSoakSessions(
    const SoakCommonOptions& options, std::size_t sessions) {
  const std::span<const char* const> palette = SoakCodecPalette();
  const std::vector<verify::StreamFamily> families =
      verify::AllStreamFamilies();
  std::vector<SoakSessionPlan> plans(sessions);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    SoakSessionPlan& plan = plans[i];
    plan.index = i;
    plan.seed = Draw(options.seed, i);
    plan.codec_name =
        options.codec.empty() ? palette[i % palette.size()] : options.codec;
    plan.stream = verify::GenerateStream(
        families[i % families.size()], plan.seed, options.length,
        plan.codec_options.width, plan.codec_options.stride);
    plan.faulted = DrawFraction(plan.seed, 0, options.fault_fraction);
    if (plan.faulted) {
      // Rotate the protection layer: SECDED sessions exercise in-line
      // correction (rung 1), parity/unprotected sessions push the same
      // faults into retry-resync (rung 2) and, for hard faults,
      // degradation to binary (rung 3).
      switch (Draw(plan.seed, 5) % 3) {
        case 0: plan.protection = Protection::kSecded; break;
        case 1: plan.protection = Protection::kParity; break;
        default: plan.protection = Protection::kNone; break;
      }
    }
    if (options.length >= 8 &&
        DrawFraction(plan.seed, 7, options.renegotiate_fraction)) {
      // Two mid-stream switches plus, on half of these sessions, one
      // pinned exactly at the stream end: the schedule must still apply
      // it even though no further access arrives.
      auto planned = [&](std::size_t at, std::uint64_t salt) {
        const std::uint64_t pick =
            Draw(plan.seed, salt + kTargetSaltOffset) % palette.size();
        return PlannedSwitch{at, palette[pick], salt};
      };
      const std::size_t length = options.length;
      plan.switches = {planned(length / 4, 9), planned((3 * length) / 5, 10)};
      if (Draw(plan.seed, 11) % 2 == 0) {
        plan.switches.push_back(planned(length, 12));
      }
    }
  }
  return plans;
}

ReadBack ReadBackOf(const SessionReport& report) {
  ReadBack read_back;
  read_back.result = report.result;
  read_back.applied = report.renegotiations;
  read_back.reset_points = report.reset_points;
  read_back.transport = report.transport;
  read_back.peak_queue_depth = report.peak_queue_depth;
  read_back.degraded = report.degraded;
  return read_back;
}

std::string_view GateCheckName(GateCheck check) {
  return kGateCheckNames[static_cast<std::size_t>(check)];
}

std::vector<GateCheck> CheckServedSession(const GateInput& input,
                                          const ReadBack& read_back) {
  const std::size_t length = input.stream.size();
  if (read_back.admitted.has_value() && *read_back.admitted != length) {
    return {GateCheck::kAdmitted};
  }
  if (read_back.result.stream_length != length) return {GateCheck::kLength};
  // Every acked switch must have applied — in order, at its pinned
  // index — and nothing else may have: a mismatch would desynchronise
  // any decoder replaying the schedule.
  if (!std::ranges::equal(read_back.applied, input.acked)) {
    return {GateCheck::kSchedule};
  }
  std::vector<GateCheck> failed;
  const EvalResult expected = EvaluateWithSchedule(
      input.codec_name, input.codec_options, input.stream, read_back.applied,
      read_back.reset_points, kStatsStride);
  const EvalResult& got = read_back.result;
  if (got.transitions != expected.transitions) {
    failed.push_back(GateCheck::kTransitions);
  }
  if (got.peak_transitions != expected.peak_transitions) {
    failed.push_back(GateCheck::kPeak);
  }
  if (got.per_line != expected.per_line) {
    failed.push_back(GateCheck::kPerLine);
  }
  if (got.in_sequence_percent != expected.in_sequence_percent) {
    failed.push_back(GateCheck::kInSequence);
  }
  const TransportCounters& t = read_back.transport;
  if (t.clean + t.corrected + t.recovered + t.degraded_deliveries !=
      t.transfers) {
    failed.push_back(GateCheck::kReconciliation);
  }
  if (t.transfers != length) failed.push_back(GateCheck::kTransfers);
  if (read_back.peak_queue_depth > input.queue_capacity) {
    failed.push_back(GateCheck::kQueueCapacity);
  }
  return failed;
}

void SoakTally::Record(std::string_view label, const ReadBack& read_back,
                       std::span<const GateCheck> failed) {
  ++sessions;
  accesses += read_back.result.stream_length;
  recovered_transfers += read_back.transport.recovered;
  corrected_transfers += read_back.transport.corrected;
  degraded_transfers += read_back.transport.degraded_deliveries;
  if (read_back.degraded) ++degraded_sessions;
  for (const GateCheck check : failed) {
    failures.push_back(std::string(label) + ": " +
                       std::string(GateCheckName(check)));
  }
}

void SoakTally::CheckReleased(const EncodingService& service) {
  released_sessions = service.sessions_released();
  if (const std::size_t live = service.session_count(); live != 0) {
    failures.push_back(std::to_string(live) +
                       " session(s) still live at the end of the run");
  }
}

int ReportSoakExit(std::string_view tool, const SoakTally& tally,
                   double time_budget_s) {
  if (tally.timed_out) {
    std::cerr << tool << ": TIME BUDGET EXCEEDED (" << time_budget_s << "s)\n";
    return 2;
  }
  if (!tally.failures.empty()) {
    std::cerr << tool << ": " << tally.failures.size()
              << " verification failure(s):\n";
    for (const std::string& failure : tally.failures) {
      std::cerr << "  " << failure << "\n";
    }
    return 1;
  }
  std::cout << "  bit-identity vs serial EvaluateWithSchedule: OK; "
            << tally.released_sessions << " sessions released, none live\n";
  return 0;
}

SoakOutcome RunSoak(const SoakOptions& options) {
  SoakOutcome outcome;
  const SoakClock clock(options.time_budget_s);

  ServiceConfig service_config = SoakServiceConfig(options);
  if (options.stall_shard) {
    service_config.parallelism = std::max(2u, service_config.parallelism);
  }
  service_config.idle_evict_steps = options.idle_evict_steps;
  EncodingService service(service_config);

  // The injected "wedged shard" blocks in its stall hook until the
  // harness unwedges it after the traffic has drained.
  std::promise<void> unwedge;
  if (options.stall_shard) {
    service.shard(0).SetStallHook(
        [wedge = unwedge.get_future().share()]() { wedge.wait(); });
  }

  // Plan and admit every session up front, so all of them are live
  // simultaneously before the first client thread starts submitting.
  const std::vector<SoakSessionPlan> plans =
      PlanSoakSessions(options, options.sessions);
  std::vector<ClientProgress> progress(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const SoakSessionPlan& plan = plans[i];
    SessionConfig config;
    config.codec_name = plan.codec_name;
    config.codec_options = plan.codec_options;
    config.queue_capacity = options.queue_capacity;
    config.slowdown_watermark = options.slowdown_watermark;
    config.access_budget = options.access_budget;
    config.protection = plan.protection;
    if (plan.faulted) {
      config.fault_installer = PlanSoakFault(plan.seed, options.length);
    }
    progress[i].columnar =
        DrawFraction(plan.seed, 6, options.columnar_fraction);
    progress[i].id = service.OpenSession(config);
  }

  // Concurrent clients: each owns a slice of the sessions and pushes its
  // streams through the admission path, pacing on kSlowDown and backing
  // off-and-retrying on kRejected. No access is ever dropped — the gate
  // below would catch it if one were.
  std::atomic<std::uint64_t> rejected_total{0};
  const unsigned clients = std::max(1u, options.clients);
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c]() {
      bool work_left = true;
      while (work_left && !clock.OutOfTime()) {
        work_left = false;
        for (std::size_t i = c; i < plans.size(); i += clients) {
          const SoakSessionPlan& plan = plans[i];
          ClientProgress& client = progress[i];
          // Issue every switch whose submission threshold has been
          // crossed — including one pinned past the final access, which
          // this pass reaches because the submitting pass before it left
          // work_left set.
          while (client.next_switch < plan.switches.size() &&
                 client.submitted >= plan.switches[client.next_switch].at) {
            const RenegotiateOutcome outcome = service.Renegotiate(
                client.id, plan.switches[client.next_switch].codec_name);
            if (outcome.ok()) {
              client.acked.push_back(
                  {outcome.switch_index, outcome.codec_name});
            } else if (outcome.status == RenegotiateStatus::kRefusedBadCodec) {
              // The palette is all factory codecs — a bad-codec refusal
              // here means validation itself regressed.
              client.failures.push_back(
                  plan.Label() + ": renegotiation refused as bad codec");
            } else {
              ++client.refusals;
            }
            ++client.next_switch;
          }
          if (client.submitted >= plan.stream.size()) continue;
          work_left = true;
          const std::size_t n = std::min(
              options.chunk == 0 ? std::size_t{64} : options.chunk,
              plan.stream.size() - client.submitted);
          const std::span<const BusAccess> batch =
              std::span<const BusAccess>(plan.stream)
                  .subspan(client.submitted, n);
          const Admission admission =
              client.columnar ? service.SubmitColumns(
                                    client.id, ColumnBatch::FromRows(batch))
                              : service.Submit(client.id, batch);
          switch (admission) {
            case Admission::kSlowDown:
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              [[fallthrough]];
            case Admission::kAccepted:
              client.submitted += n;
              client.backoff_us = 100;
              break;
            case Admission::kRejected:
              rejected_total.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::sleep_for(
                  std::chrono::microseconds(client.backoff_us));
              client.backoff_us = std::min<std::uint64_t>(
                  client.backoff_us * 2, 5000);
              break;
            case Admission::kClosed:
              // Never closed while submitting; surface as a failure by
              // leaving the stream unfinished.
              client.submitted = plan.stream.size();
              break;
          }
        }
      }
    });
  }
  for (std::thread& thread : client_threads) thread.join();

  for (const ClientProgress& client : progress) {
    service.CloseSession(client.id);
  }

  const bool drained = service.Drain(clock.Left());

  if (options.stall_shard) {
    // The wedged shard must have been failed over while traffic was
    // live; only then unwedge it so its drain task can exit for Stop().
    if (service.failovers() == 0) {
      outcome.failures.push_back(
          "stall-shard: watchdog never failed over the wedged shard");
    }
    unwedge.set_value();
  }
  outcome.failovers = service.failovers();
  outcome.idle_evictions = service.idle_evictions();

  service.Stop();
  if (!drained) {
    outcome.timed_out = true;
    outcome.elapsed_s = clock.ElapsedSeconds();
    return outcome;
  }

  // Every session through the gate, faults and scheduling
  // notwithstanding.
  outcome.rejected_batches = rejected_total.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const SoakSessionPlan& plan = plans[i];
    const ClientProgress& client = progress[i];
    const ReadBack read_back = ReadBackOf(service.Report(client.id));
    service.ReleaseSession(client.id);
    GateInput input;
    input.codec_name = plan.codec_name;
    input.codec_options = plan.codec_options;
    input.stream = plan.stream;
    input.acked = client.acked;
    input.queue_capacity = options.queue_capacity;
    outcome.Record(plan.Label(), read_back,
                   CheckServedSession(input, read_back));
    if (!read_back.reset_points.empty()) ++outcome.evicted_sessions;
    if (client.columnar) ++outcome.columnar_sessions;
    outcome.renegotiations += client.acked.size();
    outcome.renegotiate_refusals += client.refusals;
    outcome.failures.insert(outcome.failures.end(), client.failures.begin(),
                            client.failures.end());
  }
  outcome.CheckReleased(service);

  outcome.elapsed_s = clock.ElapsedSeconds();
  outcome.timed_out = clock.OutOfTime();
  return outcome;
}

}  // namespace abenc::service
