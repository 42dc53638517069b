// The encoding service's robustness contracts: Evaluate()-identical
// accounting per session, bounded queues with backpressure, the
// retry/resync/degrade recovery ladder, deterministic eviction +
// re-admission (EvaluateWithSchedule's reset contract), watchdog
// failover of a wedged shard, and the soak harness end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "channel/fault_models.h"
#include "core/adaptive_codec.h"
#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "service/service.h"
#include "service/soak.h"
#include "verify/stream_gen.h"

namespace abenc::service {
namespace {

std::vector<BusAccess> TestStream(verify::StreamFamily family,
                                  std::uint64_t seed, std::size_t length) {
  return verify::GenerateStream(family, seed, length, 32, 4);
}

/// A service in deterministic manual mode: no pool, no watchdog; the
/// test drives processing itself via Drain()/StepAll().
ServiceConfig ManualMode(unsigned shards = 1) {
  ServiceConfig config;
  config.shards = shards;
  config.start_drivers = false;
  config.enable_watchdog = false;
  return config;
}

void ExpectSameEvalResult(const EvalResult& got, const EvalResult& want) {
  EXPECT_EQ(got.stream_length, want.stream_length);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.peak_transitions, want.peak_transitions);
  // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit-identical.
  EXPECT_EQ(got.in_sequence_percent, want.in_sequence_percent);
  EXPECT_EQ(got.per_line, want.per_line);
}

void SubmitAll(EncodingService& service, std::uint64_t id,
               std::span<const BusAccess> stream,
               std::size_t chunk = 128) {
  std::size_t offset = 0;
  while (offset < stream.size()) {
    const std::size_t n = std::min(chunk, stream.size() - offset);
    const Admission admission =
        service.Submit(id, stream.subspan(offset, n));
    if (admission == Admission::kRejected) {
      service.StepAll();  // manual mode: make room ourselves
      continue;
    }
    ASSERT_TRUE(admission == Admission::kAccepted ||
                admission == Admission::kSlowDown);
    offset += n;
  }
}

TEST(SessionAccountingTest, MatchesSerialEvaluateForEveryPaletteCodec) {
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kBranchHeavy, 11, 600);
  for (const char* codec_name :
       {"t0", "gray", "bus-invert", "inc-xor", "offset", "dual-t0-bi"}) {
    EncodingService service(ManualMode());
    SessionConfig config;
    config.codec_name = codec_name;
    const std::uint64_t id = service.OpenSession(config);
    SubmitAll(service, id, stream);
    service.CloseSession(id);
    ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

    CodecPtr reference = MakeCodec(codec_name);
    const EvalResult want = Evaluate(*reference, stream);
    const SessionReport report = service.Report(id);
    SCOPED_TRACE(codec_name);
    ExpectSameEvalResult(report.result, want);
    EXPECT_EQ(report.codec_name, want.codec_name);
    EXPECT_FALSE(report.degraded);
    EXPECT_EQ(report.transport.clean, stream.size());
  }
}

TEST(SessionAccountingTest, InterleavedSessionsStayIndependent) {
  // Two sessions on one shard, batches interleaved: each session's FSM
  // and accounting must be untouched by the other's traffic.
  EncodingService service(ManualMode());
  SessionConfig a_config, b_config;
  a_config.codec_name = "t0";
  b_config.codec_name = "bus-invert";
  const std::uint64_t a = service.OpenSession(a_config);
  const std::uint64_t b = service.OpenSession(b_config);
  const std::vector<BusAccess> a_stream =
      TestStream(verify::StreamFamily::kSequentialRuns, 21, 400);
  const std::vector<BusAccess> b_stream =
      TestStream(verify::StreamFamily::kUniformRandom, 22, 400);
  for (std::size_t offset = 0; offset < 400; offset += 50) {
    ASSERT_EQ(service.Submit(
                  a, std::span<const BusAccess>(a_stream).subspan(offset, 50)),
              Admission::kAccepted);
    ASSERT_EQ(service.Submit(
                  b, std::span<const BusAccess>(b_stream).subspan(offset, 50)),
              Admission::kAccepted);
    service.StepAll();
  }
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
  CodecPtr a_ref = MakeCodec("t0");
  CodecPtr b_ref = MakeCodec("bus-invert");
  ExpectSameEvalResult(service.Report(a).result, Evaluate(*a_ref, a_stream));
  ExpectSameEvalResult(service.Report(b).result, Evaluate(*b_ref, b_stream));
}

TEST(BackpressureTest, QueueIsBoundedAndSubmitIsAllOrNothing) {
  EncodingService service(ManualMode());
  SessionConfig config;
  config.queue_capacity = 64;
  config.slowdown_watermark = 32;
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kSequentialRuns, 5, 200);
  const std::span<const BusAccess> span(stream);

  EXPECT_EQ(service.Submit(id, span.subspan(0, 30)), Admission::kAccepted);
  // Above the watermark: still queued, but the client is told to pace.
  EXPECT_EQ(service.Submit(id, span.subspan(30, 30)), Admission::kSlowDown);
  EXPECT_EQ(service.total_queued(), 60u);
  // Would overflow the cap: rejected atomically, nothing queued.
  EXPECT_EQ(service.Submit(id, span.subspan(60, 30)), Admission::kRejected);
  EXPECT_EQ(service.total_queued(), 60u);
  // An exact fit is admitted.
  EXPECT_EQ(service.Submit(id, span.subspan(60, 4)), Admission::kSlowDown);
  EXPECT_EQ(service.total_queued(), 64u);
  EXPECT_EQ(service.Report(id).peak_queue_depth, 64u);

  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
  EXPECT_EQ(service.Submit(id, span.subspan(64, 10)), Admission::kAccepted);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  // Closed input admits nothing more, and empty batches are no-ops.
  service.CloseSession(id);
  EXPECT_EQ(service.Submit(id, span.subspan(74, 10)), Admission::kClosed);
  EXPECT_EQ(service.Submit(id, span.subspan(0, 0)), Admission::kAccepted);
  const SessionReport report = service.Report(id);
  EXPECT_EQ(report.result.stream_length, 74u);
  EXPECT_EQ(report.rejected_batches, 1u);
}

TEST(BackpressureTest, AdmissionBoundariesAreExact) {
  // Pins the documented boundary semantics of Session::Submit at the
  // exact edges (audited for this test: the code is correct; these
  // tests keep it that way):
  //  - kSlowDown is returned strictly *above* the watermark — a depth
  //    of exactly slowdown_watermark is still kAccepted;
  //  - a batch that fills the queue to exactly queue_capacity is
  //    admitted (the reject condition is queued + batch > capacity);
  //  - one access past the cap bounces atomically.
  EncodingService service(ManualMode());
  SessionConfig config;
  config.queue_capacity = 8;
  config.slowdown_watermark = 4;
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kSequentialRuns, 6, 32);
  const std::span<const BusAccess> span(stream);

  // Landing exactly AT the watermark is not a slow-down...
  EXPECT_EQ(service.Submit(id, span.subspan(0, 4)), Admission::kAccepted);
  // ...one access above it is.
  EXPECT_EQ(service.Submit(id, span.subspan(4, 1)), Admission::kSlowDown);
  // Filling to exactly capacity is admitted (with the slow-down flag,
  // since 8 > 4).
  EXPECT_EQ(service.Submit(id, span.subspan(5, 3)), Admission::kSlowDown);
  EXPECT_EQ(service.total_queued(), 8u);
  // One access past the cap is rejected atomically.
  EXPECT_EQ(service.Submit(id, span.subspan(8, 1)), Admission::kRejected);
  EXPECT_EQ(service.total_queued(), 8u);
  // An empty batch on a full queue is an accepted no-op.
  EXPECT_EQ(service.Submit(id, span.subspan(0, 0)), Admission::kAccepted);
  EXPECT_EQ(service.total_queued(), 8u);

  // A single batch of exactly queue_capacity into an empty queue is
  // admitted; with watermark == capacity it is a plain kAccepted.
  SessionConfig wide;
  wide.queue_capacity = 8;
  wide.slowdown_watermark = 8;
  const std::uint64_t id2 = service.OpenSession(wide);
  EXPECT_EQ(service.Submit(id2, span.subspan(0, 8)), Admission::kAccepted);
  // capacity + 1 in one batch can never be admitted.
  EXPECT_EQ(service.Submit(id2, span.subspan(8, 1)), Admission::kRejected);

  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
  const SessionReport report = service.Report(id);
  EXPECT_EQ(report.rejected_batches, 1u);
  EXPECT_EQ(report.peak_queue_depth, 8u);
  EXPECT_EQ(report.result.stream_length, 8u);
  EXPECT_EQ(service.Report(id2).peak_queue_depth, 8u);
}

TEST(BackpressureTest, WindowStraddlingBatchAtTheWatermarkReconciles) {
  // The boundary collision the bug sweep targets: a batch that lands
  // exactly at the slow-down watermark while straddling an adaptive
  // stats-window boundary. The batch must be admitted whole (all-or-
  // nothing), the window tracker must roll exactly on the boundary
  // inside the batch, and the transport accounting must still
  // reconcile: clean + corrected + recovered + degraded == transfers.
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "t0";
  config.stats_window = 16;
  config.queue_capacity = 32;
  config.slowdown_watermark = 12;
  config.protection = Protection::kSecded;
  config.fault_installer = [](BusChannel& channel) {
    // Stuck line from cycle 18: inside the straddling batch, corrected
    // in-line by SECDED so the ladder contributes to the reconciliation
    // without degrading.
    channel.AddFault(std::make_unique<StuckAtFault>(3, true, 18));
  };
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kBranchHeavy, 41, 48);
  const std::span<const BusAccess> span(stream);

  // Just below the watermark...
  ASSERT_EQ(service.Submit(id, span.subspan(0, 10)), Admission::kAccepted);
  // ...then the straddling batch: [10, 24) crosses the stats-window
  // boundary at 16 and lifts the depth past the watermark. Admitted
  // whole, with the slow-down flag.
  ASSERT_EQ(service.Submit(id, span.subspan(10, 14)), Admission::kSlowDown);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  // Refill to exactly the watermark (not a slow-down) with a batch that
  // straddles the second boundary at 32 from the other side.
  ASSERT_EQ(service.Submit(id, span.subspan(24, 12)), Admission::kAccepted);
  ASSERT_EQ(service.Submit(id, span.subspan(36, 12)), Admission::kSlowDown);
  service.CloseSession(id);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport report = service.Report(id);
  EXPECT_EQ(report.result.stream_length, stream.size());
  const TransportCounters& t = report.transport;
  EXPECT_GE(t.corrected, 1u);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(t.clean + t.corrected + t.recovered + t.degraded_deliveries,
            t.transfers);
  EXPECT_EQ(t.transfers, stream.size());

  // The window tracker rolled exactly 48 / 16 = 3 times, boundaries
  // inside batches notwithstanding.
  const auto snapshot = service.StatsSnapshot(id);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->windows_completed, 3u);

  CodecPtr reference = MakeCodec("t0", config.codec_options);
  ExpectSameEvalResult(report.result, Evaluate(*reference, stream));
}

TEST(EvictionTest, EvictAndReadmitReproducesEvaluateWithResets) {
  // The determinism contract: evicting at index k and re-admitting
  // mid-stream must make the lifetime accounting equal a serial
  // EvaluateWithSchedule(codec, options, stream, {}, {k}) — the
  // reset-replay property carried up to the service layer.
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kStrideSweep, 33, 500);
  for (const char* codec_name : {"t0", "inc-xor", "dual-t0-bi"}) {
    EncodingService service(ManualMode());
    SessionConfig config;
    config.codec_name = codec_name;
    const std::uint64_t id = service.OpenSession(config);
    const std::span<const BusAccess> span(stream);

    SubmitAll(service, id, span.subspan(0, 200));
    ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
    ASSERT_TRUE(service.EvictSession(id));
    EXPECT_EQ(service.Report(id).state, SessionState::kEvicted);
    // A second evict is a no-op: already evicted.
    EXPECT_FALSE(service.EvictSession(id));

    SubmitAll(service, id, span.subspan(200));
    service.CloseSession(id);
    ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

    const SessionReport report = service.Report(id);
    SCOPED_TRACE(codec_name);
    EXPECT_EQ(report.state, SessionState::kActive);  // lazily re-admitted
    EXPECT_EQ(report.readmissions, 1u);
    ASSERT_EQ(report.reset_points, std::vector<std::size_t>{200});

    const std::size_t reset_at[] = {200};
    const EvalResult want =
        EvaluateWithSchedule(codec_name, CodecOptions{}, stream, {}, reset_at);
    ExpectSameEvalResult(report.result, want);
  }
}

TEST(EvictionTest, EvictRefusesWhileWorkIsQueued) {
  EncodingService service(ManualMode());
  const std::uint64_t id = service.OpenSession();
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kBoundary, 9, 50);
  ASSERT_EQ(service.Submit(id, stream), Admission::kAccepted);
  EXPECT_FALSE(service.EvictSession(id));  // queue not empty
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
  EXPECT_TRUE(service.EvictSession(id));
}

TEST(EvictionTest, IdleSessionsAreEvictedAndReadmittedLazily) {
  ServiceConfig service_config = ManualMode();
  service_config.idle_evict_steps = 3;
  EncodingService service(service_config);
  const std::uint64_t id = service.OpenSession();
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kMultiplexed, 13, 300);
  const std::span<const BusAccess> span(stream);

  SubmitAll(service, id, span.subspan(0, 150));
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
  for (int i = 0; i < 4; ++i) service.StepAll();  // idle passes
  EXPECT_EQ(service.Report(id).state, SessionState::kEvicted);

  SubmitAll(service, id, span.subspan(150));
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
  const SessionReport report = service.Report(id);
  EXPECT_EQ(report.state, SessionState::kActive);
  ASSERT_EQ(report.reset_points, std::vector<std::size_t>{150});
  const std::size_t reset_at[] = {150};
  ExpectSameEvalResult(report.result,
                       EvaluateWithSchedule(report.active_codec, CodecOptions{},
                                            stream, {}, reset_at));
}

TEST(EvictionTest, AccessBudgetBoundsASessionsFsmLifetime) {
  ServiceConfig service_config = ManualMode();
  EncodingService service(service_config);
  SessionConfig config;
  config.access_budget = 100;
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kSequentialRuns, 17, 350);
  SubmitAll(service, id, stream, 70);
  service.CloseSession(id);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
  const SessionReport report = service.Report(id);
  EXPECT_FALSE(report.reset_points.empty());
  ExpectSameEvalResult(
      report.result, EvaluateWithSchedule(report.active_codec, CodecOptions{},
                                          stream, {}, report.reset_points));
}

TEST(RecoveryTest, ResyncRetryHealsATransientUpsetUnprotected) {
  // A single upset on an unprotected history code desynchronizes the
  // receiver; the channel alone would smear errors until histories
  // reconverge. The service's ladder must heal it: force a resync, retry,
  // and deliver — with the accounting unaffected. inc-xor decodes
  // through its full history, so the flipped line is guaranteed to
  // surface as a failed delivery (T0 can mask a data-line flip while the
  // INC line is driving).
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "inc-xor";
  config.protection = Protection::kNone;
  config.fault_installer = [](BusChannel& channel) {
    channel.AddFault(std::make_unique<SingleUpsetFault>(20, 7));
  };
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kSequentialRuns, 29, 200);
  SubmitAll(service, id, stream);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport report = service.Report(id);
  EXPECT_GE(report.transport.recovered, 1u);
  EXPECT_GE(report.transport.forced_resyncs, 1u);
  EXPECT_FALSE(report.degraded);
  const TransportCounters& t = report.transport;
  EXPECT_EQ(t.clean + t.corrected + t.recovered + t.degraded_deliveries,
            t.transfers);
  CodecPtr reference = MakeCodec("inc-xor");
  ExpectSameEvalResult(report.result, Evaluate(*reference, stream));
}

TEST(RecoveryTest, SecdedCorrectsAHardFaultInLine) {
  // Rung 1: with SECDED on the frame, even a permanently stuck line is
  // repaired during the transfer itself — no retries, no degradation.
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "gray";
  config.protection = Protection::kSecded;
  config.fault_installer = [](BusChannel& channel) {
    channel.AddFault(std::make_unique<StuckAtFault>(3, true, 10));
  };
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kBranchHeavy, 31, 150);
  SubmitAll(service, id, stream);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
  const SessionReport report = service.Report(id);
  EXPECT_GE(report.transport.corrected, 1u);
  EXPECT_EQ(report.transport.degraded_deliveries, 0u);
  EXPECT_FALSE(report.degraded);
  CodecPtr reference = MakeCodec("gray");
  ExpectSameEvalResult(report.result, Evaluate(*reference, stream));
}

TEST(RecoveryTest, UnhealableFaultDegradesToBinaryNeverSilently) {
  // Rung 3: a stuck line with no correcting protection defeats retries;
  // the session must demote its transport to binary, keep counting every
  // failed delivery, and keep its accounting bit-exact.
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "t0";
  config.protection = Protection::kNone;
  config.fault_installer = [](BusChannel& channel) {
    channel.AddFault(std::make_unique<StuckAtFault>(0, true, 30));
  };
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kUniformRandom, 37, 200);
  SubmitAll(service, id, stream);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport report = service.Report(id);
  EXPECT_TRUE(report.degraded);
  EXPECT_GE(report.transport.retries, 1u);
  EXPECT_GE(report.transport.degraded_deliveries, 1u);
  const TransportCounters& t = report.transport;
  EXPECT_EQ(t.clean + t.corrected + t.recovered + t.degraded_deliveries,
            t.transfers);
  EXPECT_EQ(t.transfers, stream.size());
  CodecPtr reference = MakeCodec("t0");
  ExpectSameEvalResult(report.result, Evaluate(*reference, stream));
}

TEST(AdaptiveServiceTest, AccountingMatchesSerialEvaluateAcrossSwitches) {
  // An adaptive session through the full service stack: the per-window
  // member switching must be invisible to the accounting contract. The
  // small window plus a multiplexed stream guarantees the run actually
  // crosses member switches (asserted on the serial reference below).
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "adaptive";
  config.codec_options.adaptive_window = 16;
  config.codec_options.adaptive_hysteresis = 0;
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream =
      TestStream(verify::StreamFamily::kMultiplexed, 41, 600);
  SubmitAll(service, id, stream);
  service.CloseSession(id);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  CodecPtr reference = MakeCodec("adaptive", config.codec_options);
  const EvalResult want = Evaluate(*reference, stream);
  const auto* adaptive = dynamic_cast<const AdaptiveCodec*>(reference.get());
  ASSERT_NE(adaptive, nullptr);
  const auto& decisions = adaptive->encoder_decisions();
  ASSERT_TRUE(std::any_of(decisions.begin(), decisions.end(),
                          [](const AdaptiveDecision& d) { return d.switched; }))
      << "stream never forced a switch; the test is vacuous";
  const SessionReport report = service.Report(id);
  ExpectSameEvalResult(report.result, want);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.transport.clean, stream.size());
}

TEST(AdaptiveServiceTest, SwitchesCleanlyAfterAChannelResync) {
  // A transient upset lands mid-window while the history member
  // (inc-xor) is active; the recovery ladder resyncs the channel, and
  // the very next regime change must still switch members cleanly — the
  // boundary edge case where a desync would shear the two decision logs
  // apart. The phases are engineered so the switch decision lands after
  // the upset: a sequential run (inc-xor territory), then an alternating
  // all-ones/all-zeros burst (bus-invert pays 1 toggle where inc-xor
  // pays the full bus width).
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "adaptive";
  config.codec_options.adaptive_palette = "inc-xor,bus-invert";
  config.codec_options.adaptive_window = 16;
  config.codec_options.adaptive_hysteresis = 0;
  config.protection = Protection::kNone;
  config.fault_installer = [](BusChannel& channel) {
    channel.AddFault(std::make_unique<SingleUpsetFault>(20, 7));
  };
  const std::uint64_t id = service.OpenSession(config);
  std::vector<BusAccess> stream;
  for (std::size_t i = 0; i < 48; ++i) {
    stream.push_back(BusAccess{0x1000 + 4 * i, true});
  }
  for (std::size_t i = 0; i < 48; ++i) {
    stream.push_back(BusAccess{i % 2 == 0 ? Word{0} : Word{0xFFFFFFFF}, true});
  }
  SubmitAll(service, id, stream);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport report = service.Report(id);
  EXPECT_GE(report.transport.recovered, 1u);
  EXPECT_GE(report.transport.forced_resyncs, 1u);
  EXPECT_FALSE(report.degraded);

  CodecPtr reference = MakeCodec("adaptive", config.codec_options);
  const EvalResult want = Evaluate(*reference, stream);
  const auto* adaptive = dynamic_cast<const AdaptiveCodec*>(reference.get());
  ASSERT_NE(adaptive, nullptr);
  const auto& decisions = adaptive->encoder_decisions();
  ASSERT_TRUE(std::any_of(decisions.begin(), decisions.end(),
                          [](const AdaptiveDecision& d) {
                            return d.switched && d.access_index > 20;
                          }))
      << "no member switch after the upset; the scenario went untested";
  ExpectSameEvalResult(report.result, want);
}

TEST(AdaptiveServiceTest, KeepsSwitchingAfterTransportDegrades) {
  // Rung 3 with an adaptive session: an unhealable stuck line demotes
  // the *transport* to binary, but the session's accounting codec keeps
  // taking (and replaying) window decisions — the report must still be
  // bit-exact against the serial adaptive reference, with switches
  // happening after the degradation point.
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "adaptive";
  config.codec_options.adaptive_palette = "inc-xor,bus-invert";
  config.codec_options.adaptive_window = 16;
  config.codec_options.adaptive_hysteresis = 0;
  config.protection = Protection::kNone;
  config.fault_installer = [](BusChannel& channel) {
    channel.AddFault(std::make_unique<StuckAtFault>(0, true, 30));
  };
  const std::uint64_t id = service.OpenSession(config);
  std::vector<BusAccess> stream;
  for (std::size_t i = 0; i < 48; ++i) {
    stream.push_back(BusAccess{0x2000 + 4 * i, true});
  }
  for (std::size_t i = 0; i < 48; ++i) {
    stream.push_back(BusAccess{i % 2 == 0 ? Word{0} : Word{0xFFFFFFFF}, true});
  }
  SubmitAll(service, id, stream);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport report = service.Report(id);
  EXPECT_TRUE(report.degraded);
  EXPECT_GE(report.transport.degraded_deliveries, 1u);

  CodecPtr reference = MakeCodec("adaptive", config.codec_options);
  const EvalResult want = Evaluate(*reference, stream);
  const auto* adaptive = dynamic_cast<const AdaptiveCodec*>(reference.get());
  ASSERT_NE(adaptive, nullptr);
  const auto& decisions = adaptive->encoder_decisions();
  EXPECT_TRUE(std::any_of(decisions.begin(), decisions.end(),
                          [](const AdaptiveDecision& d) {
                            return d.switched && d.access_index > 30;
                          }))
      << "no member switch after the degradation point";
  ExpectSameEvalResult(report.result, want);
}

TEST(ServiceTest, UnknownSessionIdsThrow) {
  EncodingService service(ManualMode());
  const BusAccess access{0x100, true};
  EXPECT_THROW(service.Submit(99, std::span<const BusAccess>(&access, 1)),
               std::out_of_range);
  EXPECT_THROW(service.Report(99), std::out_of_range);
  EXPECT_THROW(service.CloseSession(99), std::out_of_range);
}

TEST(ServiceTest, InvalidSessionConfigThrowsAtAdmission) {
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "no-such-codec";
  EXPECT_THROW(service.OpenSession(config), CodecConfigError);
}

TEST(ServiceTest, DriversProcessConcurrentClients) {
  // Threaded mode end to end: pool drivers, concurrent submitters,
  // bit-exact reports.
  ServiceConfig service_config;
  service_config.shards = 2;
  service_config.parallelism = 2;
  service_config.enable_watchdog = false;
  EncodingService service(service_config);

  constexpr std::size_t kSessions = 8;
  std::vector<std::vector<BusAccess>> streams;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams.push_back(TestStream(verify::StreamFamily::kMultiplexed,
                                 100 + i, 400));
    SessionConfig config;
    config.codec_name = "dual-t0-bi";
    config.queue_capacity = 128;
    config.slowdown_watermark = 96;
    ids.push_back(service.OpenSession(config));
  }
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 2; ++c) {
    clients.emplace_back([&, c]() {
      for (std::size_t i = c; i < kSessions; i += 2) {
        std::size_t offset = 0;
        const std::span<const BusAccess> span(streams[i]);
        while (offset < span.size()) {
          const std::size_t n = std::min<std::size_t>(64, span.size() - offset);
          switch (service.Submit(ids[i], span.subspan(offset, n))) {
            case Admission::kRejected:
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              break;
            default:
              offset += n;
              break;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(20000)));
  EXPECT_EQ(service.Stop(), ShutdownResult::kDrained);

  for (std::size_t i = 0; i < kSessions; ++i) {
    CodecPtr reference = MakeCodec("dual-t0-bi");
    SCOPED_TRACE(i);
    ExpectSameEvalResult(service.Report(ids[i]).result,
                         Evaluate(*reference, streams[i]));
  }
}

TEST(WatchdogTest, FailsOverAWedgedShardAndNoWorkIsLost) {
  ServiceConfig service_config;
  service_config.shards = 2;
  service_config.parallelism = 2;
  service_config.watchdog_interval = std::chrono::milliseconds(5);
  service_config.watchdog_stuck_strikes = 3;
  EncodingService service(service_config);

  // Wedge shard 0 before any traffic: its driver blocks on the gate.
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  service.shard(0).SetStallHook([gate]() {
    std::unique_lock<std::mutex> lock(gate->mutex);
    gate->cv.wait(lock, [&]() { return gate->open; });
  });

  // Sessions land round-robin, so both shards own some.
  std::vector<std::uint64_t> ids;
  std::vector<std::vector<BusAccess>> streams;
  for (std::size_t i = 0; i < 4; ++i) {
    ids.push_back(service.OpenSession());
    streams.push_back(
        TestStream(verify::StreamFamily::kBoundary, 200 + i, 300));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    std::size_t offset = 0;
    const std::span<const BusAccess> span(streams[i]);
    while (offset < span.size()) {
      const std::size_t n = std::min<std::size_t>(64, span.size() - offset);
      if (service.Submit(ids[i], span.subspan(offset, n)) ==
          Admission::kRejected) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      offset += n;
    }
  }

  // The watchdog must detect the frozen heartbeat (with work pending)
  // and migrate shard 0's sessions to the survivor.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (service.failovers() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(service.failovers(), 1u);
  EXPECT_TRUE(service.shard(0).dead());

  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(20000)));
  {
    std::lock_guard<std::mutex> lock(gate->mutex);
    gate->open = true;
  }
  gate->cv.notify_all();
  EXPECT_EQ(service.Stop(), ShutdownResult::kDrained);

  for (std::size_t i = 0; i < 4; ++i) {
    CodecPtr reference = MakeCodec("t0");
    SCOPED_TRACE(i);
    ExpectSameEvalResult(service.Report(ids[i]).result,
                         Evaluate(*reference, streams[i]));
  }
}

TEST(SoakTest, SmokeRunIsBitIdenticalUnderFaults) {
  SoakOptions options;
  options.sessions = 48;
  options.length = 150;
  options.shards = 2;
  options.parallelism = 2;
  options.clients = 2;
  options.seed = 5;
  options.queue_capacity = 96;
  options.slowdown_watermark = 64;
  options.chunk = 32;
  const SoakOutcome outcome = RunSoak(options);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? "timed out"
                                    : outcome.failures.front());
  EXPECT_EQ(outcome.sessions, 48u);
  EXPECT_EQ(outcome.accesses, 48u * 150u);
}

TEST(SoakTest, EvictionChurnStaysBitIdentical) {
  SoakOptions options;
  options.sessions = 32;
  options.length = 200;
  options.shards = 2;
  options.parallelism = 2;
  options.clients = 2;
  options.seed = 8;
  options.idle_evict_steps = 2;
  options.access_budget = 70;
  const SoakOutcome outcome = RunSoak(options);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? "timed out"
                                    : outcome.failures.front());
  EXPECT_GT(outcome.evicted_sessions, 0u);
}

}  // namespace
}  // namespace abenc::service
