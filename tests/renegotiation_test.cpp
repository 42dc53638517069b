// Per-session codec renegotiation, end to end: the pinned-switch
// contract at the session layer (apply exactly at the admitted index,
// total refusals across the whole recovery ladder), the server-side
// recommendation policy, and the wire path — versioned capability
// negotiation, RENEGOTIATE/ACK, pipelined SUBMIT_STREAM with its offset
// guard, and ATTACH resume landing exactly on a renegotiation /
// adaptive-window boundary (the resumed session must replay the same
// decision log as an uninterrupted one).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "channel/fault_models.h"
#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/sockets.h"
#include "service/renegotiation.h"
#include "service/service.h"
#include "verify/stream_gen.h"

namespace abenc::net {
namespace {

using service::Admission;
using service::EncodingService;
using service::RenegotiateOutcome;
using service::RenegotiateStatus;
using service::RecommendCodec;
using service::ServiceConfig;
using service::SessionConfig;
using service::SessionReport;

std::vector<BusAccess> TestStream(std::size_t length,
                                  std::uint64_t seed = 1) {
  return verify::GenerateStream(verify::AllStreamFamilies()[0],
                                verify::MixSeed(seed), length, 32, 4);
}

/// A service in deterministic manual mode: no pool, no watchdog; the
/// test drives processing itself via Drain().
ServiceConfig ManualMode() {
  ServiceConfig config;
  config.shards = 1;
  config.start_drivers = false;
  config.enable_watchdog = false;
  return config;
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
      service.StepAll();
      continue;
    }
    ASSERT_TRUE(admission == Admission::kAccepted ||
                admission == Admission::kSlowDown);
    offset += n;
  }
}

void ExpectSameEvalResult(const EvalResult& got, const EvalResult& want) {
  EXPECT_EQ(got.stream_length, want.stream_length);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.peak_transitions, want.peak_transitions);
  EXPECT_EQ(got.in_sequence_percent, want.in_sequence_percent);
  EXPECT_EQ(got.per_line, want.per_line);
}

// ---- session layer ---------------------------------------------------

TEST(RenegotiationSessionTest, ScheduledSwitchAppliesExactlyAtPinnedIndex) {
  // Queue 100 accesses, renegotiate while they are still queued: the
  // switch must pin to the lifetime admitted count (100), apply there
  // during the drain, and the lifetime accounting must equal a serial
  // EvaluateWithSchedule replay of that one switch point.
  const std::vector<BusAccess> stream = TestStream(300, 21);
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "t0";
  const std::uint64_t id = service.OpenSession(config);
  const std::span<const BusAccess> span(stream);

  ASSERT_EQ(service.Submit(id, span.subspan(0, 100)), Admission::kAccepted);
  const RenegotiateOutcome outcome = service.Renegotiate(id, "gray");
  EXPECT_EQ(outcome.status, RenegotiateStatus::kScheduled);
  EXPECT_EQ(outcome.switch_index, 100u);

  SubmitAll(service, id, span.subspan(100));
  service.CloseSession(id);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport report = service.Report(id);
  ASSERT_EQ(report.renegotiations.size(), 1u);
  EXPECT_EQ(report.renegotiations[0].index, 100u);
  EXPECT_EQ(report.renegotiations[0].codec_name, "gray");
  EXPECT_EQ(report.active_codec, "gray");
  ExpectSameEvalResult(
      report.result,
      EvaluateWithSchedule("t0", config.codec_options, stream,
                           report.renegotiations, report.reset_points));
}

TEST(RenegotiationSessionTest, DrainedQueueAppliesImmediately) {
  const std::vector<BusAccess> stream = TestStream(200, 22);
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "gray";
  const std::uint64_t id = service.OpenSession(config);
  const std::span<const BusAccess> span(stream);

  SubmitAll(service, id, span.subspan(0, 80));
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));
  const RenegotiateOutcome outcome = service.Renegotiate(id, "bus-invert");
  EXPECT_EQ(outcome.status, RenegotiateStatus::kApplied);
  EXPECT_EQ(outcome.switch_index, 80u);

  SubmitAll(service, id, span.subspan(80));
  service.CloseSession(id);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport report = service.Report(id);
  ASSERT_EQ(report.renegotiations.size(), 1u);
  EXPECT_EQ(report.renegotiations[0].index, 80u);
  // bus-invert adds a redundant line: the fold must zero-extend the
  // narrower t0-era histogram, which EvaluateWithSchedule mirrors.
  ExpectSameEvalResult(
      report.result,
      EvaluateWithSchedule("gray", config.codec_options, stream,
                           report.renegotiations, report.reset_points));
}

TEST(RenegotiationSessionTest, EndOfStreamPinnedSwitchStillApplies) {
  // Regression pin: a switch scheduled while the final batch is still
  // queued lands exactly at the end of the processed stream — there is
  // never another access to trigger the split, so the drain itself must
  // apply it, or an acked switch stays pending forever and the replayed
  // schedule diverges from the acks.
  const std::vector<BusAccess> stream = TestStream(150, 23);
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "t0";
  const std::uint64_t id = service.OpenSession(config);

  ASSERT_EQ(service.Submit(id, stream), Admission::kAccepted);
  const RenegotiateOutcome outcome = service.Renegotiate(id, "gray");
  EXPECT_EQ(outcome.status, RenegotiateStatus::kScheduled);
  EXPECT_EQ(outcome.switch_index, stream.size());

  service.CloseSession(id);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport report = service.Report(id);
  ASSERT_EQ(report.renegotiations.size(), 1u);
  EXPECT_EQ(report.renegotiations[0].index, stream.size());
  EXPECT_EQ(report.active_codec, "gray");
  ExpectSameEvalResult(
      report.result,
      EvaluateWithSchedule("t0", config.codec_options, stream,
                           report.renegotiations, report.reset_points));
}

TEST(RenegotiationSessionTest, RefusalsAreTotalAcrossTheLadder) {
  // kRefusedBadCodec / kRefusedPending / kRefusedUnchanged /
  // kRefusedClosed: each refusal leaves the session bit-for-bit
  // unchanged — no half-applied switch may ever reach the schedule.
  const std::vector<BusAccess> stream = TestStream(120, 24);
  EncodingService service(ManualMode());
  const std::uint64_t id = service.OpenSession();
  const std::string active = service.Report(id).active_codec;

  EXPECT_EQ(service.Renegotiate(id, "no-such-codec").status,
            RenegotiateStatus::kRefusedBadCodec);
  EXPECT_EQ(service.Renegotiate(id, active).status,
            RenegotiateStatus::kRefusedUnchanged);

  ASSERT_EQ(service.Submit(id, stream), Admission::kAccepted);
  EXPECT_EQ(service.Renegotiate(id, "gray").status,
            RenegotiateStatus::kScheduled);
  EXPECT_EQ(service.Renegotiate(id, "bus-invert").status,
            RenegotiateStatus::kRefusedPending);

  service.CloseSession(id);
  EXPECT_EQ(service.Renegotiate(id, "bus-invert").status,
            RenegotiateStatus::kRefusedClosed);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  // Only the one scheduled switch applied; the refused ones left no
  // trace, and the replayed schedule matches.
  const SessionReport report = service.Report(id);
  ASSERT_EQ(report.renegotiations.size(), 1u);
  EXPECT_EQ(report.renegotiations[0].codec_name, "gray");
  ExpectSameEvalResult(
      report.result,
      EvaluateWithSchedule(active, CodecOptions{}, stream,
                           report.renegotiations, report.reset_points));
}

TEST(RenegotiationSessionTest, RefusedAfterDegradeToBinary) {
  // Rung 3 of the recovery ladder: once the transport has degraded the
  // session sticks to binary — a renegotiation would silently re-arm a
  // history codec on a broken channel, so it must be refused.
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "t0";
  config.protection = Protection::kNone;
  config.fault_installer = [](BusChannel& channel) {
    channel.AddFault(std::make_unique<StuckAtFault>(0, true, 30));
  };
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream = TestStream(200, 25);
  SubmitAll(service, id, stream);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport before = service.Report(id);
  ASSERT_TRUE(before.degraded);
  EXPECT_EQ(service.Renegotiate(id, "gray").status,
            RenegotiateStatus::kRefusedDegraded);

  const SessionReport after = service.Report(id);
  EXPECT_TRUE(after.renegotiations.empty());
  EXPECT_EQ(after.active_codec, before.active_codec);
  const service::TransportCounters& t = after.transport;
  EXPECT_EQ(t.clean + t.corrected + t.recovered + t.degraded_deliveries,
            t.transfers);
}

TEST(RenegotiationSessionTest, RefusedMidRecoveryWhileChannelInFallback) {
  // Rung 2, mid-resync: repeated detected upsets push the channel's own
  // recovery FSM into fallback mode (without degrading the session).
  // While the FSM owns the transport a renegotiation must be deferred —
  // tearing down the codec mid-recovery would half-apply the ladder.
  EncodingService service(ManualMode());
  SessionConfig config;
  config.codec_name = "t0";
  config.protection = Protection::kParity;
  config.channel_recovery = true;
  config.fault_installer = [](BusChannel& channel) {
    // Four detected-error cycles inside the 64-cycle sliding window:
    // past the fallback threshold of 3 even with retry cycles between.
    channel.AddFault(std::make_unique<SingleUpsetFault>(10, 3));
    channel.AddFault(std::make_unique<SingleUpsetFault>(14, 5));
    channel.AddFault(std::make_unique<SingleUpsetFault>(18, 7));
    channel.AddFault(std::make_unique<SingleUpsetFault>(22, 9));
  };
  const std::uint64_t id = service.OpenSession(config);
  const std::vector<BusAccess> stream = TestStream(60, 26);
  SubmitAll(service, id, stream);
  ASSERT_TRUE(service.Drain(std::chrono::milliseconds(5000)));

  const SessionReport report = service.Report(id);
  ASSERT_FALSE(report.degraded);  // healed, not degraded
  EXPECT_GE(report.transport.recovered, 1u);
  // The clean run since the last upset is far below the promote window,
  // so the channel is still in fallback — the refusal the ladder owes.
  EXPECT_EQ(service.Renegotiate(id, "gray").status,
            RenegotiateStatus::kRefusedRecovering);
  EXPECT_TRUE(service.Report(id).renegotiations.empty());
}

// ---- recommendation policy -------------------------------------------

TEST(RenegotiationPolicyTest, RegimesMapToPaletteMembers) {
  AdaptiveWindowStats window;

  // Too little signal: no recommendation.
  window.accesses = 8;
  EXPECT_EQ(RecommendCodec(window, 32, "binary"), "");

  // Sequential regime -> t0.
  window.accesses = 64;
  window.in_sequence = 60;
  window.sel_high = 64;
  EXPECT_EQ(RecommendCodec(window, 32, "binary"), "t0");
  // ...but never a switch to the codec already active.
  EXPECT_EQ(RecommendCodec(window, 32, "t0"), "");

  // Sequential and genuinely multiplexed -> the dual code.
  window.sel_high = 32;
  EXPECT_EQ(RecommendCodec(window, 32, "binary"), "dual-t0-bi");

  // Random-like dense toggling -> bus-invert.
  AdaptiveWindowStats dense;
  dense.accesses = 64;
  dense.raw_toggles = 64 * 16;  // density 16 > 32 * 0.25
  EXPECT_EQ(RecommendCodec(dense, 32, "t0"), "bus-invert");

  // Unit-stride counting -> gray.
  AdaptiveWindowStats unit;
  unit.accesses = 64;
  unit.unit_stride_steps = 40;  // >= 0.5 * (accesses - 1)
  EXPECT_EQ(RecommendCodec(unit, 32, "t0"), "gray");
}

TEST(RenegotiationPolicyTest, UnitStrideRuleAtTheBoundAndOnePast) {
  // 64 accesses take 63 steps, so the rule's bound is 0.5 * 63 = 31.5
  // unit steps: 31 stays below it and 32 is the first count that meets
  // it. No other regime matches (no in-sequence steps, sparse toggles).
  AdaptiveWindowStats window;
  window.accesses = 64;
  window.raw_toggles = 64;  // density 1, far below 32 * 0.25
  window.unit_stride_steps = 31;
  EXPECT_EQ(RecommendCodec(window, 32, "t0"), "");
  window.unit_stride_steps = 32;
  EXPECT_EQ(RecommendCodec(window, 32, "t0"), "gray");
  // ...and never a switch to the codec already active.
  EXPECT_EQ(RecommendCodec(window, 32, "gray"), "");
}

// ---- wire layer ------------------------------------------------------

ServerConfig LoopbackConfig() {
  ServerConfig config;
  config.endpoint = "tcp:127.0.0.1:0";
  config.service.shards = 2;
  config.service.parallelism = 2;
  return config;
}

ClientOptions OptionsFor(const Server& server) {
  ClientOptions options;
  options.endpoint = server.endpoint();
  options.io_timeout = std::chrono::milliseconds(20000);
  return options;
}

/// Raw (Client-free) connection for frame-level violation cases.
struct RawConn {
  int fd = -1;
  std::vector<std::uint8_t> buffer;

  explicit RawConn(const std::string& endpoint)
      : fd(DialEndpoint(ParseEndpoint(endpoint),
                        std::chrono::milliseconds(10000))) {}
  ~RawConn() { CloseFd(fd); }

  void Send(std::span<const std::uint8_t> bytes) {
    SendAll(fd, bytes.data(), bytes.size());
  }

  std::optional<Frame> Read() {
    for (;;) {
      std::optional<Frame> frame =
          TryExtractFrame(buffer, kDefaultMaxFrameBytes);
      if (frame.has_value()) return frame;
      std::uint8_t chunk[4096];
      const std::size_t n = RecvSome(fd, chunk, sizeof(chunk));
      if (n == 0) return std::nullopt;
      buffer.insert(buffer.end(), chunk, chunk + n);
    }
  }
};

void SubmitOverWire(Client& client, std::uint64_t session_id,
                    std::span<const BusAccess> stream, std::size_t from,
                    std::size_t to) {
  std::size_t submitted = from;
  while (submitted < to) {
    const std::size_t n = std::min<std::size_t>(64, to - submitted);
    const SubmitAck ack =
        client.Submit(session_id, stream.subspan(submitted, n));
    if (ack.status != Status::kRejected) submitted += n;
  }
}

TEST(RenegotiationWireTest, VersionAndCapabilityNegotiation) {
  Server server(LoopbackConfig());
  server.Start();

  Client v2(OptionsFor(server));
  EXPECT_EQ(v2.version(), kProtocolVersion);
  EXPECT_EQ(v2.capabilities(), kDefaultCapabilities);

  ClientOptions old_options = OptionsFor(server);
  old_options.version_max = 1;
  Client v1(old_options);
  EXPECT_EQ(v1.version(), 1);
  EXPECT_EQ(v1.capabilities(), 0u);

  // A v2 handshake that did not offer the capabilities gets none.
  ClientOptions bare_options = OptionsFor(server);
  bare_options.capabilities = 0;
  Client bare(bare_options);
  EXPECT_EQ(bare.version(), kProtocolVersion);
  EXPECT_EQ(bare.capabilities(), 0u);
  server.Stop();
}

TEST(RenegotiationWireTest, MidStreamSwitchRoundTripsAndVerifies) {
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));

  const std::vector<BusAccess> stream = TestStream(400, 31);
  OpenRequest open;
  open.codec = "t0";
  const OpenReply opened = client.Open(open);

  SubmitOverWire(client, opened.session_id, stream, 0, 150);
  (void)client.DrainStats(opened.session_id, /*wait_drained=*/true);
  const RenegotiateReply ack =
      client.Renegotiate(opened.session_id, "bus-invert");
  EXPECT_EQ(ack.session_id, opened.session_id);
  EXPECT_EQ(ack.codec, "bus-invert");
  EXPECT_EQ(ack.switch_index, 150u);

  SubmitOverWire(client, opened.session_id, stream, 150, stream.size());
  const StatsReply stats =
      client.DrainStats(opened.session_id, /*wait_drained=*/true);
  ASSERT_EQ(stats.renegotiations.size(), 1u);
  EXPECT_EQ(stats.renegotiations[0].index, 150u);
  EXPECT_EQ(stats.renegotiations[0].codec_name, "bus-invert");
  EXPECT_EQ(stats.active_codec, "bus-invert");

  const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                        stats.reset_points.end());
  const EvalResult expected = EvaluateWithSchedule(
      "t0", CodecOptions{}, stream, stats.renegotiations, resets);
  EXPECT_EQ(stats.transitions, expected.transitions);
  EXPECT_EQ(stats.peak_transitions, expected.peak_transitions);
  EXPECT_EQ(stats.in_sequence_percent, expected.in_sequence_percent);
  ASSERT_EQ(stats.per_line.size(), expected.per_line.size());
  for (std::size_t i = 0; i < stats.per_line.size(); ++i) {
    EXPECT_EQ(stats.per_line[i], expected.per_line[i]) << "line " << i;
  }
  client.Close(opened.session_id);
  server.Stop();
}

TEST(RenegotiationWireTest, AttachResumeOnRenegotiationBoundary) {
  // The resume/boundary collision the bug sweep targets: the connection
  // dies immediately after a switch pinned exactly at the stats-window
  // boundary (64 = the default AdaptiveWindowStats window). The resumed
  // session must replay the same decision log as an uninterrupted twin
  // — ATTACH_OK reports the applied switch, and the final accounting of
  // both sessions is identical bit for bit.
  Server server(LoopbackConfig());
  server.Start();
  const std::vector<BusAccess> stream = TestStream(300, 32);

  OpenRequest open;
  open.codec = "t0";

  // Interrupted session: switch at 64, then drop the connection.
  std::uint64_t interrupted_id = 0;
  std::uint64_t token = 0;
  {
    Client first(OptionsFor(server));
    const OpenReply opened = first.Open(open);
    interrupted_id = opened.session_id;
    token = opened.token;
    SubmitOverWire(first, interrupted_id, stream, 0, 64);
    (void)first.DrainStats(interrupted_id, /*wait_drained=*/true);
    const RenegotiateReply ack = first.Renegotiate(interrupted_id, "gray");
    EXPECT_EQ(ack.switch_index, 64u);
    // Destructor closes the socket without CLOSE: a mid-session death.
  }

  Client resumed(OptionsFor(server));
  const AttachReply attach = resumed.Attach(interrupted_id, token);
  EXPECT_EQ(attach.accepted, 64u);
  EXPECT_EQ(attach.renegotiations, 1u);
  EXPECT_EQ(attach.active_codec, "gray");
  SubmitOverWire(resumed, interrupted_id, stream, attach.accepted,
                 stream.size());
  const StatsReply got =
      resumed.DrainStats(interrupted_id, /*wait_drained=*/true);
  resumed.Close(interrupted_id);

  // Uninterrupted twin: same stream, same switch point.
  Client twin(OptionsFor(server));
  const OpenReply twin_open = twin.Open(open);
  SubmitOverWire(twin, twin_open.session_id, stream, 0, 64);
  (void)twin.DrainStats(twin_open.session_id, /*wait_drained=*/true);
  EXPECT_EQ(twin.Renegotiate(twin_open.session_id, "gray").switch_index,
            64u);
  SubmitOverWire(twin, twin_open.session_id, stream, 64, stream.size());
  const StatsReply want =
      twin.DrainStats(twin_open.session_id, /*wait_drained=*/true);
  twin.Close(twin_open.session_id);

  EXPECT_EQ(got.stream_length, want.stream_length);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.peak_transitions, want.peak_transitions);
  EXPECT_EQ(got.in_sequence_percent, want.in_sequence_percent);
  EXPECT_EQ(got.per_line, want.per_line);
  EXPECT_EQ(got.renegotiations, want.renegotiations);
  EXPECT_EQ(got.reset_points, want.reset_points);
  EXPECT_EQ(got.active_codec, want.active_codec);
  server.Stop();
}

TEST(RenegotiationWireTest, PipelinedSubmitStreamMatchesSerialOracle) {
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));

  const std::vector<BusAccess> stream = TestStream(700, 33);
  std::vector<Word> addresses(stream.size());
  std::vector<std::uint8_t> sel(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    addresses[i] = stream[i].address;
    sel[i] = stream[i].sel ? 1 : 0;
  }

  OpenRequest open;
  open.codec = "gray";
  const OpenReply opened = client.Open(open);
  StreamSubmitOptions submit;
  submit.chunk = 48;
  submit.window = 4;
  submit.ack_interval = 3;  // sparse acks: the streaming mode
  const StreamSubmitResult result =
      client.SubmitColumns(opened.session_id, addresses.data(), sel.data(),
                           stream.size(), submit);
  EXPECT_FALSE(result.closed);
  EXPECT_EQ(result.accepted, stream.size());

  const StatsReply stats =
      client.DrainStats(opened.session_id, /*wait_drained=*/true);
  EXPECT_EQ(stats.stream_length, stream.size());
  const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                        stats.reset_points.end());
  const EvalResult expected = EvaluateWithSchedule(
      "gray", CodecOptions{}, stream, stats.renegotiations, resets);
  EXPECT_EQ(stats.transitions, expected.transitions);
  EXPECT_EQ(stats.per_line, expected.per_line);
  client.Close(opened.session_id);
  server.Stop();
}

TEST(RenegotiationWireTest, SubmitStreamOffsetGuardRejectsStaleOffset) {
  // The pipelining offset guard: a SUBMIT_STREAM whose offset is not
  // the server's lifetime admitted count queues nothing and is answered
  // kRejected carrying the server's truth — even with want_ack unset.
  Server server(LoopbackConfig());
  server.Start();
  RawConn conn(server.endpoint());
  conn.Send(EncodeFrame(HelloRequest{}));
  const HelloReply hello = Decode<HelloReply>(conn.Read()->payload);
  ASSERT_EQ(hello.version, kProtocolVersion);
  conn.Send(EncodeFrame(OpenRequest{}));
  const OpenReply opened = Decode<OpenReply>(conn.Read()->payload);

  const std::vector<BusAccess> stream = TestStream(8, 34);
  std::vector<Word> addresses;
  std::vector<std::uint8_t> sel;
  for (const BusAccess& access : stream) {
    addresses.push_back(access.address);
    sel.push_back(access.sel ? 1 : 0);
  }
  // Stale offset 5 (server has admitted 0), want_ack = 0.
  conn.Send(EncodeFrame(
      FrameType::kSubmitStream,
      EncodeSubmitStream(opened.session_id, 5, false, addresses.data(),
                         sel.data(), addresses.size())));
  std::optional<Frame> frame = conn.Read();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kSubmitAck);
  SubmitAck ack = Decode<SubmitAck>(frame->payload, hello.capabilities);
  EXPECT_EQ(ack.status, Status::kRejected);
  EXPECT_EQ(ack.accepted, 0u);

  // The correct offset goes through and nothing from the stale frame
  // was queued ahead of it.
  conn.Send(EncodeFrame(
      FrameType::kSubmitStream,
      EncodeSubmitStream(opened.session_id, 0, true, addresses.data(),
                         sel.data(), addresses.size())));
  frame = conn.Read();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kSubmitAck);
  ack = Decode<SubmitAck>(frame->payload, hello.capabilities);
  EXPECT_EQ(ack.status, Status::kOk);
  EXPECT_EQ(ack.accepted, stream.size());
  server.Stop();
}

TEST(RenegotiationWireTest, OldClientCompletesFullSessionUntouched) {
  // The acceptance bar for backwards compatibility: a client pinned to
  // protocol version 1 runs a complete session and its replies carry no
  // v2 extension bytes; the v2-only verbs are refused client-side.
  Server server(LoopbackConfig());
  server.Start();
  ClientOptions options = OptionsFor(server);
  options.version_max = 1;
  Client client(options);
  ASSERT_EQ(client.version(), 1);
  ASSERT_EQ(client.capabilities(), 0u);

  const std::vector<BusAccess> stream = TestStream(200, 35);
  OpenRequest open;
  open.codec = "t0";
  const OpenReply opened = client.Open(open);
  SubmitOverWire(client, opened.session_id, stream, 0, stream.size());
  const StatsReply stats =
      client.DrainStats(opened.session_id, /*wait_drained=*/true);
  EXPECT_EQ(stats.stream_length, stream.size());
  EXPECT_TRUE(stats.renegotiations.empty());
  EXPECT_TRUE(stats.active_codec.empty());

  const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                        stats.reset_points.end());
  const EvalResult expected =
      EvaluateWithSchedule("t0", CodecOptions{}, stream, {}, resets);
  EXPECT_EQ(stats.transitions, expected.transitions);
  EXPECT_EQ(stats.per_line, expected.per_line);

  EXPECT_THROW(client.Renegotiate(opened.session_id, "gray"), WireError);
  Word address = 0;
  std::uint8_t sel = 1;
  EXPECT_THROW(client.SubmitColumns(opened.session_id, &address, &sel, 1,
                                    StreamSubmitOptions{}),
               WireError);
  client.Close(opened.session_id);
  server.Stop();
}

TEST(RenegotiationWireTest, CapabilityGatedFrameWithoutCapIsFatal) {
  // A v2 connection that negotiated no capabilities sending RENEGOTIATE
  // is a protocol violation: fatal ERROR, then close.
  Server server(LoopbackConfig());
  server.Start();
  RawConn conn(server.endpoint());
  HelloRequest hello;
  hello.capabilities = 0;
  conn.Send(EncodeFrame(hello));
  const HelloReply negotiated = Decode<HelloReply>(conn.Read()->payload);
  ASSERT_EQ(negotiated.version, kProtocolVersion);
  ASSERT_EQ(negotiated.capabilities, 0u);

  RenegotiateRequest request;
  request.session_id = 1;
  request.codec = "gray";
  conn.Send(EncodeFrame(request));
  std::optional<Frame> frame = conn.Read();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kError);
  const ErrorReply error = Decode<ErrorReply>(frame->payload);
  EXPECT_TRUE(StatusIsFatal(error.status));
  EXPECT_FALSE(conn.Read().has_value());  // server closed the connection
  server.Stop();
}

TEST(RenegotiationWireTest, EmptyCodecAsksThePolicy) {
  // RENEGOTIATE with an empty codec delegates to the server policy; on
  // a brand-new session the policy has no completed window yet, so the
  // request is refused cleanly (request-scoped, connection stays up).
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));
  const OpenReply opened = client.Open(OpenRequest{});
  try {
    (void)client.Renegotiate(opened.session_id, "");
    FAIL() << "policy recommended a switch with zero completed windows";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kRenegotiateRefused);
  }
  // The refusal was request-scoped: the session still works.
  const std::vector<BusAccess> stream = TestStream(64, 36);
  SubmitOverWire(client, opened.session_id, stream, 0, stream.size());
  const StatsReply stats =
      client.DrainStats(opened.session_id, /*wait_drained=*/true);
  EXPECT_EQ(stats.stream_length, stream.size());
  client.Close(opened.session_id);
  server.Stop();
}

}  // namespace
}  // namespace abenc::net
