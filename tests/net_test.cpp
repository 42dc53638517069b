// The network front-end's contracts: wire-protocol round-trips and
// framing guards (no sockets), then loopback server/client behaviour —
// bit-identical accounting across the wire, client-visible backpressure,
// exactly-once ATTACH resume after a mid-frame disconnect, and clean
// protocol errors (never a crash or a wedged connection) for the whole
// malformed-input catalogue.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "net/client.h"
#include "net/net_soak.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/sockets.h"
#include "verify/stream_gen.h"

namespace abenc::net {
namespace {

// ---- protocol layer (no sockets) ------------------------------------

TEST(NetProtocolTest, HelloRoundTrip) {
  HelloRequest hello;
  hello.version_min = 1;
  hello.version_max = 7;
  const HelloRequest decoded = DecodeHello(EncodeHello(hello));
  EXPECT_EQ(decoded.magic, kHelloMagic);
  EXPECT_EQ(decoded.version_min, 1);
  EXPECT_EQ(decoded.version_max, 7);
}

TEST(NetProtocolTest, OpenRoundTripCarriesEveryKnob) {
  OpenRequest open;
  open.codec = "dual-t0-bi";
  open.width = 24;
  open.stride = 8;
  open.protection = 1;
  open.queue_capacity = 123;
  open.slowdown_watermark = 77;
  open.max_retries = 5;
  open.access_budget = 999;
  open.adaptive_window = 32;
  open.adaptive_hysteresis = -4;
  open.adaptive_palette = "t0,gray";
  open.fault_seed = 0xDEADBEEFull;
  const OpenRequest decoded = DecodeOpen(EncodeOpen(open));
  EXPECT_EQ(decoded.codec, "dual-t0-bi");
  EXPECT_EQ(decoded.width, 24);
  EXPECT_EQ(decoded.stride, 8u);
  EXPECT_EQ(decoded.protection, 1);
  EXPECT_EQ(decoded.queue_capacity, 123u);
  EXPECT_EQ(decoded.slowdown_watermark, 77u);
  EXPECT_EQ(decoded.max_retries, 5u);
  EXPECT_EQ(decoded.access_budget, 999u);
  EXPECT_EQ(decoded.adaptive_window, 32u);
  EXPECT_EQ(decoded.adaptive_hysteresis, -4);
  EXPECT_EQ(decoded.adaptive_palette, "t0,gray");
  EXPECT_EQ(decoded.fault_seed, 0xDEADBEEFull);
}

TEST(NetProtocolTest, SubmitRoundTripPreservesAddressesAndSel) {
  std::vector<BusAccess> batch;
  for (int i = 0; i < 9; ++i) {
    batch.push_back({static_cast<Word>(0x1000 + i * 4), (i % 3) != 0});
  }
  const SubmitRequest decoded =
      DecodeSubmit(EncodeSubmit(42, batch));
  EXPECT_EQ(decoded.session_id, 42u);
  ASSERT_EQ(decoded.batch.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded.batch[i].address, batch[i].address);
    EXPECT_EQ(decoded.batch[i].sel, batch[i].sel);
  }
}

TEST(NetProtocolTest, StatsRoundTripCarriesFullAccounting) {
  StatsReply stats;
  stats.session_id = 7;
  stats.state = 1;
  stats.input_closed = true;
  stats.degraded = true;
  stats.accepted = 512;
  stats.stream_length = 512;
  stats.transitions = -3;  // signed survives
  stats.peak_transitions = 17;
  stats.in_sequence_percent = 43.75;
  stats.per_line = {1, 2, 3, 4};
  stats.reset_points = {100, 300};
  stats.transport.transfers = 512;
  stats.transport.clean = 500;
  stats.transport.corrected = 7;
  stats.transport.recovered = 3;
  stats.transport.degraded_deliveries = 2;
  stats.transport.retries = 9;
  stats.transport.forced_resyncs = 4;
  stats.readmissions = 2;
  stats.rejected_batches = 5;
  stats.peak_queue_depth = 200;
  const StatsReply decoded = DecodeStats(EncodeStats(stats));
  EXPECT_EQ(decoded.session_id, 7u);
  EXPECT_EQ(decoded.state, 1);
  EXPECT_TRUE(decoded.input_closed);
  EXPECT_TRUE(decoded.degraded);
  EXPECT_EQ(decoded.accepted, 512u);
  EXPECT_EQ(decoded.transitions, -3);
  EXPECT_EQ(decoded.peak_transitions, 17);
  EXPECT_EQ(decoded.in_sequence_percent, 43.75);
  EXPECT_EQ(decoded.per_line, (std::vector<long long>{1, 2, 3, 4}));
  EXPECT_EQ(decoded.reset_points, (std::vector<std::uint64_t>{100, 300}));
  EXPECT_EQ(decoded.transport.transfers, 512u);
  EXPECT_EQ(decoded.transport.clean, 500u);
  EXPECT_EQ(decoded.transport.corrected, 7u);
  EXPECT_EQ(decoded.transport.recovered, 3u);
  EXPECT_EQ(decoded.transport.degraded_deliveries, 2u);
  EXPECT_EQ(decoded.transport.retries, 9u);
  EXPECT_EQ(decoded.transport.forced_resyncs, 4u);
  EXPECT_EQ(decoded.readmissions, 2u);
  EXPECT_EQ(decoded.rejected_batches, 5u);
  EXPECT_EQ(decoded.peak_queue_depth, 200u);
}

TEST(NetProtocolTest, TruncatedPayloadThrowsNotHalfApplies) {
  const std::vector<std::uint8_t> full = EncodeOpen(OpenRequest{});
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> torn(full.begin(),
                                         full.begin() + cut);
    EXPECT_THROW(DecodeOpen(torn), WireError) << "cut at " << cut;
  }
}

TEST(NetProtocolTest, TrailingBytesRejected) {
  std::vector<std::uint8_t> bytes = EncodeClose(CloseRequest{});
  bytes.push_back(0xAB);
  try {
    DecodeClose(bytes);
    FAIL() << "trailing byte not rejected";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kBadFrame);
  }
}

TEST(NetProtocolTest, SubmitCountMismatchRejected) {
  // Claim 1000 accesses but carry 2: the count must be validated
  // against the actual payload size before any allocation.
  Writer writer;
  writer.U64(1);     // session id
  writer.U32(1000);  // claimed count
  writer.U64(0);     // one address...
  writer.U8(1);
  EXPECT_THROW(DecodeSubmit(writer.Take()), WireError);
}

TEST(NetProtocolTest, FrameExtractionHandlesSplitAndBackToBack) {
  const std::vector<std::uint8_t> a =
      EncodeFrame(FrameType::kClose, EncodeClose(CloseRequest{}));
  const std::vector<std::uint8_t> b =
      EncodeFrame(FrameType::kHello, EncodeHello(HelloRequest{}));
  std::vector<std::uint8_t> buffer;
  // Feed a byte at a time: no frame until the last byte of `a`.
  for (std::size_t i = 0; i < a.size(); ++i) {
    buffer.push_back(a[i]);
    std::optional<Frame> frame =
        TryExtractFrame(buffer, kDefaultMaxFrameBytes);
    if (i + 1 < a.size()) {
      EXPECT_FALSE(frame.has_value()) << "premature frame at byte " << i;
    } else {
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(frame->type, FrameType::kClose);
    }
  }
  EXPECT_TRUE(buffer.empty());
  // Two frames back to back pop in order.
  buffer.insert(buffer.end(), a.begin(), a.end());
  buffer.insert(buffer.end(), b.begin(), b.end());
  EXPECT_EQ(TryExtractFrame(buffer, kDefaultMaxFrameBytes)->type,
            FrameType::kClose);
  EXPECT_EQ(TryExtractFrame(buffer, kDefaultMaxFrameBytes)->type,
            FrameType::kHello);
  EXPECT_TRUE(buffer.empty());
}

TEST(NetProtocolTest, HostileLengthPrefixRejectedFromPrefixAlone) {
  std::vector<std::uint8_t> oversized = {0xFF, 0xFF, 0xFF, 0xFF};
  try {
    TryExtractFrame(oversized, kDefaultMaxFrameBytes);
    FAIL() << "oversized length accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kFrameTooLarge);
  }
  std::vector<std::uint8_t> zero = {0, 0, 0, 0};
  try {
    TryExtractFrame(zero, kDefaultMaxFrameBytes);
    FAIL() << "zero length accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kBadFrame);
  }
}

TEST(NetProtocolTest, FrameCapBoundaryIsExact) {
  // The framing cap at its exact edges: the length word counts the type
  // byte plus payload, a frame of exactly the cap is admitted, one byte
  // over is rejected from the 4-byte prefix alone, one byte under
  // passes. Pinned because an off-by-one here either rejects legal
  // maximum-size frames or admits a frame the peer's cap refuses.
  constexpr std::size_t kCap = 64;
  const auto frame_of_length = [](std::uint32_t length) {
    std::vector<std::uint8_t> bytes(kFrameLengthBytes + length, 0);
    for (int i = 0; i < 4; ++i) {
      bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((length >> (8 * i)) & 0xFF);
    }
    bytes[kFrameLengthBytes] = static_cast<std::uint8_t>(FrameType::kClose);
    return bytes;
  };

  std::vector<std::uint8_t> at_cap = frame_of_length(kCap);
  std::optional<Frame> frame = TryExtractFrame(at_cap, kCap);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), kCap - 1);  // type byte peeled off
  EXPECT_TRUE(at_cap.empty());

  std::vector<std::uint8_t> under_cap = frame_of_length(kCap - 1);
  EXPECT_TRUE(TryExtractFrame(under_cap, kCap).has_value());

  std::vector<std::uint8_t> over_cap = frame_of_length(kCap + 1);
  over_cap.resize(kFrameLengthBytes);  // the prefix alone must suffice
  try {
    TryExtractFrame(over_cap, kCap);
    FAIL() << "cap+1 admitted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kFrameTooLarge);
  }
}

TEST(NetProtocolTest, ReaderBoundaryAtExactPayloadEnd) {
  // The little-endian Reader at its end: consuming exactly the
  // remaining bytes succeeds for every primitive width; one byte past
  // throws kBadFrame instead of reading out of bounds.
  Writer writer;
  writer.U64(0x1122334455667788ULL);
  writer.U32(0xA1B2C3D4u);
  writer.U16(0xE5F6);
  writer.U8(0x42);
  const std::vector<std::uint8_t> bytes = writer.Take();
  Reader reader(bytes);
  EXPECT_EQ(reader.U64(), 0x1122334455667788ULL);
  EXPECT_EQ(reader.U32(), 0xA1B2C3D4u);
  EXPECT_EQ(reader.U16(), 0xE5F6);
  EXPECT_EQ(reader.U8(), 0x42);
  EXPECT_EQ(reader.remaining(), 0u);
  reader.ExpectEnd();  // exactly consumed: no trailing-garbage error
  try {
    reader.U8();
    FAIL() << "read past the payload end";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kBadFrame);
  }

  // A multi-byte primitive must not half-read either: 7 bytes left, a
  // U64 wanted — throws, and the position stays where it was.
  Writer short_writer;
  for (int i = 0; i < 7; ++i) short_writer.U8(static_cast<std::uint8_t>(i));
  const std::vector<std::uint8_t> seven = short_writer.Take();
  Reader short_reader(seven);
  EXPECT_THROW(short_reader.U64(), WireError);
  EXPECT_EQ(short_reader.remaining(), 7u);

  // Str16 whose declared length exceeds the remaining bytes: rejected
  // before any allocation.
  Writer str_writer;
  str_writer.U16(10);  // claims 10 bytes...
  str_writer.U8('x');  // ...carries 1
  const std::vector<std::uint8_t> torn = str_writer.Take();
  Reader str_reader(torn);
  EXPECT_THROW(str_reader.Str16(), WireError);
}

TEST(NetProtocolTest, RenegotiateFramesRoundTrip) {
  RenegotiateRequest request;
  request.session_id = 99;
  request.codec = "bus-invert";
  const RenegotiateRequest decoded_request =
      DecodeRenegotiate(EncodeRenegotiate(request));
  EXPECT_EQ(decoded_request.session_id, 99u);
  EXPECT_EQ(decoded_request.codec, "bus-invert");

  RenegotiateReply reply;
  reply.session_id = 99;
  reply.switch_index = 12345;
  reply.codec = "gray";
  const RenegotiateReply decoded_reply =
      DecodeRenegotiateAck(EncodeRenegotiateAck(reply));
  EXPECT_EQ(decoded_reply.session_id, 99u);
  EXPECT_EQ(decoded_reply.switch_index, 12345u);
  EXPECT_EQ(decoded_reply.codec, "gray");

  // Truncation at every cut: throws, never half-applies.
  const std::vector<std::uint8_t> full = EncodeRenegotiateAck(reply);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> torn(full.begin(), full.begin() + cut);
    EXPECT_THROW(DecodeRenegotiateAck(torn), WireError) << "cut " << cut;
  }
}

TEST(NetProtocolTest, SubmitStreamRoundTripAndCountGuard) {
  SubmitStreamRequest request;
  request.session_id = 7;
  request.offset = 512;
  request.want_ack = true;
  for (int i = 0; i < 5; ++i) {
    request.columns.addresses.push_back(static_cast<Word>(0x4000 + 4 * i));
    request.columns.sel.push_back(i % 2);
  }
  const SubmitStreamRequest decoded =
      DecodeSubmitStream(EncodeSubmitStream(request));
  EXPECT_EQ(decoded.session_id, 7u);
  EXPECT_EQ(decoded.offset, 512u);
  EXPECT_TRUE(decoded.want_ack);
  EXPECT_EQ(decoded.columns.addresses, request.columns.addresses);
  EXPECT_EQ(decoded.columns.sel, request.columns.sel);

  // A claimed count that disagrees with the payload size is rejected
  // before any allocation.
  Writer writer;
  writer.U64(7);     // session
  writer.U64(0);     // offset
  writer.U8(1);      // want_ack
  writer.U32(1000);  // claims 1000 accesses...
  writer.U64(0);     // ...carries one
  writer.U8(1);
  EXPECT_THROW(DecodeSubmitStream(writer.Take()), WireError);
}

TEST(NetProtocolTest, CapabilityGatedExtensionsAreSelfConsistent) {
  // HELLO: the capabilities word exists only when the client offers
  // version 2; a v1 hello must stay byte-identical to the v1 layout.
  HelloRequest v1;
  v1.version_max = 1;
  v1.capabilities = kDefaultCapabilities;  // must NOT be encoded
  const HelloRequest v1_decoded = DecodeHello(EncodeHello(v1));
  EXPECT_EQ(v1_decoded.capabilities, 0u);
  HelloRequest v2;
  v2.capabilities = kCapRenegotiate;
  EXPECT_EQ(DecodeHello(EncodeHello(v2)).capabilities, kCapRenegotiate);

  HelloReply ok;
  ok.version = 1;
  ok.capabilities = kDefaultCapabilities;
  EXPECT_EQ(DecodeHelloOk(EncodeHelloOk(ok)).capabilities, 0u);
  ok.version = kProtocolVersion;
  EXPECT_EQ(DecodeHelloOk(EncodeHelloOk(ok)).capabilities,
            kDefaultCapabilities);

  // ATTACH_OK / SUBMIT_ACK / STATS grow trailing fields only under
  // kCapRenegotiate, and both ends must agree on the caps word.
  AttachReply attach;
  attach.session_id = 3;
  attach.accepted = 77;
  attach.renegotiations = 2;
  attach.active_codec = "gray";
  const AttachReply bare =
      DecodeAttachOk(EncodeAttachOk(attach, 0), 0);
  EXPECT_EQ(bare.accepted, 77u);
  EXPECT_EQ(bare.renegotiations, 0u);
  EXPECT_TRUE(bare.active_codec.empty());
  const AttachReply extended = DecodeAttachOk(
      EncodeAttachOk(attach, kCapRenegotiate), kCapRenegotiate);
  EXPECT_EQ(extended.renegotiations, 2u);
  EXPECT_EQ(extended.active_codec, "gray");

  SubmitAck ack;
  ack.session_id = 3;
  ack.accepted = 9;
  ack.recommended_codec = "t0";
  EXPECT_TRUE(DecodeSubmitAck(EncodeSubmitAck(ack, 0), 0)
                  .recommended_codec.empty());
  EXPECT_EQ(DecodeSubmitAck(EncodeSubmitAck(ack, kCapRenegotiate),
                            kCapRenegotiate)
                .recommended_codec,
            "t0");

  StatsReply stats;
  stats.session_id = 3;
  stats.renegotiations = {{64, "gray"}, {128, "bus-invert"}};
  stats.active_codec = "bus-invert";
  const StatsReply stats_bare = DecodeStats(EncodeStats(stats, 0), 0);
  EXPECT_TRUE(stats_bare.renegotiations.empty());
  const StatsReply stats_extended = DecodeStats(
      EncodeStats(stats, kCapRenegotiate), kCapRenegotiate);
  EXPECT_EQ(stats_extended.renegotiations, stats.renegotiations);
  EXPECT_EQ(stats_extended.active_codec, "bus-invert");

  // Caps mismatch (extension bytes present but decoder not expecting
  // them, or vice versa) is a hard kBadFrame, not a silent skew.
  EXPECT_THROW(DecodeAttachOk(EncodeAttachOk(attach, kCapRenegotiate), 0),
               WireError);
  EXPECT_THROW(
      DecodeStats(EncodeStats(stats, 0), kCapRenegotiate), WireError);
}

TEST(NetProtocolTest, AdmissionMapsToStatus) {
  EXPECT_EQ(AdmissionToStatus(service::Admission::kAccepted), Status::kOk);
  EXPECT_EQ(AdmissionToStatus(service::Admission::kSlowDown),
            Status::kSlowDown);
  EXPECT_EQ(AdmissionToStatus(service::Admission::kRejected),
            Status::kRejected);
  EXPECT_EQ(AdmissionToStatus(service::Admission::kClosed), Status::kClosed);
  EXPECT_TRUE(StatusIsFatal(Status::kBadMagic));
  EXPECT_TRUE(StatusIsFatal(Status::kBadVersion));
  EXPECT_TRUE(StatusIsFatal(Status::kBadFrame));
  EXPECT_TRUE(StatusIsFatal(Status::kFrameTooLarge));
  EXPECT_FALSE(StatusIsFatal(Status::kUnknownSession));
  EXPECT_FALSE(StatusIsFatal(Status::kBadConfig));
  EXPECT_FALSE(StatusIsFatal(Status::kBadToken));
  EXPECT_FALSE(StatusIsFatal(Status::kNotAttached));
}

TEST(NetProtocolTest, ParseEndpointForms) {
  const Endpoint tcp = ParseEndpoint("tcp:127.0.0.1:8080");
  EXPECT_FALSE(tcp.is_unix);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8080);
  const Endpoint unix_ep = ParseEndpoint("unix:/tmp/abenc.sock");
  EXPECT_TRUE(unix_ep.is_unix);
  EXPECT_EQ(unix_ep.path, "/tmp/abenc.sock");
  EXPECT_THROW(ParseEndpoint("http://nope"), NetError);
  EXPECT_THROW(ParseEndpoint("tcp:127.0.0.1"), NetError);
  EXPECT_THROW(ParseEndpoint("tcp:host:99999"), NetError);
  EXPECT_THROW(ParseEndpoint("unix:"), NetError);
}

// ---- loopback server/client -----------------------------------------

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

std::vector<BusAccess> TestStream(std::size_t length,
                                  std::uint64_t seed = 1) {
  return verify::GenerateStream(verify::AllStreamFamilies()[0],
                                verify::MixSeed(seed), length, 32, 4);
}

/// Raw (handshake-free) connection for the pre-HELLO violation cases.
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

  /// Next frame, or nullopt on orderly close.
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

TEST(NetServerTest, EndToEndBitIdenticalToSerialOracle) {
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));

  const std::vector<BusAccess> stream = TestStream(777);
  OpenRequest open;
  open.codec = "t0";
  const OpenReply opened = client.Open(open);
  EXPECT_NE(opened.token, 0u);

  std::size_t submitted = 0;
  while (submitted < stream.size()) {
    const std::size_t n = std::min<std::size_t>(64, stream.size() - submitted);
    const SubmitAck ack = client.Submit(
        opened.session_id,
        std::span<const BusAccess>(stream).subspan(submitted, n));
    ASSERT_TRUE(ack.status == Status::kOk ||
                ack.status == Status::kSlowDown ||
                ack.status == Status::kRejected);
    if (ack.status != Status::kRejected) {
      submitted += n;
      EXPECT_EQ(ack.accepted, submitted);
    }
  }

  const StatsReply stats =
      client.DrainStats(opened.session_id, /*wait_drained=*/true);
  EXPECT_EQ(stats.accepted, stream.size());
  EXPECT_EQ(stats.stream_length, stream.size());

  const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                        stats.reset_points.end());
  const EvalResult expected =
      EvaluateWithSchedule("t0", CodecOptions{}, stream, {}, resets);
  EXPECT_EQ(stats.transitions, expected.transitions);
  EXPECT_EQ(stats.peak_transitions, expected.peak_transitions);
  EXPECT_EQ(stats.in_sequence_percent, expected.in_sequence_percent);
  ASSERT_EQ(stats.per_line.size(), expected.per_line.size());
  for (std::size_t i = 0; i < stats.per_line.size(); ++i) {
    EXPECT_EQ(stats.per_line[i], expected.per_line[i]) << "line " << i;
  }
  const service::TransportCounters& t = stats.transport;
  EXPECT_EQ(t.clean + t.corrected + t.recovered + t.degraded_deliveries,
            t.transfers);
  EXPECT_EQ(t.transfers, stream.size());

  const CloseReply closed = client.Close(opened.session_id);
  EXPECT_EQ(closed.session_id, opened.session_id);
  server.Stop();
}

TEST(NetServerTest, BackpressureTravelsTheWire) {
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));

  OpenRequest open;
  open.codec = "gray";
  open.queue_capacity = 8;
  open.slowdown_watermark = 4;
  const OpenReply opened = client.Open(open);

  // A batch larger than the whole queue can never be admitted: the
  // all-or-nothing reject is deterministic regardless of drain timing,
  // and nothing of the batch may count as accepted.
  const std::vector<BusAccess> oversized(16, BusAccess{0x1000, true});
  const SubmitAck rejected = client.Submit(opened.session_id, oversized);
  EXPECT_EQ(rejected.status, Status::kRejected);
  EXPECT_EQ(rejected.accepted, 0u);

  // A batch that lands above the watermark answers kSlowDown — visible
  // client-side flow control, still fully admitted.
  const std::vector<BusAccess> above(5, BusAccess{0x2000, true});
  const SubmitAck slowed = client.Submit(opened.session_id, above);
  EXPECT_EQ(slowed.status, Status::kSlowDown);
  EXPECT_EQ(slowed.accepted, 5u);

  client.Close(opened.session_id);
  server.Stop();
}

TEST(NetServerTest, MidFrameDisconnectResumesExactlyOnce) {
  Server server(LoopbackConfig());
  server.Start();
  const std::vector<BusAccess> stream = TestStream(256, 9);

  auto client = std::make_unique<Client>(OptionsFor(server));
  OpenRequest open;
  open.codec = "bus-invert";
  const OpenReply opened = client->Open(open);

  const std::span<const BusAccess> all(stream);
  std::uint64_t accepted = 0;
  while (accepted < 128) {
    const SubmitAck ack =
        client->Submit(opened.session_id, all.subspan(accepted, 64));
    ASSERT_EQ(ack.status, Status::kOk);
    accepted = ack.accepted;
  }

  // Ship half of the next SUBMIT frame, then kill the connection: the
  // partial frame must be discarded whole — frames are atomic.
  const std::vector<std::uint8_t> frame_bytes = EncodeFrame(
      FrameType::kSubmit, EncodeSubmit(opened.session_id,
                                       all.subspan(accepted, 64)));
  client->SendRaw(std::span<const std::uint8_t>(frame_bytes.data(),
                                                frame_bytes.size() / 2));
  client->Abort();

  client = std::make_unique<Client>(OptionsFor(server));
  // Wrong token is refused...
  try {
    client->Attach(opened.session_id, opened.token ^ 1);
    FAIL() << "bad token accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kBadToken);
  }
  // ...the right one resumes at exactly the admitted count.
  const AttachReply attach =
      client->Attach(opened.session_id, opened.token);
  EXPECT_EQ(attach.accepted, accepted);

  while (accepted < stream.size()) {
    const SubmitAck ack =
        client->Submit(opened.session_id, all.subspan(accepted, 64));
    ASSERT_EQ(ack.status, Status::kOk);
    accepted = ack.accepted;
  }
  const StatsReply stats =
      client->DrainStats(opened.session_id, /*wait_drained=*/true);
  EXPECT_EQ(stats.accepted, stream.size());
  EXPECT_EQ(stats.stream_length, stream.size());

  const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                        stats.reset_points.end());
  const EvalResult expected =
      EvaluateWithSchedule("bus-invert", CodecOptions{}, stream, {}, resets);
  EXPECT_EQ(stats.transitions, expected.transitions);
  EXPECT_EQ(stats.per_line,
            std::vector<long long>(expected.per_line.begin(),
                                   expected.per_line.end()));
  server.Stop();
}

TEST(NetServerTest, SessionsRequireAttachment) {
  Server server(LoopbackConfig());
  server.Start();
  Client owner(OptionsFor(server));
  const OpenReply opened = owner.Open(OpenRequest{});

  Client intruder(OptionsFor(server));
  const std::vector<BusAccess> one(1, BusAccess{0, true});
  try {
    intruder.Submit(opened.session_id, one);
    FAIL() << "unattached SUBMIT accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kNotAttached);
  }
  try {
    intruder.DrainStats(opened.session_id, false);
    FAIL() << "unattached DRAIN_STATS accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kNotAttached);
  }
  // The owner's connection is unaffected.
  EXPECT_EQ(owner.Submit(opened.session_id, one).status, Status::kOk);
  server.Stop();
}

TEST(NetServerTest, RequestScopedErrorsKeepConnectionUsable) {
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));

  try {
    client.Submit(0xFFFFFFFFull, std::vector<BusAccess>(1));
    FAIL() << "unknown session accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kUnknownSession);
  }
  try {
    OpenRequest bogus;
    bogus.codec = "no-such-codec";
    client.Open(bogus);
    FAIL() << "bogus codec accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kBadConfig);
  }
  try {
    OpenRequest bad_protection;
    bad_protection.protection = 9;
    client.Open(bad_protection);
    FAIL() << "bad protection code accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kBadConfig);
  }
  try {
    OpenRequest faulted;
    faulted.fault_seed = 1;  // no fault planner configured
    client.Open(faulted);
    FAIL() << "wire fault seed accepted without a planner";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kBadConfig);
  }

  // After four refusals the same connection still serves.
  const OpenReply opened = client.Open(OpenRequest{});
  client.Close(opened.session_id);
  server.Stop();
}

TEST(NetServerTest, MalformedFramingGetsErrorThenClose) {
  Server server(LoopbackConfig());
  server.Start();
  const std::vector<std::uint8_t> hello =
      EncodeFrame(FrameType::kHello, EncodeHello(HelloRequest{}));

  {  // frame before HELLO
    RawConn conn(server.endpoint());
    conn.Send(EncodeFrame(FrameType::kClose, EncodeClose(CloseRequest{})));
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(DecodeError(reply->payload).status, Status::kBadFrame);
    EXPECT_FALSE(conn.Read().has_value());  // then close
  }
  {  // bad HELLO magic
    RawConn conn(server.endpoint());
    HelloRequest bad;
    bad.magic = 0x12345678u;
    conn.Send(EncodeFrame(FrameType::kHello, EncodeHello(bad)));
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(DecodeError(reply->payload).status, Status::kBadMagic);
    EXPECT_FALSE(conn.Read().has_value());
  }
  {  // no version overlap
    RawConn conn(server.endpoint());
    HelloRequest bad;
    bad.version_min = 99;
    bad.version_max = 100;
    conn.Send(EncodeFrame(FrameType::kHello, EncodeHello(bad)));
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(DecodeError(reply->payload).status, Status::kBadVersion);
    EXPECT_FALSE(conn.Read().has_value());
  }
  {  // oversized length prefix, rejected before any payload arrives
    RawConn conn(server.endpoint());
    conn.Send(std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF, 0xFF});
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(DecodeError(reply->payload).status, Status::kFrameTooLarge);
    EXPECT_FALSE(conn.Read().has_value());
  }
  {  // truncated payload inside a well-framed message
    RawConn conn(server.endpoint());
    conn.Send(hello);
    Writer torn;
    torn.U64(1);  // CloseRequest wants a u64; ship a frame with 4 bytes
    std::vector<std::uint8_t> bytes = torn.Take();
    bytes.resize(4);
    conn.Send(EncodeFrame(FrameType::kClose, bytes));
    ASSERT_EQ(conn.Read()->type, FrameType::kHelloOk);
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(DecodeError(reply->payload).status, Status::kBadFrame);
    EXPECT_FALSE(conn.Read().has_value());
  }

  // After the whole catalogue the server still serves a clean client.
  Client client(OptionsFor(server));
  const OpenReply opened = client.Open(OpenRequest{});
  client.Close(opened.session_id);
  server.Stop();
}

TEST(NetServerTest, ReadTimeoutDropsIdleConnection) {
  ServerConfig config = LoopbackConfig();
  config.read_timeout = std::chrono::milliseconds(100);
  Server server(std::move(config));
  server.Start();

  Client idle(OptionsFor(server));  // handshake, then silence
  // The server must drop us; the client observes an orderly close.
  EXPECT_THROW(idle.ReadFrame(), NetError);
  EXPECT_GE(server.stats().timeouts, 1u);
  server.Stop();
}

TEST(NetServerTest, UnixSocketEndpointWorks) {
  const std::string path =
      testing::TempDir() + "/abenc_net_test.sock";
  ServerConfig config = LoopbackConfig();
  config.endpoint = "unix:" + path;
  Server server(std::move(config));
  server.Start();
  EXPECT_EQ(server.endpoint(), "unix:" + path);

  Client client(OptionsFor(server));
  const OpenReply opened = client.Open(OpenRequest{});
  const std::vector<BusAccess> batch(8, BusAccess{0x40, true});
  EXPECT_EQ(client.Submit(opened.session_id, batch).status, Status::kOk);
  const StatsReply stats = client.DrainStats(opened.session_id, true);
  EXPECT_EQ(stats.accepted, 8u);
  client.Close(opened.session_id);
  server.Stop();
}

// A miniature in-process soak: a handful of concurrent clients with
// disconnects, faults and fuzz — the full harness at CI-friendly scale.
TEST(NetSoakTest, MiniatureSoakPassesBitIdentity) {
  NetSoakOptions options;
  options.clients = 6;
  options.length = 96;
  options.fuzz_connections = 2;
  options.seed = 7;
  options.time_budget_s = 120.0;
  const NetSoakOutcome outcome = RunNetSoak(options);
  for (const std::string& failure : outcome.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_FALSE(outcome.timed_out);
  // 6 planned + the post-fuzz health check, which runs twice: once on
  // the current protocol version and once as a v1 legacy client.
  EXPECT_EQ(outcome.sessions, 8u);
  EXPECT_GE(outcome.old_version_sessions, 1u);
  EXPECT_GT(outcome.disconnects, 0u);
  EXPECT_EQ(outcome.disconnects, outcome.resumes);
  EXPECT_GT(outcome.fuzz_errors, 0u);
}

}  // namespace
}  // namespace abenc::net
