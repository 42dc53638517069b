// The network front-end's contracts: wire-protocol round-trips and
// framing guards (no sockets), then loopback server/client behaviour —
// bit-identical accounting across the wire, client-visible backpressure,
// exactly-once ATTACH resume after a mid-frame disconnect, and clean
// protocol errors (never a crash or a wedged connection) for the whole
// malformed-input catalogue.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
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
  const HelloRequest decoded = Decode<HelloRequest>(Encode(hello));
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
  const OpenRequest decoded = Decode<OpenRequest>(Encode(open));
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
      Decode<SubmitRequest>(EncodeSubmit(42, batch));
  EXPECT_EQ(decoded.session_id, 42u);
  ASSERT_EQ(decoded.columns.size(), batch.size());
  ASSERT_EQ(decoded.columns.sel.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded.columns.addresses[i], batch[i].address);
    EXPECT_EQ(decoded.columns.sel[i], batch[i].sel ? 1 : 0);
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
  const StatsReply decoded = Decode<StatsReply>(Encode(stats));
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
  const std::vector<std::uint8_t> full = Encode(OpenRequest{});
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> torn(full.begin(),
                                         full.begin() + cut);
    EXPECT_THROW(Decode<OpenRequest>(torn), WireError) << "cut at " << cut;
  }
}

TEST(NetProtocolTest, TrailingBytesRejected) {
  std::vector<std::uint8_t> bytes = Encode(CloseRequest{});
  bytes.push_back(0xAB);
  try {
    Decode<CloseRequest>(bytes);
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
  EXPECT_THROW(Decode<SubmitRequest>(writer.Take()), WireError);
}

TEST(NetProtocolTest, FrameExtractionHandlesSplitAndBackToBack) {
  const std::vector<std::uint8_t> a = EncodeFrame(CloseRequest{});
  const std::vector<std::uint8_t> b = EncodeFrame(HelloRequest{});
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
      Decode<RenegotiateRequest>(Encode(request));
  EXPECT_EQ(decoded_request.session_id, 99u);
  EXPECT_EQ(decoded_request.codec, "bus-invert");

  RenegotiateReply reply;
  reply.session_id = 99;
  reply.switch_index = 12345;
  reply.codec = "gray";
  const RenegotiateReply decoded_reply =
      Decode<RenegotiateReply>(Encode(reply));
  EXPECT_EQ(decoded_reply.session_id, 99u);
  EXPECT_EQ(decoded_reply.switch_index, 12345u);
  EXPECT_EQ(decoded_reply.codec, "gray");

  // Truncation at every cut: throws, never half-applies.
  const std::vector<std::uint8_t> full = Encode(reply);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> torn(full.begin(), full.begin() + cut);
    EXPECT_THROW(Decode<RenegotiateReply>(torn), WireError) << "cut " << cut;
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
      DecodeSubmitStream(Encode(request));
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
  const HelloRequest v1_decoded = Decode<HelloRequest>(Encode(v1));
  EXPECT_EQ(v1_decoded.capabilities, 0u);
  HelloRequest v2;
  v2.capabilities = kCapRenegotiate;
  EXPECT_EQ(Decode<HelloRequest>(Encode(v2)).capabilities, kCapRenegotiate);

  HelloReply ok;
  ok.version = 1;
  ok.capabilities = kDefaultCapabilities;
  EXPECT_EQ(Decode<HelloReply>(Encode(ok)).capabilities, 0u);
  ok.version = kProtocolVersion;
  EXPECT_EQ(Decode<HelloReply>(Encode(ok)).capabilities,
            kDefaultCapabilities);

  // ATTACH_OK / SUBMIT_ACK / STATS grow trailing fields only under
  // kCapRenegotiate, and both ends must agree on the caps word.
  AttachReply attach;
  attach.session_id = 3;
  attach.accepted = 77;
  attach.renegotiations = 2;
  attach.active_codec = "gray";
  const AttachReply bare = Decode<AttachReply>(Encode(attach, 0), 0);
  EXPECT_EQ(bare.accepted, 77u);
  EXPECT_EQ(bare.renegotiations, 0u);
  EXPECT_TRUE(bare.active_codec.empty());
  const AttachReply extended = Decode<AttachReply>(
      Encode(attach, kCapRenegotiate), kCapRenegotiate);
  EXPECT_EQ(extended.renegotiations, 2u);
  EXPECT_EQ(extended.active_codec, "gray");

  SubmitAck ack;
  ack.session_id = 3;
  ack.accepted = 9;
  ack.recommended_codec = "t0";
  EXPECT_TRUE(
      Decode<SubmitAck>(Encode(ack, 0), 0).recommended_codec.empty());
  EXPECT_EQ(Decode<SubmitAck>(Encode(ack, kCapRenegotiate), kCapRenegotiate)
                .recommended_codec,
            "t0");

  StatsReply stats;
  stats.session_id = 3;
  stats.renegotiations = {{64, "gray"}, {128, "bus-invert"}};
  stats.active_codec = "bus-invert";
  const StatsReply stats_bare = Decode<StatsReply>(Encode(stats, 0), 0);
  EXPECT_TRUE(stats_bare.renegotiations.empty());
  const StatsReply stats_extended = Decode<StatsReply>(
      Encode(stats, kCapRenegotiate), kCapRenegotiate);
  EXPECT_EQ(stats_extended.renegotiations, stats.renegotiations);
  EXPECT_EQ(stats_extended.active_codec, "bus-invert");

  // Caps mismatch (extension bytes present but decoder not expecting
  // them, or vice versa) is a hard kBadFrame, not a silent skew.
  EXPECT_THROW(Decode<AttachReply>(Encode(attach, kCapRenegotiate), 0),
               WireError);
  EXPECT_THROW(Decode<StatsReply>(Encode(stats, 0), kCapRenegotiate),
               WireError);
}

/// A raw HELLO payload: magic, versions, and the capability word only
/// when `with_capabilities` is set, whatever version_max says.
std::vector<std::uint8_t> RawHello(std::uint16_t version_max,
                                   bool with_capabilities) {
  Writer writer;
  writer.U32(kHelloMagic);
  writer.U16(kProtocolVersionMin);
  writer.U16(version_max);
  if (with_capabilities) writer.U32(kDefaultCapabilities);
  return writer.Take();
}

TEST(NetProtocolTest, HelloCapabilityWordFollowsVersionMax) {
  // PROTOCOL.md: the capability word is on the wire iff version_max >= 2.
  // At the bound: 12 bytes at version_max 2 and 8 bytes at version_max 1
  // decode. One word short (8 bytes at 2) or one word over (12 bytes at
  // 1) is kBadFrame.
  EXPECT_EQ(Decode<HelloRequest>(RawHello(2, true)).capabilities,
            kDefaultCapabilities);
  EXPECT_EQ(Decode<HelloRequest>(RawHello(1, false)).capabilities, 0u);
  for (const auto& [version_max, with_word] :
       {std::pair<std::uint16_t, bool>{2, false}, {1, true}}) {
    SCOPED_TRACE(version_max);
    try {
      Decode<HelloRequest>(RawHello(version_max, with_word));
      FAIL() << "HELLO accepted against its version_max";
    } catch (const WireError& e) {
      EXPECT_EQ(e.status(), Status::kBadFrame);
    }
  }
}

std::string Hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (std::uint8_t byte : bytes) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xF];
  }
  return hex;
}

TEST(NetProtocolTest, GoldenBytes) {
  // One instance of every payload, in every shape its layout has, against
  // the bytes PROTOCOL.md's tables give for it. A round trip cannot see a
  // field that moved in the encoder and the decoder together; this can.
  // Every field holds a distinct value, so a swap shows.
  HelloRequest hello_v1;
  hello_v1.version_max = 1;
  hello_v1.capabilities = 0x0000FF03u;  // not on a v1 HELLO
  HelloRequest hello_v2;
  hello_v2.version_min = 2;
  hello_v2.capabilities = 0x01020303u;
  HelloRequest hello_future;
  hello_future.version_max = 7;
  hello_future.capabilities = 0;
  HelloReply hello_ok_v1;
  hello_ok_v1.version = 1;
  hello_ok_v1.max_frame_bytes = 0x0102030405060708ull;
  hello_ok_v1.capabilities = 3;  // not on a v1 HELLO_OK
  HelloReply hello_ok_v2;
  hello_ok_v2.max_frame_bytes = kDefaultMaxFrameBytes;
  hello_ok_v2.capabilities = kDefaultCapabilities;
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
  OpenReply open_ok;
  open_ok.session_id = 0x1122334455667788ull;
  open_ok.token = 0x99AABBCCDDEEFF01ull;
  AttachRequest attach;
  attach.session_id = 6;
  attach.token = 0xCAFEF00D12345678ull;
  AttachReply attach_ok;
  attach_ok.session_id = 3;
  attach_ok.accepted = 77;
  attach_ok.renegotiations = 2;
  attach_ok.active_codec = "gray";
  const std::vector<BusAccess> rows = {
      {0x1000, true}, {0x1004, false}, {0x2008, true}};
  SubmitAck ack;
  ack.session_id = 4;
  ack.status = Status::kSlowDown;
  ack.accepted = 9;
  ack.recommended_codec = "t0";
  SubmitStreamRequest stream;
  stream.session_id = 7;
  stream.offset = 512;
  stream.want_ack = true;
  stream.columns.addresses = {0x4000, 0x4004};
  stream.columns.sel = {0, 1};
  const Word addresses[] = {0x5000, 0x5010, 0x5020};
  const std::uint8_t sel[] = {1, 1, 0};
  RenegotiateRequest renegotiate;
  renegotiate.session_id = 99;
  renegotiate.codec = "bus-invert";
  RenegotiateReply renegotiate_ok;
  renegotiate_ok.session_id = 98;
  renegotiate_ok.switch_index = 12345;
  renegotiate_ok.codec = "gray";
  DrainStatsRequest drain;
  drain.session_id = 5;
  drain.wait_drained = true;
  StatsReply stats;
  stats.session_id = 8;
  stats.state = 1;
  stats.input_closed = true;
  stats.degraded = false;
  stats.accepted = 512;
  stats.stream_length = 500;
  stats.transitions = -3;
  stats.peak_transitions = 17;
  stats.in_sequence_percent = 43.75;
  stats.per_line = {1, -2, 3};
  stats.reset_points = {100, 300};
  stats.transport.transfers = 11;
  stats.transport.clean = 12;
  stats.transport.corrected = 13;
  stats.transport.recovered = 14;
  stats.transport.degraded_deliveries = 15;
  stats.transport.retries = 16;
  stats.transport.forced_resyncs = 18;
  stats.readmissions = 19;
  stats.rejected_batches = 20;
  stats.peak_queue_depth = 21;
  stats.renegotiations = {{64, "gray"}, {128, "t0"}};
  stats.active_codec = "t0";
  CloseRequest close;
  close.session_id = 0x0102030405060708ull;
  CloseReply close_ok;
  close_ok.session_id = 0x0A0B;
  ErrorReply error;
  error.status = Status::kNotAttached;
  error.message = "not here";
  CloseRequest framed;
  framed.session_id = 9;

  const struct {
    const char* name;
    std::vector<std::uint8_t> bytes;
    const char* hex;
  } golden[] = {
      {"HELLO v1", Encode(hello_v1),
       "41424e4301000100"},
      {"HELLO v2", Encode(hello_v2),
       "41424e430200020003030201"},
      {"HELLO v7", Encode(hello_future),
       "41424e430100070000000000"},
      {"HELLO_OK v1", Encode(hello_ok_v1),
       "01000807060504030201"},
      {"HELLO_OK v2", Encode(hello_ok_v2),
       "0200000010000000000003000000"},
      {"OPEN", Encode(open),
       "18000800000000000000017b000000000000004d0000000000000005000000e7"
       "030000000000002000000000000000fcffffffffffffffefbeadde000000000a"
       "006475616c2d74302d6269070074302c67726179"},
      {"OPEN_OK", Encode(open_ok),
       "887766554433221101ffeeddccbbaa99"},
      {"ATTACH", Encode(attach),
       "0600000000000000785634120df0feca"},
      {"ATTACH_OK", Encode(attach_ok, 0),
       "03000000000000004d00000000000000"},
      {"ATTACH_OK+", Encode(attach_ok, kCapRenegotiate),
       "03000000000000004d0000000000000002000000040067726179"},
      {"SUBMIT rows", EncodeSubmit(10, rows),
       "0a00000000000000030000000010000000000000041000000000000008200000"
       "00000000010001"},
      {"SUBMIT_ACK", Encode(ack, 0),
       "040000000000000001000900000000000000"},
      {"SUBMIT_ACK+", Encode(ack, kCapRenegotiate),
       "04000000000000000100090000000000000002007430"},
      {"SUBMIT_STREAM batch", Encode(stream),
       "0700000000000000000200000000000001020000000040000000000000044000"
       "00000000000001"},
      {"SUBMIT_STREAM pointers",
       EncodeSubmitStream(11, 3, false, addresses, sel, 3),
       "0b00000000000000030000000000000000030000000050000000000000105000"
       "00000000002050000000000000010100"},
      {"RENEGOTIATE", Encode(renegotiate),
       "63000000000000000a006275732d696e76657274"},
      {"RENEGOTIATE_ACK", Encode(renegotiate_ok),
       "62000000000000003930000000000000040067726179"},
      {"DRAIN_STATS", Encode(drain),
       "050000000000000001"},
      {"STATS", Encode(stats, 0),
       "08000000000000000101000002000000000000f401000000000000fdffffffff"
       "ffffff110000000000000000e045401300000000000000140000000000000015"
       "000000000000000b000000000000000c000000000000000d000000000000000e"
       "000000000000000f000000000000001000000000000000120000000000000003"
       "0000000100000000000000feffffffffffffff03000000000000000200000064"
       "000000000000002c01000000000000"},
      {"STATS+", Encode(stats, kCapRenegotiate),
       "08000000000000000101000002000000000000f401000000000000fdffffffff"
       "ffffff110000000000000000e045401300000000000000140000000000000015"
       "000000000000000b000000000000000c000000000000000d000000000000000e"
       "000000000000000f000000000000001000000000000000120000000000000003"
       "0000000100000000000000feffffffffffffff03000000000000000200000064"
       "000000000000002c010000000000000200000040000000000000000400677261"
       "7980000000000000000200743002007430"},
      {"CLOSE", Encode(close),
       "0807060504030201"},
      {"CLOSE_OK", Encode(close_ok),
       "0b0a000000000000"},
      {"ERROR", Encode(error),
       "170008006e6f742068657265"},
      {"framed CLOSE", EncodeFrame(FrameType::kClose, Encode(framed)),
       "090000000b0900000000000000"},
  };
  for (const auto& entry : golden) {
    EXPECT_EQ(Hex(entry.bytes), entry.hex) << entry.name;
  }
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

/// The status of the request-scoped ERROR `request` is answered with.
template <typename Request>
Status ErrorStatusOf(Request request) {
  try {
    request();
  } catch (const WireError& e) {
    return e.status();
  }
  ADD_FAILURE() << "the request was served";
  return Status::kOk;
}

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
      FrameType::kSubmit,
      EncodeSubmit(opened.session_id, all.subspan(accepted, 64)));
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
  try {
    OpenRequest repeated;
    repeated.codec = "adaptive";
    repeated.adaptive_palette = "t0,t0";
    client.Open(repeated);
    FAIL() << "adaptive palette with a repeated member accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.status(), Status::kBadConfig);
  }

  // After five refusals the same connection still serves.
  const OpenReply opened = client.Open(OpenRequest{});
  client.Close(opened.session_id);
  server.Stop();
}

TEST(NetServerTest, MalformedFramingGetsErrorThenClose) {
  Server server(LoopbackConfig());
  server.Start();
  const std::vector<std::uint8_t> hello = EncodeFrame(HelloRequest{});

  {  // frame before HELLO
    RawConn conn(server.endpoint());
    conn.Send(EncodeFrame(CloseRequest{}));
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(Decode<ErrorReply>(reply->payload).status, Status::kBadFrame);
    EXPECT_FALSE(conn.Read().has_value());  // then close
  }
  {  // bad HELLO magic
    RawConn conn(server.endpoint());
    HelloRequest bad;
    bad.magic = 0x12345678u;
    conn.Send(EncodeFrame(bad));
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(Decode<ErrorReply>(reply->payload).status, Status::kBadMagic);
    EXPECT_FALSE(conn.Read().has_value());
  }
  {  // no version overlap
    RawConn conn(server.endpoint());
    HelloRequest bad;
    bad.version_min = 99;
    bad.version_max = 100;
    conn.Send(EncodeFrame(bad));
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(Decode<ErrorReply>(reply->payload).status, Status::kBadVersion);
    EXPECT_FALSE(conn.Read().has_value());
  }
  {  // oversized length prefix, rejected before any payload arrives
    RawConn conn(server.endpoint());
    conn.Send(std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF, 0xFF});
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(Decode<ErrorReply>(reply->payload).status,
              Status::kFrameTooLarge);
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
    EXPECT_EQ(Decode<ErrorReply>(reply->payload).status, Status::kBadFrame);
    EXPECT_FALSE(conn.Read().has_value());
  }

  // After the whole catalogue the server still serves a clean client.
  Client client(OptionsFor(server));
  const OpenReply opened = client.Open(OpenRequest{});
  client.Close(opened.session_id);
  server.Stop();
}

TEST(NetServerTest, HelloAgainstItsVersionGetsBadFrameThenClose) {
  // A HELLO whose capability word disagrees with version_max is a
  // framing violation: ERROR BAD_FRAME, then the server closes.
  Server server(LoopbackConfig());
  server.Start();
  for (const auto& [version_max, with_word] :
       {std::pair<std::uint16_t, bool>{2, false}, {1, true}}) {
    SCOPED_TRACE(version_max);
    RawConn conn(server.endpoint());
    conn.Send(EncodeFrame(FrameType::kHello, RawHello(version_max, with_word)));
    std::optional<Frame> reply = conn.Read();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(Decode<ErrorReply>(reply->payload).status, Status::kBadFrame);
    EXPECT_FALSE(conn.Read().has_value());
  }
  // At the bound the handshake succeeds.
  RawConn conn(server.endpoint());
  conn.Send(EncodeFrame(FrameType::kHello, RawHello(2, true)));
  std::optional<Frame> reply = conn.Read();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kHelloOk);
  server.Stop();
}

TEST(NetServerTest, MixedSubmitFramesShareOneCount) {
  // v1 SUBMIT and SUBMIT_STREAM on one session of a v2 connection take
  // one admission path and share one lifetime count: each ack grows by
  // its batch, a SUBMIT_STREAM whose offset ignores the SUBMIT before it
  // is rejected whole, and STATS matches the serial oracle.
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));
  ASSERT_NE(client.capabilities() & kCapPipeline, 0u);
  constexpr std::size_t kBatch = 64;
  const std::vector<BusAccess> stream = TestStream(7 * kBatch, 21);
  std::vector<Word> addresses;
  std::vector<std::uint8_t> sel;
  for (const BusAccess& access : stream) {
    addresses.push_back(access.address);
    sel.push_back(access.sel ? 1 : 0);
  }
  OpenRequest open;
  open.codec = "bus-invert";
  const OpenReply opened = client.Open(open);
  const std::span<const BusAccess> rows(stream);
  const auto submit_stream = [&](std::uint64_t offset, std::size_t at) {
    client.SendRaw(EncodeFrame(
        FrameType::kSubmitStream,
        EncodeSubmitStream(opened.session_id, offset, /*want_ack=*/true,
                           addresses.data() + at, sel.data() + at, kBatch)));
    const Frame frame = client.ReadFrame();
    EXPECT_EQ(frame.type, FrameType::kSubmitAck);
    return Decode<SubmitAck>(frame.payload, client.capabilities());
  };

  std::size_t at = 0;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    const SubmitAck v1 = client.Submit(opened.session_id,
                                       rows.subspan(at, kBatch));
    EXPECT_EQ(v1.status, Status::kOk);
    EXPECT_EQ(v1.accepted, at + kBatch);
    at += kBatch;
    if (round == 2) {
      // Offset `at - kBatch` ignores the SUBMIT just admitted.
      const SubmitAck stale = submit_stream(at - kBatch, at);
      EXPECT_EQ(stale.status, Status::kRejected);
      EXPECT_EQ(stale.accepted, at);
    }
    const SubmitAck streamed = submit_stream(at, at);
    EXPECT_EQ(streamed.status, Status::kOk);
    EXPECT_EQ(streamed.accepted, at + kBatch);
    at += kBatch;
  }
  const SubmitAck last = client.Submit(opened.session_id,
                                       rows.subspan(at, kBatch));
  EXPECT_EQ(last.accepted, stream.size());

  const StatsReply stats = client.DrainStats(opened.session_id, true);
  EXPECT_EQ(stats.accepted, stream.size());
  EXPECT_EQ(stats.stream_length, stream.size());
  const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                        stats.reset_points.end());
  const EvalResult expected = EvaluateWithSchedule(
      "bus-invert", CodecOptions{}, stream, {}, resets);
  EXPECT_EQ(stats.transitions, expected.transitions);
  EXPECT_EQ(stats.peak_transitions, expected.peak_transitions);
  EXPECT_EQ(stats.in_sequence_percent, expected.in_sequence_percent);
  EXPECT_EQ(stats.per_line,
            std::vector<long long>(expected.per_line.begin(),
                                   expected.per_line.end()));
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

/// CPU seconds this process has used so far (every thread).
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(NetServerTest, IdleServerStaysAsleep) {
  // 100 sessions opened, fed and drained, then silence: a server that
  // wakes only on work sleeps. A driver nap or a fixed poll tick shows up
  // here as a steady trickle of CPU.
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));
  const std::vector<BusAccess> batch = TestStream(256, 4);
  for (int i = 0; i < 100; ++i) {
    const OpenReply opened = client.Open(OpenRequest{});
    ASSERT_EQ(client.Submit(opened.session_id, batch).status, Status::kOk);
    ASSERT_EQ(client.DrainStats(opened.session_id, true).stream_length,
              batch.size());
  }
  const double before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::seconds(3));
  const double used = ProcessCpuSeconds() - before;
  // < 1% of one core over the 3 s.
  EXPECT_LT(used, 0.030) << "idle process used " << used * 1e3
                         << " ms of CPU in 3 s";
  server.Stop();
}

TEST(NetServerTest, DrainStatsRepliesWithoutATick) {
  // Lock-step SUBMIT -> DRAIN_STATS(wait) rounds over more shards than
  // workers. Each reply must leave when the session drains, not at a
  // timer: 200 rounds at a 20 ms tick would take 4 s. A lost wakeup
  // leaves a reply unsent, and the client's read times out.
  ServerConfig config = LoopbackConfig();
  config.service.shards = 4;
  config.service.parallelism = 1;
  Server server(std::move(config));
  server.Start();
  Client client(OptionsFor(server));

  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kRounds = 200;
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kLength = kRounds / kSessions * kBatch;
  const char* const codecs[] = {"t0", "bus-invert", "gray", "dual-t0-bi"};
  std::vector<std::uint64_t> ids;
  std::vector<std::vector<BusAccess>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    OpenRequest open;
    open.codec = codecs[s % 4];
    ids.push_back(client.Open(open).session_id);
    streams.push_back(TestStream(kLength, 50 + s));
  }
  std::chrono::steady_clock::duration waited{};
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t s = round % kSessions;
    const std::size_t at = round / kSessions * kBatch;
    const std::span<const BusAccess> stream(streams[s]);
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(client.Submit(ids[s], stream.subspan(at, kBatch)).status,
              Status::kOk);
    const StatsReply stats = client.DrainStats(ids[s], true);
    waited += std::chrono::steady_clock::now() - start;

    SCOPED_TRACE(round);
    ASSERT_EQ(stats.stream_length, at + kBatch);
    const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                          stats.reset_points.end());
    const EvalResult expected =
        EvaluateWithSchedule(codecs[s % 4], CodecOptions{},
                             stream.subspan(0, at + kBatch), {}, resets);
    EXPECT_EQ(stats.transitions, expected.transitions);
    EXPECT_EQ(stats.peak_transitions, expected.peak_transitions);
    EXPECT_EQ(stats.in_sequence_percent, expected.in_sequence_percent);
    EXPECT_EQ(stats.per_line,
              std::vector<long long>(expected.per_line.begin(),
                                     expected.per_line.end()));
  }
  EXPECT_LT(waited, std::chrono::milliseconds(kRounds * 20 / 2));
  server.Stop();
}

TEST(NetServerTest, StopWhileSessionsDrain) {
  // Stop() while DRAIN_STATS replies are deferred and queues are full.
  // The shard's driver is held in a stall hook, so its queues cannot
  // drain before Stop(); once released it drains and posts to a loop
  // that must still exist. Sanitizer builds catch a use after free.
  ServerConfig config = LoopbackConfig();
  config.service.parallelism = 1;
  config.service.enable_watchdog = false;
  auto server = std::make_unique<Server>(std::move(config));
  server->service().shard(0).SetStallHook(
      []() { std::this_thread::sleep_for(std::chrono::milliseconds(300)); });
  server->Start();
  Client client(OptionsFor(*server));

  // Sessions land on the shards round-robin. Both shards get a short
  // queue, which one pass drains to empty (a post to the loop), and a
  // long one, which is still queued when the driver stops.
  const std::vector<BusAccess> stream = TestStream(4096, 3);
  const OpenReply probe = client.Open(OpenRequest{});
  std::vector<std::uint8_t> requests;
  for (int i = 0; i < 8; ++i) {
    const OpenReply opened = client.Open(OpenRequest{});
    const std::size_t length = i % 4 < 2 ? 200 : stream.size();
    const SubmitAck ack = client.Submit(
        opened.session_id, std::span<const BusAccess>(stream).first(length));
    ASSERT_NE(ack.status, Status::kRejected);
    DrainStatsRequest drain;
    drain.session_id = opened.session_id;
    drain.wait_drained = true;
    const std::vector<std::uint8_t> frame = EncodeFrame(drain);
    requests.insert(requests.end(), frame.begin(), frame.end());
  }
  // CLOSE_OK after the DRAIN_STATS frames proves the loop read them all.
  CloseRequest close;
  close.session_id = probe.session_id;
  const std::vector<std::uint8_t> frame = EncodeFrame(close);
  requests.insert(requests.end(), frame.begin(), frame.end());
  client.SendRaw(requests);
  while (client.ReadFrame().type != FrameType::kCloseOk) {
  }
  EXPECT_GT(server->service().total_queued(), 0u);
  server->Stop();
  server.reset();
}

TEST(NetServerTest, TakeoverFailsTheOldConnectionsDeferredStats) {
  // A DRAIN_STATS(wait) is deferred on connection A while the shard is
  // held; connection B then takes the session over with ATTACH. A must
  // get NOT_ATTACHED for it at once, not silence until its read timeout.
  ServerConfig config = LoopbackConfig();
  config.service.shards = 1;
  config.service.parallelism = 1;
  config.service.enable_watchdog = false;
  Server server(std::move(config));
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
  };
  auto gate = std::make_shared<Gate>();
  server.service().shard(0).SetStallHook([gate]() {
    std::unique_lock<std::mutex> lock(gate->mutex);
    gate->cv.wait(lock, [&]() { return gate->open; });
  });
  server.Start();

  ClientOptions options = OptionsFor(server);
  options.io_timeout = std::chrono::milliseconds(5000);
  Client old_conn(options);
  const OpenReply probe = old_conn.Open(OpenRequest{});
  const OpenReply opened = old_conn.Open(OpenRequest{});
  ASSERT_EQ(old_conn.Submit(opened.session_id, TestStream(64, 7)).status,
            Status::kOk);
  DrainStatsRequest drain;
  drain.session_id = opened.session_id;
  drain.wait_drained = true;
  std::vector<std::uint8_t> requests = EncodeFrame(drain);
  // CLOSE_OK after the DRAIN_STATS frame proves the loop read it.
  CloseRequest close;
  close.session_id = probe.session_id;
  const std::vector<std::uint8_t> frame = EncodeFrame(close);
  requests.insert(requests.end(), frame.begin(), frame.end());
  old_conn.SendRaw(requests);
  ASSERT_EQ(old_conn.ReadFrame().type, FrameType::kCloseOk);

  Client new_conn(options);
  EXPECT_EQ(new_conn.Attach(opened.session_id, opened.token).accepted, 64u);
  const Frame reply = old_conn.ReadFrame();
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(Decode<ErrorReply>(reply.payload).status, Status::kNotAttached);

  {
    std::lock_guard<std::mutex> lock(gate->mutex);
    gate->open = true;
  }
  gate->cv.notify_all();
  // The new owner's STATS still waits for quiescence and is complete.
  EXPECT_EQ(new_conn.DrainStats(opened.session_id, true).stream_length, 64u);
  server.Stop();
}

TEST(NetServerTest, ClosedSessionIsReleasedAndItsIdForgotten) {
  // A drained session is freed at CLOSE. Every later frame naming it is
  // answered as for an id never issued, and the connection keeps
  // serving.
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));
  ASSERT_NE(client.capabilities() & kCapPipeline, 0u);
  ASSERT_NE(client.capabilities() & kCapRenegotiate, 0u);
  const std::vector<BusAccess> batch = TestStream(64, 11);
  const OpenReply opened = client.Open(OpenRequest{});
  const std::uint64_t id = opened.session_id;
  ASSERT_EQ(client.Submit(id, batch).status, Status::kOk);
  ASSERT_EQ(client.DrainStats(id, true).stream_length, batch.size());
  EXPECT_EQ(client.Close(id).session_id, id);

  EXPECT_EQ(ErrorStatusOf([&]() { client.Submit(id, batch); }),
            Status::kUnknownSession);
  // The loop handles one connection's frames in order, so the release
  // ran before that reply.
  EXPECT_EQ(server.service().session_count(), 0u);
  EXPECT_EQ(server.service().sessions_released(), 1u);
  {
    const std::vector<Word> addresses(8, 0x40);
    const std::vector<std::uint8_t> sel(8, 1);
    client.SendRaw(EncodeFrame(
        FrameType::kSubmitStream,
        EncodeSubmitStream(id, batch.size(), /*want_ack=*/true,
                           addresses.data(), sel.data(), sel.size())));
    const Frame reply = client.ReadFrame();
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(Decode<ErrorReply>(reply.payload).status,
              Status::kUnknownSession);
  }
  EXPECT_EQ(ErrorStatusOf([&]() { client.DrainStats(id, true); }),
            Status::kUnknownSession);
  EXPECT_EQ(ErrorStatusOf([&]() { client.DrainStats(id, false); }),
            Status::kUnknownSession);
  EXPECT_EQ(ErrorStatusOf([&]() { client.Close(id); }),
            Status::kUnknownSession);
  EXPECT_EQ(ErrorStatusOf([&]() { client.Renegotiate(id, "gray"); }),
            Status::kUnknownSession);
  EXPECT_EQ(ErrorStatusOf([&]() { client.Attach(id, opened.token); }),
            Status::kUnknownSession);

  // The same connection still serves, and ids are never reused.
  const OpenReply next = client.Open(OpenRequest{});
  EXPECT_NE(next.session_id, id);
  EXPECT_EQ(client.Submit(next.session_id, batch).status, Status::kOk);
  EXPECT_EQ(client.DrainStats(next.session_id, true).stream_length,
            batch.size());
  client.Close(next.session_id);
  server.Stop();
}

ServerConfig OneHeldShardConfig() {
  ServerConfig config = LoopbackConfig();
  config.service.shards = 1;
  config.service.parallelism = 1;
  config.service.enable_watchdog = false;
  return config;
}

TEST(NetServerTest, CloseBeforeTheDrainReleasesAfterIt) {
  // CLOSE while the shard holds the session's work: CLOSE_OK at once,
  // the session live until the hold lifts, then released. A
  // DRAIN_STATS(wait) sent before the CLOSE still gets its full STATS.
  Server server(OneHeldShardConfig());
  std::promise<void> hold;
  server.service().shard(0).SetStallHook(
      [held = hold.get_future().share()]() { held.wait(); });
  server.Start();
  Client client(OptionsFor(server));
  const std::vector<BusAccess> stream = TestStream(300, 12);
  OpenRequest open;
  open.codec = "bus-invert";
  const std::uint64_t id = client.Open(open).session_id;
  ASSERT_EQ(client.Submit(id, stream).status, Status::kOk);

  DrainStatsRequest drain;
  drain.session_id = id;
  drain.wait_drained = true;
  std::vector<std::uint8_t> requests = EncodeFrame(drain);
  CloseRequest close;
  close.session_id = id;
  const std::vector<std::uint8_t> frame = EncodeFrame(close);
  requests.insert(requests.end(), frame.begin(), frame.end());
  client.SendRaw(requests);
  ASSERT_EQ(client.ReadFrame().type, FrameType::kCloseOk);
  EXPECT_EQ(server.service().session_count(), 1u);

  hold.set_value();
  const Frame reply = client.ReadFrame();
  ASSERT_EQ(reply.type, FrameType::kStats);
  const StatsReply stats =
      Decode<StatsReply>(reply.payload, client.capabilities());
  EXPECT_TRUE(stats.input_closed);
  EXPECT_EQ(stats.accepted, stream.size());
  ASSERT_EQ(stats.stream_length, stream.size());
  const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                        stats.reset_points.end());
  const EvalResult expected =
      EvaluateWithSchedule("bus-invert", CodecOptions{}, stream, {}, resets);
  EXPECT_EQ(stats.transitions, expected.transitions);
  EXPECT_EQ(stats.per_line,
            std::vector<long long>(expected.per_line.begin(),
                                   expected.per_line.end()));

  // Released right after the STATS left, before the next frame.
  EXPECT_EQ(ErrorStatusOf([&]() { client.DrainStats(id, false); }),
            Status::kUnknownSession);
  EXPECT_EQ(server.service().session_count(), 0u);
  server.Stop();
}

TEST(NetServerTest, ClosedSessionOfADroppedConnectionIsReleased) {
  // A CLOSEd session whose connection drops before it drains is still
  // released once it drains: detached, but not kept.
  Server server(OneHeldShardConfig());
  std::promise<void> hold;
  server.service().shard(0).SetStallHook(
      [held = hold.get_future().share()]() { held.wait(); });
  server.Start();
  auto owner = std::make_unique<Client>(OptionsFor(server));
  const OpenReply opened = owner->Open(OpenRequest{});
  ASSERT_EQ(owner->Submit(opened.session_id, TestStream(200, 14)).status,
            Status::kOk);
  owner->Close(opened.session_id);
  owner->Abort();

  // The dropped socket's end of file is queued before the next
  // connection's frames, and the loop reads ready sockets in fd order.
  Client other(OptionsFor(server));
  EXPECT_EQ(ErrorStatusOf([&]() { other.DrainStats(~0ull, false); }),
            Status::kUnknownSession);
  EXPECT_EQ(server.service().session_count(), 1u);

  hold.set_value();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.service().session_count() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.service().session_count(), 0u);
  const auto attach = [&]() { other.Attach(opened.session_id, opened.token); };
  EXPECT_EQ(ErrorStatusOf(attach), Status::kUnknownSession);
  server.Stop();
}

TEST(NetServerTest, ManyClosedSessionsLeaveNoneLive) {
  // 500 open/submit/stats/close cycles: the server holds no session
  // afterwards.
  Server server(LoopbackConfig());
  server.Start();
  Client client(OptionsFor(server));
  const std::vector<BusAccess> batch = TestStream(64, 13);
  constexpr std::uint64_t kCycles = 500;
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < kCycles; ++i) {
    last = client.Open(OpenRequest{}).session_id;
    ASSERT_EQ(client.Submit(last, batch).status, Status::kOk);
    ASSERT_EQ(client.DrainStats(last, true).stream_length, batch.size());
    client.Close(last);
  }
  // One more round trip, so the last CLOSE's release has run.
  EXPECT_EQ(ErrorStatusOf([&]() { client.DrainStats(last, false); }),
            Status::kUnknownSession);
  EXPECT_EQ(server.service().session_count(), 0u);
  EXPECT_EQ(server.service().sessions_released(), kCycles);
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
// disconnects, faults and fuzz — the full harness at CI-friendly scale;
// then again with the switch schedule and SUBMIT_STREAM legs on.
TEST(NetSoakTest, MiniatureSoakPassesBitIdentity) {
  for (const double fraction : {0.0, 0.5}) {
    SCOPED_TRACE(fraction);
    NetSoakOptions options;
    options.clients = 6;
    options.length = 96;
    options.fuzz_connections = 2;
    options.seed = 7;
    options.time_budget_s = 120.0;
    options.renegotiate_fraction = fraction;
    options.pipeline_fraction = fraction;
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
    if (fraction > 0.0) {
      EXPECT_GT(outcome.renegotiations, 0u);
      EXPECT_GT(outcome.pipelined_sessions, 0u);
    }
  }
}

}  // namespace
}  // namespace abenc::net
