// The encoding service's wire protocol: a versioned, length-prefixed
// binary framing that carries session admission — including backpressure
// — across a socket (docs/PROTOCOL.md is the normative spec).
//
// Shape of a conversation:
//
//   client                                server (abenc_serve)
//   HELLO  {magic, version range}  ─────►
//          ◄─────  HELLO_OK {version, frame cap}   (or ERROR + close)
//   OPEN   {codec, palette, knobs} ─────►
//          ◄─────  OPEN_OK {session id, token}
//   SUBMIT {id, addresses, SEL}    ─────►
//          ◄─────  SUBMIT_ACK {status, accepted}   status maps Admission:
//                                                  kSlowDown / kRejected
//                                                  are client-visible
//                                                  flow control
//   DRAIN_STATS {id, wait}         ─────►
//          ◄─────  STATS {accounting, transport, reset points}
//   CLOSE  {id}                    ─────►
//          ◄─────  CLOSE_OK
//
// A connection that dies (including mid-frame) leaves its sessions
// intact but detached; ATTACH {id, token} from a new connection resumes
// them and reports how many accesses were already admitted, so a client
// can continue a stream exactly-once after a disconnect.
//
// Framing: every frame is a little-endian u32 payload length L
// (1 <= L <= negotiated cap), then L bytes: a 1-byte frame type plus the
// typed payload. Frames are atomic — a partial frame at disconnect is
// discarded whole, never half-applied. Malformed, truncated, oversized
// or unknown frames produce an ERROR frame with a status code (and, for
// framing-level violations, a close), never a crash or a wedged shard —
// the contract tests/net_test.cpp and the net_soak fuzz loop pin.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "service/session.h"

namespace abenc::net {

/// First payload word of HELLO; bytes "ABNC" on the wire.
inline constexpr std::uint32_t kHelloMagic = 0x434E4241u;

/// The newest protocol revision this library speaks. HELLO carries the
/// client's [min, max] supported range; the server answers with the
/// highest version both sides support and ERROR kBadVersion when the
/// ranges do not overlap.
///
/// v1: the PR 9 baseline (HELLO..ERROR, frames 1-12 and 15).
/// v2: adds capability negotiation in HELLO/HELLO_OK plus the
///     capability-gated RENEGOTIATE / RENEGOTIATE_ACK / SUBMIT_STREAM
///     frames and field extensions below. A v1 conversation is
///     byte-identical to PR 9 — old clients are untouched.
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::uint16_t kProtocolVersionMin = 1;

/// Capability bits carried in HELLO/HELLO_OK from v2 on. A capability
/// is in force only when both sides advertised it (the server replies
/// with the intersection); frames/fields gated on an absent capability
/// must never appear on the connection (kBadFrame).
inline constexpr std::uint32_t kCapRenegotiate = 1u << 0;
inline constexpr std::uint32_t kCapPipeline = 1u << 1;
inline constexpr std::uint32_t kDefaultCapabilities =
    kCapRenegotiate | kCapPipeline;

/// Default hard cap on one frame's payload (type byte + body). The
/// server enforces its own configured cap as soon as a length prefix is
/// parsed and advertises it in HELLO_OK so clients can size batches.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

/// Bytes of the length prefix preceding every frame.
inline constexpr std::size_t kFrameLengthBytes = 4;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kOpen = 3,
  kOpenOk = 4,
  kAttach = 5,
  kAttachOk = 6,
  kSubmit = 7,
  kSubmitAck = 8,
  kDrainStats = 9,
  kStats = 10,
  kClose = 11,
  kCloseOk = 12,
  kRenegotiate = 13,     // v2, kCapRenegotiate
  kRenegotiateAck = 14,  // v2, kCapRenegotiate
  kError = 15,
  kSubmitStream = 16,    // v2, kCapPipeline
};

std::string FrameTypeName(FrameType type);

/// Protocol status codes. 0..15 map session admission (flow control);
/// 16+ are protocol errors carried by ERROR frames. Codes through
/// kFrameTooLarge (and kBadMagic/kBadVersion) are connection-fatal —
/// the server sends ERROR and closes; the request-scoped codes keep the
/// connection usable.
enum class Status : std::uint16_t {
  kOk = 0,         // Admission::kAccepted
  kSlowDown = 1,   // Admission::kSlowDown — pace yourself
  kRejected = 2,   // Admission::kRejected — nothing queued, back off
  kClosed = 3,     // Admission::kClosed — session input closed
  kBadMagic = 16,  // HELLO magic mismatch (fatal)
  kBadVersion = 17,    // no protocol version overlap (fatal)
  kBadFrame = 18,      // malformed/truncated/unknown frame (fatal)
  kFrameTooLarge = 19,  // length prefix above the cap (fatal)
  kUnknownSession = 20,  // no such session id
  kBadConfig = 21,       // OPEN rejected (codec/palette/options)
  kBadToken = 22,        // ATTACH token mismatch
  kNotAttached = 23,  // session not opened/attached on this connection
  kInternal = 24,     // unexpected server-side failure
  kRenegotiateRefused = 25,  // switch refused (degraded / recovering /
                             // pending / unchanged); connection usable
};

std::string StatusName(Status status);

/// Whether an ERROR with this status is followed by a server-side close.
bool StatusIsFatal(Status status);

Status AdmissionToStatus(service::Admission admission);

/// Thrown by the decoders (and the client) on malformed wire data.
class WireError : public std::runtime_error {
 public:
  WireError(Status status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

/// Little-endian append-only payload builder.
class Writer {
 public:
  void U8(std::uint8_t v) { bytes_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void F64(double v);
  void Bytes(std::span<const std::uint8_t> bytes);
  /// u16 length + raw bytes; throws WireError if longer than 65535.
  void Str16(std::string_view text);
  /// Grow the payload by `n` bytes and return them, for the caller to
  /// fill in place.
  std::uint8_t* Extend(std::size_t n);

  std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Little-endian payload consumer; every under-run throws
/// WireError(kBadFrame) so a truncated payload can never be
/// half-applied.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  double F64();
  std::string Str16();
  /// The next `n` raw bytes, in place.
  std::span<const std::uint8_t> Bytes(std::size_t n);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Throws WireError(kBadFrame) if payload bytes are left over —
  /// trailing garbage means the sender and receiver disagree about the
  /// layout, which must never be silently ignored.
  void ExpectEnd() const;

 private:
  void Need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

/// Wrap a typed payload in the length-prefixed framing.
std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      std::span<const std::uint8_t> payload);

/// Pop one complete frame off the front of an accumulating receive
/// buffer, or nullopt if more bytes are needed. Throws
/// WireError(kFrameTooLarge) for a length prefix above `max_frame_bytes`
/// and WireError(kBadFrame) for a zero length — both before waiting for
/// the (hostile) payload to arrive.
std::optional<Frame> TryExtractFrame(std::vector<std::uint8_t>& buffer,
                                     std::size_t max_frame_bytes);

// ---- payload walks --------------------------------------------------
//
// Each payload below names its frame type (kFrame) and states its layout
// once, as Walk(io, fields), in the field order of docs/PROTOCOL.md.
// Encode runs the walk with Put, which appends each field; Decode runs
// it with Get, which reads each field back. `io.caps` is the connection's
// negotiated capabilities: a gated extension is on the wire iff its
// capability is in force, and a field the walk skips keeps its default.
// PROTOCOL.md's i32/i64 fields travel as their two's-complement u32/u64.

/// The encode side of a walk.
class Put {
 public:
  explicit Put(std::uint32_t caps = 0) : caps(caps) {}

  template <typename T>
  void U8(T v) { out_.U8(static_cast<std::uint8_t>(v)); }
  template <typename T>
  void U16(T v) { out_.U16(static_cast<std::uint16_t>(v)); }
  template <typename T>
  void U32(T v) { out_.U32(static_cast<std::uint32_t>(v)); }
  template <typename T>
  void U64(T v) { out_.U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) { out_.F64(v); }
  void Str16(std::string_view text) { out_.Str16(text); }
  void U32If(bool present, std::uint32_t v) {
    if (present) U32(v);
  }
  /// u32 count, then each item's fields.
  template <typename T, typename Each>
  void List(const std::vector<T>& items, std::size_t, const char*,
            Each each) {
    U32(items.size());
    for (const T& item : items) each(item);
  }
  /// SUBMIT's and SUBMIT_STREAM's body: u32 count, u64 address ×count,
  /// u8 sel ×count — from rows, or from any pair of address and SEL
  /// columns (a ColumnBatch, or caller-owned spans), without a copy.
  /// The body is sized once and filled in place.
  void Columns(std::span<const BusAccess> rows);
  void Columns(const auto& columns) {
    Columns(std::span<const Word>(columns.addresses),
            std::span<const std::uint8_t>(columns.sel));
  }
  void Columns(std::span<const Word> addresses,
               std::span<const std::uint8_t> sel);

  std::vector<std::uint8_t> Take() { return out_.Take(); }

  const std::uint32_t caps;

 private:
  Writer out_;
};

/// The decode side of a walk. Every read is bounds-checked, and every
/// count is checked against the bytes left before anything is allocated
/// for it, so a hostile count costs one clean kBadFrame.
class Get {
 public:
  Get(std::span<const std::uint8_t> bytes, std::uint32_t caps)
      : caps(caps), in_(bytes) {}

  template <typename T>
  void U8(T& v) { v = static_cast<T>(in_.U8()); }
  template <typename T>
  void U16(T& v) { v = static_cast<T>(in_.U16()); }
  template <typename T>
  void U32(T& v) { v = static_cast<T>(in_.U32()); }
  template <typename T>
  void U64(T& v) { v = static_cast<T>(in_.U64()); }
  void F64(double& v) { v = in_.F64(); }
  void Str16(std::string& text) { text = in_.Str16(); }
  /// An absent field decodes as 0.
  void U32If(bool present, std::uint32_t& v) { v = present ? in_.U32() : 0; }
  /// Each item takes at least `min_bytes`.
  template <typename T, typename Each>
  void List(std::vector<T>& items, std::size_t min_bytes, const char* what,
            Each each) {
    const std::uint32_t count = in_.U32();
    CheckCount(count, min_bytes, what);
    items.resize(count);
    for (T& item : items) each(item);
  }
  /// The count must match the bytes left exactly (9 per access).
  void Columns(service::ColumnBatch& columns);

  void ExpectEnd() const { in_.ExpectEnd(); }

  const std::uint32_t caps;

 private:
  void CheckCount(std::uint32_t count, std::size_t min_bytes,
                  const char* what) const;

  Reader in_;
};

/// A payload's bytes under the capabilities in force.
template <typename Payload>
std::vector<std::uint8_t> Encode(const Payload& payload,
                                 std::uint32_t caps = 0) {
  Put put(caps);
  Payload::Walk(put, payload);
  return put.Take();
}

/// Encode's inverse; throws WireError(kBadFrame) on a truncated payload,
/// trailing bytes or a count the payload cannot hold.
template <typename Payload>
Payload Decode(std::span<const std::uint8_t> bytes, std::uint32_t caps = 0) {
  Get get(bytes, caps);
  Payload payload;
  Payload::Walk(get, payload);
  get.ExpectEnd();
  return payload;
}

/// A payload wrapped in its own frame.
template <typename Payload>
std::vector<std::uint8_t> EncodeFrame(const Payload& payload,
                                      std::uint32_t caps = 0) {
  return EncodeFrame(Payload::kFrame, Encode(payload, caps));
}

// ---- typed payloads -------------------------------------------------

struct HelloRequest {
  static constexpr FrameType kFrame = FrameType::kHello;
  std::uint32_t magic = kHelloMagic;
  std::uint16_t version_min = kProtocolVersionMin;
  std::uint16_t version_max = kProtocolVersion;
  /// v2+: capability bits offered by the client, on the wire iff
  /// version_max >= 2, so a v1 HELLO keeps the v1 layout and offers
  /// nothing.
  std::uint32_t capabilities = kDefaultCapabilities;

  static void Walk(auto& io, auto& m) {
    io.U32(m.magic);
    io.U16(m.version_min);
    io.U16(m.version_max);
    io.U32If(m.version_max >= 2, m.capabilities);
  }
};

struct HelloReply {
  static constexpr FrameType kFrame = FrameType::kHelloOk;
  std::uint16_t version = kProtocolVersion;
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Capabilities in force: client ∩ server, on the wire iff the
  /// negotiated `version` >= 2, so a v1 HELLO_OK keeps the v1 layout.
  std::uint32_t capabilities = 0;

  static void Walk(auto& io, auto& m) {
    io.U16(m.version);
    io.U64(m.max_frame_bytes);
    io.U32If(m.version >= 2, m.capabilities);
  }
};

/// Codec + palette negotiation plus the session's robustness knobs —
/// the wire image of service::SessionConfig. `fault_seed` is a test
/// hook: a server configured with a fault planner maps it to a
/// deterministic channel fault installer (net_soak); production servers
/// reject a nonzero seed with kBadConfig.
struct OpenRequest {
  static constexpr FrameType kFrame = FrameType::kOpen;
  std::string codec = "t0";
  std::uint16_t width = 32;
  std::uint64_t stride = 4;
  std::uint8_t protection = 2;  // 0 none, 1 parity, 2 SECDED
  std::uint64_t queue_capacity = 4096;
  std::uint64_t slowdown_watermark = 3072;
  std::uint32_t max_retries = 3;
  std::uint64_t access_budget = 0;
  std::uint64_t adaptive_window = 64;
  std::int64_t adaptive_hysteresis = 16;
  std::string adaptive_palette;  // comma-separated; empty = default
  std::uint64_t fault_seed = 0;

  static void Walk(auto& io, auto& m) {
    io.U16(m.width);
    io.U64(m.stride);
    io.U8(m.protection);
    io.U64(m.queue_capacity);
    io.U64(m.slowdown_watermark);
    io.U32(m.max_retries);
    io.U64(m.access_budget);
    io.U64(m.adaptive_window);
    io.U64(m.adaptive_hysteresis);
    io.U64(m.fault_seed);
    io.Str16(m.codec);
    io.Str16(m.adaptive_palette);
  }
};

struct OpenReply {
  static constexpr FrameType kFrame = FrameType::kOpenOk;
  std::uint64_t session_id = 0;
  /// Capability for ATTACH after a disconnect; issued once at OPEN.
  std::uint64_t token = 0;

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.U64(m.token);
  }
};

struct AttachRequest {
  static constexpr FrameType kFrame = FrameType::kAttach;
  std::uint64_t session_id = 0;
  std::uint64_t token = 0;

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.U64(m.token);
  }
};

struct AttachReply {
  static constexpr FrameType kFrame = FrameType::kAttachOk;
  std::uint64_t session_id = 0;
  /// Accesses admitted over the session's lifetime — the resume point
  /// for exactly-once submission after a disconnect.
  std::uint64_t accepted = 0;
  /// kCapRenegotiate extension: how many codec switches have applied
  /// and which codec is active now, so a resuming client knows whether
  /// a switch it acked before the disconnect landed (the full pinned
  /// schedule arrives with STATS).
  std::uint32_t renegotiations = 0;
  std::string active_codec;

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.U64(m.accepted);
    if (io.caps & kCapRenegotiate) {
      io.U32(m.renegotiations);
      io.Str16(m.active_codec);
    }
  }
};

/// v1 SUBMIT. Its columns decode straight into the batch the server
/// queues; a client encodes them from rows with EncodeSubmit.
struct SubmitRequest {
  static constexpr FrameType kFrame = FrameType::kSubmit;
  std::uint64_t session_id = 0;
  service::ColumnBatch columns;

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.Columns(m.columns);
  }
};

struct SubmitAck {
  static constexpr FrameType kFrame = FrameType::kSubmitAck;
  std::uint64_t session_id = 0;
  Status status = Status::kOk;
  std::uint64_t accepted = 0;  // lifetime admitted-access count
  /// kCapRenegotiate extension: the server policy's codec proposal for
  /// this session's observed traffic ("" = no proposal). Advisory — the
  /// client switches only by sending RENEGOTIATE.
  std::string recommended_codec;

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.U16(m.status);
    io.U64(m.accepted);
    if (io.caps & kCapRenegotiate) io.Str16(m.recommended_codec);
  }
};

/// v2 kCapPipeline: the streaming bulk-transfer frame. Columnar like
/// SUBMIT, plus the sender's expected lifetime admitted count (`offset`)
/// — the guard that makes pipelining safe: a frame whose offset does not
/// match the server's count (because an earlier in-flight frame was
/// rejected) is itself rejected whole, so a rejection can never punch a
/// gap into the admitted stream. Acked only when `want_ack` is set or
/// the verdict is not kOk, so a bulk replay pays one ack per window, not
/// per frame.
struct SubmitStreamRequest {
  static constexpr FrameType kFrame = FrameType::kSubmitStream;
  std::uint64_t session_id = 0;
  std::uint64_t offset = 0;
  bool want_ack = false;
  service::ColumnBatch columns;  // decoded straight off the wire

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.U64(m.offset);
    io.U8(m.want_ack);
    io.Columns(m.columns);
  }
};

/// v2 kCapRenegotiate: request a codec switch for an attached session.
/// An empty codec asks the server's renegotiation policy to pick from
/// its palette. Refusals are answered with ERROR (kRenegotiateRefused /
/// kBadConfig), success with RENEGOTIATE_ACK.
struct RenegotiateRequest {
  static constexpr FrameType kFrame = FrameType::kRenegotiate;
  std::uint64_t session_id = 0;
  std::string codec;  // "" = server policy's choice

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.Str16(m.codec);
  }
};

struct RenegotiateReply {
  static constexpr FrameType kFrame = FrameType::kRenegotiateAck;
  std::uint64_t session_id = 0;
  /// Lifetime admitted-access index the switch is pinned to — the exact
  /// contract of the adaptive codec's ESC line: both ends replay the
  /// decision from this index alone.
  std::uint64_t switch_index = 0;
  std::string codec;  // the codec that will be active from switch_index

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.U64(m.switch_index);
    io.Str16(m.codec);
  }
};

struct DrainStatsRequest {
  static constexpr FrameType kFrame = FrameType::kDrainStats;
  std::uint64_t session_id = 0;
  /// When set the server defers the STATS reply until the session's
  /// queue is empty and every popped batch has been processed, so the
  /// snapshot is complete (Session::Report's quiescence caveat).
  bool wait_drained = false;

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.U8(m.wait_drained);
  }
};

/// The full server-side accounting of one session — enough for a client
/// to recompute the serial EvaluateWithSchedule oracle bit-for-bit.
struct StatsReply {
  static constexpr FrameType kFrame = FrameType::kStats;
  std::uint64_t session_id = 0;
  std::uint8_t state = 0;  // 0 active, 1 evicted
  bool input_closed = false;
  bool degraded = false;
  std::uint64_t accepted = 0;
  std::uint64_t stream_length = 0;
  std::int64_t transitions = 0;
  std::int32_t peak_transitions = 0;
  double in_sequence_percent = 0.0;
  std::vector<long long> per_line;
  std::vector<std::uint64_t> reset_points;
  service::TransportCounters transport;
  std::uint64_t readmissions = 0;
  std::uint64_t rejected_batches = 0;
  std::uint64_t peak_queue_depth = 0;
  /// kCapRenegotiate extension: the applied switch schedule (pinned
  /// lifetime indices + factory names, stream order) and the active
  /// codec — with reset_points this is everything a client needs to
  /// replay EvaluateWithSchedule bit-for-bit.
  std::vector<CodecSwitchPoint> renegotiations;
  std::string active_codec;

  static void Walk(auto& io, auto& m) {
    io.U64(m.session_id);
    io.U8(m.state);
    io.U8(m.input_closed);
    io.U8(m.degraded);
    io.U64(m.accepted);
    io.U64(m.stream_length);
    io.U64(m.transitions);
    io.U32(m.peak_transitions);
    io.F64(m.in_sequence_percent);
    io.U64(m.readmissions);
    io.U64(m.rejected_batches);
    io.U64(m.peak_queue_depth);
    io.U64(m.transport.transfers);
    io.U64(m.transport.clean);
    io.U64(m.transport.corrected);
    io.U64(m.transport.recovered);
    io.U64(m.transport.degraded_deliveries);
    io.U64(m.transport.retries);
    io.U64(m.transport.forced_resyncs);
    io.List(m.per_line, 8, "per-line", [&](auto& n) { io.U64(n); });
    io.List(m.reset_points, 8, "reset-point", [&](auto& at) { io.U64(at); });
    if (io.caps & kCapRenegotiate) {
      // An entry is at least a u64 index and an empty str16.
      io.List(m.renegotiations, 10, "switch-schedule", [&](auto& point) {
        io.U64(point.index);
        io.Str16(point.codec_name);
      });
      io.Str16(m.active_codec);
    }
  }
};

struct CloseRequest {
  static constexpr FrameType kFrame = FrameType::kClose;
  std::uint64_t session_id = 0;

  static void Walk(auto& io, auto& m) { io.U64(m.session_id); }
};

struct CloseReply {
  static constexpr FrameType kFrame = FrameType::kCloseOk;
  std::uint64_t session_id = 0;

  static void Walk(auto& io, auto& m) { io.U64(m.session_id); }
};

struct ErrorReply {
  static constexpr FrameType kFrame = FrameType::kError;
  Status status = Status::kInternal;
  std::string message;

  static void Walk(auto& io, auto& m) {
    io.U16(m.status);
    io.Str16(m.message);
  }
};

/// SUBMIT's walk over rows, and SUBMIT_STREAM's over caller-owned columns
/// (e.g. a ViewColumns slice of an mmap-backed `.ctrace`): a client sends
/// either without building a ColumnBatch.
std::vector<std::uint8_t> EncodeSubmit(std::uint64_t session_id,
                                       std::span<const BusAccess> rows);
std::vector<std::uint8_t> EncodeSubmitStream(std::uint64_t session_id,
                                             std::uint64_t offset,
                                             bool want_ack,
                                             const Word* addresses,
                                             const std::uint8_t* sel,
                                             std::size_t count);
SubmitStreamRequest DecodeSubmitStream(std::span<const std::uint8_t> payload);

/// Build a STATS payload from a session report (server side).
StatsReply StatsFromReport(const service::SessionReport& report,
                           std::uint64_t accepted);

}  // namespace abenc::net
