// Blocking client for the encoding service's wire protocol: dial +
// HELLO handshake in the constructor, then typed request/reply calls
// that mirror the EncodingService API across the socket.
//
// Error surfaces:
//  - NetError: the transport failed (dial, timeout, peer closed) — the
//    Client is dead; reconnect and ATTACH with the OPEN-issued token to
//    resume sessions.
//  - WireError: the server answered ERROR (status carried in the
//    exception) or sent bytes that do not decode. Request-scoped
//    statuses (kUnknownSession, kBadConfig, kBadToken, kNotAttached)
//    leave the connection usable; fatal ones are followed by a server
//    close.
//
// Backpressure is data, not an exception: Submit() returns the ack
// whose status maps the session's Admission (kSlowDown / kRejected),
// so client pacing loops read it exactly like the in-process soak reads
// Admission.
//
// The raw escape hatches (SendRaw / ReadFrame / ShutdownSend / Abort)
// exist for the net_soak fuzz and disconnect injection — they speak
// bytes, not protocol, on purpose.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/sockets.h"

namespace abenc::net {

struct ClientOptions {
  std::string endpoint = "tcp:127.0.0.1:0";
  /// Socket send/receive timeout for every blocking call. Calls that
  /// can legitimately take long (DrainStats with wait_drained under
  /// load) need this sized to the expected drain time.
  std::chrono::milliseconds io_timeout{10000};
  /// Highest protocol version to offer in HELLO. Set 1 to emulate an
  /// old client: the HELLO is byte-identical to the v1 layout and no
  /// v2 frame or field ever appears on the connection.
  std::uint16_t version_max = kProtocolVersion;
  /// Capability bits to offer (v2+); in force only where the server
  /// grants them back in HELLO_OK.
  std::uint32_t capabilities = kDefaultCapabilities;
};

/// Knobs for the windowed SubmitColumns() streaming loop.
struct StreamSubmitOptions {
  std::size_t chunk = 256;      // accesses per SUBMIT_STREAM frame
  std::size_t window = 8;       // frames in flight before waiting
  /// Request an ack every Nth frame (1 = every frame, i.e. classic
  /// pipelined SUBMITs; larger = streaming bulk mode). The frame that
  /// fills the window and the final frame always request one.
  std::size_t ack_interval = 1;
  /// Lifetime stream index of columns[0]: submission resumes
  /// exactly-once after a disconnect via `start = attach.accepted`.
  std::uint64_t start = 0;
};

struct StreamSubmitResult {
  std::uint64_t accepted = 0;  // server's lifetime admitted count
  std::uint64_t slowdowns = 0;
  std::uint64_t rejections = 0;  // admission + offset-guard rejections
  bool closed = false;  // session input closed before the stream ended
  /// Last non-empty SUBMIT_ACK codec hint seen (kCapRenegotiate).
  std::string last_recommendation;
};

class Client {
 public:
  /// Dials and performs the HELLO handshake; throws NetError on
  /// transport failure and WireError if the server refuses the
  /// handshake (bad magic / no version overlap).
  explicit Client(ClientOptions options);

  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Frame cap advertised by the server in HELLO_OK.
  std::uint64_t max_frame_bytes() const { return max_frame_bytes_; }

  /// Protocol version negotiated at HELLO.
  std::uint16_t version() const { return version_; }

  /// Capabilities in force on this connection (client ∩ server).
  std::uint32_t capabilities() const { return caps_; }

  OpenReply Open(const OpenRequest& request);
  AttachReply Attach(std::uint64_t session_id, std::uint64_t token);
  SubmitAck Submit(std::uint64_t session_id,
                   std::span<const BusAccess> batch);
  StatsReply DrainStats(std::uint64_t session_id, bool wait_drained);
  CloseReply Close(std::uint64_t session_id);

  /// kCapRenegotiate: request a codec switch pinned to the lifetime
  /// admitted index ("" = let the server policy pick). Throws WireError
  /// on refusal — kRenegotiateRefused / kBadConfig are request-scoped,
  /// the connection stays usable.
  RenegotiateReply Renegotiate(std::uint64_t session_id,
                               const std::string& codec = "");

  /// kCapPipeline: stream `count - options.start` accesses (lifetime
  /// indices [options.start, count)) through windowed SUBMIT_STREAM
  /// frames, keeping up to `window` frames in flight. Rejections rewind
  /// to the server's authoritative count via the offset guard, so the
  /// admitted stream never gaps or duplicates. The columns are read
  /// in place — an mmap-backed `.ctrace` streams without row copies.
  StreamSubmitResult SubmitColumns(std::uint64_t session_id,
                                   const Word* addresses,
                                   const std::uint8_t* sel,
                                   std::uint64_t count,
                                   const StreamSubmitOptions& options);

  // -- raw layer (fuzz + fault injection) --

  /// Send arbitrary bytes as-is (no framing added).
  void SendRaw(std::span<const std::uint8_t> bytes);

  /// Read the next complete frame off the socket; throws NetError on
  /// timeout or close, WireError on framing violations.
  Frame ReadFrame();

  /// Half-close the send side (the server sees EOF after any buffered
  /// bytes — a clean mid-conversation disconnect).
  void ShutdownSend();

  /// Hard-close the socket immediately; every later call throws
  /// NetError. Simulates a crashed client (possibly mid-frame).
  void Abort();

  bool alive() const { return fd_ >= 0; }

 private:
  /// Read the next frame and decode it as `Reply`; an ERROR becomes a
  /// thrown WireError, any other frame type a kBadFrame one.
  template <typename Reply>
  Reply Receive();

  /// Send `request` in its frame, then Receive<Reply>().
  template <typename Reply, typename Request>
  Reply Call(const Request& request);

  int fd_ = -1;
  std::uint64_t max_frame_bytes_ = kDefaultMaxFrameBytes;
  std::uint16_t version_ = kProtocolVersion;
  std::uint32_t caps_ = 0;
  std::vector<std::uint8_t> in_;  // receive accumulator
};

}  // namespace abenc::net
