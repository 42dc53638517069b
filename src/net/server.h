// The encoding service's network front-end: a poll-driven socket server
// that bridges wire-protocol frames (net/protocol.h) onto the
// EncodingService's per-session bounded queues.
//
// Design:
//  - One event-loop thread owns every connection: accept, framing,
//    dispatch and replies all happen there, so connection state needs no
//    locks. The CPU-heavy work (draining sessions, encoding, transport
//    recovery) stays on the service's own shard thread pool; the loop
//    only enqueues decoded column batches (EncodingService::SubmitColumns,
//    one admission path for SUBMIT and SUBMIT_STREAM) and snapshots via
//    Report().
//  - The loop wakes on work, never on a tick: poll() sleeps until a
//    socket or the wake pipe is ready or the earliest connection
//    deadline passes. A DRAIN_STATS that must wait for quiescence arms
//    the session's drain signal (EncodingService::NotifyWhenDrained);
//    the shard thread that drains the session to empty posts its id on
//    a mutex-guarded ready list and writes the wake pipe, and the loop
//    answers the deferred replies of the posted ids only.
//  - Per-connection read/write timeouts: a connection that neither
//    delivers bytes nor owes us a deferred reply for `read_timeout` is
//    dropped, as is one whose peer stops reading our replies for
//    `write_timeout` (a stuck writer cannot pin buffer memory forever).
//  - Hard frame-size cap, enforced the moment a length prefix is parsed
//    — before any payload is buffered — so a hostile length can neither
//    balloon memory nor starve the loop.
//  - Backpressure crosses the wire: every SUBMIT is acknowledged with
//    the session's Admission verdict mapped to a protocol status, so
//    kSlowDown / kRejected are visible client-side flow control rather
//    than silent queue growth.
//  - A dead connection detaches its sessions but never destroys them
//    unless closed: ATTACH with the OPEN-issued token resumes a session
//    exactly-once (the reply carries the admitted-access count to resume
//    from).
//  - CLOSE ends a session: once it has drained and the DRAIN_STATS
//    replies it is owed are sent, the service releases it
//    (EncodingService::ReleaseSession), attached or not, so the server's
//    memory follows its live sessions. Later frames naming it get
//    UNKNOWN_SESSION.
//
// Failure containment: any malformed, truncated, oversized or
// mid-frame-disconnected input produces a clean protocol ERROR (and for
// framing-level violations a close) — never an exception out of the
// loop, a crash, or a wedged shard. tests/net_test.cpp and the net_soak
// fuzz loop pin this.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "net/protocol.h"
#include "net/sockets.h"
#include "service/service.h"

namespace abenc::net {

struct ServerConfig {
  /// Where to listen: "tcp:HOST:PORT" (PORT 0 = ephemeral, see
  /// Server::endpoint()) or "unix:PATH".
  std::string endpoint = "tcp:127.0.0.1:0";
  /// Hard cap on one frame (type byte + payload), advertised in
  /// HELLO_OK and enforced on every parsed length prefix.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Drop a connection with no inbound bytes and no deferred replies
  /// for this long.
  std::chrono::milliseconds read_timeout{30000};
  /// Drop a connection whose pending replies make no progress for this
  /// long (peer stopped reading).
  std::chrono::milliseconds write_timeout{10000};
  /// Capabilities this server is willing to grant; a connection's caps
  /// in force are the intersection with what the client offered in a
  /// v2 HELLO (v1 connections always negotiate zero).
  std::uint32_t capabilities = kDefaultCapabilities;
  /// The underlying encoding service.
  service::ServiceConfig service;
  /// Test/soak hook: maps OPEN's fault_seed to a deterministic channel
  /// fault installer. When unset, a nonzero fault_seed is rejected with
  /// kBadConfig — production servers take no wire-specified faults.
  std::function<std::function<void(BusChannel&)>(std::uint64_t)>
      fault_planner;
};

/// Loop-thread counters, readable from any thread.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t protocol_errors = 0;  // ERROR frames sent
  std::uint64_t timeouts = 0;         // read/write timeout drops
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config);

  /// Stops if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the event loop. Throws NetError if the
  /// endpoint cannot be bound.
  void Start();

  /// Stop the event loop, then the service's shard drivers (which may
  /// post to the loop until they stop), then close the listener and
  /// every connection. Idempotent.
  void Stop();

  /// Dialable endpoint (with the ephemeral port resolved). Valid after
  /// Start().
  std::string endpoint() const;

  service::EncodingService& service() { return *service_; }

  ServerStats stats() const;

 private:
  struct Conn;
  class Loop;

  ServerConfig config_;
  std::unique_ptr<service::EncodingService> service_;
  std::unique_ptr<Loop> loop_;
  std::thread thread_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace abenc::net
