#include "net/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "service/renegotiation.h"

namespace abenc::net {
namespace {

using Clock = std::chrono::steady_clock;

/// SplitMix64 — session-token derivation (capability, not a secret key).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// One accepted connection. Owned and touched exclusively by the event
/// loop thread, so it carries no locks.
struct Server::Conn {
  int fd = -1;
  bool hello_done = false;
  std::uint16_t version = kProtocolVersion;  // negotiated at HELLO
  std::uint32_t caps = 0;                    // capabilities in force
  bool close_after_flush = false;  // fatal error sent; drop once flushed
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  Clock::time_point last_in;
  Clock::time_point last_out_progress;
  /// Sessions opened or attached on this connection.
  std::set<std::uint64_t> sessions;
  /// DRAIN_STATS with wait_drained: replies deferred until quiescent,
  /// in request order.
  std::vector<std::uint64_t> pending_stats;

  bool owes_output() const { return out_pos < out.size(); }
  bool owes_stats(std::uint64_t id) const {
    return std::ranges::find(pending_stats, id) != pending_stats.end();
  }
};

class Server::Loop {
 public:
  Loop(const ServerConfig& config, service::EncodingService& service)
      : config_(config), service_(service) {}

  ~Loop() {
    // After this no shard thread is inside PostDrained().
    service_.SetDrainListener({});
    for (auto& [fd, conn] : conns_) CloseFd(conn.fd);
    CloseFd(listen_fd_);
    CloseFd(wake_fds_[0]);
    CloseFd(wake_fds_[1]);
    if (bound_.is_unix) ::unlink(bound_.path.c_str());
  }

  void Bind() {
    bound_ = ParseEndpoint(config_.endpoint);
    listen_fd_ = ListenOn(bound_);
    if (::pipe(wake_fds_) != 0) {
      throw NetError(std::string("pipe: ") + std::strerror(errno));
    }
    SetNonBlocking(wake_fds_[0]);
    SetNonBlocking(wake_fds_[1]);
    service_.SetDrainListener(
        [this](std::uint64_t id) { PostDrained(id); });
  }

  std::string endpoint() const { return bound_.ToString(); }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

  ServerStats stats() const {
    ServerStats s;
    s.connections_accepted =
        connections_accepted_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.timeouts = timeouts_.load(std::memory_order_relaxed);
    s.frames_received = frames_received_.load(std::memory_order_relaxed);
    s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    return s;
  }

  void Run() {
    while (!stop_.load(std::memory_order_acquire)) {
      PollOnce();
      ServeDrained();
      if (Clock::now() >= next_deadline_) EnforceTimeouts();
    }
  }

 private:
  /// Session bookkeeping the wire protocol adds on top of the service:
  /// the ATTACH capability and the admitted-access count that makes
  /// resume-after-disconnect exactly-once.
  struct SessionSlot {
    std::uint64_t token = 0;
    std::uint64_t accepted = 0;  // lifetime accesses admitted
    int attached_fd = -1;        // -1 = detached (connection died)
    bool closed = false;         // CLOSEd: released once drained
  };

  /// A shard thread reports an armed session that drained to empty.
  void PostDrained(std::uint64_t id) {
    {
      std::lock_guard<std::mutex> lock(drained_mutex_);
      drained_.push_back(id);
    }
    Wake();
  }

  void Wake() {
    const std::uint8_t byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }

  /// When `conn` next times out: the write timeout while it owes output,
  /// none while a deferred STATS is owed, else the read timeout.
  Clock::time_point Deadline(const Conn& conn) const {
    if (conn.owes_output()) {
      return conn.last_out_progress + config_.write_timeout;
    }
    if (!conn.pending_stats.empty()) return Clock::time_point::max();
    return conn.last_in + config_.read_timeout;
  }

  /// Sleep until a socket or the wake pipe is ready or the earliest
  /// connection deadline passes (indefinitely when there is none).
  void PollOnce() {
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    next_deadline_ = Clock::time_point::max();
    for (auto& [fd, conn] : conns_) {
      short events = POLLIN;
      if (conn.owes_output()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      next_deadline_ = std::min(next_deadline_, Deadline(conn));
    }
    int timeout_ms = -1;
    if (next_deadline_ != Clock::time_point::max()) {
      // Round up, so the loop wakes at or after the deadline, not
      // spinning just before it; a timeout flag may exceed int's range.
      const std::int64_t left =
          std::chrono::ceil<std::chrono::milliseconds>(next_deadline_ -
                                                       Clock::now())
              .count();
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          left, 0, std::numeric_limits<int>::max()));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready <= 0) return;

    if ((fds[0].revents & POLLIN) != 0) AcceptPending();
    if ((fds[1].revents & POLLIN) != 0) {
      std::uint8_t sink[64];
      while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      auto it = conns_.find(fds[i].fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      if ((fds[i].revents & POLLOUT) != 0) FlushOut(conn);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!ReadFromConn(conn)) {
          DropConn(conn.fd);
          continue;
        }
      }
      if (conn.close_after_flush && conn.out_pos >= conn.out.size()) {
        DropConn(conn.fd);
      }
    }
  }

  void AcceptPending() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient failure: next poll
      SetNonBlocking(fd);
      SetNoDelay(fd);
      Conn conn;
      conn.fd = fd;
      conn.last_in = Clock::now();
      conn.last_out_progress = conn.last_in;
      conns_.emplace(fd, std::move(conn));
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Pull bytes and dispatch complete frames. Returns false when the
  /// connection is gone (peer closed or hard error): any partially
  /// received frame in `conn.in` is discarded whole — frames are
  /// atomic, so a mid-frame disconnect can never half-apply a batch.
  bool ReadFromConn(Conn& conn) {
    std::uint8_t chunk[65536];
    bool peer_eof = false;
    for (;;) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n == 0) {  // orderly close — but the peer may still be reading
        peer_eof = true;
        break;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;  // reset / hard error
      }
      conn.last_in = Clock::now();
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      if (conn.in.size() >= sizeof(chunk)) break;  // fairness: next poll
    }
    // Frames already buffered are dispatched even when EOF arrived in
    // the same poll cycle: a client that sends a violation and
    // half-closes still gets its protocol ERROR before the close. Only
    // a trailing *partial* frame is discarded whole.
    while (!conn.close_after_flush) {
      std::optional<Frame> frame;
      try {
        frame = TryExtractFrame(conn.in, config_.max_frame_bytes);
      } catch (const WireError& e) {
        SendError(conn, e.status(), e.what());
        break;
      }
      if (!frame.has_value()) break;
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      DispatchFrame(conn, *frame);
    }
    if (peer_eof) conn.close_after_flush = true;
    return true;
  }

  void DispatchFrame(Conn& conn, const Frame& frame) {
    try {
      HandleFrame(conn, frame);
    } catch (const WireError& e) {
      // Malformed payload (or an oversized string field): the framing
      // itself is suspect, so these are connection-fatal.
      SendError(conn, e.status(), e.what());
    } catch (const std::exception& e) {
      SendError(conn, Status::kInternal, e.what());
    }
  }

  void HandleFrame(Conn& conn, const Frame& frame) {
    if (!conn.hello_done) {
      if (frame.type != FrameType::kHello) {
        throw WireError(Status::kBadFrame,
                        FrameTypeName(frame.type) + " before HELLO");
      }
      const HelloRequest hello = Decode<HelloRequest>(frame.payload);
      if (hello.magic != kHelloMagic) {
        SendError(conn, Status::kBadMagic,
                  "HELLO magic mismatch (not an abenc client?)");
        return;
      }
      // Highest version both sides speak; no overlap is fatal.
      if (hello.version_min > kProtocolVersion ||
          hello.version_max < kProtocolVersionMin) {
        SendError(conn, Status::kBadVersion,
                  "server speaks versions [" +
                      std::to_string(kProtocolVersionMin) + ", " +
                      std::to_string(kProtocolVersion) +
                      "], client supports [" +
                      std::to_string(hello.version_min) + ", " +
                      std::to_string(hello.version_max) + "]");
        return;
      }
      conn.hello_done = true;
      conn.version = std::min(kProtocolVersion, hello.version_max);
      // Capabilities exist from v2 on and only where both sides agree;
      // a v1 negotiation leaves every v2 frame/field off this
      // connection for good.
      conn.caps = conn.version >= 2
                      ? (hello.capabilities & config_.capabilities)
                      : 0;
      Send(conn, HelloReply{.version = conn.version,
                            .max_frame_bytes = config_.max_frame_bytes,
                            .capabilities = conn.caps});
      return;
    }
    switch (frame.type) {
      case FrameType::kOpen:       HandleOpen(conn, frame); return;
      case FrameType::kAttach:     HandleAttach(conn, frame); return;
      case FrameType::kSubmit: {
        // A v1 SUBMIT is a SUBMIT_STREAM at the server's own count,
        // always acked.
        SubmitRequest request = Decode<SubmitRequest>(frame.payload);
        Admit(conn, request.session_id, std::nullopt, true,
              std::move(request.columns));
        return;
      }
      case FrameType::kDrainStats: HandleDrainStats(conn, frame); return;
      case FrameType::kClose:      HandleClose(conn, frame); return;
      case FrameType::kRenegotiate:
        RequireCap(conn, kCapRenegotiate, "RENEGOTIATE");
        HandleRenegotiate(conn, frame);
        return;
      case FrameType::kSubmitStream: {
        RequireCap(conn, kCapPipeline, "SUBMIT_STREAM");
        SubmitStreamRequest request =
            Decode<SubmitStreamRequest>(frame.payload);
        Admit(conn, request.session_id, request.offset, request.want_ack,
              std::move(request.columns));
        return;
      }
      case FrameType::kHello:
        throw WireError(Status::kBadFrame, "repeated HELLO");
      default:
        throw WireError(Status::kBadFrame,
                        "unexpected frame type " +
                            std::to_string(static_cast<int>(frame.type)));
    }
  }

  /// A frame gated on a capability the connection did not negotiate is
  /// a framing violation, exactly like an unknown frame type — fatal.
  void RequireCap(const Conn& conn, std::uint32_t cap,
                  const char* frame_name) {
    if ((conn.caps & cap) == 0) {
      throw WireError(Status::kBadFrame,
                      std::string(frame_name) +
                          " without the negotiated capability");
    }
  }

  void HandleOpen(Conn& conn, const Frame& frame) {
    const OpenRequest open = Decode<OpenRequest>(frame.payload);
    service::SessionConfig session = config_.service.session;
    session.codec_name = open.codec;
    session.codec_options.width = open.width;
    session.codec_options.stride = open.stride;
    session.codec_options.adaptive_window =
        static_cast<std::size_t>(open.adaptive_window);
    session.codec_options.adaptive_hysteresis = open.adaptive_hysteresis;
    session.codec_options.adaptive_palette = open.adaptive_palette;
    session.queue_capacity =
        static_cast<std::size_t>(open.queue_capacity);
    session.slowdown_watermark =
        static_cast<std::size_t>(open.slowdown_watermark);
    session.max_retries = open.max_retries;
    session.access_budget = open.access_budget;
    switch (open.protection) {
      case 0: session.protection = Protection::kNone; break;
      case 1: session.protection = Protection::kParity; break;
      case 2: session.protection = Protection::kSecded; break;
      default:
        SendError(conn, Status::kBadConfig,
                  "unknown protection code " +
                      std::to_string(int{open.protection}));
        return;
    }
    if (open.fault_seed != 0) {
      if (!config_.fault_planner) {
        SendError(conn, Status::kBadConfig,
                  "this server accepts no wire-specified fault seeds");
        return;
      }
      session.fault_installer = config_.fault_planner(open.fault_seed);
    }
    std::uint64_t id = 0;
    try {
      id = service_.OpenSession(session);
    } catch (const std::invalid_argument& e) {
      // CodecConfigError / ChannelConfigError: the negotiated codec or
      // palette is invalid — request-scoped, the connection survives.
      SendError(conn, Status::kBadConfig, e.what());
      return;
    }
    SessionSlot slot;
    slot.token = Mix64(0xABE5C0DE00000000ULL ^ id);
    slot.attached_fd = conn.fd;
    sessions_.emplace(id, slot);
    conn.sessions.insert(id);
    Send(conn, OpenReply{.session_id = id, .token = slot.token});
  }

  void HandleAttach(Conn& conn, const Frame& frame) {
    const AttachRequest attach = Decode<AttachRequest>(frame.payload);
    auto it = sessions_.find(attach.session_id);
    if (it == sessions_.end()) {
      SendError(conn, Status::kUnknownSession,
                "no session " + std::to_string(attach.session_id));
      return;
    }
    SessionSlot& slot = it->second;
    if (slot.token != attach.token) {
      SendError(conn, Status::kBadToken,
                "token mismatch for session " +
                    std::to_string(attach.session_id));
      return;
    }
    // Takeover: a reconnecting client may attach before the server has
    // noticed its old connection die; the newest attach wins and the
    // stale connection loses the session. Each DRAIN_STATS it still
    // waits on for the session is answered with NOT_ATTACHED, so a
    // client alive on it fails instead of waiting for its read timeout.
    if (slot.attached_fd >= 0 && slot.attached_fd != conn.fd) {
      auto old = conns_.find(slot.attached_fd);
      if (old != conns_.end()) {
        old->second.sessions.erase(attach.session_id);
        const std::size_t owed =
            std::erase(old->second.pending_stats, attach.session_id);
        for (std::size_t i = 0; i < owed; ++i) {
          SendError(old->second, Status::kNotAttached,
                    "session " + std::to_string(attach.session_id) +
                        " was attached to another connection");
        }
      }
    }
    slot.attached_fd = conn.fd;
    conn.sessions.insert(attach.session_id);
    AttachReply reply;
    reply.session_id = attach.session_id;
    reply.accepted = slot.accepted;
    if ((conn.caps & kCapRenegotiate) != 0) {
      // Resume context: whether switches the client acked before the
      // disconnect actually landed, and the codec encoding right now.
      const service::SessionReport report =
          service_.Report(attach.session_id);
      reply.renegotiations =
          static_cast<std::uint32_t>(report.renegotiations.size());
      reply.active_codec = report.active_codec;
    }
    Send(conn, reply);
  }

  /// Shared SUBMIT/DRAIN_STATS/CLOSE precondition: the session exists
  /// and is attached to this connection. Returns nullptr after sending
  /// the appropriate ERROR.
  SessionSlot* RequireAttached(Conn& conn, std::uint64_t session_id) {
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      SendError(conn, Status::kUnknownSession,
                "no session " + std::to_string(session_id));
      return nullptr;
    }
    if (it->second.attached_fd != conn.fd) {
      SendError(conn, Status::kNotAttached,
                "session " + std::to_string(session_id) +
                    " is not attached to this connection");
      return nullptr;
    }
    return &it->second;
  }

  /// The one admission path, for SUBMIT and kCapPipeline's
  /// SUBMIT_STREAM. The offset guard makes in-flight rejection safe — a
  /// frame whose expected lifetime admitted count disagrees with the
  /// server's is rejected whole (an earlier pipelined frame must have
  /// been rejected), so a rejection can never punch a gap into the
  /// admitted stream. A SUBMIT carries no offset: it is admitted at the
  /// server's own count.
  void Admit(Conn& conn, std::uint64_t session_id,
             std::optional<std::uint64_t> offset, bool want_ack,
             service::ColumnBatch&& columns) {
    SessionSlot* slot = RequireAttached(conn, session_id);
    if (slot == nullptr) return;
    const std::size_t count = columns.size();
    Status status = Status::kRejected;  // stale offset: nothing queued
    if (offset.value_or(slot->accepted) == slot->accepted) {
      status = AdmissionToStatus(
          service_.SubmitColumns(session_id, std::move(columns)));
      if (status == Status::kOk || status == Status::kSlowDown) {
        slot->accepted += count;
      }
    }
    // One ack per requested window; any non-kOk verdict is always acked
    // so the sender can rewind from the authoritative count.
    if (want_ack || status != Status::kOk) {
      Send(conn, SubmitAck{.session_id = session_id,
                           .status = status,
                           .accepted = slot->accepted,
                           .recommended_codec =
                               (conn.caps & kCapRenegotiate) != 0
                                   ? Recommendation(session_id)
                                   : ""});
    }
  }

  /// kCapRenegotiate: switch an attached session's codec, pinned to the
  /// lifetime admitted index. An empty codec asks the server policy.
  void HandleRenegotiate(Conn& conn, const Frame& frame) {
    const RenegotiateRequest request =
        Decode<RenegotiateRequest>(frame.payload);
    SessionSlot* slot = RequireAttached(conn, request.session_id);
    if (slot == nullptr) return;
    std::string codec = request.codec;
    if (codec.empty()) {
      codec = Recommendation(request.session_id);
      if (codec.empty()) {
        SendError(conn, Status::kRenegotiateRefused,
                  "policy has no recommendation for session " +
                      std::to_string(request.session_id));
        return;
      }
    }
    const service::RenegotiateOutcome outcome =
        service_.Renegotiate(request.session_id, codec);
    if (!outcome.ok()) {
      const Status status =
          outcome.status == service::RenegotiateStatus::kRefusedBadCodec
              ? Status::kBadConfig
              : Status::kRenegotiateRefused;
      SendError(conn, status,
                "renegotiation refused: " +
                    service::RenegotiateStatusName(outcome.status));
      return;
    }
    Send(conn, RenegotiateReply{.session_id = request.session_id,
                                .switch_index = outcome.switch_index,
                                .codec = outcome.codec_name});
  }

  /// The policy's advisory proposal for a session, or "" when the drain
  /// lock is busy, the tracker has no completed window yet, or no switch
  /// would currently be admissible anyway.
  std::string Recommendation(std::uint64_t session_id) {
    const std::optional<service::RenegotiationSnapshot> snapshot =
        service_.StatsSnapshot(session_id);
    if (!snapshot.has_value() || snapshot->windows_completed == 0 ||
        snapshot->switch_pending || snapshot->degraded) {
      return "";
    }
    return service::RecommendCodec(snapshot->window, snapshot->width,
                                   snapshot->active_codec);
  }

  /// DRAIN_STATS with wait_drained arms the session's drain signal; the
  /// shard thread that empties its queue posts the id (PostDrained) and
  /// ServeDrained() answers. A session already quiescent is answered at
  /// once — after any earlier deferred replies for it, which that
  /// quiescence satisfies too, so replies keep request order.
  void HandleDrainStats(Conn& conn, const Frame& frame) {
    const DrainStatsRequest request =
        Decode<DrainStatsRequest>(frame.payload);
    SessionSlot* slot = RequireAttached(conn, request.session_id);
    if (slot == nullptr) return;
    if (request.wait_drained) {
      if (!service_.NotifyWhenDrained(request.session_id)) {
        conn.pending_stats.push_back(request.session_id);
        return;
      }
      ServeDeferredStats(conn, request.session_id, *slot);
      SendStats(conn, request.session_id, *slot);
      // This call consumed the drain signal a CLOSE may have armed.
      if (slot->closed) Release(request.session_id);
      return;
    }
    SendStats(conn, request.session_id, *slot);
  }

  /// CLOSE ends the session. Once it has drained and the replies it is
  /// owed are sent, it is released: a session already quiescent at
  /// once, after CLOSE_OK; otherwise its drain signal is armed and
  /// ServeDrained() releases it.
  void HandleClose(Conn& conn, const Frame& frame) {
    const CloseRequest request = Decode<CloseRequest>(frame.payload);
    SessionSlot* slot = RequireAttached(conn, request.session_id);
    if (slot == nullptr) return;
    service_.CloseSession(request.session_id);
    slot->closed = true;
    // Closed input stays drained, and deferred replies keep request
    // order: the STATS owed before this CLOSE leave first.
    const bool drained = service_.NotifyWhenDrained(request.session_id);
    if (drained) ServeDeferredStats(conn, request.session_id, *slot);
    Send(conn, CloseReply{.session_id = request.session_id});
    if (drained) Release(request.session_id);
  }

  /// Free a CLOSEd, drained session with no reply owed: its slot, its id
  /// on the attached connection and its service state. Every later frame
  /// naming it gets UNKNOWN_SESSION, as for an id never issued.
  void Release(std::uint64_t id) {
    auto slot = sessions_.find(id);
    if (slot == sessions_.end() || !service_.ReleaseSession(id)) return;
    auto conn = conns_.find(slot->second.attached_fd);
    if (conn != conns_.end()) conn->second.sessions.erase(id);
    sessions_.erase(slot);
  }

  void SendStats(Conn& conn, std::uint64_t session_id,
                 const SessionSlot& slot) {
    Send(conn, StatsFromReport(service_.Report(session_id), slot.accepted));
  }

  /// Answer every deferred DRAIN_STATS `conn` holds for `id`.
  void ServeDeferredStats(Conn& conn, std::uint64_t id,
                          const SessionSlot& slot) {
    const std::size_t owed = std::erase(conn.pending_stats, id);
    for (std::size_t i = 0; i < owed; ++i) SendStats(conn, id, slot);
  }

  /// The sessions shard threads posted as drained: id → attached
  /// connection → its deferred DRAIN_STATS replies, then the release of
  /// a CLOSEd session, attached or not. A session that took new work
  /// since it was posted is re-armed instead, so the reply still waits
  /// for quiescence.
  void ServeDrained() {
    std::vector<std::uint64_t> drained;
    {
      std::lock_guard<std::mutex> lock(drained_mutex_);
      drained.swap(drained_);
    }
    for (std::uint64_t id : drained) {
      auto slot = sessions_.find(id);
      if (slot == sessions_.end()) continue;  // released already
      auto conn = conns_.find(slot->second.attached_fd);
      const bool owed = conn != conns_.end() && conn->second.owes_stats(id);
      if (!owed && !slot->second.closed) continue;  // nothing waits
      if (!service_.NotifyWhenDrained(id)) continue;
      if (owed) ServeDeferredStats(conn->second, id, slot->second);
      if (slot->second.closed) Release(id);
    }
  }

  void EnforceTimeouts() {
    const Clock::time_point now = Clock::now();
    std::vector<int> drops;
    for (auto& [fd, conn] : conns_) {
      if (now > Deadline(conn)) drops.push_back(fd);
    }
    for (int fd : drops) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      DropConn(fd);
    }
  }

  void SendError(Conn& conn, Status status, const std::string& message) {
    Send(conn, ErrorReply{.status = status, .message = message});
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    if (StatusIsFatal(status)) conn.close_after_flush = true;
  }

  /// Frame `payload` under the connection's capabilities and flush.
  template <typename Payload>
  void Send(Conn& conn, const Payload& payload) {
    const std::vector<std::uint8_t> bytes =
        EncodeFrame(payload, conn.caps);
    conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    FlushOut(conn);
  }

  void FlushOut(Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_pos,
                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: poll for POLLOUT; hard errors surface on read
      }
      conn.out_pos += static_cast<std::size_t>(n);
      conn.last_out_progress = Clock::now();
    }
    conn.out.clear();
    conn.out_pos = 0;
  }

  void DropConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    // Detach: the sessions stay in the service and an ATTACH with the
    // right token resumes them exactly-once. A CLOSEd one is still
    // released once it drains (its armed signal reaches ServeDrained).
    for (std::uint64_t id : it->second.sessions) {
      auto slot = sessions_.find(id);
      if (slot != sessions_.end() && slot->second.attached_fd == fd) {
        slot->second.attached_fd = -1;
      }
    }
    CloseFd(it->second.fd);
    conns_.erase(it);
  }

  const ServerConfig& config_;
  service::EncodingService& service_;
  Endpoint bound_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  std::atomic<bool> stop_{false};

  // Armed sessions that drained to empty, posted by shard threads.
  std::mutex drained_mutex_;
  std::vector<std::uint64_t> drained_;

  // Loop-thread state.
  std::map<int, Conn> conns_;
  std::map<std::uint64_t, SessionSlot> sessions_;
  /// Earliest connection deadline, computed before each poll (which
  /// sleeps until it); EnforceTimeouts runs once it passes.
  Clock::time_point next_deadline_ = Clock::time_point::max();

  // Counters (read from other threads via stats()).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  service_ =
      std::make_unique<service::EncodingService>(config_.service);
}

Server::~Server() { Stop(); }

void Server::Start() {
  if (started_) throw NetError("Server::Start called twice");
  loop_ = std::make_unique<Loop>(config_, *service_);
  loop_->Bind();
  thread_ = std::thread([this]() { loop_->Run(); });
  started_ = true;
}

void Server::Stop() {
  if (stopped_) return;
  if (started_) {
    loop_->RequestStop();
    if (thread_.joinable()) thread_.join();
  }
  // Stop the shard drivers while the loop still exists: a drain may post
  // to it until then.
  service_->Stop();
  loop_.reset();  // closes the listener and every connection
  stopped_ = true;
}

std::string Server::endpoint() const {
  if (loop_ == nullptr) throw NetError("Server not started");
  return loop_->endpoint();
}

ServerStats Server::stats() const {
  if (loop_ == nullptr) return ServerStats{};
  return loop_->stats();
}

}  // namespace abenc::net
