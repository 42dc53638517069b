#include "net/net_soak.h"

#include <sys/socket.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "net/client.h"
#include "verify/stream_gen.h"

namespace abenc::net {
namespace {

using service::Draw;
using service::DrawFraction;
using service::SoakSessionPlan;

/// How a session ships its stream.
enum class SubmitMode {
  kSerial,     // lock-step SUBMIT / SUBMIT_ACK (the v1 path)
  kPipelined,  // SUBMIT_STREAM, window of frames, ack every frame
  kStreaming,  // SUBMIT_STREAM, sparse acks (bulk-transfer mode)
};

/// The wire-only part of a session's plan.
struct WireLegs {
  /// Accepted-count thresholds at which the client kills its connection
  /// (odd entries mid-frame) and resumes via ATTACH.
  std::vector<std::size_t> kill_points;
  SubmitMode submit_mode = SubmitMode::kSerial;
  /// Run as a v1 client: byte-identical legacy conversation, no v2
  /// frame or field may ever reach it.
  bool old_version = false;
};

/// Draws the wire-only legs of `plan` and adapts its switch schedule: a
/// v1 client cannot renegotiate, and a v2 one occasionally sends an
/// empty target, delegating the choice to the server's policy.
WireLegs PlanWireLegs(SoakSessionPlan& plan, const NetSoakOptions& options) {
  WireLegs legs;
  if (options.length >= 3 &&
      DrawFraction(plan.seed, 6, options.disconnect_fraction)) {
    legs.kill_points = {options.length / 3, (2 * options.length) / 3};
  }
  // One in eight sessions runs as a v1 client when v2 features are on:
  // the legacy conversation must stay untouched by the new frames.
  const bool v2_features = options.renegotiate_fraction > 0.0 ||
                           options.pipeline_fraction > 0.0;
  legs.old_version = v2_features && Draw(plan.seed, 8) % 8 == 0;
  if (legs.old_version) {
    plan.switches.clear();
    return legs;
  }
  for (service::PlannedSwitch& planned : plan.switches) {
    if (Draw(plan.seed, planned.salt) % 5 == 0) planned.codec_name.clear();
  }
  if (DrawFraction(plan.seed, 13, options.pipeline_fraction)) {
    legs.submit_mode = Draw(plan.seed, 14) % 2 == 0 ? SubmitMode::kPipelined
                                                    : SubmitMode::kStreaming;
  }
  return legs;
}

/// What a hostile connection observed. Anything but kWedged is a clean
/// containment outcome.
enum class FuzzEnd { kError, kClosed, kWedged };

/// Raw socket (no Client, no handshake) for the fuzz swarm.
struct RawConn {
  int fd = -1;

  RawConn(const Endpoint& endpoint, std::chrono::milliseconds timeout)
      : fd(DialEndpoint(endpoint, timeout)) {}
  ~RawConn() { CloseFd(fd); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void Send(std::span<const std::uint8_t> bytes) {
    SendAll(fd, bytes.data(), bytes.size());
  }

  void HalfClose() { ::shutdown(fd, SHUT_WR); }

  /// Drain replies until an ERROR frame, an orderly close, or a receive
  /// timeout (= the server wedged — the one forbidden outcome).
  FuzzEnd Outcome(std::uint64_t* errors_seen) {
    std::vector<std::uint8_t> buffer;
    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = TryExtractFrame(buffer, kDefaultMaxFrameBytes);
      } catch (const WireError&) {
        return FuzzEnd::kClosed;  // server echoing our garbage? count as
                                  // contained; health check still gates
      }
      if (frame.has_value()) {
        if (frame->type == FrameType::kError) {
          ++*errors_seen;
          return FuzzEnd::kError;
        }
        continue;  // e.g. HELLO_OK before the violation's ERROR
      }
      std::uint8_t chunk[4096];
      std::size_t n = 0;
      try {
        n = RecvSome(fd, chunk, sizeof(chunk));
      } catch (const NetError&) {
        return FuzzEnd::kWedged;  // receive timeout
      }
      if (n == 0) return FuzzEnd::kClosed;
      buffer.insert(buffer.end(), chunk, chunk + n);
    }
  }
};

/// State shared by every thread of one run.
struct WireSoak {
  WireSoak(const NetSoakOptions& soak_options, const std::string& endpoint,
           const service::SoakClock& soak_clock)
      : options(soak_options),
        dial(ParseEndpoint(endpoint)),
        clock(soak_clock) {
    client_options.endpoint = endpoint;
    client_options.io_timeout = soak_options.io_timeout;
  }

  const NetSoakOptions& options;
  ClientOptions client_options;
  const Endpoint dial;
  const service::SoakClock& clock;

  std::mutex mutex;  // guards outcome
  NetSoakOutcome outcome;

  bool OutOfTime() {
    if (!clock.OutOfTime()) return false;
    std::lock_guard<std::mutex> lock(mutex);
    outcome.timed_out = true;
    return true;
  }

  void Count(std::uint64_t NetSoakOutcome::*field, std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mutex);
    outcome.*field += n;
  }

  void Fail(std::string failure) {
    std::lock_guard<std::mutex> lock(mutex);
    outcome.failures.push_back(std::move(failure));
  }
};

/// One planned session driven end to end over the wire: its
/// submissions, planned kills resumed via ATTACH and planned
/// RENEGOTIATEs, then its STATS through the core's gate.
class WireSession {
 public:
  WireSession(WireSoak& soak, const SoakSessionPlan& plan, const WireLegs& legs)
      : soak_(soak),
        plan_(plan),
        legs_(legs),
        stream_(plan.stream),
        chunk_(soak.options.chunk == 0 ? std::size_t{64}
                                       : soak.options.chunk) {
    conn_options_ = soak.client_options;
    if (legs.old_version) conn_options_.version_max = 1;
  }

  /// Runs the session; protocol and transport errors become failures.
  void Run() {
    try {
      Drive();
    } catch (const WireError& e) {
      Fail(std::string("protocol error: ") + e.what());
    } catch (const NetError& e) {
      Fail(std::string("transport error: ") + e.what());
    }
  }

 private:
  void Fail(const std::string& what) {
    soak_.Fail(plan_.Label() + ": " + what);
  }

  void Drive() {
    client_ = std::make_unique<Client>(conn_options_);
    if (legs_.old_version &&
        (client_->version() != 1 || client_->capabilities() != 0)) {
      Fail("v1 client negotiated a v2 conversation");
      return;
    }
    OpenRequest open;
    open.codec = plan_.codec_name;
    open.width = static_cast<std::uint16_t>(plan_.codec_options.width);
    open.stride = plan_.codec_options.stride;
    open.protection = static_cast<std::uint8_t>(plan_.protection);
    open.queue_capacity = soak_.options.queue_capacity;
    open.slowdown_watermark = soak_.options.slowdown_watermark;
    open.fault_seed = plan_.faulted ? plan_.seed : 0;
    opened_ = client_->Open(open);

    if (legs_.submit_mode != SubmitMode::kSerial) {
      // Column copy of the stream (index == lifetime index, the shape an
      // mmap-fed replay would view directly).
      columns_ = service::ColumnBatch::FromRows(stream_);
    }

    while (accepted_ < stream_.size()) {
      if (soak_.OutOfTime()) return;
      if (!IssueSwitches()) return;
      bool ok = false;
      if (next_kill_ < legs_.kill_points.size() &&
          accepted_ >= legs_.kill_points[next_kill_]) {
        ok = KillAndResume();
      } else if (legs_.submit_mode == SubmitMode::kSerial) {
        ok = SubmitChunk();
      } else {
        ok = StreamToBoundary();
      }
      if (!ok) return;
    }
    // Switch thresholds at the exact stream end still fire — they pin a
    // switch at the final admitted index.
    if (!IssueSwitches()) return;
    Finish();
  }

  /// Issue every planned RENEGOTIATE whose threshold the admitted count
  /// has reached. Only called between submissions, when no frame is in
  /// flight, so the reply is the very next frame. Clean refusals
  /// (degraded transport, codec already active, …) are tolerated and
  /// tallied; the acked switches feed the gate.
  bool IssueSwitches() {
    while (next_switch_ < plan_.switches.size() &&
           accepted_ >= plan_.switches[next_switch_].at) {
      const std::string& target = plan_.switches[next_switch_].codec_name;
      ++next_switch_;
      try {
        const RenegotiateReply ack =
            client_->Renegotiate(opened_.session_id, target);
        if (ack.switch_index < accepted_ || ack.switch_index > stream_.size()) {
          Fail("RENEGOTIATE_ACK pinned a switch outside the admitted range");
          return false;
        }
        acked_.push_back(
            {static_cast<std::size_t>(ack.switch_index), ack.codec});
        soak_.Count(&NetSoakOutcome::renegotiations);
      } catch (const WireError& e) {
        if (e.status() != Status::kRenegotiateRefused &&
            e.status() != Status::kBadConfig) {
          throw;
        }
        soak_.Count(&NetSoakOutcome::renegotiate_refusals);
      }
    }
    return true;
  }

  /// Kill the connection — on odd kills after shipping the first half
  /// of a frame (SUBMIT or SUBMIT_STREAM, per the session's mode), so
  /// the server sees a mid-frame EOF and must discard the partial frame
  /// whole — then resume on a new connection via ATTACH.
  bool KillAndResume() {
    if ((next_kill_ & 1) != 0) {
      const std::size_t n = NextChunk();
      const std::vector<std::uint8_t> frame_bytes =
          legs_.submit_mode == SubmitMode::kSerial
              ? EncodeFrame(FrameType::kSubmit,
                            EncodeSubmit(opened_.session_id,
                                         stream_.subspan(accepted_, n)))
              : EncodeFrame(FrameType::kSubmitStream,
                            EncodeSubmitStream(
                                opened_.session_id, accepted_, true,
                                columns_.addresses.data() + accepted_,
                                columns_.sel.data() + accepted_, n));
      const std::size_t half = std::max<std::size_t>(1, frame_bytes.size() / 2);
      try {
        client_->SendRaw(
            std::span<const std::uint8_t>(frame_bytes.data(), half));
      } catch (const NetError&) {
      }
    }
    client_->Abort();
    ++next_kill_;
    soak_.Count(&NetSoakOutcome::disconnects);
    client_ = std::make_unique<Client>(conn_options_);
    const AttachReply attach =
        client_->Attach(opened_.session_id, opened_.token);
    if (attach.accepted < accepted_ || attach.accepted > stream_.size()) {
      Fail("ATTACH resume point out of range");
      return false;
    }
    // Applied switches can lag acked ones (a scheduled switch whose
    // pinned index the drain has not reached yet) but never exceed them
    // — the server can't invent a switch the client never sent.
    if ((client_->capabilities() & kCapRenegotiate) != 0 &&
        attach.renegotiations > acked_.size()) {
      Fail("ATTACH_OK reports more applied switches than the client ever "
           "acked");
      return false;
    }
    accepted_ = attach.accepted;
    soak_.Count(&NetSoakOutcome::resumes);
    return true;
  }

  /// Stream up to the next planned boundary (kill or switch threshold),
  /// windowed; SubmitColumns drains its window before returning, so the
  /// boundary actions stay frame-aligned.
  bool StreamToBoundary() {
    std::uint64_t target = stream_.size();
    if (next_kill_ < legs_.kill_points.size()) {
      target = std::min<std::uint64_t>(target, legs_.kill_points[next_kill_]);
    }
    if (next_switch_ < plan_.switches.size()) {
      target = std::min<std::uint64_t>(target, plan_.switches[next_switch_].at);
    }
    target = std::max<std::uint64_t>(target, accepted_ + 1);
    StreamSubmitOptions stream_options;
    stream_options.chunk = chunk_;
    stream_options.window = 4;
    stream_options.ack_interval =
        legs_.submit_mode == SubmitMode::kPipelined ? 1 : 4;
    stream_options.start = accepted_;
    const StreamSubmitResult result = client_->SubmitColumns(
        opened_.session_id, columns_.addresses.data(), columns_.sel.data(),
        target, stream_options);
    soak_.Count(&NetSoakOutcome::slowdowns, result.slowdowns);
    soak_.Count(&NetSoakOutcome::rejections, result.rejections);
    if (result.closed) {
      Fail("session input closed mid-stream");
      return false;
    }
    if (result.accepted < accepted_ || result.accepted > target) {
      Fail("admitted count skew (an access was dropped or duplicated)");
      return false;
    }
    accepted_ = result.accepted;
    return true;
  }

  /// One lock-step SUBMIT, paced on kSlowDown and backed off on
  /// kRejected.
  bool SubmitChunk() {
    const std::size_t n = NextChunk();
    const SubmitAck ack =
        client_->Submit(opened_.session_id, stream_.subspan(accepted_, n));
    switch (ack.status) {
      case Status::kOk:
      case Status::kSlowDown:
        if (ack.accepted != accepted_ + n) {
          Fail("admitted count skew (an access was dropped or duplicated)");
          return false;
        }
        accepted_ = ack.accepted;
        backoff_us_ = 100;
        if (ack.status == Status::kSlowDown) {
          soak_.Count(&NetSoakOutcome::slowdowns);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return true;
      case Status::kRejected:
        if (ack.accepted != accepted_) {
          Fail("rejected SUBMIT changed the accepted count");
          return false;
        }
        soak_.Count(&NetSoakOutcome::rejections);
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us_));
        backoff_us_ = std::min<std::uint64_t>(backoff_us_ * 2, 5000);
        return true;
      default:
        Fail("unexpected SUBMIT_ACK status " + StatusName(ack.status));
        return false;
    }
  }

  /// DRAIN_STATS, CLOSE, and the read-back through the gate.
  void Finish() {
    const StatsReply stats =
        client_->DrainStats(opened_.session_id, /*wait_drained=*/true);
    client_->Close(opened_.session_id);
    client_.reset();
    service::GateInput input;
    input.codec_name = plan_.codec_name;
    input.codec_options = plan_.codec_options;
    input.stream = stream_;
    input.acked = acked_;
    input.queue_capacity = soak_.options.queue_capacity;
    const service::ReadBack read_back = ReadBackOf(stats);
    const std::vector<service::GateCheck> failed =
        service::CheckServedSession(input, read_back);
    std::lock_guard<std::mutex> lock(soak_.mutex);
    soak_.outcome.Record(plan_.Label(), read_back, failed);
    if (legs_.submit_mode != SubmitMode::kSerial) {
      ++soak_.outcome.pipelined_sessions;
    }
    if (legs_.old_version) ++soak_.outcome.old_version_sessions;
  }

  std::size_t NextChunk() const {
    return std::min<std::size_t>(chunk_, stream_.size() - accepted_);
  }

  WireSoak& soak_;
  const SoakSessionPlan& plan_;
  const WireLegs& legs_;
  const std::span<const BusAccess> stream_;
  const std::size_t chunk_;
  ClientOptions conn_options_;
  std::unique_ptr<Client> client_;
  OpenReply opened_;
  service::ColumnBatch columns_;
  std::vector<CodecSwitchPoint> acked_;
  std::uint64_t accepted_ = 0;
  std::uint64_t backoff_us_ = 100;
  std::size_t next_kill_ = 0;
  std::size_t next_switch_ = 0;
};

/// One connection of the fuzz swarm, run concurrently with the traffic:
/// every violation in the catalogue must end in a protocol ERROR or an
/// orderly close — a receive timeout means a wedged connection and
/// fails the soak.
void RunFuzzConnection(WireSoak& soak, std::size_t f) {
  const NetSoakOptions& options = soak.options;
  auto fuzz_fail = [&](int which, const std::string& what) {
    soak.Fail("fuzz[" + std::to_string(f) + "] case " +
              std::to_string(which) + ": " + what);
  };
  std::mt19937_64 rng(verify::MixSeed(options.seed ^ (0xF022ULL + f)));
  const std::vector<std::uint8_t> hello = EncodeFrame(HelloRequest{});
  auto with_hello = [&](const std::vector<std::uint8_t>& frame) {
    std::vector<std::uint8_t> bytes = hello;
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    return bytes;
  };
  auto raw_case = [&](int which, const std::vector<std::uint8_t>& bytes,
                      bool require_error) {
    if (soak.OutOfTime()) return;
    try {
      RawConn conn(soak.dial, options.io_timeout);
      conn.Send(bytes);
      conn.HalfClose();
      soak.Count(&NetSoakOutcome::fuzz_frames);
      std::uint64_t errors_seen = 0;
      const FuzzEnd end = conn.Outcome(&errors_seen);
      soak.Count(&NetSoakOutcome::fuzz_errors, errors_seen);
      if (end == FuzzEnd::kWedged) {
        fuzz_fail(which, "server wedged (receive timeout)");
      } else if (end == FuzzEnd::kClosed && require_error) {
        fuzz_fail(which, "expected a protocol ERROR before the close");
      }
    } catch (const NetError& e) {
      fuzz_fail(which, e.what());
    }
  };

  // 0: random garbage. A plausible garbage length prefix makes the
  // server wait for the payload; the half-close turns that into a
  // mid-frame EOF, so a clean close (no ERROR) is acceptable here.
  std::vector<std::uint8_t> garbage(1 + rng() % 64);
  for (std::uint8_t& byte : garbage) {
    byte = static_cast<std::uint8_t>(rng());
  }
  raw_case(0, garbage, /*require_error=*/false);

  // 1: length prefix far above the cap — rejected from the prefix
  // alone, before any payload arrives.
  raw_case(1, {0xFF, 0xFF, 0xFF, 0xFF}, /*require_error=*/true);

  // 2: zero-length frame.
  raw_case(2, {0x00, 0x00, 0x00, 0x00}, /*require_error=*/true);

  // 3: unknown frame type after a valid HELLO.
  raw_case(3,
           with_hello(EncodeFrame(static_cast<FrameType>(0x63),
                                  std::vector<std::uint8_t>())),
           /*require_error=*/true);

  // 4: HELLO with the wrong magic.
  {
    HelloRequest bad;
    bad.magic = 0xDEADBEEFu;
    raw_case(4, EncodeFrame(bad), /*require_error=*/true);
  }

  // 5: HELLO with no protocol version overlap.
  {
    HelloRequest bad;
    bad.version_min = 99;
    bad.version_max = 100;
    raw_case(5, EncodeFrame(bad), /*require_error=*/true);
  }

  // 6: truncated frame then hard disconnect mid-frame — nothing to
  // read back; the post-traffic health check proves no harm done.
  if (!soak.OutOfTime()) {
    try {
      RawConn conn(soak.dial, options.io_timeout);
      conn.Send(hello);
      const std::vector<std::uint8_t> open_frame = EncodeFrame(OpenRequest{});
      conn.Send(std::span<const std::uint8_t>(open_frame.data(),
                                              open_frame.size() / 2));
      soak.Count(&NetSoakOutcome::fuzz_frames);
    } catch (const NetError&) {
    }
  }

  // 7: well-typed frame with trailing garbage after its payload —
  // sender/receiver layout disagreement, must be rejected.
  {
    Writer writer;
    writer.U64(1);           // CloseRequest.session_id
    writer.U32(0xDEADBEEF);  // trailing garbage
    raw_case(7, with_hello(EncodeFrame(FrameType::kClose, writer.Take())),
             /*require_error=*/true);
  }

  // 8: request-scoped errors must leave the connection usable — the
  // same client that was refused twice then opens a real session.
  if (!soak.OutOfTime()) {
    try {
      Client probe(soak.client_options);
      soak.Count(&NetSoakOutcome::fuzz_frames, 2);
      bool refused = false;
      try {
        const std::vector<BusAccess> one(1);
        probe.Submit(0xFFFFFFFFFFFFull, one);
      } catch (const WireError& e) {
        refused = e.status() == Status::kUnknownSession;
        soak.Count(&NetSoakOutcome::fuzz_errors);
      }
      if (!refused) fuzz_fail(8, "unknown-session SUBMIT was not refused");
      refused = false;
      try {
        OpenRequest bogus;
        bogus.codec = "no-such-codec";
        probe.Open(bogus);
      } catch (const WireError& e) {
        refused = e.status() == Status::kBadConfig;
        soak.Count(&NetSoakOutcome::fuzz_errors);
      }
      if (!refused) fuzz_fail(8, "bogus-codec OPEN was not refused");
      OpenRequest good;
      good.codec = "t0";
      const OpenReply opened = probe.Open(good);
      probe.Close(opened.session_id);
    } catch (const WireError& e) {
      fuzz_fail(8, e.what());
    } catch (const NetError& e) {
      fuzz_fail(8, e.what());
    }
  }

  // 9: capability-gated frames on a connection that never negotiated
  // them (v1 HELLO) are framing violations — fatal ERROR, exactly like
  // an unknown frame type.
  {
    HelloRequest v1;
    v1.version_max = 1;
    std::vector<std::uint8_t> bytes = EncodeFrame(v1);
    const std::vector<std::uint8_t> frame =
        EncodeFrame(RenegotiateRequest{.session_id = 1, .codec = "gray"});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    raw_case(9, bytes, /*require_error=*/true);
  }
}

/// Post-fuzz health check: after everything else, the server must still
/// carry one clean session end to end through the gate — once on the
/// current protocol and once as a v1 client, which must complete
/// untouched by any v2 frame or field.
void RunHealthCheck(WireSoak& soak, std::size_t index) {
  if (soak.OutOfTime()) return;
  SoakSessionPlan health;
  health.index = index;
  health.codec_name = "t0";
  health.stream = verify::GenerateStream(
      verify::AllStreamFamilies()[0],
      verify::MixSeed(soak.options.seed ^ 0x4EA17ULL),
      std::max<std::size_t>(soak.options.length, 16),
      health.codec_options.width, health.codec_options.stride);
  WireSession(soak, health, WireLegs{}).Run();

  SoakSessionPlan legacy = health;
  legacy.index = index + 1;
  WireLegs v1;
  v1.old_version = true;
  WireSession(soak, legacy, v1).Run();
}

}  // namespace

service::ReadBack ReadBackOf(const StatsReply& stats) {
  service::ReadBack read_back;
  read_back.admitted = stats.accepted;
  read_back.result.stream_length = stats.stream_length;
  read_back.result.transitions = stats.transitions;
  read_back.result.peak_transitions = stats.peak_transitions;
  read_back.result.in_sequence_percent = stats.in_sequence_percent;
  read_back.result.per_line = stats.per_line;
  read_back.applied = stats.renegotiations;
  read_back.reset_points.assign(stats.reset_points.begin(),
                                stats.reset_points.end());
  read_back.transport = stats.transport;
  read_back.peak_queue_depth = stats.peak_queue_depth;
  read_back.degraded = stats.degraded;
  return read_back;
}

NetSoakOutcome RunNetSoak(const NetSoakOptions& options) {
  const service::SoakClock clock(options.time_budget_s);

  ServerConfig server_config;
  server_config.endpoint = options.endpoint;
  server_config.service = service::SoakServiceConfig(options);
  const std::size_t plan_length = options.length;
  server_config.fault_planner = [plan_length](std::uint64_t seed) {
    return service::PlanSoakFault(seed, plan_length);
  };
  Server server(std::move(server_config));
  server.Start();

  WireSoak soak(options, server.endpoint(), clock);

  // Plan every session up front.
  const unsigned clients = std::max(1u, options.clients);
  std::vector<SoakSessionPlan> plans = service::PlanSoakSessions(
      options, clients * std::max<std::size_t>(1, options.sessions_per_client));
  std::vector<WireLegs> legs;
  legs.reserve(plans.size());
  for (SoakSessionPlan& plan : plans) {
    legs.push_back(PlanWireLegs(plan, options));
  }

  // Concurrent wire clients, one thread per client, sessions sequential
  // within a thread; the fuzz swarm runs alongside.
  std::vector<std::thread> threads;
  threads.reserve(clients + options.fuzz_connections);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      for (std::size_t i = c; i < plans.size(); i += clients) {
        if (soak.OutOfTime()) return;
        WireSession(soak, plans[i], legs[i]).Run();
      }
    });
  }
  for (std::size_t f = 0; f < options.fuzz_connections; ++f) {
    threads.emplace_back([&, f]() { RunFuzzConnection(soak, f); });
  }
  for (std::thread& thread : threads) thread.join();

  RunHealthCheck(soak, plans.size());

  soak.outcome.server = server.stats();
  // After Stop() the loop has handled every CLOSE it read.
  server.Stop();
  soak.outcome.CheckReleased(server.service());
  soak.outcome.elapsed_s = clock.ElapsedSeconds();
  return std::move(soak.outcome);
}

}  // namespace abenc::net
