#include "net/client.h"

#include <sys/socket.h>

#include <algorithm>
#include <deque>
#include <thread>
#include <utility>

namespace abenc::net {

template <typename Reply>
Reply Client::Receive() {
  const Frame frame = ReadFrame();
  if (frame.type == FrameType::kError) {
    const ErrorReply error = Decode<ErrorReply>(frame.payload);
    throw WireError(error.status, error.message);
  }
  if (frame.type != Reply::kFrame) {
    throw WireError(Status::kBadFrame,
                    "expected " + FrameTypeName(Reply::kFrame) + ", got " +
                        FrameTypeName(frame.type));
  }
  return Decode<Reply>(frame.payload, caps_);
}

template <typename Reply, typename Request>
Reply Client::Call(const Request& request) {
  SendRaw(EncodeFrame(request, caps_));
  return Receive<Reply>();
}

Client::Client(ClientOptions options) {
  const Endpoint endpoint = ParseEndpoint(options.endpoint);
  fd_ = DialEndpoint(endpoint, options.io_timeout);
  try {
    HelloRequest hello;
    hello.version_max = options.version_max;
    hello.capabilities = options.capabilities;
    const HelloReply reply = Call<HelloReply>(hello);
    max_frame_bytes_ = reply.max_frame_bytes;
    version_ = reply.version;
    caps_ = reply.capabilities;
  } catch (...) {
    Abort();
    throw;
  }
}

Client::~Client() { Abort(); }

OpenReply Client::Open(const OpenRequest& request) {
  return Call<OpenReply>(request);
}

AttachReply Client::Attach(std::uint64_t session_id, std::uint64_t token) {
  return Call<AttachReply>(
      AttachRequest{.session_id = session_id, .token = token});
}

SubmitAck Client::Submit(std::uint64_t session_id,
                         std::span<const BusAccess> batch) {
  SendRaw(EncodeFrame(FrameType::kSubmit, EncodeSubmit(session_id, batch)));
  return Receive<SubmitAck>();
}

StatsReply Client::DrainStats(std::uint64_t session_id, bool wait_drained) {
  return Call<StatsReply>(DrainStatsRequest{.session_id = session_id,
                                            .wait_drained = wait_drained});
}

RenegotiateReply Client::Renegotiate(std::uint64_t session_id,
                                     const std::string& codec) {
  if ((caps_ & kCapRenegotiate) == 0) {
    throw WireError(Status::kBadFrame,
                    "RENEGOTIATE requires the renegotiate capability");
  }
  return Call<RenegotiateReply>(
      RenegotiateRequest{.session_id = session_id, .codec = codec});
}

StreamSubmitResult Client::SubmitColumns(std::uint64_t session_id,
                                         const Word* addresses,
                                         const std::uint8_t* sel,
                                         std::uint64_t count,
                                         const StreamSubmitOptions& options) {
  if ((caps_ & kCapPipeline) == 0) {
    throw WireError(Status::kBadFrame,
                    "SUBMIT_STREAM requires the pipeline capability");
  }
  const std::size_t chunk = std::max<std::size_t>(1, options.chunk);
  const std::size_t window = std::max<std::size_t>(1, options.window);
  const std::size_t ack_interval =
      std::max<std::size_t>(1, options.ack_interval);

  struct InFlight {
    std::uint64_t offset = 0;
    std::size_t count = 0;
  };
  std::deque<InFlight> inflight;
  StreamSubmitResult result;
  std::uint64_t next = options.start;  // next lifetime index to send
  result.accepted = options.start;
  std::size_t since_ack = 0;

  // Receive one SUBMIT_ACK and fold it into the window state. Returns
  // false once the stream should stop (input closed server-side).
  const auto consume_ack = [&]() -> bool {
    const SubmitAck ack = Receive<SubmitAck>();
    if (!ack.recommended_codec.empty()) {
      result.last_recommendation = ack.recommended_codec;
    }
    result.accepted = ack.accepted;
    // Everything the server's count covers was admitted — including
    // unacked frames that preceded an acked one.
    while (!inflight.empty() &&
           inflight.front().offset + inflight.front().count <=
               ack.accepted) {
      inflight.pop_front();
    }
    if (ack.status == Status::kOk) return true;
    if (ack.status == Status::kSlowDown) {
      ++result.slowdowns;
      return true;
    }
    // kRejected (admission or offset guard) / kClosed: the acked frame
    // is the front of the deque — nothing of it was queued. Every frame
    // still in flight behind it will fail the offset guard, and each
    // such rejection is acked; drain those acks so the connection stays
    // in sync, then rewind to the server's authoritative count.
    ++result.rejections;
    if (!inflight.empty()) inflight.pop_front();
    const std::size_t trailing = inflight.size();
    inflight.clear();
    for (std::size_t i = 0; i < trailing; ++i) {
      result.accepted = Receive<SubmitAck>().accepted;
      ++result.rejections;
    }
    next = result.accepted;
    since_ack = 0;
    if (ack.status == Status::kClosed) {
      result.closed = true;
      return false;
    }
    // Admission rejection: give the queue a moment to drain before the
    // rewound frames go out again.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return true;
  };

  bool streaming = true;
  while (streaming && (next < count || !inflight.empty())) {
    while (next < count && inflight.size() < window) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk, count - next));
      ++since_ack;
      // The frame that fills the window and the final frame always ask
      // for an ack — otherwise a sparse ack_interval could leave the
      // loop waiting on an ack nobody owes it.
      const bool want_ack = since_ack >= ack_interval ||
                            inflight.size() + 1 == window ||
                            next + n == count;
      if (want_ack) since_ack = 0;
      SendRaw(EncodeFrame(FrameType::kSubmitStream,
                          EncodeSubmitStream(session_id, next, want_ack,
                                             addresses + next, sel + next,
                                             n)));
      inflight.push_back({next, n});
      next += n;
    }
    if (inflight.empty()) break;
    streaming = consume_ack();
  }
  return result;
}

CloseReply Client::Close(std::uint64_t session_id) {
  return Call<CloseReply>(CloseRequest{.session_id = session_id});
}

void Client::SendRaw(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) throw NetError("Client: socket already closed");
  SendAll(fd_, bytes.data(), bytes.size());
}

Frame Client::ReadFrame() {
  if (fd_ < 0) throw NetError("Client: socket already closed");
  for (;;) {
    std::optional<Frame> frame =
        TryExtractFrame(in_, static_cast<std::size_t>(max_frame_bytes_));
    if (frame.has_value()) return std::move(*frame);
    std::uint8_t chunk[65536];
    const std::size_t n = RecvSome(fd_, chunk, sizeof(chunk));
    if (n == 0) throw NetError("connection closed by server");
    in_.insert(in_.end(), chunk, chunk + n);
  }
}

void Client::ShutdownSend() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::Abort() {
  CloseFd(fd_);
  fd_ = -1;
}

}  // namespace abenc::net
