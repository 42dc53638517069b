#include "net/protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace abenc::net {

std::string FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:      return "HELLO";
    case FrameType::kHelloOk:    return "HELLO_OK";
    case FrameType::kOpen:       return "OPEN";
    case FrameType::kOpenOk:     return "OPEN_OK";
    case FrameType::kAttach:     return "ATTACH";
    case FrameType::kAttachOk:   return "ATTACH_OK";
    case FrameType::kSubmit:     return "SUBMIT";
    case FrameType::kSubmitAck:  return "SUBMIT_ACK";
    case FrameType::kDrainStats: return "DRAIN_STATS";
    case FrameType::kStats:      return "STATS";
    case FrameType::kClose:      return "CLOSE";
    case FrameType::kCloseOk:    return "CLOSE_OK";
    case FrameType::kRenegotiate:    return "RENEGOTIATE";
    case FrameType::kRenegotiateAck: return "RENEGOTIATE_ACK";
    case FrameType::kError:      return "ERROR";
    case FrameType::kSubmitStream:   return "SUBMIT_STREAM";
  }
  return "?";
}

std::string StatusName(Status status) {
  switch (status) {
    case Status::kOk:             return "ok";
    case Status::kSlowDown:       return "slow-down";
    case Status::kRejected:       return "rejected";
    case Status::kClosed:         return "closed";
    case Status::kBadMagic:       return "bad-magic";
    case Status::kBadVersion:     return "bad-version";
    case Status::kBadFrame:       return "bad-frame";
    case Status::kFrameTooLarge:  return "frame-too-large";
    case Status::kUnknownSession: return "unknown-session";
    case Status::kBadConfig:      return "bad-config";
    case Status::kBadToken:       return "bad-token";
    case Status::kNotAttached:    return "not-attached";
    case Status::kInternal:       return "internal";
    case Status::kRenegotiateRefused: return "renegotiate-refused";
  }
  return "?";
}

bool StatusIsFatal(Status status) {
  switch (status) {
    case Status::kBadMagic:
    case Status::kBadVersion:
    case Status::kBadFrame:
    case Status::kFrameTooLarge:
      return true;
    default:
      return false;
  }
}

Status AdmissionToStatus(service::Admission admission) {
  switch (admission) {
    case service::Admission::kAccepted: return Status::kOk;
    case service::Admission::kSlowDown: return Status::kSlowDown;
    case service::Admission::kRejected: return Status::kRejected;
    case service::Admission::kClosed:   return Status::kClosed;
  }
  return Status::kInternal;
}

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

// The wire's u64: one store on a little-endian host.
void StoreLe64(std::uint8_t* out, std::uint64_t v) {
  if constexpr (kLittleEndian) {
    std::memcpy(out, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> 8 * i);
  }
}

std::uint64_t LoadLe64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  if constexpr (kLittleEndian) {
    std::memcpy(&v, in, sizeof(v));
  } else {
    for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
  }
  return v;
}

}  // namespace

void Writer::U16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::U32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::U64(std::uint64_t v) { StoreLe64(Extend(8), v); }

void Writer::F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

void Writer::Bytes(std::span<const std::uint8_t> bytes) {
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

std::uint8_t* Writer::Extend(std::size_t n) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + n);
  return bytes_.data() + at;
}

void Writer::Str16(std::string_view text) {
  if (text.size() > 0xFFFF) {
    throw WireError(Status::kBadFrame,
                    "string field longer than 65535 bytes");
  }
  U16(static_cast<std::uint16_t>(text.size()));
  bytes_.insert(bytes_.end(), text.begin(), text.end());
}

void Reader::Need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw WireError(Status::kBadFrame,
                    "truncated payload: need " + std::to_string(n) +
                        " more byte(s) at offset " + std::to_string(pos_) +
                        " of " + std::to_string(bytes_.size()));
  }
}

std::uint8_t Reader::U8() {
  Need(1);
  return bytes_[pos_++];
}

std::uint16_t Reader::U16() {
  Need(2);
  std::uint16_t v = static_cast<std::uint16_t>(bytes_[pos_]) |
                    static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::U32() {
  Need(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | bytes_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t Reader::U64() { return LoadLe64(Bytes(8).data()); }

double Reader::F64() { return std::bit_cast<double>(U64()); }

std::string Reader::Str16() {
  const std::uint16_t len = U16();
  Need(len);
  std::string text(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return text;
}

std::span<const std::uint8_t> Reader::Bytes(std::size_t n) {
  Need(n);
  const std::span<const std::uint8_t> bytes = bytes_.subspan(pos_, n);
  pos_ += n;
  return bytes;
}

void Reader::ExpectEnd() const {
  if (remaining() != 0) {
    throw WireError(Status::kBadFrame,
                    std::to_string(remaining()) +
                        " trailing byte(s) after the payload");
  }
}

std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      std::span<const std::uint8_t> payload) {
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size() + 1);
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameLengthBytes + length);
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<std::uint8_t>(length >> shift));
  }
  frame.push_back(static_cast<std::uint8_t>(type));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::optional<Frame> TryExtractFrame(std::vector<std::uint8_t>& buffer,
                                     std::size_t max_frame_bytes) {
  if (buffer.size() < kFrameLengthBytes) return std::nullopt;
  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i) length = (length << 8) | buffer[i];
  if (length == 0) {
    throw WireError(Status::kBadFrame, "zero-length frame");
  }
  if (length > max_frame_bytes) {
    throw WireError(Status::kFrameTooLarge,
                    "frame of " + std::to_string(length) +
                        " bytes exceeds the cap of " +
                        std::to_string(max_frame_bytes));
  }
  if (buffer.size() < kFrameLengthBytes + length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(buffer[kFrameLengthBytes]);
  frame.payload.assign(
      buffer.begin() + static_cast<std::ptrdiff_t>(kFrameLengthBytes + 1),
      buffer.begin() +
          static_cast<std::ptrdiff_t>(kFrameLengthBytes + length));
  buffer.erase(buffer.begin(),
               buffer.begin() +
                   static_cast<std::ptrdiff_t>(kFrameLengthBytes + length));
  return frame;
}

void Put::Columns(std::span<const BusAccess> rows) {
  U32(rows.size());
  std::uint8_t* address = out_.Extend(rows.size() * 9);
  std::uint8_t* sel = address + rows.size() * 8;
  for (const BusAccess& access : rows) {
    StoreLe64(address, access.address);
    address += 8;
    *sel++ = access.sel ? 1 : 0;
  }
}

void Put::Columns(std::span<const Word> addresses,
                  std::span<const std::uint8_t> sel) {
  U32(addresses.size());
  std::uint8_t* out = out_.Extend(addresses.size() * 8 + sel.size());
  if (kLittleEndian && !addresses.empty()) {
    std::memcpy(out, addresses.data(), addresses.size_bytes());
  } else {
    for (std::size_t i = 0; i < addresses.size(); ++i) {
      StoreLe64(out + 8 * i, addresses[i]);
    }
  }
  std::ranges::copy(sel, out + addresses.size() * 8);
}

void Get::Columns(service::ColumnBatch& columns) {
  const std::uint32_t count = in_.U32();
  const std::size_t body = static_cast<std::size_t>(count) * 9;
  if (in_.remaining() != body) {
    throw WireError(Status::kBadFrame,
                    "columns declare " + std::to_string(count) +
                        " accesses (" + std::to_string(body) +
                        " body bytes) but carry " +
                        std::to_string(in_.remaining()));
  }
  const std::span<const std::uint8_t> bytes = in_.Bytes(body);
  columns.addresses.resize(count);
  if (kLittleEndian && count != 0) {
    std::memcpy(columns.addresses.data(), bytes.data(), body - count);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      columns.addresses[i] = LoadLe64(bytes.data() + 8 * i);
    }
  }
  columns.sel.assign(bytes.end() - count, bytes.end());
}

void Get::CheckCount(std::uint32_t count, std::size_t min_bytes,
                     const char* what) const {
  if (static_cast<std::size_t>(count) * min_bytes > in_.remaining()) {
    throw WireError(Status::kBadFrame,
                    std::string(what) + " count exceeds the payload");
  }
}

std::vector<std::uint8_t> EncodeSubmit(std::uint64_t session_id,
                                       std::span<const BusAccess> rows) {
  const struct {
    std::uint64_t session_id;
    std::span<const BusAccess> columns;
  } fields{session_id, rows};
  Put put;
  SubmitRequest::Walk(put, fields);
  return put.Take();
}

std::vector<std::uint8_t> EncodeSubmitStream(std::uint64_t session_id,
                                             std::uint64_t offset,
                                             bool want_ack,
                                             const Word* addresses,
                                             const std::uint8_t* sel,
                                             std::size_t count) {
  const struct {
    std::uint64_t session_id, offset;
    bool want_ack;
    struct {
      std::span<const Word> addresses;
      std::span<const std::uint8_t> sel;
    } columns;
  } fields{session_id, offset, want_ack, {{addresses, count}, {sel, count}}};
  Put put;
  SubmitStreamRequest::Walk(put, fields);
  return put.Take();
}

SubmitStreamRequest DecodeSubmitStream(std::span<const std::uint8_t> payload) {
  return Decode<SubmitStreamRequest>(payload);
}

StatsReply StatsFromReport(const service::SessionReport& report,
                           std::uint64_t accepted) {
  StatsReply stats;
  stats.session_id = report.id;
  stats.state = report.state == service::SessionState::kEvicted ? 1 : 0;
  stats.input_closed = report.input_closed;
  stats.degraded = report.degraded;
  stats.accepted = accepted;
  stats.stream_length = report.result.stream_length;
  stats.transitions = report.result.transitions;
  stats.peak_transitions = report.result.peak_transitions;
  stats.in_sequence_percent = report.result.in_sequence_percent;
  stats.per_line = report.result.per_line;
  stats.reset_points.assign(report.reset_points.begin(),
                            report.reset_points.end());
  stats.transport = report.transport;
  stats.readmissions = report.readmissions;
  stats.rejected_batches = report.rejected_batches;
  stats.peak_queue_depth = report.peak_queue_depth;
  stats.renegotiations = report.renegotiations;
  stats.active_codec = report.active_codec;
  return stats;
}

}  // namespace abenc::net
