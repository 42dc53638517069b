#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace abenc::service {

std::string AdmissionName(Admission admission) {
  switch (admission) {
    case Admission::kAccepted: return "accepted";
    case Admission::kSlowDown: return "slow-down";
    case Admission::kRejected: return "rejected";
    case Admission::kClosed:   return "closed";
  }
  return "?";
}

std::string SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kActive:  return "active";
    case SessionState::kEvicted: return "evicted";
  }
  return "?";
}

std::string RenegotiateStatusName(RenegotiateStatus status) {
  switch (status) {
    case RenegotiateStatus::kScheduled:         return "scheduled";
    case RenegotiateStatus::kApplied:           return "applied";
    case RenegotiateStatus::kRefusedBadCodec:   return "refused-bad-codec";
    case RenegotiateStatus::kRefusedClosed:     return "refused-closed";
    case RenegotiateStatus::kRefusedDegraded:   return "refused-degraded";
    case RenegotiateStatus::kRefusedRecovering: return "refused-recovering";
    case RenegotiateStatus::kRefusedPending:    return "refused-pending";
    case RenegotiateStatus::kRefusedUnchanged:  return "refused-unchanged";
  }
  return "?";
}

ServiceMetrics ServiceMetrics::Resolve() {
  ServiceMetrics m;
  obs::MetricsRegistry* registry = obs::Installed();
  if (registry == nullptr) return m;
  m.sessions_opened = &registry->GetCounter("service.sessions.opened");
  m.sessions_closed = &registry->GetCounter("service.sessions.closed");
  m.sessions_evicted = &registry->GetCounter("service.sessions.evicted");
  m.sessions_readmitted =
      &registry->GetCounter("service.sessions.readmitted");
  m.sessions_degraded = &registry->GetCounter("service.sessions.degraded");
  m.submitted_accesses =
      &registry->GetCounter("service.submit.accepted_accesses");
  m.slowdown_batches =
      &registry->GetCounter("service.submit.slowdown_batches");
  m.rejected_batches =
      &registry->GetCounter("service.submit.rejected_batches");
  m.processed_accesses = &registry->GetCounter("service.processed_accesses");
  m.transfers_clean = &registry->GetCounter("service.transfers.clean");
  m.transfers_corrected =
      &registry->GetCounter("service.transfers.corrected");
  m.transfers_recovered =
      &registry->GetCounter("service.transfers.recovered");
  m.transfers_degraded = &registry->GetCounter("service.transfers.degraded");
  m.retries = &registry->GetCounter("service.recovery.retries");
  m.forced_resyncs = &registry->GetCounter("service.recovery.forced_resyncs");
  m.shard_steps = &registry->GetCounter("service.shard.steps");
  m.shard_errors = &registry->GetCounter("service.shard.errors");
  m.watchdog_checks = &registry->GetCounter("service.watchdog.checks");
  m.watchdog_failovers = &registry->GetCounter("service.watchdog.failovers");
  m.queue_high_watermark =
      &registry->GetGauge("service.queue.high_watermark");
  return m;
}

Session::Session(std::uint64_t id, SessionConfig config,
                 const ServiceMetrics* metrics)
    : id_(id),
      config_(std::move(config)),
      metrics_(metrics),
      mask_(LowMask(config_.codec_options.width)),
      acc_codec_(MakeCodec(config_.codec_name, config_.codec_options)),
      accounting_(acc_codec_->width(), acc_codec_->redundant_lines(),
                  config_.stride_for_stats),
      acc_codec_name_(acc_codec_->name()),
      active_codec_name_(config_.codec_name),
      stats_tracker_(config_.codec_options.width, config_.stride_for_stats,
                     config_.stats_window) {
  BuildTransport();
}

void Session::BuildFsms() {
  acc_codec_ = MakeCodec(active_codec_name_, config_.codec_options);
  accounting_.StartSegment(acc_codec_->width(),
                           acc_codec_->redundant_lines());
  acc_codec_name_ = acc_codec_->name();
  BuildTransport();
}

void Session::BuildTransport() {
  ChannelConfig channel_config;
  channel_config.codec_name = active_codec_name_;
  channel_config.codec_options = config_.codec_options;
  channel_config.protection = config_.protection;
  channel_config.resync_period = config_.resync_period;
  channel_config.enable_recovery = config_.channel_recovery;
  channel_ = std::make_unique<BusChannel>(channel_config);
  if (config_.fault_installer) config_.fault_installer(*channel_);
  degraded_ = false;
}

Admission Session::Submit(std::span<const BusAccess> batch) {
  if (batch.empty()) return Admission::kAccepted;
  ColumnBatch columns;
  columns.addresses.reserve(batch.size());
  columns.sel.reserve(batch.size());
  for (const BusAccess& access : batch) {
    columns.addresses.push_back(access.address);
    columns.sel.push_back(access.sel ? 1 : 0);
  }
  return SubmitColumns(std::move(columns));
}

Admission Session::SubmitColumns(ColumnBatch&& batch) {
  if (batch.addresses.size() != batch.sel.size() || batch.offset != 0) {
    throw std::invalid_argument(
        "Session::SubmitColumns: malformed batch (column lengths " +
        std::to_string(batch.addresses.size()) + "/" +
        std::to_string(batch.sel.size()) + ", offset " +
        std::to_string(batch.offset) + ")");
  }
  const std::size_t size = batch.size();
  if (size == 0) return Admission::kAccepted;
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (input_closed_) return Admission::kClosed;
  if (queue_accesses_ + size > config_.queue_capacity) {
    ++rejected_batches_;
    Bump(metrics_->rejected_batches);
    return Admission::kRejected;
  }
  queue_accesses_ += size;
  queue_.push_back(std::move(batch));
  queued_.fetch_add(size, std::memory_order_release);
  peak_queue_depth_ = std::max(peak_queue_depth_, queue_accesses_);
  Bump(metrics_->submitted_accesses, size);
  if (metrics_->queue_high_watermark) {
    metrics_->queue_high_watermark->UpdateMax(
        static_cast<double>(queue_accesses_));
  }
  if (queue_accesses_ > config_.slowdown_watermark) {
    Bump(metrics_->slowdown_batches);
    return Admission::kSlowDown;
  }
  return Admission::kAccepted;
}

void Session::CloseInput() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (!input_closed_) {
    input_closed_ = true;
    Bump(metrics_->sessions_closed);
  }
}

std::size_t Session::DrainStep(std::size_t max_accesses) {
  std::lock_guard<std::mutex> drain(drain_mutex_);
  drained_.clear();
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> queue(queue_mutex_);
    if (queue_.empty()) {
      idle_steps_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    // Move whole batches out until the access budget is met; only the
    // last can end up partially processed. The vectors move — the
    // columns decoded off the wire are never copied again.
    while (!queue_.empty() && n < max_accesses) {
      const std::size_t remaining = queue_.front().remaining();
      const std::size_t take = std::min(max_accesses - n, remaining);
      n += take;
      drained_.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (take < remaining) break;
    }
    // Free admission capacity for exactly the accesses this step will
    // process; a partial batch's unprocessed tail stays counted until a
    // later step takes it (same depths the flat row queue exposed).
    queue_accesses_ -= n;
  }
  idle_steps_.store(0, std::memory_order_relaxed);
  if (state_ == SessionState::kEvicted) {
    // A switch pinned exactly to the eviction index applies as a name
    // change here, so Readmit builds the new codec once instead of the
    // old one being rebuilt and immediately replaced.
    if (pending_switch_ &&
        pending_switch_->index ==
            processed_.load(std::memory_order_relaxed)) {
      const std::string codec = std::move(pending_switch_->codec_name);
      pending_switch_.reset();
      ApplySwitchLocked(codec);
    }
    Readmit();
  }
  std::size_t left = n;
  for (ColumnBatch& batch : drained_) {
    const std::size_t take = std::min(left, batch.remaining());
    ProcessColumns(batch.addresses.data() + batch.offset,
                   batch.sel.data() + batch.offset, take);
    batch.offset += take;
    left -= take;
  }
  Bump(metrics_->processed_accesses, n);
  if (!drained_.empty() && drained_.back().remaining() > 0) {
    std::lock_guard<std::mutex> queue(queue_mutex_);
    queue_.push_front(std::move(drained_.back()));
  }
  drained_.clear();
  queued_.fetch_sub(n, std::memory_order_release);
  return n;
}

void Session::ProcessColumns(const Word* addresses, const std::uint8_t* sel,
                             std::size_t count) {
  std::size_t i = 0;
  while (i < count) {
    std::size_t run = count - i;
    if (pending_switch_) {
      const std::uint64_t processed =
          processed_.load(std::memory_order_relaxed);
      if (processed == pending_switch_->index) {
        const std::string codec = std::move(pending_switch_->codec_name);
        pending_switch_.reset();
        ApplySwitchLocked(codec);
      } else if (processed < pending_switch_->index) {
        run = std::min<std::size_t>(
            run, static_cast<std::size_t>(pending_switch_->index - processed));
      }
    }
    ProcessRun(addresses + i, sel + i, run);
    i += run;
  }
  // A switch pinned exactly to the end of the processed prefix applies
  // now — there may never be another access to trigger the split, and
  // the schedule must not leave an acked switch forever pending.
  if (pending_switch_ &&
      processed_.load(std::memory_order_relaxed) == pending_switch_->index) {
    const std::string codec = std::move(pending_switch_->codec_name);
    pending_switch_.reset();
    ApplySwitchLocked(codec);
  }
}

void Session::ProcessRun(const Word* addresses, const std::uint8_t* sel,
                         std::size_t count) {
  // Accounting: the transmitter-side FSM through its batched path (SIMD
  // kernels) into the stream accumulator — EvaluateBatched's arithmetic,
  // bit-identical to per-word Encode by the batched-identity property.
  states_.resize(count);
  const std::span<BusState> states(states_.data(), count);
  acc_codec_->EncodeColumns(addresses, sel, count, states);
  accounting_.Consume(states, simd::AddressView{addresses, 1});
  stats_tracker_.ObserveColumns(addresses, sel, count);
  processed_.fetch_add(count, std::memory_order_relaxed);
  for (std::size_t k = 0; k < count; ++k) {
    TransferOne(addresses[k], sel[k] != 0);
  }
}

void Session::TransferOne(Word address, bool sel) {
  // Delivery over the faultable transport, then the recovery ladder.
  const Word expected = address & mask_;
  Word got = channel_->Transfer(address, sel);
  const bool flagged = channel_->last_cycle_flagged();
  ++transport_.transfers;
  if (got == expected) {
    if (flagged) {
      ++transport_.corrected;
      Bump(metrics_->transfers_corrected);
    } else {
      ++transport_.clean;
      Bump(metrics_->transfers_clean);
    }
    return;
  }
  if (!degraded_) {
    for (unsigned attempt = 0; attempt < config_.max_retries; ++attempt) {
      ++transport_.retries;
      Bump(metrics_->retries);
      if (attempt > 0) {
        // Attempt-scaled backoff: a real deployment would pace resends
        // to let a transient disturbance die out.
        std::this_thread::sleep_for(
            std::chrono::microseconds(1u << std::min(attempt, 6u)));
      }
      channel_->ForceResync();
      ++transport_.forced_resyncs;
      Bump(metrics_->forced_resyncs);
      got = channel_->Transfer(address, sel);
      if (got == expected) {
        ++transport_.recovered;
        Bump(metrics_->transfers_recovered);
        return;
      }
    }
    // Retries cannot heal this channel (a hard fault): degrade the
    // transport to stateless binary so each further fault costs one
    // address instead of a history smear.
    degraded_ = true;
    ever_degraded_ = true;
    channel_->ForceFallback();
    Bump(metrics_->sessions_degraded);
  }
  ++transport_.degraded_deliveries;
  Bump(metrics_->transfers_degraded);
}

bool Session::Evict() {
  std::lock_guard<std::mutex> drain(drain_mutex_);
  std::lock_guard<std::mutex> queue(queue_mutex_);
  if (state_ != SessionState::kActive || !queue_.empty()) return false;
  reset_points_.push_back(
      static_cast<std::size_t>(processed_.load(std::memory_order_relaxed)));
  acc_codec_.reset();
  channel_.reset();
  state_ = SessionState::kEvicted;
  Bump(metrics_->sessions_evicted);
  return true;
}

void Session::Readmit() {
  // drain_mutex_ held. A fresh FSM encodes exactly like a Reset() one
  // (the reset-replay property), so accounting from here on is the next
  // EvaluateWithSchedule() segment — with the line geometry of whatever
  // codec a renegotiation while evicted left active.
  BuildFsms();
  {
    std::lock_guard<std::mutex> queue(queue_mutex_);
    state_ = SessionState::kActive;
  }
  ++readmissions_;
  Bump(metrics_->sessions_readmitted);
}

RenegotiateOutcome Session::Renegotiate(const std::string& codec_name) {
  RenegotiateOutcome outcome;
  outcome.codec_name = codec_name;
  try {
    (void)MakeCodec(codec_name, config_.codec_options);
  } catch (const std::exception&) {
    outcome.status = RenegotiateStatus::kRefusedBadCodec;
    return outcome;
  }
  std::lock_guard<std::mutex> drain(drain_mutex_);
  std::lock_guard<std::mutex> queue(queue_mutex_);
  if (input_closed_) {
    outcome.status = RenegotiateStatus::kRefusedClosed;
    return outcome;
  }
  if (ever_degraded_) {
    outcome.status = RenegotiateStatus::kRefusedDegraded;
    return outcome;
  }
  if (pending_switch_) {
    outcome.status = RenegotiateStatus::kRefusedPending;
    return outcome;
  }
  // Mid-recovery the channel's demote/promote FSM owns the transport;
  // tearing it down for a new codec would half-apply the ladder. Defer:
  // the client retries once the channel promotes back.
  if (channel_ && channel_->mode() == ChannelMode::kFallback) {
    outcome.status = RenegotiateStatus::kRefusedRecovering;
    return outcome;
  }
  if (codec_name == active_codec_name_) {
    outcome.status = RenegotiateStatus::kRefusedUnchanged;
    return outcome;
  }
  // Pin to the lifetime admitted count: with the drain lock held there
  // is no in-flight batch, so processed + queued is exact, and every
  // admitted access is unambiguously before or after the switch.
  const std::uint64_t processed = processed_.load(std::memory_order_relaxed);
  const std::uint64_t admitted = processed + queue_accesses_;
  outcome.switch_index = admitted;
  if (admitted == processed) {
    ApplySwitchLocked(codec_name);
    outcome.status = RenegotiateStatus::kApplied;
  } else {
    pending_switch_ = CodecSwitchPoint{
        static_cast<std::size_t>(admitted), codec_name};
    outcome.status = RenegotiateStatus::kScheduled;
  }
  return outcome;
}

void Session::ApplySwitchLocked(const std::string& codec_name) {
  const std::uint64_t index = processed_.load(std::memory_order_relaxed);
  active_codec_name_ = codec_name;
  // When evicted, the FSMs are torn down and the eviction already logged
  // this index as a reset point — Readmit builds the new codec.
  if (state_ == SessionState::kActive) {
    reset_points_.push_back(static_cast<std::size_t>(index));
    BuildFsms();
  }
  renegotiations_.push_back(
      CodecSwitchPoint{static_cast<std::size_t>(index), codec_name});
}

std::optional<RenegotiationSnapshot> Session::StatsSnapshot() const {
  std::unique_lock<std::mutex> drain(drain_mutex_, std::try_to_lock);
  if (!drain.owns_lock()) return std::nullopt;
  RenegotiationSnapshot snapshot;
  snapshot.window = stats_tracker_.completed();
  snapshot.windows_completed = stats_tracker_.windows_completed();
  snapshot.width = stats_tracker_.width();
  snapshot.active_codec = active_codec_name_;
  snapshot.switch_pending = pending_switch_.has_value();
  snapshot.degraded = ever_degraded_;
  return snapshot;
}

SessionState Session::state() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return state_;
}

SessionReport Session::Report() const {
  std::lock_guard<std::mutex> drain(drain_mutex_);
  std::lock_guard<std::mutex> queue(queue_mutex_);
  SessionReport report;
  report.id = id_;
  report.codec_name = acc_codec_name_;
  report.state = state_;
  report.input_closed = input_closed_;
  report.degraded = ever_degraded_;
  report.transport = transport_;
  report.reset_points = reset_points_;
  report.renegotiations = renegotiations_;
  report.active_codec = active_codec_name_;
  report.readmissions = readmissions_;
  report.rejected_batches = rejected_batches_;
  report.peak_queue_depth = peak_queue_depth_;

  report.result = accounting_.Result();
  report.result.codec_name = acc_codec_name_;
  return report;
}

}  // namespace abenc::service
