#include "wire.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/stream_evaluator.h"
#include "corpus.h"
#include "net/client.h"
#include "net/protocol.h"
#include "serve_child.h"
#include "trace/mmap_trace.h"

namespace perfbench {
namespace {

using abenc::BusAccess;
using abenc::CodecSwitchPoint;
using abenc::EvalResult;

constexpr std::size_t kSubmitRows = 256;    // rows per v1 SUBMIT
constexpr std::size_t kSwitchIndex = kInteractiveLength / 2;

/// A session and what its STATS must equal.
struct Plan : SessionSpec {
  EvalResult oracle;             // with the pinned switch, if any
  EvalResult oracle_unswitched;  // if the switch is refused
};

bool StatsMatch(const abenc::net::StatsReply& stats, const EvalResult& want,
                std::uint64_t length,
                const std::vector<CodecSwitchPoint>& schedule,
                const std::string& active_codec) {
  const abenc::service::TransportCounters& t = stats.transport;
  // A switch tears the FSMs down at its index, which the session reports
  // as a reset point; any other reset would change the accounting.
  for (const std::uint64_t reset : stats.reset_points) {
    if (std::none_of(schedule.begin(), schedule.end(),
                     [reset](const CodecSwitchPoint& s) {
                       return s.index == reset;
                     })) {
      return false;
    }
  }
  return stats.accepted == length && stats.stream_length == length &&
         stats.input_closed == false &&
         stats.transitions == want.transitions &&
         stats.peak_transitions == want.peak_transitions &&
         stats.in_sequence_percent == want.in_sequence_percent &&
         stats.per_line == want.per_line && stats.renegotiations == schedule &&
         stats.active_codec == active_codec && t.transfers == length &&
         t.clean + t.corrected + t.recovered + t.degraded_deliveries ==
             t.transfers;
}

class Wire final : public WireWorkload {
 public:
  Wire(const Options& options, WireShape shape)
      : options_(options), shape_(shape) {}
  ~Wire() override { Teardown(); }

  void Setup(Tracer& tracer) override {
    const bool bulk = shape_ == WireShape::kBulk;
    corpus_ = CaptureCorpus(tracer);
    const std::size_t jobs = JobsFor(options_.seconds);
    {
      ScopedSpan span(tracer, "bench.cut_windows");
      windows_ = CutWindows(corpus_, bulk ? kBulkLength : kInteractiveLength,
                            options_.seed);
      PlanJobs(jobs);
    }
    if (bulk) PackWindows(tracer);
    {
      ScopedSpan span(tracer, "bench.oracle");
      ComputeOracles();
    }
    {
      ScopedSpan span(tracer, "bench.spawn_server");
      std::vector<std::string> args = {"--shards", "2", "--parallelism", "2"};
      if (!bulk) {
        args.insert(args.end(), {"--fault-planner", "--fault-length",
                                 std::to_string(kInteractiveLength)});
      }
      server_ = std::make_unique<ServeChild>(options_.serve_path, args);
      counters_ = WireCounters{};
      Connect();
    }
    {
      ScopedSpan span(tracer, "bench.warmup");
      Tracer off(false);
      const std::size_t warmup = bulk ? 4 : 8;
      for (std::size_t job = 0; job < warmup; job += bulk ? 2 : 1) {
        PhaseResult result;
        if (bulk) {
          RunPair(job, off, result);
        } else {
          RunInteractive(job, off, result);
        }
        if (result.failed != 0) {
          throw std::runtime_error(Name() + ": warm-up job failed");
        }
      }
    }
  }

  void Teardown() override {
    client_.reset();
    if (server_) server_->Stop();
    server_.reset();
    sources_.clear();
    if (!pack_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(pack_dir_, ec);
      pack_dir_.clear();
    }
    plans_.clear();
    windows_.clear();
    corpus_ = Corpus{};
  }

  PhaseResult RunPhase(std::size_t jobs, Tracer& tracer) override {
    if (jobs > plans_.size()) {
      throw std::logic_error("RunPhase: more jobs than were planned");
    }
    PhaseResult result;
    timed_ = true;
    result.start_ns = NowNs();
    const bool bulk = shape_ == WireShape::kBulk;
    for (std::size_t job = 0; job < jobs; job += bulk ? 2 : 1) {
      if (NowNs() > options_.deadline_ns) {
        // Out of time (a wedged server): the rest count as failed.
        result.attempted += jobs - job;
        result.failed += jobs - job;
        break;
      }
      if (bulk) {
        RunPair(job, tracer, result);
      } else {
        RunInteractive(job, tracer, result);
      }
    }
    timed_ = false;
    return result;
  }

  std::size_t JobsFor(int seconds) const override {
    // Whole periods of the session rotation (64 jobs x 3 protections for
    // wire-interactive), so every seed runs the same mix.
    const std::size_t period = shape_ == WireShape::kBulk ? 2 : 192;
    const std::size_t per_second = shape_ == WireShape::kBulk ? 28 : 48;
    const std::size_t jobs = std::max<std::size_t>(
        100, static_cast<std::size_t>(seconds) * per_second);
    return (jobs + period - 1) / period * period;
  }

  double PeakRssMb() const override {
    return server_ ? server_->PeakRssMb() : 0.0;
  }
  const Corpus& corpus() const override { return corpus_; }
  WireCounters counters() const override { return counters_; }
  double ServerCpuSeconds() const override {
    return server_ ? server_->CpuSeconds() : 0.0;
  }
  std::string StopServer() override {
    client_.reset();
    return server_ ? server_->Stop() : std::string();
  }

 private:
  std::string Name() const {
    return shape_ == WireShape::kBulk ? "wire-bulk" : "wire-interactive";
  }

  std::span<const BusAccess> WindowOf(const Plan& plan) const {
    return View(corpus_, windows_[plan.window]);
  }

  void PlanJobs(std::size_t jobs) {
    plans_.clear();
    for (SessionSpec& spec :
         PlanSessions(options_.seed, shape_, jobs, windows_.size())) {
      plans_.push_back(Plan{std::move(spec), {}, {}});
    }
  }

  void PackWindows(Tracer& tracer) {
    ScopedSpan span(tracer, "trace.WriteColumnarTrace");
    pack_dir_ = (std::filesystem::path(options_.work_dir) /
                 ("bulk-" + std::to_string(::getpid())))
                    .string();
    std::filesystem::remove_all(pack_dir_);
    std::filesystem::create_directories(pack_dir_);
    const std::size_t used = std::min(windows_.size(), plans_.size());
    sources_.clear();
    for (std::size_t w = 0; w < used; ++w) {
      const std::string path = pack_dir_ + "/w" + std::to_string(w) + ".ctrace";
      WriteWindow(corpus_, windows_[w], path);
      sources_.push_back(std::make_unique<abenc::MmapTraceSource>(path));
      span.items += kBulkLength;
    }
  }

  void ComputeOracles() {
    // Bulk sessions repeat (window, codec) pairs; compute each once.
    std::map<std::pair<std::size_t, std::string>, EvalResult> cache;
    for (Plan& plan : plans_) {
      if (!plan.switch_to.empty()) {
        const std::vector<CodecSwitchPoint> schedule = {
            {kSwitchIndex, plan.switch_to}};
        plan.oracle = abenc::EvaluateWithSchedule(
            plan.codec, abenc::CodecOptions{}, WindowOf(plan), schedule, {});
      }
      const auto key = std::make_pair(plan.window, plan.codec);
      auto it = cache.find(key);
      if (it == cache.end()) {
        it = cache
                 .emplace(key, abenc::EvaluateWithSchedule(
                                   plan.codec, abenc::CodecOptions{},
                                   WindowOf(plan), {}, {}))
                 .first;
      }
      plan.oracle_unswitched = it->second;
      if (plan.switch_to.empty()) plan.oracle = it->second;
    }
  }

  void Connect() {
    client_.reset();
    abenc::net::ClientOptions options;
    options.endpoint = server_->endpoint();
    client_ = std::make_unique<abenc::net::Client>(options);
    ++counters_.connections;
  }

  abenc::net::OpenRequest OpenFor(const Plan& plan) const {
    abenc::net::OpenRequest open;  // default knobs: queue 4096, watermark 3072
    open.codec = plan.codec;
    open.protection = plan.protection;
    open.fault_seed = plan.fault_seed;
    return open;
  }

  /// Records a finished job; `ok` is its oracle check, made after its
  /// timed interval ended.
  void Finish(PhaseResult& result, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t accesses, bool ok, Tracer& tracer,
              std::int64_t job) {
    tracer.Add("bench.job", start_ns, end_ns, accesses, job);
    result.Record(start_ns, end_ns, accesses, ok);
  }

  bool Sabotaged(std::size_t job) const {
    return options_.sabotage_oracle && timed_ && job == 0;
  }

  /// Two bulk sessions in flight: their windows alternate slice by slice
  /// so both shards drain, then each is drained, checked and closed.
  void RunPair(std::size_t first, Tracer& tracer, PhaseResult& result) {
    abenc::net::StreamSubmitOptions stream;
    stream.chunk = 256;
    stream.window = 8;
    stream.ack_interval = 8;
    std::int64_t start[2] = {0, 0};
    std::int64_t end[2] = {0, 0};
    std::uint64_t ids[2] = {0, 0};
    abenc::net::StatsReply stats[2];
    bool ran = false;
    const int pair_span = tracer.Begin("bench.pair", first);
    try {
      if (!client_) Connect();
      for (int s = 0; s < 2; ++s) {
        start[s] = NowNs();
        ScopedSpan span(tracer, "net.Open", first + s);
        ids[s] = client_->Open(OpenFor(plans_[first + s])).session_id;
        ++counters_.sessions;
      }
      // The sessions alternate every 4-12 frames (1024-3072 accesses, 2048
      // on average). The seed picks each length, so the client's pacing
      // cannot phase-lock with the server's 1 ms sleeps (the shard's idle
      // backoff and the client's own backoff after a rejected window).
      Rng slices(options_.seed ^ (first * 0x2545F4914F6CDD1DULL));
      for (std::size_t at = 0, slice = 0; at < kBulkLength; at += slice) {
        slice = 256 * (4 + slices.Below(9));
        for (int s = 0; s < 2; ++s) {
          const Plan& plan = plans_[first + s];
          abenc::TraceColumns columns;
          {
            ScopedSpan span(tracer, "trace.ViewColumns", first + s);
            span.items = sources_[plan.window]->ViewColumns(0, kBulkLength,
                                                            &columns);
          }
          const std::size_t upto = std::min(at + slice, kBulkLength);
          stream.start = at;
          ScopedSpan span(tracer, "net.SubmitColumns", first + s);
          span.items = upto - at;
          const abenc::net::StreamSubmitResult sent = client_->SubmitColumns(
              ids[s], columns.addresses, columns.sel, upto, stream);
          counters_.stream_rejections += sent.rejections;
          counters_.stream_slowdowns += sent.slowdowns;
          if (sent.closed || sent.accepted != upto) {
            throw std::runtime_error("bulk stream stopped short");
          }
        }
      }
      // The session streamed last first: its DRAIN_STATS always waits for
      // the server's next poll tick, and the other session has drained by
      // then — one deterministic wait per pair instead of a random one.
      for (int s = 1; s >= 0; --s) {
        ScopedSpan span(tracer, "net.DrainStats", first + s);
        stats[s] = client_->DrainStats(ids[s], /*wait_drained=*/true);
      }
      for (int s = 0; s < 2; ++s) {
        {
          ScopedSpan span(tracer, "net.Close", first + s);
          client_->Close(ids[s]);
        }
        end[s] = NowNs();
      }
      ran = true;
    } catch (const std::exception&) {
      // WireError, NetError or a timeout: both jobs of the pair fail and
      // the next pair starts on a fresh connection.
      for (int s = 0; s < 2; ++s) {
        if (end[s] == 0) end[s] = NowNs();
        if (start[s] == 0) start[s] = end[s];
      }
      Reconnect();
    }
    tracer.End(pair_span, ran ? 2 * kBulkLength : 0);
    for (int s = 0; s < 2; ++s) {
      const std::size_t job = first + static_cast<std::size_t>(s);
      bool ok = false;
      if (ran) {
        EvalResult want = plans_[job].oracle;
        if (Sabotaged(job)) want.transitions += 1;
        ok = StatsMatch(stats[s], want, kBulkLength, {}, plans_[job].codec);
      }
      Finish(result, start[s], end[s], kBulkLength, ok, tracer,
             static_cast<std::int64_t>(job));
    }
  }

  /// One short session: OPEN, eight lock-step SUBMITs (with a pinned
  /// renegotiation half-way when planned), DRAIN_STATS(wait), CLOSE.
  void RunInteractive(std::size_t job, Tracer& tracer, PhaseResult& result) {
    const Plan& plan = plans_[job];
    const auto id_tag = static_cast<std::int64_t>(job);
    const std::span<const BusAccess> rows = WindowOf(plan);
    std::vector<CodecSwitchPoint> schedule;
    abenc::net::StatsReply stats;
    bool ran = false;
    const std::int64_t start = NowNs();
    const int job_span = tracer.Begin("bench.session", id_tag);
    try {
      if (!client_) Connect();
      std::uint64_t id = 0;
      {
        ScopedSpan span(tracer, "net.Open", id_tag);
        id = client_->Open(OpenFor(plan)).session_id;
        ++counters_.sessions;
      }
      for (std::size_t at = 0; at < kInteractiveLength; at += kSubmitRows) {
        if (at == kSwitchIndex && !plan.switch_to.empty()) {
          Renegotiate(id, plan, tracer, id_tag, schedule);
        }
        for (;;) {
          ScopedSpan span(tracer, "net.Submit", id_tag);
          span.items = kSubmitRows;
          const abenc::net::SubmitAck ack =
              client_->Submit(id, rows.subspan(at, kSubmitRows));
          if (ack.status == abenc::net::Status::kRejected) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;  // admission flow control: resubmit
          }
          if (ack.status != abenc::net::Status::kOk &&
              ack.status != abenc::net::Status::kSlowDown) {
            throw std::runtime_error("SUBMIT refused");
          }
          break;
        }
      }
      {
        ScopedSpan span(tracer, "net.DrainStats", id_tag);
        stats = client_->DrainStats(id, /*wait_drained=*/true);
      }
      {
        ScopedSpan span(tracer, "net.Close", id_tag);
        client_->Close(id);
      }
      ran = true;
    } catch (const std::exception&) {
      Reconnect();
    }
    const std::int64_t end = NowNs();
    tracer.End(job_span, ran ? kInteractiveLength : 0);
    bool ok = false;
    if (ran) {
      EvalResult want =
          schedule.empty() ? plan.oracle_unswitched : plan.oracle;
      if (Sabotaged(job)) want.transitions += 1;
      const std::string active =
          schedule.empty() ? plan.codec : schedule.back().codec_name;
      ok = StatsMatch(stats, want, kInteractiveLength, schedule, active);
    }
    Finish(result, start, end, kInteractiveLength, ok, tracer, id_tag);
  }

  void Renegotiate(std::uint64_t id, const Plan& plan, Tracer& tracer,
                   std::int64_t job, std::vector<CodecSwitchPoint>& schedule) {
    ScopedSpan span(tracer, "net.Renegotiate", job);
    try {
      const abenc::net::RenegotiateReply reply =
          client_->Renegotiate(id, plan.switch_to);
      if (reply.switch_index != kSwitchIndex || reply.codec != plan.switch_to) {
        throw std::runtime_error("switch pinned at an unexpected index");
      }
      schedule.push_back({kSwitchIndex, plan.switch_to});
    } catch (const abenc::net::WireError& e) {
      // A refused switch leaves the schedule empty; STATS shows it.
      if (e.status() != abenc::net::Status::kRenegotiateRefused) throw;
    }
  }

  void Reconnect() {
    try {
      Connect();
    } catch (const std::exception&) {
      client_.reset();  // the next job fails fast on a null client
    }
  }

  const Options options_;
  const WireShape shape_;
  Corpus corpus_;
  std::vector<Window> windows_;
  std::vector<Plan> plans_;
  std::string pack_dir_;
  std::vector<std::unique_ptr<abenc::MmapTraceSource>> sources_;
  std::unique_ptr<ServeChild> server_;
  std::unique_ptr<abenc::net::Client> client_;
  WireCounters counters_;
  bool timed_ = false;  // inside RunPhase (warm-up jobs are never sabotaged)
};

}  // namespace

std::vector<SessionSpec> PlanSessions(std::uint64_t seed, WireShape shape,
                                      std::size_t jobs, std::size_t windows) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const std::size_t codec_offset = rng.Below(4);
  const std::size_t protection_offset = rng.Below(3);
  const std::size_t fault_offset = rng.Below(4);
  const std::size_t switch_offset = rng.Below(4);

  std::vector<SessionSpec> specs(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    SessionSpec& spec = specs[j];
    spec.window = j % windows;
    if (shape == WireShape::kBulk) {
      spec.codec = kBulkCodecs[(j + codec_offset) % std::size(kBulkCodecs)];
      continue;
    }
    const std::size_t codec = (j + codec_offset) % std::size(kInteractiveCodecs);
    spec.codec = kInteractiveCodecs[codec];
    spec.protection = static_cast<std::uint8_t>((j + protection_offset) % 3);
    // Two diagonals of the 4x4 (job mod 4, block of 4) grid: one session
    // in four is faulted, and in three blocks of 16 out of four a second
    // diagonal renegotiates — one clean session in four. Every codec gets
    // the same share of faults and switches for every offset, so a
    // seed changes which sessions do what but not how many.
    const std::size_t diagonal = (j + j / 4 + fault_offset) % 4;
    if (diagonal == 0) {
      spec.fault_seed = rng.Next() | 1;
    } else if (diagonal == 2 && (j / 16 + switch_offset) % 4 != 0) {
      spec.switch_to =
          kInteractiveCodecs[(codec + 1) % std::size(kInteractiveCodecs)];
    }
  }
  return specs;
}

std::unique_ptr<WireWorkload> MakeWire(const Options& options,
                                       WireShape shape) {
  return std::make_unique<Wire>(options, shape);
}

}  // namespace perfbench
