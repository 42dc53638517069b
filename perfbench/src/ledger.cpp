#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "channel/bus_channel.h"
#include "core/codec_factory.h"
#include "core/codec_kernel.h"
#include "core/stream_evaluator.h"
#include "core/trace_source.h"
#include "corpus.h"
#include "net/protocol.h"
#include "offline.h"
#include "serve_child.h"
#include "service/service.h"
#include "service/session.h"
#include "service/soak.h"
#include "trace/mmap_trace.h"

namespace perfbench {
namespace {

using abenc::BusAccess;
using abenc::BusState;

// Replay sizes: small enough that the ledger adds a few seconds, large
// enough that each row sums thousands of calls or millions of accesses.
constexpr std::size_t kCoreWindows = 16;
constexpr std::size_t kBulkWindows = 4;
constexpr std::size_t kInteractiveSessions = 128;
constexpr std::size_t kChunk = 256;            // SUBMIT_STREAM chunk, drain step
constexpr std::size_t kReadBytes = 65536;      // the server's recv accumulator

double MedianOf(const std::map<std::string, SpanStats>& stats,
                const std::string& name, double q = 0.5) {
  auto it = stats.find(name);
  return it == stats.end() ? 0.0 : Percentile(it->second.durations_ns, q);
}

double NsPerItem(const std::map<std::string, SpanStats>& stats,
                 const std::string& name) {
  auto it = stats.find(name);
  return it == stats.end() ? 0.0 : it->second.ns_per_item();
}

abenc::service::SessionConfig ConfigFor(const SessionSpec& spec) {
  abenc::service::SessionConfig config;  // default knobs
  config.codec_name = spec.codec;
  config.protection = spec.protection == 0   ? abenc::Protection::kNone
                      : spec.protection == 1 ? abenc::Protection::kParity
                                             : abenc::Protection::kSecded;
  if (spec.fault_seed != 0) {
    config.fault_installer =
        abenc::service::PlanSoakFault(spec.fault_seed, kInteractiveLength);
  }
  return config;
}

/// The windows and session specs of every workload, cut exactly as the
/// workloads cut them at this seed.
struct Inputs {
  std::vector<Window> offline;
  std::vector<Window> bulk;
  std::vector<SessionSpec> bulk_specs;
  std::vector<Window> interactive;
  std::vector<SessionSpec> interactive_specs;
};

void ReplayCore(const Corpus& corpus, const Inputs& in, Tracer& tracer) {
  std::vector<std::string> palette = {"binary"};
  palette.insert(palette.end(), PaperPalette().begin(), PaperPalette().end());
  std::vector<BusState> states(abenc::kDefaultChunkSize);
  for (std::size_t w = 0; w < std::min(kCoreWindows, in.offline.size());
       ++w) {
    const std::span<const BusAccess> window = View(corpus, in.offline[w]);
    const Columns columns = ToColumns(window);
    const abenc::SpanTraceSource source(window);
    for (const std::string& name : palette) {
      abenc::CodecPtr codec = abenc::MakeCodec(name);
      abenc::BlockTransitionAccumulator sweep(codec->width(),
                                              codec->redundant_lines());
      for (std::size_t at = 0; at < window.size();
           at += abenc::kDefaultChunkSize) {
        const std::size_t n =
            std::min(abenc::kDefaultChunkSize, window.size() - at);
        const std::span<BusState> block(states.data(), n);
        {
          ScopedSpan span(tracer, "core.EncodeColumns");
          span.items = n;
          codec->EncodeColumns(columns.addresses.data() + at,
                               columns.sel.data() + at, n, block);
        }
        ScopedSpan span(tracer, "core.BlockTransitionAccumulator::Consume");
        span.items = n;
        sweep.Consume(block);
      }
      for (const bool verify : {true, false}) {
        abenc::CodecPtr fresh = abenc::MakeCodec(name);
        ScopedSpan span(tracer, verify ? "core.EvaluateBatched.verify"
                                       : "core.EvaluateBatched.noverify");
        span.items = window.size();
        (void)abenc::EvaluateBatched(*fresh, source, 4, verify);
      }
    }
  }
  for (std::size_t s = 0;
       s < std::min(kInteractiveSessions, in.interactive.size()); ++s) {
    const Columns columns = ToColumns(View(corpus, in.interactive[s]));
    abenc::CodecPtr codec = abenc::MakeCodec("adaptive");
    std::vector<BusState> out(columns.addresses.size());
    ScopedSpan span(tracer, "core.EncodeColumns.adaptive");
    span.items = out.size();
    codec->EncodeColumns(columns.addresses.data(), columns.sel.data(),
                         out.size(), out);
  }
}

void TransferAll(abenc::BusChannel& channel, const Columns& columns,
                 Tracer& tracer, const std::string& name) {
  ScopedSpan span(tracer, name);
  span.items = columns.addresses.size();
  for (std::size_t i = 0; i < columns.addresses.size(); ++i) {
    (void)channel.Transfer(columns.addresses[i], columns.sel[i] != 0);
  }
}

void ReplayChannel(const Corpus& corpus, const Inputs& in, Tracer& tracer) {
  for (std::size_t w = 0; w < std::min(kBulkWindows, in.bulk.size()); ++w) {
    const Columns columns = ToColumns(View(corpus, in.bulk[w]));
    for (const auto protection :
         {abenc::Protection::kSecded, abenc::Protection::kNone}) {
      abenc::ChannelConfig config;
      config.codec_name = in.bulk_specs[w].codec;
      config.protection = protection;
      abenc::BusChannel channel(config);
      TransferAll(channel, columns, tracer,
                  protection == abenc::Protection::kSecded
                      ? "channel.Transfer.secded"
                      : "channel.Transfer.none");
    }
    // The accounting loop's share of the same inputs: the session codec
    // encoded in DrainStep-sized runs.
    abenc::CodecPtr codec = abenc::MakeCodec(in.bulk_specs[w].codec);
    std::vector<BusState> states(kChunk);
    ScopedSpan span(tracer, "core.EncodeColumns.bulk");
    span.items = columns.addresses.size();
    for (std::size_t at = 0; at < columns.addresses.size(); at += kChunk) {
      const std::size_t n = std::min(kChunk, columns.addresses.size() - at);
      codec->EncodeColumns(columns.addresses.data() + at,
                           columns.sel.data() + at, n,
                           std::span<BusState>(states.data(), n));
    }
  }
  for (std::size_t s = 0;
       s < std::min(kInteractiveSessions, in.interactive.size()); ++s) {
    const SessionSpec& spec = in.interactive_specs[s];
    abenc::ChannelConfig config;
    config.codec_name = spec.codec;
    config.protection = ConfigFor(spec).protection;
    std::unique_ptr<abenc::BusChannel> channel;
    {
      ScopedSpan span(tracer, "channel.BusChannel");
      channel = std::make_unique<abenc::BusChannel>(config);
    }
    if (spec.fault_seed == 0) continue;
    ConfigFor(spec).fault_installer(*channel);
    TransferAll(*channel, ToColumns(View(corpus, in.interactive[s])), tracer,
                "channel.Transfer.faulted");
  }
}

struct FaultTally {
  std::uint64_t accesses = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded = 0;
};

FaultTally ReplayService(const Corpus& corpus, const Inputs& in,
                         Tracer& tracer) {
  namespace svc = abenc::service;
  const svc::ServiceMetrics inert;  // no registry: every counter is inert
  FaultTally faults;
  // Interactive sessions through Session directly: the v1 row path, a
  // drain, and the recovery ladder's counters for the faulted ones.
  for (std::size_t s = 0;
       s < std::min(kInteractiveSessions, in.interactive.size()); ++s) {
    const SessionSpec& spec = in.interactive_specs[s];
    const std::span<const BusAccess> rows = View(corpus, in.interactive[s]);
    svc::Session session(s + 1, ConfigFor(spec), &inert);
    for (std::size_t at = 0; at < rows.size(); at += kChunk) {
      ScopedSpan span(tracer, "service.Session::Submit");
      span.items = kChunk;
      (void)session.Submit(rows.subspan(at, kChunk));
    }
    while (session.queued() != 0) session.DrainStep(kChunk);
    if (spec.fault_seed != 0) {
      const svc::SessionReport report = session.Report();
      faults.accesses += rows.size();
      faults.retries += report.transport.retries;
      faults.degraded += report.transport.degraded_deliveries;
    }
  }
  // Bulk windows through Session directly: SubmitColumns and DrainStep
  // with default knobs (SECDED, queue 4096).
  for (std::size_t w = 0; w < std::min(kBulkWindows, in.bulk.size()); ++w) {
    const Columns columns = ToColumns(View(corpus, in.bulk[w]));
    svc::SessionConfig config;
    config.codec_name = in.bulk_specs[w].codec;
    svc::Session session(w + 1, config, &inert);
    const std::size_t total = columns.addresses.size();
    for (std::size_t at = 0; at < total; at += kChunk) {
      const std::size_t n = std::min(kChunk, total - at);
      svc::ColumnBatch batch;
      batch.addresses.assign(columns.addresses.begin() + at,
                             columns.addresses.begin() + at + n);
      batch.sel.assign(columns.sel.begin() + at, columns.sel.begin() + at + n);
      {
        ScopedSpan span(tracer, "service.Session::SubmitColumns");
        span.items = n;
        (void)session.SubmitColumns(std::move(batch));
      }
      if (session.queued() < 2048 && at + n < total) continue;
      while (session.queued() != 0) {
        ScopedSpan span(tracer, "service.Session::DrainStep");
        span.items = session.DrainStep(kChunk);
      }
    }
  }
  // Per-call costs through an undriven service (StepAll drains).
  svc::ServiceConfig service_config;
  service_config.shards = 2;
  service_config.start_drivers = false;
  service_config.enable_watchdog = false;
  svc::EncodingService service(service_config);
  for (std::size_t s = 0;
       s < std::min(kInteractiveSessions, in.interactive.size()); ++s) {
    const SessionSpec& spec = in.interactive_specs[s];
    std::uint64_t id = 0;
    {
      ScopedSpan span(tracer, "service.OpenSession");
      id = service.OpenSession(ConfigFor(spec));
    }
    (void)service.Submit(id, View(corpus, in.interactive[s]));
    while (service.SessionQueued(id) != 0) service.StepAll();
    {
      ScopedSpan span(tracer, "service.Report");
      (void)service.Report(id);
    }
    if (spec.fault_seed == 0) {
      const std::string to = spec.codec == "t0" ? "bus-invert" : "t0";
      ScopedSpan span(tracer, "service.Renegotiate");
      (void)service.Renegotiate(id, to);
    }
    service.CloseSession(id);
  }
  return faults;
}

void ReplayDrainLag(const Corpus& corpus, const Inputs& in, Tracer& tracer) {
  namespace svc = abenc::service;
  svc::ServiceConfig config;
  config.shards = 2;
  config.parallelism = 2;
  svc::EncodingService service(config);
  for (std::size_t w = 0; w < std::min(kBulkWindows, in.bulk.size()); ++w) {
    const Columns columns = ToColumns(View(corpus, in.bulk[w]));
    svc::SessionConfig session;
    session.codec_name = in.bulk_specs[w].codec;
    const std::uint64_t id = service.OpenSession(session);
    const std::size_t total = columns.addresses.size();
    for (std::size_t at = 0; at < total;) {
      const std::size_t n = std::min(kChunk, total - at);
      svc::ColumnBatch batch;
      batch.addresses.assign(columns.addresses.begin() + at,
                             columns.addresses.begin() + at + n);
      batch.sel.assign(columns.sel.begin() + at, columns.sel.begin() + at + n);
      if (service.SubmitColumns(id, std::move(batch)) ==
          svc::Admission::kRejected) {
        // As the wire client: give the queue a moment, then resend.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      at += n;
    }
    const std::int64_t start = NowNs();
    while (service.SessionQueued(id) != 0) std::this_thread::yield();
    tracer.Add("service.drain_lag", start, NowNs(), total);
    service.CloseSession(id);
  }
  service.Stop();
}

void ReplayNet(const Corpus& corpus, const Inputs& in, Tracer& tracer) {
  namespace net = abenc::net;
  for (std::size_t w = 0; w < std::min(kBulkWindows, in.bulk.size()); ++w) {
    const Columns columns = ToColumns(View(corpus, in.bulk[w]));
    const std::size_t total = columns.addresses.size();
    std::vector<std::uint8_t> buffer;
    std::size_t buffered = 0;  // accesses in `buffer`
    for (std::size_t at = 0; at < total; at += kChunk) {
      const std::size_t n = std::min(kChunk, total - at);
      {
        ScopedSpan span(tracer, "net.EncodeSubmitStream+EncodeFrame");
        span.items = n;
        const std::vector<std::uint8_t> frame = net::EncodeFrame(
            net::FrameType::kSubmitStream,
            net::EncodeSubmitStream(1, at, (at / kChunk) % 8 == 7,
                                    columns.addresses.data() + at,
                                    columns.sel.data() + at, n));
        buffer.insert(buffer.end(), frame.begin(), frame.end());
      }
      buffered += n;
      if (buffer.size() < kReadBytes && at + n < total) continue;
      // Drain the accumulator the way the server's loop does.
      ScopedSpan span(tracer, "net.TryExtractFrame+DecodeSubmitStream");
      span.items = buffered;
      while (auto frame =
                 net::TryExtractFrame(buffer, net::kDefaultMaxFrameBytes)) {
        (void)net::DecodeSubmitStream(frame->payload);
      }
      buffered = 0;
    }
  }
}

void ReplayTrace(const Options& options, const Corpus& corpus,
                 const Inputs& in, Tracer& tracer) {
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir) /
      ("ledger-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  {
    ScopedSpan span(tracer, "trace.WriteColumnarTrace");
    const std::size_t used = std::min(in.bulk.size(), in.bulk_specs.size());
    for (std::size_t w = 0; w < used; ++w) {
      paths.push_back((dir / ("w" + std::to_string(w) + ".ctrace")).string());
      WriteWindow(corpus, in.bulk[w], paths.back());
      span.items += kBulkLength;
    }
  }
  for (const std::string& path : paths) {
    abenc::MmapTraceSource source(path);
    abenc::TraceColumns columns;
    ScopedSpan span(tracer, "trace.ViewColumns");
    span.items = source.ViewColumns(0, source.size(), &columns);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

const std::vector<LayerMetric>& LayerMetrics() {
  // Rows whose code runs only in wire-bulk name what they move there
  // after "ungated:", because BENCHMARK.json does not gate wire-bulk.
  static const std::vector<LayerMetric> metrics = {
      {"core.encode_ns_per_access", "ns", "lower",
       "offline-paper maccess_s, job_ms_p50"},
      {"core.sweep_ns_per_access", "ns", "lower", "offline-paper maccess_s"},
      {"core.evaluate_ns_per_access", "ns", "lower",
       "offline-paper maccess_s"},
      {"core.verify_share", "ratio", "lower", "offline-paper maccess_s"},
      {"core.adaptive_encode_ns_per_access", "ns", "lower",
       "wire-interactive job_ms_p90"},
      {"sim.capture_s", "s", "lower", "setup_s on every workload"},
      {"trace.pack_ms", "ms", "lower", "ungated: wire-bulk setup_s"},
      {"trace.view_ns_per_access", "ns", "lower",
       "ungated: wire-bulk maccess_s (guard: expect ~0)"},
      {"channel.transfer_ns_per_access.secded", "ns", "lower",
       "wire-interactive job_ms_p50 (its SECDED third); "
       "ungated: wire-bulk maccess_s"},
      {"channel.transfer_ns_per_access.none", "ns", "lower",
       "wire-interactive job_ms_p50"},
      {"channel.transfer_ns_per_access.faulted", "ns", "lower",
       "wire-interactive job_ms_p90"},
      {"channel.build_us", "us", "lower", "wire-interactive job_ms_p50"},
      {"service.open_us", "us", "lower", "wire-interactive job_ms_p50"},
      {"service.submit_rows_ns_per_access", "ns", "lower",
       "wire-interactive job_ms_p50"},
      {"service.submit_columns_ns_per_access", "ns", "lower",
       "wire-interactive job_ms_p50 (under Submit); "
       "ungated: wire-bulk maccess_s"},
      {"service.drain_ns_per_access", "ns", "lower",
       "wire-interactive job_ms_p50; ungated: wire-bulk maccess_s"},
      {"service.accounting_ns_per_access", "ns", "lower",
       "wire-interactive job_ms_p50; ungated: wire-bulk maccess_s"},
      {"service.report_us", "us", "lower", "wire-interactive job_ms_p50"},
      {"service.renegotiate_us", "us", "lower", "wire-interactive job_ms_p90"},
      {"service.drain_lag_ms", "ms", "lower", "ungated: wire-bulk job_ms_p50"},
      {"service.retries_per_kaccess", "count", "lower",
       "wire-interactive job_ms_p90"},
      {"service.degraded_per_kaccess", "count", "lower",
       "wire-interactive job_ms_p90"},
      {"service.reject_ratio", "ratio", "lower",
       "ungated: wire-bulk maccess_s"},
      {"service.slowdown_ratio", "ratio", "lower",
       "ungated: wire-bulk maccess_s"},
      {"net.server_cpu_ms_per_maccess", "ms", "lower",
       "ungated: wire-bulk maccess_s"},
      {"net.encode_ns_per_access", "ns", "lower",
       "ungated: wire-bulk maccess_s"},
      {"net.decode_ns_per_access", "ns", "lower",
       "ungated: wire-bulk maccess_s"},
      {"net.stream_ns_per_access", "ns", "lower",
       "ungated: wire-bulk maccess_s"},
      {"net.open_us_p50", "us", "lower", "wire-interactive job_ms_p50"},
      {"net.submit_us_p50", "us", "lower", "wire-interactive job_ms_p50"},
      {"net.close_us_p50", "us", "lower", "wire-interactive job_ms_p50"},
      {"net.renegotiate_us_p50", "us", "lower", "wire-interactive job_ms_p90"},
      {"net.drain_stats_ms_p50", "ms", "lower", "wire-interactive job_ms_p50"},
      {"net.drain_stats_ms_p90", "ms", "lower", "wire-interactive job_ms_p90"},
      {"bench.tracing_overhead_pct", "%", "lower", "none; keep it small"},
  };
  return metrics;
}

WireTrace TraceWire(const Options& options, WireShape shape,
                    std::size_t jobs) {
  Options sub = options;
  sub.seconds = 1;  // plans (and oracles) only for the short sub-run
  sub.sabotage_oracle = false;
  std::unique_ptr<WireWorkload> workload = MakeWire(sub, shape);
  Tracer off(false);
  workload->Setup(off);
  Tracer tracer(true);
  WireTrace out;
  const double cpu_before = workload->ServerCpuSeconds();
  out.phase = workload->RunPhase(jobs, tracer);
  out.server_cpu_s = workload->ServerCpuSeconds() - cpu_before;
  out.counters = workload->counters();
  out.frames_out = FramesOut(workload->StopServer());
  out.spans = tracer.spans();
  return out;
}

std::map<std::string, double> BuildLedger(const Options& options,
                                          const Corpus& corpus,
                                          const std::vector<Span>& setup_spans,
                                          std::size_t setups,
                                          const WireTrace& bulk,
                                          const WireTrace& interactive,
                                          double tracing_overhead_pct,
                                          std::vector<Span>& spans) {
  Inputs in;
  const std::size_t jobs = 2 * kInteractiveSessions;
  in.offline = CutWindows(corpus, kOfflineWindow, options.seed);
  in.bulk = CutWindows(corpus, kBulkLength, options.seed);
  in.bulk_specs =
      PlanSessions(options.seed, WireShape::kBulk, jobs, in.bulk.size());
  in.interactive = CutWindows(corpus, kInteractiveLength, options.seed);
  in.interactive_specs = PlanSessions(options.seed, WireShape::kInteractive,
                                      jobs, in.interactive.size());
  // Spec j uses window j (mod the window count); index windows by spec.
  for (std::size_t j = 0; j < in.bulk.size() && j < jobs; ++j) {
    if (in.bulk_specs[j].window != j) {
      throw std::logic_error("bulk specs are not window-aligned");
    }
  }

  Tracer tracer(true);
  ReplayCore(corpus, in, tracer);
  ReplayChannel(corpus, in, tracer);
  const FaultTally faults = ReplayService(corpus, in, tracer);
  ReplayDrainLag(corpus, in, tracer);
  ReplayNet(corpus, in, tracer);
  ReplayTrace(options, corpus, in, tracer);
  spans.insert(spans.end(), tracer.spans().begin(), tracer.spans().end());
  const std::map<std::string, SpanStats> replay = Summarize(tracer.spans());
  const std::map<std::string, SpanStats> setup = Summarize(setup_spans);
  const std::map<std::string, SpanStats> wire_bulk = Summarize(bulk.spans);
  const std::map<std::string, SpanStats> wire_inter =
      Summarize(interactive.spans);

  std::map<std::string, double> v;
  const double evaluate = NsPerItem(replay, "core.EvaluateBatched.verify");
  const double noverify = NsPerItem(replay, "core.EvaluateBatched.noverify");
  v["core.encode_ns_per_access"] = NsPerItem(replay, "core.EncodeColumns");
  v["core.sweep_ns_per_access"] =
      NsPerItem(replay, "core.BlockTransitionAccumulator::Consume");
  v["core.evaluate_ns_per_access"] = evaluate;
  v["core.verify_share"] =
      evaluate > 0.0 ? (evaluate - noverify) / evaluate : 0.0;
  v["core.adaptive_encode_ns_per_access"] =
      NsPerItem(replay, "core.EncodeColumns.adaptive");
  v["sim.capture_s"] = 0.0;
  if (auto it = setup.find("sim.RunBenchmark"); it != setup.end()) {
    v["sim.capture_s"] =
        it->second.total_ns * 1e-9 / static_cast<double>(setups);
  }
  v["trace.pack_ms"] = 0.0;
  if (auto it = replay.find("trace.WriteColumnarTrace"); it != replay.end()) {
    v["trace.pack_ms"] = it->second.total_ns * 1e-6;
  }
  v["trace.view_ns_per_access"] = NsPerItem(replay, "trace.ViewColumns");
  const double secded = NsPerItem(replay, "channel.Transfer.secded");
  v["channel.transfer_ns_per_access.secded"] = secded;
  v["channel.transfer_ns_per_access.none"] =
      NsPerItem(replay, "channel.Transfer.none");
  v["channel.transfer_ns_per_access.faulted"] =
      NsPerItem(replay, "channel.Transfer.faulted");
  v["channel.build_us"] = MedianOf(replay, "channel.BusChannel") * 1e-3;
  v["service.open_us"] = MedianOf(replay, "service.OpenSession") * 1e-3;
  v["service.submit_rows_ns_per_access"] =
      NsPerItem(replay, "service.Session::Submit");
  v["service.submit_columns_ns_per_access"] =
      NsPerItem(replay, "service.Session::SubmitColumns");
  const double drain = NsPerItem(replay, "service.Session::DrainStep");
  v["service.drain_ns_per_access"] = drain;
  v["service.accounting_ns_per_access"] =
      drain - NsPerItem(replay, "core.EncodeColumns.bulk") - secded;
  v["service.report_us"] = MedianOf(replay, "service.Report") * 1e-3;
  v["service.renegotiate_us"] = MedianOf(replay, "service.Renegotiate") * 1e-3;
  v["service.drain_lag_ms"] = MedianOf(replay, "service.drain_lag") * 1e-6;
  const double kaccess = static_cast<double>(faults.accesses) / 1e3;
  v["service.retries_per_kaccess"] =
      faults.accesses != 0 ? static_cast<double>(faults.retries) / kaccess
                           : 0.0;
  v["service.degraded_per_kaccess"] =
      faults.accesses != 0 ? static_cast<double>(faults.degraded) / kaccess
                           : 0.0;
  // Every reply of the bulk server that is not HELLO_OK, OPEN_OK, STATS
  // or CLOSE_OK is a SUBMIT_STREAM ack.
  const long long acks =
      bulk.frames_out - static_cast<long long>(bulk.counters.connections) -
      3 * static_cast<long long>(bulk.counters.sessions);
  if (bulk.frames_out < 0 || acks <= 0) {
    throw std::runtime_error("cannot read abenc_serve's frame counters");
  }
  v["service.reject_ratio"] =
      static_cast<double>(bulk.counters.stream_rejections) / acks;
  v["service.slowdown_ratio"] =
      static_cast<double>(bulk.counters.stream_slowdowns) / acks;
  std::uint64_t bulk_accesses = 0;
  for (const PhaseResult::Job& job : bulk.phase.jobs) {
    bulk_accesses += job.verified;
  }
  v["net.server_cpu_ms_per_maccess"] =
      bulk_accesses != 0 ? bulk.server_cpu_s * 1e3 /
                               (static_cast<double>(bulk_accesses) / 1e6)
                         : 0.0;
  v["net.encode_ns_per_access"] =
      NsPerItem(replay, "net.EncodeSubmitStream+EncodeFrame");
  v["net.decode_ns_per_access"] =
      NsPerItem(replay, "net.TryExtractFrame+DecodeSubmitStream");
  v["net.stream_ns_per_access"] = NsPerItem(wire_bulk, "net.SubmitColumns");
  v["net.open_us_p50"] = MedianOf(wire_inter, "net.Open") * 1e-3;
  v["net.submit_us_p50"] = MedianOf(wire_inter, "net.Submit") * 1e-3;
  v["net.close_us_p50"] = MedianOf(wire_inter, "net.Close") * 1e-3;
  v["net.renegotiate_us_p50"] = MedianOf(wire_inter, "net.Renegotiate") * 1e-3;
  v["net.drain_stats_ms_p50"] = MedianOf(wire_inter, "net.DrainStats") * 1e-6;
  v["net.drain_stats_ms_p90"] =
      MedianOf(wire_inter, "net.DrainStats", 0.9) * 1e-6;
  v["bench.tracing_overhead_pct"] = tracing_overhead_pct;

  // The rows measured are exactly the rows LayerMetrics() names.
  std::size_t listed = 0;
  for (const LayerMetric& row : LayerMetrics()) {
    if (v.count(row.name) == 0) {
      throw std::logic_error(std::string("ledger row not measured: ") +
                             row.name);
    }
    ++listed;
  }
  if (listed != v.size()) {
    throw std::logic_error("ledger measured a row LayerMetrics() omits");
  }
  return v;
}

}  // namespace perfbench
