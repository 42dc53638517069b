// abenc_perfbench: one workload of the end-to-end benchmark at a seed.
//
//   abenc_perfbench --workload offline-paper|wire-bulk|wire-interactive
//                   --seed N --seconds S --trace 0|1
//                   --serve PATH/TO/abenc_serve --work-dir DIR
//
// --trace 0 prints the end-to-end metrics (setup_s, maccess_s,
// job_ms_p50, job_ms_p90, peak_rss_mb, fail_ratio); --trace 1 runs the
// timed phase's jobs in alternating untraced and traced blocks, and prints
// the per-layer ledger and the tracing overhead. The last stdout line is
// the JSON result {"correct", "attempted", "failed", "metrics"}. Exit
// status: 0 when every job matched its oracle, 1 when any failed, 2 on bad
// usage or a set-up error. --list-metrics prints the per-layer table as
// JSON.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "ledger.h"
#include "serve_child.h"
#include "wire.h"

namespace {

using namespace perfbench;

// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetups = 5;
// A traced run cuts the phase into this many untraced and as many traced
// blocks.
constexpr std::size_t kTraceBlocks = 5;
// Jobs not started this long after launch count as failed, so a wedged
// server still ends the run well inside its time limit.
constexpr std::int64_t kDeadlineNs = 140'000'000'000LL;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "abenc_perfbench: " << error << "\n"
            << "usage: abenc_perfbench --workload offline-paper|wire-bulk|"
               "wire-interactive --seed N --seconds S --trace 0|1 "
               "--serve PATH --work-dir DIR\n";
  std::exit(2);
}

Options Parse(int argc, char** argv, bool& list_metrics) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      list_metrics = true;
      continue;
    }
    if (flag == "--sabotage-oracle") {
      options.sabotage_oracle = true;
      continue;
    }
    if (i + 1 >= argc) Usage(flag + " requires a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--serve") {
        options.serve_path = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag);
    }
  }
  if (list_metrics) return options;
  if (options.workload != "offline-paper" && options.workload != "wire-bulk" &&
      options.workload != "wire-interactive") {
    Usage("unknown workload '" + options.workload + "'");
  }
  if (options.seconds < 1 || options.seconds > 60) {
    Usage("--seconds must be in [1, 60]");
  }
  if ((options.workload != "offline-paper" || options.trace) &&
      options.serve_path.empty()) {
    Usage("the wire workloads and traced runs need --serve");
  }
  if (options.work_dir.empty()) Usage("--work-dir is required");
  return options;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << value;
  return out.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const std::vector<Metric>& metrics, std::uint64_t attempted,
                 std::uint64_t failed) {
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << Number(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

int Run(const Options& options) {
  const std::string fingerprint = FingerprintJson(options);
  std::cout << "fingerprint " << fingerprint << std::endl;

  std::unique_ptr<Workload> owned;
  WireWorkload* wire = nullptr;
  if (options.workload == "offline-paper") {
    owned = MakeOfflineWorkload(options);
  } else {
    auto made = MakeWire(options, options.workload == "wire-bulk"
                                      ? WireShape::kBulk
                                      : WireShape::kInteractive);
    wire = made.get();
    owned = std::move(made);
  }
  Workload& workload = *owned;

  // Set up from scratch kSetups times; the last set-up is kept.
  Tracer setup_tracer(options.trace);
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) workload.Teardown();
    const std::int64_t start = NowNs();
    workload.Setup(setup_tracer);
    setup_s.push_back(SecondsSince(start));
  }

  const std::size_t jobs = workload.JobsFor(options.seconds);
  Tracer off(false);
  if (!options.trace) {
    const PhaseResult phase = workload.RunPhase(jobs, off);
    const double peak_rss_mb = workload.PeakRssMb();
    const std::uint64_t attempted = phase.attempted;
    const std::uint64_t failed = phase.failed;
    const double fail_ratio =
        attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;
    const PhaseFigures figures = Figures(phase);
    std::vector<Metric> metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"maccess_s", figures.maccess_s, "M/s"},
        {"job_ms_p50", figures.p50_ms, "ms"},
    };
    if (figures.p90_supported) {
      metrics.push_back({"job_ms_p90", figures.p90_ms, "ms"});
    }
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    std::cout << options.workload << ": " << phase.attempted
              << " jobs, seed " << options.seed << ", figures are medians of "
              << figures.blocks << " consecutive blocks\n";
    for (const Metric& m : metrics) {
      std::cout << "  " << std::left << std::setw(12) << m.name << std::right
                << " " << Number(m.value) << " " << m.unit << "\n";
    }
    std::cout << "  fail_ratio   " << Number(fail_ratio) << " (" << failed
              << " of " << attempted << " jobs failed their oracle)\n";
    PrintResult(metrics, attempted, failed);
    return failed == 0 ? 0 : 1;
  }

  // Traced run: the phase's jobs in untraced and traced blocks, in the
  // order U T T U U T T U ..., on one set-up. Every block runs the same
  // jobs, so the host's drift and the server's growing session list
  // (closed sessions are never reclaimed, and every shard step visits
  // every session) weigh on both halves alike. Blocks hold an even number
  // of jobs because wire-bulk runs them in pairs.
  const std::size_t block =
      std::max<std::size_t>(2, jobs / kTraceBlocks / 2 * 2);
  Tracer phase_tracer(true);
  PhaseResult traced;           // the traced blocks' jobs
  double accesses[2] = {0, 0};  // verified accesses, [untraced, traced]
  double seconds[2] = {0, 0};   // wall time of those blocks
  double server_cpu_s = 0.0;    // abenc_serve CPU over the traced blocks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t b = 0; b < 2 * kTraceBlocks; ++b) {
    const int on = (b % 4 == 1 || b % 4 == 2) ? 1 : 0;
    const double cpu_before = wire ? wire->ServerCpuSeconds() : 0.0;
    const PhaseResult result =
        workload.RunPhase(block, on ? phase_tracer : off);
    attempted += result.attempted;
    failed += result.failed;
    for (const PhaseResult::Job& job : result.jobs) {
      accesses[on] += static_cast<double>(job.verified);
    }
    if (!result.jobs.empty()) {
      seconds[on] += static_cast<double>(result.jobs.back().end_ns -
                                         result.start_ns) *
                     1e-9;
    }
    if (!on) continue;
    if (wire) server_cpu_s += wire->ServerCpuSeconds() - cpu_before;
    traced.jobs.insert(traced.jobs.end(), result.jobs.begin(),
                       result.jobs.end());
  }
  const double overhead_pct =
      accesses[1] > 0.0 && seconds[0] > 0.0
          ? (accesses[0] / seconds[0] / (accesses[1] / seconds[1]) - 1.0) *
                100.0
          : 0.0;

  WireTrace bulk;
  WireTrace interactive;
  for (WireShape shape : {WireShape::kBulk, WireShape::kInteractive}) {
    WireTrace& out = shape == WireShape::kBulk ? bulk : interactive;
    const bool own = wire != nullptr &&
                     options.workload ==
                         (shape == WireShape::kBulk ? "wire-bulk"
                                                    : "wire-interactive");
    if (own) {
      out.spans = phase_tracer.spans();
      out.phase = traced;
      out.counters = wire->counters();
      out.server_cpu_s = server_cpu_s;
      out.frames_out = FramesOut(wire->StopServer());
    } else {
      out = TraceWire(options, shape, shape == WireShape::kBulk ? 8 : 100);
      attempted += out.phase.attempted;
      failed += out.phase.failed;
    }
  }

  std::vector<Span> spans = setup_tracer.spans();
  spans.insert(spans.end(), phase_tracer.spans().begin(),
               phase_tracer.spans().end());
  const std::map<std::string, double> values =
      BuildLedger(options, workload.corpus(), setup_tracer.spans(), kSetups,
                  bulk, interactive, overhead_pct, spans);

  std::vector<Metric> metrics;
  std::cout << options.workload << " traced ledger (seed " << options.seed
            << "), metric / value / unit / should move:\n";
  for (const LayerMetric& layer : LayerMetrics()) {
    const double value = values.at(layer.name);
    metrics.push_back({layer.name, value, layer.unit});
    std::cout << "  " << std::left << std::setw(42) << layer.name << std::right
              << " " << std::setw(14) << Number(value) << " "
              << std::left << std::setw(6) << layer.unit << std::right << " "
              << layer.moves << "\n";
  }
  const std::string span_path =
      (std::filesystem::path(options.work_dir) /
       ("spans-" + options.workload + "-seed" + std::to_string(options.seed) +
        ".jsonl"))
          .string();
  WriteSpans(span_path, spans, fingerprint);
  std::cout << "  spans written to " << span_path << "\n";
  PrintResult(metrics, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool list_metrics = false;
  Options options = Parse(argc, argv, list_metrics);
  if (list_metrics) {
    std::cout << "[";
    for (std::size_t i = 0; i < LayerMetrics().size(); ++i) {
      const LayerMetric& m = LayerMetrics()[i];
      std::cout << (i ? ",\n " : "") << "{\"name\": \"" << m.name
                << "\", \"unit\": \"" << m.unit << "\", \"better\": \""
                << m.better << "\", \"moves\": \"" << m.moves << "\"}";
    }
    std::cout << "]\n";
    return 0;
  }
  options.deadline_ns = NowNs() + kDeadlineNs;
  try {
    std::filesystem::create_directories(options.work_dir);
    return Run(options);
  } catch (const std::exception& e) {
    std::cerr << "abenc_perfbench: " << e.what() << "\n";
    return 2;
  }
}
