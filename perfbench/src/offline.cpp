// offline-paper: Tables 2-7 the way users regenerate them. In-process
// RunComparison with engine parallelism 1 runs the paper palette (plus
// the binary reference RunComparison always adds) over one ISS window per
// job. No service, channel or net code runs.
#include <algorithm>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "core/experiment.h"
#include "core/stream_evaluator.h"
#include "core/trace_source.h"
#include "offline.h"

namespace perfbench {

const std::vector<std::string>& PaperPalette() {
  static const std::vector<std::string> palette = {
      "gray", "bus-invert", "t0", "t0-bi", "dual-t0", "dual-t0-bi"};
  return palette;
}

namespace {

/// Returns set-up's freed memory to the system and restarts this
/// process's VmHWM, so that peak_rss_mb is the timed phase's peak. The
/// peak of set-up itself depends on how its frees fragmented the heap: it
/// moved by up to 14 MB with nothing but the length of a path argument.
void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  if (!clear_refs) {
    throw std::runtime_error(
        "offline-paper: cannot reset the peak RSS via /proc/self/clear_refs");
  }
}

/// Bit-identity of two evaluations: length, transitions, peak,
/// in-sequence percentage and the per-line histogram.
bool SameResult(const abenc::EvalResult& got, const abenc::EvalResult& want) {
  return got.stream_length == want.stream_length &&
         got.transitions == want.transitions &&
         got.peak_transitions == want.peak_transitions &&
         got.in_sequence_percent == want.in_sequence_percent &&
         got.per_line == want.per_line;
}

class OfflineWorkload final : public Workload {
 public:
  explicit OfflineWorkload(const Options& options) : options_(options) {}

  void Setup(Tracer& tracer) override {
    corpus_ = CaptureCorpus(tracer);
    {
      ScopedSpan span(tracer, "bench.cut_windows");
      windows_ = CutWindows(corpus_, kOfflineWindow, options_.seed);
      streams_.clear();
      for (const Window& window : windows_) {
        streams_.emplace_back(
            corpus_.names[window.stream], std::vector<abenc::BusAccess>{},
            std::make_shared<abenc::SpanTraceSource>(View(corpus_, window)));
      }
    }
    {
      // The serial oracle: per-word Evaluate of every (window, codec)
      // cell, binary reference first.
      ScopedSpan span(tracer, "bench.oracle");
      oracle_.assign(windows_.size(), {});
      for (std::size_t w = 0; w < windows_.size(); ++w) {
        oracle_[w].push_back(Reference("binary", w));
        for (const std::string& name : PaperPalette()) {
          oracle_[w].push_back(Reference(name, w));
        }
        span.items += kOfflineWindow * oracle_[w].size();
      }
    }
    {
      ScopedSpan span(tracer, "bench.warmup");
      Tracer off(false);
      for (std::size_t job = 0; job < kWarmupJobs; ++job) {
        if (!Verify(job, Execute(job, off, -1), false)) {
          throw std::runtime_error("offline-paper: warm-up job failed");
        }
      }
    }
  }

  void Teardown() override {
    streams_.clear();
    oracle_.clear();
    windows_.clear();
    corpus_ = Corpus{};
  }

  PhaseResult RunPhase(std::size_t jobs, Tracer& tracer) override {
    ResetPeakRss();
    PhaseResult result;
    result.start_ns = NowNs();
    for (std::size_t job = 0; job < jobs; ++job) {
      if (NowNs() > options_.deadline_ns) {
        result.attempted += jobs - job;  // out of time: the rest fail
        result.failed += jobs - job;
        break;
      }
      const auto id = static_cast<std::int64_t>(job);
      const std::int64_t job_start = NowNs();
      const int span = tracer.Begin("bench.job", id);
      std::optional<abenc::Comparison> comparison;
      try {
        comparison = Execute(job, tracer, id);
      } catch (const std::exception&) {
        comparison.reset();
      }
      tracer.End(span, kCellAccesses);
      const std::int64_t job_end = NowNs();
      bool ok = false;
      if (comparison) {
        ScopedSpan verify(tracer, "bench.verify", id);
        ok = Verify(job, *comparison, options_.sabotage_oracle && job == 0);
      }
      result.Record(job_start, job_end, kCellAccesses, ok);
    }
    return result;
  }

  std::size_t JobsFor(int seconds) const override {
    return std::max<std::size_t>(100, static_cast<std::size_t>(seconds) *
                                          kJobsPerSecond);
  }

  /// The peak of the last timed phase (RunPhase resets it).
  double PeakRssMb() const override { return perfbench::PeakRssMb("self"); }
  const Corpus& corpus() const override { return corpus_; }

 private:
  static constexpr std::size_t kWarmupJobs = 4;
  static constexpr std::size_t kJobsPerSecond = 260;
  static constexpr std::uint64_t kCellAccesses = 7 * kOfflineWindow;

  abenc::EvalResult Reference(const std::string& name, std::size_t w) const {
    abenc::CodecPtr codec = abenc::MakeCodec(name);
    return abenc::Evaluate(*codec, View(corpus_, windows_[w]));
  }

  /// One job: the comparison of one window.
  abenc::Comparison Execute(std::size_t job, Tracer& tracer,
                            std::int64_t job_id) const {
    ScopedSpan span(tracer, "core.RunComparison", job_id);
    span.items = kCellAccesses;
    return abenc::RunComparison(PaperPalette(),
                                {streams_[job % windows_.size()]},
                                abenc::CodecOptions{}, nullptr,
                                abenc::RunOptions{});
  }

  bool Verify(std::size_t job, const abenc::Comparison& comparison,
              bool sabotage) const {
    const std::vector<abenc::EvalResult>& oracle =
        oracle_[job % windows_.size()];
    const abenc::ComparisonRow& row = comparison.rows.at(0);
    abenc::EvalResult binary = oracle[0];
    if (sabotage) binary.transitions += 1;
    bool ok = row.cells.size() + 1 == oracle.size() &&
              SameResult(row.binary, binary);
    for (std::size_t c = 0; ok && c < row.cells.size(); ++c) {
      ok = SameResult(row.cells[c].result, oracle[c + 1]);
    }
    return ok;
  }

  const Options options_;
  Corpus corpus_;
  std::vector<Window> windows_;
  std::vector<abenc::NamedStream> streams_;
  std::vector<std::vector<abenc::EvalResult>> oracle_;
};

}  // namespace

std::unique_ptr<Workload> MakeOfflineWorkload(const Options& options) {
  return std::make_unique<OfflineWorkload>(options);
}

}  // namespace perfbench
