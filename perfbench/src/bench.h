// Shared vocabulary of the end-to-end benchmark: options, the seeded
// generator, the timed-phase outcome and the workload interface that
// main.cpp drives. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <climits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Corpus;  // corpus.h

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string serve_path;  // the abenc_serve binary the wire workloads spawn
  std::string work_dir;    // where packed traces and span files go
  bool sabotage_oracle = false;  // self-test: corrupt the first timed job's oracle
  std::int64_t deadline_ns = INT64_MAX;  // jobs not started by then fail
};

/// SplitMix64: the seed picks every input the benchmark feeds the
/// program, identically on every platform (std::shuffle's algorithm is
/// implementation-defined, so it is not used).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

/// What one timed phase measured. Every job is verified against its
/// precomputed oracle after its timed interval ends.
struct PhaseResult {
  struct Job {
    double ms = 0.0;              // wall latency of the job
    std::int64_t end_ns = 0;      // when its timed interval ended
    std::uint64_t verified = 0;   // its accesses if it verified, else 0
  };
  std::vector<Job> jobs;          // every job run, in completion order
  std::uint64_t attempted = 0;    // jobs run plus jobs the deadline cut
  std::uint64_t failed = 0;
  std::int64_t start_ns = 0;      // when the first job started

  void Record(std::int64_t job_start_ns, std::int64_t job_end_ns,
              std::uint64_t accesses, bool ok) {
    jobs.push_back({static_cast<double>(job_end_ns - job_start_ns) * 1e-6,
                    job_end_ns, ok ? accesses : 0});
    ++attempted;
    if (!ok) ++failed;
  }
};

/// The reported figures of a phase. A run of at least kBlocks x 100 jobs
/// is cut into kBlocks consecutive blocks of equal job count; each figure
/// is the median of the blocks' values, so a host slowdown that covers
/// fewer than half the blocks does not move it. Shorter runs are one block.
struct PhaseFigures {
  static constexpr std::size_t kBlocks = 5;
  double maccess_s = 0.0;  // verified accesses per second of wall time
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  bool p90_supported = false;  // every block has >= 10 jobs beyond its p90
  std::size_t blocks = 0;
};
PhaseFigures Figures(const PhaseResult& phase);

/// One workload: Setup() builds every input, oracle and server from
/// scratch (the work setup_s times), RunPhase() runs a fixed number of
/// jobs in a closed loop. Teardown() drops what Setup() built.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(Tracer& tracer) = 0;
  virtual void Teardown() = 0;
  virtual PhaseResult RunPhase(std::size_t jobs, Tracer& tracer) = 0;
  /// Jobs in a timed phase of `seconds` — a fixed count, so every run at
  /// a given --seconds does the same work (the server's memory grows
  /// with the sessions it has opened).
  virtual std::size_t JobsFor(int seconds) const = 0;
  /// Peak resident memory of the serving process, in MB.
  virtual double PeakRssMb() const = 0;
  /// The ISS streams the last Setup() captured.
  virtual const Corpus& corpus() const = 0;
};

std::unique_ptr<Workload> MakeOfflineWorkload(const Options& options);
enum class WireShape { kBulk, kInteractive };

/// Nearest-rank percentile (q in (0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// A percentile is reported only when at least `min_beyond` samples lie
/// beyond its nearest rank — for p90 that is at least 100 samples.
bool PercentileSupported(std::size_t samples, double q,
                         std::size_t min_beyond = 10);

/// VmHWM of a process ("self" or a pid), in MB; 0 when unreadable.
double PeakRssMb(const std::string& proc);

/// One-line JSON fingerprint: CPU model, nproc, build type, the source
/// tree the program was built from, seed and the active kernel backend,
/// so runs on different hosts, trees or kernels are never compared by
/// accident.
std::string FingerprintJson(const Options& options);

}  // namespace perfbench
