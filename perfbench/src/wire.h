// The two wire workloads: the shipped abenc_serve binary as a child
// process (2 shards on 2 workers), driven by one client thread on one
// TCP loopback connection in a closed loop.
//
//   wire-bulk         long SUBMIT_STREAM sessions fed from mmap-backed
//                     .ctrace windows, two sessions in flight.
//   wire-interactive  short sessions of eight lock-step v1 SUBMITs, with
//                     rotating codecs and protections, scheduled
//                     renegotiations and planned channel faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

inline constexpr std::size_t kBulkLength = 98304;       // accesses per session
inline constexpr std::size_t kInteractiveLength = 2048;  // accesses per session

inline constexpr const char* kBulkCodecs[] = {"t0", "bus-invert",
                                              "dual-t0-bi"};
inline constexpr const char* kInteractiveCodecs[] = {"t0", "bus-invert",
                                                     "dual-t0-bi", "adaptive"};

/// What one wire session sends: its window and OPEN knobs.
struct SessionSpec {
  std::size_t window = 0;       // index into CutWindows(corpus, length, seed)
  std::string codec;
  std::uint8_t protection = 2;  // 0 none, 1 parity, 2 SECDED
  std::uint64_t fault_seed = 0; // nonzero: the server plans channel faults
  std::string switch_to;        // renegotiate half-way when set
};

/// The seed picks codec and protection rotation offsets and the fault
/// seeds; session j uses window j (mod `windows`).
std::vector<SessionSpec> PlanSessions(std::uint64_t seed, WireShape shape,
                                      std::size_t jobs, std::size_t windows);

/// Cumulative client-side counts against the current server, warm-up
/// included (the server's own frame counters start with it too).
struct WireCounters {
  std::uint64_t connections = 0;
  std::uint64_t sessions = 0;
  std::uint64_t stream_rejections = 0;  // StreamSubmitResult::rejections
  std::uint64_t stream_slowdowns = 0;   // StreamSubmitResult::slowdowns
};

class WireWorkload : public Workload {
 public:
  virtual WireCounters counters() const = 0;
  /// User + system CPU seconds abenc_serve has used so far.
  virtual double ServerCpuSeconds() const = 0;
  /// Stops the server and returns its stop summary.
  virtual std::string StopServer() = 0;
};

std::unique_ptr<WireWorkload> MakeWire(const Options& options,
                                       WireShape shape);

}  // namespace perfbench
