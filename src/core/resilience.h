// Single-event-upset analysis: what one flipped bus line costs each code.
//
// The redundant codes buy power with *history*: T0's decoder regenerates
// addresses from its own previous output, working-zone and MTF carry
// dictionaries. A single corrupted bus cycle therefore poisons not one
// address but everything derived from it until the code resynchronises
// (for T0, the next out-of-sequence address sent in binary; for the
// dictionary codes, potentially much longer). Plain binary and the
// stateless-decode inverts corrupt exactly one address. This module
// quantifies the trade the paper's redundancy implicitly makes.
//
// These entry points measure the *unprotected* configuration. They are
// implemented on top of the channel layer (src/channel/) — an
// unprotected BusChannel carrying a SingleUpsetFault — so protected and
// unprotected runs share one code path; see channel/upset.h for the
// ChannelConfig overloads that add parity/SECDED check lines, resync
// beacons and the recovery state machine. Link abenc_channel to use
// either form.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"

namespace abenc {

/// Outcome of one injected upset.
struct UpsetResult {
  std::size_t corrupted_addresses = 0;  // decode mismatches after injection
  bool resynchronised = false;          // decoder agreed again before the end
  std::size_t recovery_cycles = 0;      // injection -> last mismatch span
};

/// Encode `stream` with a fresh `codec_name` instance, flip bit `line`
/// (data lines first, then redundant lines) of the bus state at
/// `cycle`, decode the whole stream with a fresh decoder, and report the
/// damage. `cycle` must be inside the stream; `line` inside the coded
/// bus. Throws std::out_of_range otherwise.
UpsetResult MeasureSingleUpset(const std::string& codec_name,
                               const CodecOptions& options,
                               std::span<const BusAccess> stream,
                               std::size_t cycle, unsigned line);

/// Average corrupted addresses per upset over `injections` uniformly
/// placed (cycle, line) injections, deterministic per `seed`.
double AverageUpsetCorruption(const std::string& codec_name,
                              const CodecOptions& options,
                              std::span<const BusAccess> stream,
                              std::size_t injections, std::uint64_t seed);

/// The codes the upset studies (bench_error_resilience,
/// bench_channel_protection) compare, in report order.
std::vector<std::string> UpsetStudyCodecNames();

}  // namespace abenc
