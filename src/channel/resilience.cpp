// Implements core/resilience.h on top of the channel layer: an
// unprotected BusChannel with a SingleUpsetFault is exactly the
// experiment the original analysis ran, so protected and unprotected
// configurations are measured by one code path (channel/upset.cpp).
#include "core/resilience.h"

#include "channel/upset.h"

namespace abenc {
namespace {

ChannelConfig UnprotectedConfig(const std::string& codec_name,
                                const CodecOptions& options) {
  ChannelConfig config;
  config.codec_name = codec_name;
  config.codec_options = options;
  config.protection = Protection::kNone;
  return config;
}

}  // namespace

UpsetResult MeasureSingleUpset(const std::string& codec_name,
                               const CodecOptions& options,
                               std::span<const BusAccess> stream,
                               std::size_t cycle, unsigned line) {
  return MeasureSingleUpset(UnprotectedConfig(codec_name, options), stream,
                            cycle, line);
}

double AverageUpsetCorruption(const std::string& codec_name,
                              const CodecOptions& options,
                              std::span<const BusAccess> stream,
                              std::size_t injections, std::uint64_t seed) {
  return AverageUpsetCorruption(UnprotectedConfig(codec_name, options),
                                stream, injections, seed);
}

std::vector<std::string> UpsetStudyCodecNames() {
  return {"binary",  "gray-word",  "bus-invert", "t0",
          "t0-bi",   "dual-t0",    "dual-t0-bi", "inc-xor",
          "offset",  "working-zone", "mtf"};
}

}  // namespace abenc
