// String-keyed construction of every codec in the library.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/codec.h"

namespace abenc {

/// Construction parameters shared by all codes.
struct CodecOptions {
  unsigned width = 32;   // address bus width N
  Word stride = 4;       // sequential increment S (power of two)
  unsigned partitions = 1;     // bus-invert partitions
  unsigned wz_zones = 4;       // working-zone registers
  unsigned wz_offset_bits = 8; // working-zone window bits
  unsigned beach_cluster_bits = 8;
  unsigned mtf_entries = 16;   // move-to-front dictionary size
  double coupling_lambda = 2.0; // coupling/ground cap ratio (OE-invert)
  // Adaptive meta-codec (src/core/adaptive_codec.h): decision window in
  // accesses, minimum per-window toggle advantage required to switch,
  // and the member palette as a comma-separated name list (empty =
  // AdaptiveCodec::DefaultPalette()).
  std::size_t adaptive_window = 64;
  long long adaptive_hysteresis = 16;
  std::string adaptive_palette;
};

/// Create a codec by machine name: one of AllCodecNames(). "adaptive" (a
/// windowed meta-codec over a member palette) builds its members through
/// this factory. Throws CodecConfigError for unknown names or invalid
/// options.
CodecPtr MakeCodec(const std::string& name, const CodecOptions& options = {});

/// Every code the factory knows about, in registration order.
std::vector<std::string> AllCodecNames();

}  // namespace abenc
