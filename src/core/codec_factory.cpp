#include "core/codec_factory.h"

#include <memory>
#include <string_view>

#include "core/adaptive_codec.h"
#include "core/beach_codec.h"
#include "core/binary_codec.h"
#include "core/bus_invert_codec.h"
#include "core/couple_invert_codec.h"
#include "core/dual_t0_codec.h"
#include "core/dual_t0bi_codec.h"
#include "core/gray_codec.h"
#include "core/inc_xor_codec.h"
#include "core/mtf_codec.h"
#include "core/offset_codec.h"
#include "core/t0_codec.h"
#include "core/t0bi_codec.h"
#include "core/working_zone_codec.h"

namespace abenc {
namespace {

using Options = CodecOptions;

/// Builds a C from the listed option fields, in constructor order.
template <typename C, auto... Fields>
CodecPtr Make(const CodecOptions& o) {
  return std::make_unique<C>(o.*Fields...);
}

struct CodecRow {
  std::string_view name;
  CodecPtr (*build)(const CodecOptions& o);
};

// The registry: MakeCodec looks a name up here and AllCodecNames() lists
// the names in this order.
constexpr CodecRow kCodecs[] = {
    {"binary", Make<BinaryCodec, &Options::width>},
    {"gray", Make<GrayCodec, &Options::width>},
    {"gray-word", Make<GrayCodec, &Options::width, &Options::stride>},
    {"bus-invert", Make<BusInvertCodec, &Options::width, &Options::partitions>},
    {"t0", Make<T0Codec, &Options::width, &Options::stride>},
    {"t0-bi", Make<T0BICodec, &Options::width, &Options::stride>},
    {"dual-t0", Make<DualT0Codec, &Options::width, &Options::stride>},
    {"dual-t0-bi", Make<DualT0BICodec, &Options::width, &Options::stride>},
    {"offset", Make<OffsetCodec, &Options::width>},
    {"inc-xor", Make<IncXorCodec, &Options::width, &Options::stride>},
    {"working-zone", Make<WorkingZoneCodec, &Options::width,
                          &Options::wz_zones, &Options::wz_offset_bits>},
    {"beach", Make<BeachCodec, &Options::width, &Options::beach_cluster_bits>},
    {"beach-corr",
     [](const CodecOptions& o) -> CodecPtr {
       return std::make_unique<BeachCodec>(
           o.width, o.beach_cluster_bits,
           BeachCodec::Clustering::kCorrelation);
     }},
    {"mtf", Make<MtfCodec, &Options::width, &Options::mtf_entries>},
    {"couple-invert",
     Make<CoupleInvertCodec, &Options::width, &Options::coupling_lambda>},
    {"adaptive",
     [](const CodecOptions& o) -> CodecPtr {
       // Members are built through MakeCodec with the caller's options
       // (width, stride, partitions, ...); the palette cannot contain
       // "adaptive" itself, so the recursion is one level deep.
       return std::make_unique<AdaptiveCodec>(
           o.width, AdaptiveCodec::ParsePalette(o.adaptive_palette),
           o.adaptive_window, o.adaptive_hysteresis,
           [o](const std::string& member) { return MakeCodec(member, o); });
     }},
};

}  // namespace

CodecPtr MakeCodec(const std::string& name, const CodecOptions& options) {
  for (const CodecRow& row : kCodecs) {
    if (row.name == name) return row.build(options);
  }
  throw CodecConfigError("unknown codec name: " + name);
}

std::vector<std::string> AllCodecNames() {
  std::vector<std::string> names;
  for (const CodecRow& row : kCodecs) names.emplace_back(row.name);
  return names;
}

}  // namespace abenc
