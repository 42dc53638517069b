// Guards the codec registry against drift: every codec header under
// src/core must be reachable through codec_factory, and every factory
// name must be constructible and backed by a header. A codec added as a
// header but never registered (or registered but deleted) fails here
// instead of silently escaping the conformance suite in src/verify.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/codec_factory.h"

#ifndef ABENC_SOURCE_DIR
#error "factory_coverage_test requires the ABENC_SOURCE_DIR definition"
#endif

namespace abenc {
namespace {

/// "dual_t0bi_codec.h" -> "dualt0bi"; "dual-t0-bi" -> "dualt0bi".
/// Factory names and header stems use different separators, so coverage
/// is matched on the separator-free form.
std::string Normalize(std::string text) {
  std::erase_if(text, [](char c) { return c == '_' || c == '-'; });
  return text;
}

std::vector<std::string> CodecHeaderStems() {
  const std::filesystem::path core =
      std::filesystem::path(ABENC_SOURCE_DIR) / "src" / "core";
  std::vector<std::string> stems;
  for (const auto& entry : std::filesystem::directory_iterator(core)) {
    const std::string filename = entry.path().filename().string();
    constexpr std::string_view kSuffix = "_codec.h";
    if (filename.size() <= kSuffix.size() ||
        !filename.ends_with(kSuffix)) {
      continue;
    }
    stems.push_back(
        Normalize(filename.substr(0, filename.size() - kSuffix.size())));
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

TEST(FactoryCoverageTest, FindsTheCodecHeaders) {
  // The repo ships 13 codec headers today; the test must be looking at
  // the real tree, not an empty directory.
  EXPECT_GE(CodecHeaderStems().size(), 13u);
}

TEST(FactoryCoverageTest, EveryHeaderIsRegisteredInTheFactory) {
  std::vector<std::string> normalized_names;
  for (const std::string& name : AllCodecNames()) {
    normalized_names.push_back(Normalize(name));
  }
  for (const std::string& stem : CodecHeaderStems()) {
    const bool registered = std::any_of(
        normalized_names.begin(), normalized_names.end(),
        [&](const std::string& name) { return name.starts_with(stem); });
    EXPECT_TRUE(registered)
        << "src/core/" << stem << "_codec.h has no factory registration; "
        << "add it to MakeCodec and AllCodecNames";
  }
}

TEST(FactoryCoverageTest, EveryFactoryNameIsConstructibleAndBacked) {
  const std::vector<std::string> stems = CodecHeaderStems();
  for (const std::string& name : AllCodecNames()) {
    CodecPtr codec;
    ASSERT_NO_THROW(codec = MakeCodec(name))
        << name << " is listed but not constructible with defaults";
    ASSERT_NE(codec, nullptr) << name;
    EXPECT_EQ(codec->width(), 32u) << name;
    EXPECT_FALSE(codec->name().empty()) << name;

    const std::string normalized = Normalize(name);
    const bool backed = std::any_of(
        stems.begin(), stems.end(), [&](const std::string& stem) {
          return normalized.starts_with(stem);
        });
    EXPECT_TRUE(backed)
        << name << " has no src/core/*_codec.h backing header";
  }
}

TEST(FactoryCoverageTest, EveryFactoryCodecRunsTheBatchedPaths) {
  // A short mixed-SEL stream that leaves reset, revisits an address and
  // jumps across the width mask — enough to exercise state in every
  // registered code without knowing its mechanism.
  std::vector<BusAccess> stream;
  for (std::size_t i = 0; i < 24; ++i) {
    const Word address =
        (i % 3 == 2) ? (0xFFFF0000u + 16 * i) : (0x1000 + 4 * i);
    stream.push_back(BusAccess{address, i % 5 != 0});
  }
  std::vector<Word> addresses;
  std::vector<std::uint8_t> sel;
  for (const BusAccess& access : stream) {
    addresses.push_back(access.address);
    sel.push_back(access.sel ? 1 : 0);
  }

  for (const std::string& name : AllCodecNames()) {
    // Reference wire from the scalar path, decoded back in lockstep.
    const CodecPtr scalar = MakeCodec(name);
    const Word mask = LowMask(scalar->width());
    std::vector<BusState> expected;
    for (const BusAccess& access : stream) {
      expected.push_back(scalar->Encode(access.address, access.sel));
    }

    // The one batched entry over both layouts: BusAccess rows read in
    // place (step 2) and raw columns (step 1).
    const CodecPtr rows = MakeCodec(name);
    std::vector<BusState> row_out(stream.size());
    rows->EncodeBatch(AccessView::Rows(stream.data()), stream.size(),
                      std::span<BusState>(row_out));
    EXPECT_EQ(row_out, expected)
        << name << ": EncodeBatch over rows diverged from scalar Encode";

    const CodecPtr columnar = MakeCodec(name);
    std::vector<BusState> column_out(stream.size());
    columnar->EncodeColumns(addresses.data(), sel.data(), stream.size(),
                            std::span<BusState>(column_out));
    EXPECT_EQ(column_out, expected)
        << name << ": EncodeColumns diverged from scalar Encode";

    // And the wire still decodes: the batched paths must leave the
    // encoder in the same state a scalar decoder expects.
    const CodecPtr decoder = MakeCodec(name);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(decoder->Decode(row_out[i], stream[i].sel),
                stream[i].address & mask)
          << name << ": batched wire failed to decode at access " << i;
    }
  }
}

TEST(FactoryCoverageTest, NamesAreUniqueAndSubsetsConsistent) {
  const std::vector<std::string> all = AllCodecNames();
  const std::set<std::string> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size()) << "duplicate factory names";

  for (const std::string& name : ExistingCodecNames()) {
    EXPECT_TRUE(unique.contains(name))
        << "existing codec '" << name << "' missing from AllCodecNames";
  }
  for (const std::string& name : MixedCodecNames()) {
    EXPECT_TRUE(unique.contains(name))
        << "mixed codec '" << name << "' missing from AllCodecNames";
  }
}

TEST(FactoryCoverageTest, UnknownNamesThrow) {
  EXPECT_THROW(MakeCodec("no-such-codec"), CodecConfigError);
  EXPECT_THROW(MakeCodec(""), CodecConfigError);
  // Factory names are exact: near-misses must not silently alias.
  EXPECT_THROW(MakeCodec("T0"), CodecConfigError);
  EXPECT_THROW(MakeCodec("gray_word"), CodecConfigError);
}

}  // namespace
}  // namespace abenc
