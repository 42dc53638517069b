// Tests for the batch-comparison API.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.h"
#include "core/trace_source.h"
#include "trace/synthetic.h"

namespace abenc {
namespace {

std::vector<NamedStream> TwoStreams() {
  SyntheticGenerator gen(42);
  return {
      NamedStream{"sequential",
                  gen.Sequential(5000, 0x400000, 4, 32).ToBusAccesses()},
      NamedStream{"random", gen.UniformRandom(5000, 32).ToBusAccesses()},
  };
}

TEST(ComparisonTest, MatrixShapeMatchesInputs) {
  const Comparison c =
      RunComparison({"t0", "bus-invert"}, TwoStreams(), CodecOptions{});
  ASSERT_EQ(c.rows.size(), 2u);
  ASSERT_EQ(c.codec_names.size(), 2u);
  for (const ComparisonRow& row : c.rows) {
    EXPECT_EQ(row.cells.size(), 2u);
    EXPECT_EQ(row.binary.stream_length, 5000u);
  }
  EXPECT_EQ(c.rows[0].stream_name, "sequential");
}

TEST(ComparisonTest, SavingsMatchManualComputation) {
  const auto streams = TwoStreams();
  const Comparison c = RunComparison({"t0"}, streams, CodecOptions{});
  const ComparisonRow& row = c.rows[0];
  EXPECT_DOUBLE_EQ(row.cells[0].savings_percent,
                   SavingsPercent(row.cells[0].result.transitions,
                                  row.binary.transitions));
  // Sequential stream: T0 saves nearly everything.
  EXPECT_GT(row.cells[0].savings_percent, 99.0);
}

TEST(ComparisonTest, AveragesAreColumnMeans) {
  const Comparison c =
      RunComparison({"t0", "bus-invert"}, TwoStreams(), CodecOptions{});
  const auto averages = c.average_savings();
  ASSERT_EQ(averages.size(), 2u);
  double expected = 0.0;
  for (const ComparisonRow& row : c.rows) {
    expected += row.cells[0].savings_percent;
  }
  EXPECT_DOUBLE_EQ(averages[0], expected / 2.0);
  EXPECT_GT(c.average_in_sequence_percent(), 49.0);  // one stream is 100%
}

TEST(ComparisonTest, ConfigureHookAdjustsPerCodecOptions) {
  SyntheticGenerator gen(7);
  const std::vector<NamedStream> streams = {
      NamedStream{"seq8", gen.Sequential(4000, 0, 8, 32).ToBusAccesses()}};
  CodecOptions options;
  options.stride = 4;  // wrong for the stream
  const Comparison mismatched = RunComparison({"t0"}, streams, options);
  const Comparison fixed =
      RunComparison({"t0"}, streams, options,
                    [](const std::string& name, CodecOptions& o) {
                      if (name == "t0") o.stride = 8;
                    });
  EXPECT_LT(mismatched.rows[0].cells[0].savings_percent, 5.0);
  EXPECT_GT(fixed.rows[0].cells[0].savings_percent, 99.0);
}

TEST(ComparisonTest, InSequenceIsReusedOnlyAtTheReferenceWidth) {
  // A cell as wide as the binary reference takes the reference's
  // in-sequence percentage; a cell that `configure` narrows counts its
  // own. The stream steps by the stride in its low 24 bits while its top
  // byte moves every third access, so 24 and 32 bits disagree.
  std::vector<BusAccess> accesses;
  for (Word i = 0; i < 3000; ++i) {
    accesses.push_back(
        {(0x400000 + 4 * i) | (((i / 3) & 0xFF) << 24), i % 2 == 0});
  }
  const std::vector<NamedStream> streams = {
      NamedStream{"rows", accesses},
      NamedStream{"columns", {},
                  std::make_shared<ColumnarTraceSource>(
                      ColumnarTraceSource::FromAccesses(accesses))}};
  const std::vector<std::string> names = {"gray",  "bus-invert", "t0",
                                          "t0-bi", "dual-t0",    "dual-t0-bi"};
  const CodecOptions options;  // 32 bits, stride 4
  CodecOptions narrow = options;
  narrow.width = 24;
  const double own =
      Evaluate(*MakeCodec("t0", narrow), accesses, options.stride)
          .in_sequence_percent;
  const double reference =
      Evaluate(*MakeCodec("binary", options), accesses, options.stride)
          .in_sequence_percent;
  ASSERT_NE(own, reference);
  for (const unsigned parallelism : {1u, 4u}) {
    const Comparison comparison = RunComparison(
        names, streams, options,
        [](const std::string& name, CodecOptions& o) {
          if (name == "t0") o.width = 24;
        },
        RunOptions{parallelism});
    for (const ComparisonRow& row : comparison.rows) {
      const std::string context =
          row.stream_name + " at parallelism " + std::to_string(parallelism);
      EXPECT_EQ(row.binary.in_sequence_percent, reference) << context;
      for (std::size_t c = 0; c < names.size(); ++c) {
        EXPECT_EQ(row.cells[c].result.in_sequence_percent,
                  names[c] == "t0" ? own : reference)
            << names[c] << ", " << context;
      }
    }
  }
}

TEST(ComparisonTest, EmptyInputsProduceEmptyMatrix) {
  const Comparison c = RunComparison({}, {}, CodecOptions{});
  EXPECT_TRUE(c.rows.empty());
  EXPECT_TRUE(c.average_savings().empty());
  EXPECT_DOUBLE_EQ(c.average_in_sequence_percent(), 0.0);
}

}  // namespace
}  // namespace abenc
