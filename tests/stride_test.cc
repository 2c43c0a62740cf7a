/**
 * @file
 * Unit tests for the stride detector (Figure 3's "strided" axis).
 */

#include <gtest/gtest.h>

#include "core/stream_analysis.hh"
#include "core/stride.hh"

namespace tstream
{
namespace
{

TEST(Stride, UnitStrideDetectedFromThirdMiss)
{
    StrideDetector d;
    EXPECT_FALSE(d.observe(0, 100)); // allocate
    EXPECT_FALSE(d.observe(0, 101)); // one delta seen
    EXPECT_TRUE(d.observe(0, 102));  // two consistent deltas
    EXPECT_TRUE(d.observe(0, 103));
}

TEST(Stride, LargerStrideWithinWindow)
{
    StrideDetector d;
    d.observe(0, 100);
    d.observe(0, 108);
    EXPECT_TRUE(d.observe(0, 116));
}

TEST(Stride, NegativeStride)
{
    StrideDetector d;
    d.observe(0, 500);
    d.observe(0, 496);
    EXPECT_TRUE(d.observe(0, 492));
}

TEST(Stride, StrideChangeResetsConfidence)
{
    StrideDetector d;
    d.observe(0, 100);
    d.observe(0, 101);
    EXPECT_TRUE(d.observe(0, 102));
    EXPECT_FALSE(d.observe(0, 110)); // delta changed
    EXPECT_TRUE(d.observe(0, 118));  // two deltas of 8 now
}

TEST(Stride, ZeroStrideIsNotStrided)
{
    StrideDetector d;
    d.observe(0, 100);
    d.observe(0, 100);
    EXPECT_FALSE(d.observe(0, 100));
}

TEST(Stride, RandomJumpsNeverPredict)
{
    StrideDetector d;
    BlockId b = 1;
    for (int i = 0; i < 200; ++i) {
        b = b * 6364136223846793005ull + 1442695040888963407ull;
        EXPECT_FALSE(d.observe(0, b % (1ull << 40)));
    }
}

TEST(Stride, PerCpuTrackersAreIndependent)
{
    StrideDetector d;
    d.observe(0, 100);
    d.observe(0, 101);
    // CPU 1 sees an unrelated address; must not predict.
    EXPECT_FALSE(d.observe(1, 102));
    // CPU 0's stream continues predicted.
    EXPECT_TRUE(d.observe(0, 102));
}

TEST(Stride, MultipleConcurrentStreams)
{
    StrideDetector d;
    // Two interleaved streams far apart; both should be tracked.
    for (int i = 0; i < 10; ++i) {
        const bool p1 = d.observe(0, 1000 + i);
        const bool p2 = d.observe(0, 500000 + 4 * i);
        if (i >= 2) {
            EXPECT_TRUE(p1) << i;
            EXPECT_TRUE(p2) << i;
        }
    }
}

TEST(Stride, OutOfWindowAllocatesNewTracker)
{
    StrideConfig cfg;
    cfg.window = 16;
    StrideDetector d(cfg);
    d.observe(0, 100);
    d.observe(0, 101);
    EXPECT_TRUE(d.observe(0, 102));
    // A jump beyond the window starts fresh, not a giant stride.
    EXPECT_FALSE(d.observe(0, 10000));
    EXPECT_FALSE(d.observe(0, 10001));
    EXPECT_TRUE(d.observe(0, 10002));
}

TEST(Stride, LabelTraceMatchesManualFeed)
{
    MissTrace t;
    t.numCpus = 2;
    std::vector<BlockId> blocks = {10, 11, 12, 13, 900, 905, 910};
    std::uint64_t seq = 0;
    for (auto b : blocks)
        t.misses.push_back(MissRecord{seq++, b, 0, 0, 0});
    MissLabels labels;
    analyzeStreams(t, &labels);
    const std::vector<bool> &flags = labels.strided;
    ASSERT_EQ(flags.size(), blocks.size());
    EXPECT_FALSE(flags[0]);
    EXPECT_FALSE(flags[1]);
    EXPECT_TRUE(flags[2]);
    EXPECT_TRUE(flags[3]);
    EXPECT_FALSE(flags[4]); // delta changed
    EXPECT_FALSE(flags[5]);
    EXPECT_TRUE(flags[6]);
}

/** Parameterized sweep: arithmetic sequences of any stride within the
 *  window are eventually predicted. */
class StrideSweepTest : public ::testing::TestWithParam<std::int64_t>
{
};

TEST_P(StrideSweepTest, ArithmeticSequencePredicted)
{
    const std::int64_t stride = GetParam();
    StrideDetector d;
    std::int64_t addr = 1 << 20;
    int predicted = 0;
    for (int i = 0; i < 20; ++i) {
        if (d.observe(0, static_cast<BlockId>(addr)))
            ++predicted;
        addr += stride;
    }
    EXPECT_GE(predicted, 17);
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideSweepTest,
                         ::testing::Values(1, 2, 3, 4, 8, 12, -1, -2,
                                           -8, -12));

TEST(Stride, StridesBeyondWindowAreNotTracked)
{
    // Deliberate design point: distant addresses must not alias into
    // one tracker (they are different buffers, not a stride).
    StrideDetector d;
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(d.observe(0, 1000 + i * 500));
}

} // namespace
} // namespace tstream
