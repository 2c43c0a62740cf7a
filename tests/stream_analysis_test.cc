/**
 * @file
 * Tests of the temporal-stream analysis: repetition labelling,
 * New/Recurring split, cross-CPU recurrence, stream lengths, reuse
 * distances, and the strided x repetitive joint breakdown.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/stream_analysis.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

/** Build a single-CPU trace from a block sequence. */
MissTrace
traceOf(const std::vector<BlockId> &blocks)
{
    MissTrace t;
    t.numCpus = 1;
    t.instructions = 1000 * blocks.size();
    for (std::size_t i = 0; i < blocks.size(); ++i)
        t.misses.push_back(
            MissRecord{i, blocks[i], 0, 0, 0});
    return t;
}

/** Append a per-CPU interleaved trace. */
MissTrace
traceOf(const std::vector<std::pair<unsigned, BlockId>> &seq,
        unsigned ncpu)
{
    MissTrace t;
    t.numCpus = ncpu;
    t.instructions = 1000 * seq.size();
    for (std::size_t i = 0; i < seq.size(); ++i)
        t.misses.push_back(MissRecord{
            i, seq[i].second, static_cast<CpuId>(seq[i].first), 0, 0});
    return t;
}

TEST(StreamAnalysis, EmptyTrace)
{
    MissTrace t;
    t.numCpus = 1;
    StreamStats s = analyzeStreams(t);
    EXPECT_EQ(s.totalMisses, 0u);
    EXPECT_EQ(s.inStreamFraction(), 0.0);
}

TEST(StreamAnalysis, AllUniqueIsNonRepetitive)
{
    std::vector<BlockId> blocks;
    for (BlockId b = 0; b < 500; ++b)
        blocks.push_back(b * 977 + 13);
    StreamStats s = analyzeStreams(traceOf(blocks));
    EXPECT_EQ(s.nonRepetitive, 500u);
    EXPECT_EQ(s.newStream + s.recurringStream, 0u);
}

TEST(StreamAnalysis, RepeatedSequenceSplitsNewAndRecurring)
{
    // The motif M (10 misses) appears 3 times among unique noise:
    // first occurrence New, later two Recurring.
    std::vector<BlockId> motif;
    for (BlockId b = 0; b < 10; ++b)
        motif.push_back(1000 + b * 3);

    std::vector<BlockId> blocks;
    BlockId fresh = 1;
    auto noise = [&](int n) {
        for (int i = 0; i < n; ++i)
            blocks.push_back(100000 + fresh++ * 7);
    };
    noise(30);
    blocks.insert(blocks.end(), motif.begin(), motif.end());
    noise(30);
    blocks.insert(blocks.end(), motif.begin(), motif.end());
    noise(30);
    blocks.insert(blocks.end(), motif.begin(), motif.end());
    noise(30);

    StreamStats s = analyzeStreams(traceOf(blocks));
    EXPECT_GE(s.newStream, 8u);
    EXPECT_LE(s.newStream, 14u); // about one motif's worth
    EXPECT_GE(s.recurringStream, 16u); // about two motifs' worth
    EXPECT_NEAR(static_cast<double>(s.nonRepetitive), 120.0, 8.0);
}

TEST(StreamAnalysis, LabelsAlignWithTraceOrder)
{
    std::vector<BlockId> blocks = {1, 2, 3, 900, 1, 2, 3, 901};
    MissLabels labels;
    StreamStats s = analyzeStreams(traceOf(blocks), &labels);
    EXPECT_EQ(s.totalMisses, 8u);
    ASSERT_EQ(labels.rep.size(), 8u);
    ASSERT_EQ(labels.strided.size(), 8u);
    // The two [1 2 3] occurrences are the stream.
    EXPECT_EQ(labels.rep[0], RepLabel::NewStream);
    EXPECT_EQ(labels.rep[4], RepLabel::RecurringStream);
    EXPECT_EQ(labels.rep[3], RepLabel::NonRepetitive);
    EXPECT_EQ(labels.rep[7], RepLabel::NonRepetitive);
}

TEST(StreamAnalysis, CrossCpuRecurrenceIsFound)
{
    // CPU 0 sees the motif first; CPU 1 replays it later. The paper's
    // streams recur across processors (Section 2.1).
    std::vector<std::pair<unsigned, BlockId>> seq;
    for (BlockId b = 0; b < 12; ++b)
        seq.push_back({0, 5000 + b});
    for (BlockId b = 0; b < 20; ++b)
        seq.push_back({1, 90000 + b * 991}); // unique noise on cpu 1
    for (BlockId b = 0; b < 12; ++b)
        seq.push_back({1, 5000 + b});

    StreamStats s = analyzeStreams(traceOf(seq, 2));
    EXPECT_GE(s.newStream + s.recurringStream, 20u);
    EXPECT_GE(s.recurringStream, 8u);
}

TEST(StreamAnalysis, PerCpuProjectionIgnoresInterleavingNoise)
{
    // The motif on CPU 0 is chopped up by CPU 1's misses in global
    // order; the per-CPU projection must still find it whole.
    std::vector<std::pair<unsigned, BlockId>> seq;
    BlockId fresh = 0;
    for (int rep = 0; rep < 3; ++rep) {
        for (BlockId b = 0; b < 10; ++b) {
            seq.push_back({0, 7000 + b});
            seq.push_back({1, 400000 + fresh++}); // unique
        }
    }
    MissLabels labels;
    analyzeStreams(traceOf(seq, 2), &labels);
    // All 30 cpu-0 misses are stream misses.
    std::uint64_t cpu0InStream = 0;
    for (std::size_t i = 0; i < seq.size(); ++i)
        if (seq[i].first == 0 &&
            labels.rep[i] != RepLabel::NonRepetitive)
            ++cpu0InStream;
    EXPECT_GE(cpu0InStream, 28u);
}

TEST(StreamAnalysis, StreamLengthWeighting)
{
    // One long motif (100) repeated twice and one short motif (4)
    // repeated twice: the length CDF is dominated by the long one.
    std::vector<BlockId> blocks;
    for (int rep = 0; rep < 2; ++rep) {
        for (BlockId b = 0; b < 100; ++b)
            blocks.push_back(10000 + b);
        for (BlockId b = 0; b < 4; ++b)
            blocks.push_back(20000 + b);
        blocks.push_back(777000 + rep); // separator noise
    }
    StreamStats s = analyzeStreams(traceOf(blocks));
    EXPECT_GE(s.medianStreamLength(), 50.0);
    // Total weighted length mass ~ all stream misses.
    std::uint64_t mass = 0;
    for (const auto &[len, w] : s.lengthWeighted)
        mass += w;
    EXPECT_NEAR(static_cast<double>(mass),
                static_cast<double>(s.newStream + s.recurringStream),
                static_cast<double>(s.totalMisses) * 0.15);
}

TEST(StreamAnalysis, ReuseDistanceCountsInterveningMisses)
{
    // Motif (len 8), then exactly 50 unique misses, then the motif
    // again, all on one CPU: reuse distance ~50.
    std::vector<BlockId> blocks;
    for (BlockId b = 0; b < 8; ++b)
        blocks.push_back(100 + b);
    for (BlockId b = 0; b < 50; ++b)
        blocks.push_back(50000 + b * 13);
    for (BlockId b = 0; b < 8; ++b)
        blocks.push_back(100 + b);

    StreamStats s = analyzeStreams(traceOf(blocks));
    ASSERT_FALSE(s.reuseWeighted.empty());
    // Find the dominant (largest-weight) reuse sample.
    auto major = *std::max_element(
        s.reuseWeighted.begin(), s.reuseWeighted.end(),
        [](const auto &a, const auto &b) {
            return a.second < b.second;
        });
    EXPECT_NEAR(static_cast<double>(major.first), 50.0, 10.0);
}

TEST(StreamAnalysis, ReuseDistanceUsesFirstProcessorsMisses)
{
    // Motif on CPU 0, then lots of CPU-1 noise, then the motif on
    // CPU 1. Distance is counted in CPU-0 misses (paper Section 4.5),
    // and CPU 0 issues only 3 misses in between.
    std::vector<std::pair<unsigned, BlockId>> seq;
    for (BlockId b = 0; b < 8; ++b)
        seq.push_back({0, 300 + b});
    for (BlockId b = 0; b < 200; ++b)
        seq.push_back({1, 800000 + b * 7});
    for (BlockId b = 0; b < 3; ++b)
        seq.push_back({0, 900000 + b * 11});
    for (BlockId b = 0; b < 8; ++b)
        seq.push_back({1, 300 + b});

    StreamStats s = analyzeStreams(traceOf(seq, 2));
    ASSERT_FALSE(s.reuseWeighted.empty());
    auto major = *std::max_element(
        s.reuseWeighted.begin(), s.reuseWeighted.end(),
        [](const auto &a, const auto &b) {
            return a.second < b.second;
        });
    EXPECT_LE(major.first, 6u); // ~3, certainly not ~200
}

TEST(StreamAnalysis, StridedAndRepetitiveAreOrthogonal)
{
    // A strided sweep repeated twice: strided AND repetitive.
    std::vector<BlockId> blocks;
    for (int rep = 0; rep < 2; ++rep)
        for (BlockId b = 0; b < 64; ++b)
            blocks.push_back(4096 + b);
    StreamStats s = analyzeStreams(traceOf(blocks));
    EXPECT_GT(s.stridedRepetitive, 80u);

    // A strided sweep over fresh addresses: strided, NOT repetitive.
    std::vector<BlockId> sweep;
    for (BlockId b = 0; b < 200; ++b)
        sweep.push_back(900000 + b);
    StreamStats s2 = analyzeStreams(traceOf(sweep));
    EXPECT_GT(s2.stridedNonRepetitive, 150u);
    EXPECT_EQ(s2.stridedRepetitive + s2.nonStridedRepetitive, 0u);
}

TEST(StreamAnalysis, CountsSumToTotal)
{
    Rng rng(31);
    std::vector<BlockId> blocks;
    for (int i = 0; i < 3000; ++i)
        blocks.push_back(rng.below(400));
    StreamStats s = analyzeStreams(traceOf(blocks));
    EXPECT_EQ(s.nonRepetitive + s.newStream + s.recurringStream,
              s.totalMisses);
    EXPECT_EQ(s.stridedRepetitive + s.stridedNonRepetitive +
                  s.nonStridedRepetitive + s.nonStridedNonRepetitive,
              s.totalMisses);
}

TEST(StreamAnalysis, GrammarScalesToLargeTraces)
{
    Rng rng(8);
    std::vector<BlockId> blocks;
    std::vector<BlockId> motif;
    for (int i = 0; i < 40; ++i)
        motif.push_back(rng.below(1 << 20));
    while (blocks.size() < 200000) {
        if (rng.chance(0.3))
            blocks.insert(blocks.end(), motif.begin(), motif.end());
        else
            blocks.push_back(rng.below(1 << 22));
    }
    StreamStats s = analyzeStreams(traceOf(blocks));
    EXPECT_GT(s.inStreamFraction(), 0.3);
    // The motif compresses into a small rule hierarchy; unique noise
    // adds none. The exact count is grammar-shaped, just non-trivial.
    EXPECT_GE(s.grammarRules, 5u);
}

} // namespace
} // namespace tstream
