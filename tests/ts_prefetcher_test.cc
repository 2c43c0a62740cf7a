/**
 * @file
 * Tests for the temporal-streaming prefetcher extension, scored
 * offline through the policy API: the fixed-depth policy and the
 * temporal-plus-stride hybrid.
 */

#include <gtest/gtest.h>

#include "core/prefetch_policy.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

MissTrace
traceOf(const std::vector<BlockId> &blocks, unsigned ncpu = 1)
{
    MissTrace t;
    t.numCpus = ncpu;
    for (std::size_t i = 0; i < blocks.size(); ++i)
        t.misses.push_back(MissRecord{
            i, blocks[i], static_cast<CpuId>(i % ncpu), 0, 0});
    return t;
}

TsPrefetcherStats
fixedDepth(const MissTrace &t, const TsPrefetcherConfig &cfg = {})
{
    FixedDepthPolicy policy(cfg);
    return evaluatePolicy(t, policy, cfg.bufferBlocks);
}

TsPrefetcherStats
hybrid(const MissTrace &t, const TsPrefetcherConfig &cfg = {})
{
    auto policy = HybridPolicy::temporalPlusStride(cfg, 2);
    return evaluatePolicy(t, *policy, cfg.bufferBlocks);
}

TEST(TsPrefetcher, EmptyTrace)
{
    const auto st = fixedDepth(MissTrace{});
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(st.coverage(), 0.0);
    EXPECT_EQ(st.accuracy(), 0.0);
}

TEST(TsPrefetcher, UniqueMissesAreNeverCovered)
{
    std::vector<BlockId> blocks;
    for (BlockId b = 0; b < 1000; ++b)
        blocks.push_back(b * 1009);
    const auto st = fixedDepth(traceOf(blocks));
    EXPECT_EQ(st.covered, 0u);
}

TEST(TsPrefetcher, RepeatedStreamGetsCovered)
{
    // The motif repeats 5 times; from the second occurrence on, the
    // replay should cover most of its misses.
    std::vector<BlockId> motif;
    for (BlockId b = 0; b < 32; ++b)
        motif.push_back(5000 + b * 7);
    std::vector<BlockId> blocks;
    BlockId fresh = 0;
    for (int rep = 0; rep < 5; ++rep) {
        blocks.insert(blocks.end(), motif.begin(), motif.end());
        for (int i = 0; i < 20; ++i)
            blocks.push_back(900000 + fresh++);
    }
    const auto st = fixedDepth(traceOf(blocks));
    // 4 recurrences x ~31 coverable misses each, less ramp-up.
    EXPECT_GT(st.coverage(), 0.3);
    EXPECT_GT(st.accuracy(), 0.5);
}

TEST(TsPrefetcher, DeeperReplayCoversLongerStreams)
{
    std::vector<BlockId> motif;
    for (BlockId b = 0; b < 64; ++b)
        motif.push_back(7000 + b * 3);
    std::vector<BlockId> blocks;
    BlockId fresh = 0;
    for (int rep = 0; rep < 4; ++rep) {
        blocks.insert(blocks.end(), motif.begin(), motif.end());
        for (int i = 0; i < 30; ++i)
            blocks.push_back(800000 + fresh++);
    }

    auto statsAt = [&](std::uint32_t depth) {
        TsPrefetcherConfig cfg;
        cfg.replayDepth = depth;
        return fixedDepth(traceOf(blocks), cfg);
    };
    // Depth-1 replay still covers by chaining (each covered miss
    // looks up the stream again), so coverage is monotone rather than
    // strictly increasing; deeper replay must issue further ahead.
    const auto s1 = statsAt(1);
    const auto s16 = statsAt(16);
    EXPECT_GE(s16.coverage(), s1.coverage());
    EXPECT_GT(s16.issued, s1.issued);
}

TEST(TsPrefetcher, CrossCpuRecurrenceRequiresCrossCpuLookup)
{
    // Motif on cpu 0, then replayed on cpu 1.
    std::vector<BlockId> motif;
    for (BlockId b = 0; b < 24; ++b)
        motif.push_back(4000 + b);

    MissTrace t;
    t.numCpus = 2;
    std::uint64_t seq = 0;
    for (auto b : motif)
        t.misses.push_back(MissRecord{seq++, b, 0, 0, 0});
    for (auto b : motif)
        t.misses.push_back(MissRecord{seq++, b, 1, 0, 0});

    TsPrefetcherConfig on;
    on.crossCpu = true;
    TsPrefetcherConfig off;
    off.crossCpu = false;
    const auto covOn = fixedDepth(t, on).coverage();
    const auto covOff = fixedDepth(t, off).coverage();
    EXPECT_GT(covOn, 0.3);
    EXPECT_LT(covOff, covOn);
}

TEST(TsPrefetcher, BufferCapacityBoundsOutstandingPrefetches)
{
    TsPrefetcherConfig cfg;
    cfg.bufferBlocks = 4;
    cfg.replayDepth = 32;
    std::vector<BlockId> motif;
    for (BlockId b = 0; b < 64; ++b)
        motif.push_back(b + 100);
    std::vector<BlockId> blocks = motif;
    blocks.insert(blocks.end(), motif.begin(), motif.end());
    const auto st = fixedDepth(traceOf(blocks), cfg);
    // With a 4-entry buffer, deep replay displaces most of its own
    // prefetches: accuracy suffers.
    EXPECT_LT(st.accuracy(), 0.6);
}

TEST(TsPrefetcher, HistoryWrapInvalidatesStalePositions)
{
    TsPrefetcherConfig cfg;
    cfg.historyEntries = 128; // tiny ring
    std::vector<BlockId> blocks;
    blocks.push_back(42);
    for (BlockId b = 0; b < 500; ++b)
        blocks.push_back(100000 + b); // flushes the ring
    blocks.push_back(42);             // stale index entry
    const auto st = fixedDepth(traceOf(blocks), cfg);
    // Must not crash or replay garbage; the stale lookup is skipped
    // (or harmlessly replays recent entries if re-indexed).
    EXPECT_EQ(st.covered, 0u);
}

TEST(TsPrefetcher, HybridCoversStridedNonRepetitiveMisses)
{
    // A long fresh sequential sweep: pure temporal streaming covers
    // nothing (no repetition), the hybrid's stride engine covers
    // almost everything.
    std::vector<BlockId> sweep;
    for (BlockId b = 0; b < 2000; ++b)
        sweep.push_back(100000 + b);
    const MissTrace t = traceOf(sweep);
    EXPECT_EQ(fixedDepth(t).covered, 0u);
    EXPECT_GT(hybrid(t).coverage(), 0.8);
}

TEST(TsPrefetcher, HybridKeepsTemporalCoverage)
{
    // A pointer-chase motif (non-strided) repeated: the hybrid must
    // not lose the temporal engine's coverage.
    Rng rng(23);
    std::vector<BlockId> motif;
    for (int i = 0; i < 40; ++i)
        motif.push_back(rng.below(1 << 20));
    std::vector<BlockId> blocks;
    BlockId fresh = 1 << 24;
    for (int rep = 0; rep < 6; ++rep) {
        blocks.insert(blocks.end(), motif.begin(), motif.end());
        for (int i = 0; i < 25; ++i)
            blocks.push_back(fresh++ * 97);
    }
    const MissTrace t = traceOf(blocks);
    const double tcov = fixedDepth(t).coverage();
    const double hcov = hybrid(t).coverage();
    EXPECT_GT(tcov, 0.3);
    EXPECT_GE(hcov, tcov * 0.9);
}

TEST(TsPrefetcher, CoverageTracksRepetitionQualitatively)
{
    Rng rng(17);
    auto makeTrace = [&](double repeatFrac) {
        std::vector<BlockId> motif;
        for (int i = 0; i < 40; ++i)
            motif.push_back(rng.below(1 << 16));
        std::vector<BlockId> blocks;
        BlockId fresh = 1 << 20;
        while (blocks.size() < 20000) {
            if (rng.chance(repeatFrac))
                blocks.insert(blocks.end(), motif.begin(), motif.end());
            else
                blocks.push_back(fresh++);
        }
        return traceOf(blocks);
    };
    const double covHigh = fixedDepth(makeTrace(0.5)).coverage();
    const double covLow = fixedDepth(makeTrace(0.05)).coverage();
    EXPECT_GT(covHigh, covLow);
}

} // namespace
} // namespace tstream
