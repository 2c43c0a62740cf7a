/**
 * @file
 * Differential test of the struct-of-arrays StrideDetector against a
 * frozen copy of the array-of-structs detector it replaced (one
 * vector of {last, stride, conf, lru} trackers per CPU).
 *
 * Seeded random per-CPU streams built to hit every rule — strides
 * inside and outside the window, repeats of the same block, several
 * trackers at the same distance from a miss (the first in scan order
 * wins), and enough distinct regions to force LRU eviction — and the
 * off-chip trace of a quick-budget cell, fed per CPU the way
 * analyzeStreams() feeds it, must give identical flags, under the
 * default and under non-default configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/stride.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

// ---------------------------------------------------------------------
// Frozen reference: the array-of-structs implementation.
// ---------------------------------------------------------------------

namespace legacy
{

class StrideDetector
{
  public:
    explicit StrideDetector(const StrideConfig &cfg = {}) : cfg_(cfg) {}

    bool
    observe(CpuId cpu, BlockId blk)
    {
        if (tables_.size() <= cpu)
            tables_.resize(cpu + 1);
        auto &table = tables_[cpu];
        if (table.empty())
            table.resize(cfg_.trackers);

        const std::int64_t b = static_cast<std::int64_t>(blk);
        ++tick_;

        int best = -1;
        std::int64_t bestDist = cfg_.window + 1;
        for (std::size_t i = 0; i < table.size(); ++i) {
            Tracker &t = table[i];
            if (t.conf < 0)
                continue;
            const std::int64_t d = std::llabs(b - t.last);
            if (d <= cfg_.window && d < bestDist) {
                bestDist = d;
                best = static_cast<int>(i);
            }
        }

        if (best >= 0) {
            Tracker &t = table[best];
            const std::int64_t delta = b - t.last;
            bool predicted = false;
            if (delta == t.stride && delta != 0 && t.conf >= 0) {
                t.conf++;
                predicted = t.conf >= 1;
            } else {
                t.stride = delta;
                t.conf = 0;
            }
            t.last = b;
            t.lru = tick_;
            return predicted;
        }

        std::size_t victim = 0;
        std::uint64_t oldest = UINT64_MAX;
        for (std::size_t i = 0; i < table.size(); ++i) {
            if (table[i].conf < 0) {
                victim = i;
                break;
            }
            if (table[i].lru < oldest) {
                oldest = table[i].lru;
                victim = i;
            }
        }
        table[victim] = Tracker{b, 0, 0, tick_};
        return false;
    }

  private:
    struct Tracker
    {
        std::int64_t last = 0;
        std::int64_t stride = 0;
        int conf = -1;
        std::uint64_t lru = 0;
    };

    StrideConfig cfg_;
    std::vector<std::vector<Tracker>> tables_;
    std::uint64_t tick_ = 0;
};

} // namespace legacy

struct Miss
{
    CpuId cpu;
    BlockId block;
};

/**
 * A seeded stream over @p ncpu CPUs. Each miss continues one of a
 * handful of per-CPU cursors (a stride, possibly 0, or a jump), or
 * lands exactly halfway between two live cursors so two trackers are
 * at the same distance, or opens a fresh region far away.
 */
std::vector<Miss>
randomStream(std::uint64_t seed, unsigned ncpu, std::size_t n,
             std::int64_t window)
{
    Rng rng(seed);
    struct Cursor
    {
        std::int64_t pos, stride;
    };
    std::vector<std::vector<Cursor>> cursors(ncpu);
    std::vector<Miss> out;
    out.reserve(n);
    while (out.size() < n) {
        const auto cpu = static_cast<CpuId>(rng.below(ncpu));
        auto &cs = cursors[cpu];
        const std::uint64_t pick = rng.below(100);
        std::int64_t blk;
        if (cs.size() < 2 || pick < 8) {
            // A fresh region, far from everything else.
            const std::int64_t base =
                static_cast<std::int64_t>(rng.below(1 << 20)) * 4096;
            const std::int64_t stride =
                static_cast<std::int64_t>(rng.below(2 * window + 5)) -
                (window + 2);
            if (cs.size() >= 24)
                cs[rng.below(cs.size())] = {base, stride};
            else
                cs.push_back({base, stride});
            blk = base;
        } else if (pick < 20) {
            // Equidistant from two live trackers: put two cursors
            // 2d apart and miss at their midpoint.
            Cursor &a = cs[rng.below(cs.size())];
            Cursor &b = cs[rng.below(cs.size())];
            const std::int64_t d =
                1 + static_cast<std::int64_t>(rng.below(window));
            b.pos = a.pos + 2 * d;
            out.push_back({cpu, static_cast<BlockId>(b.pos)});
            blk = a.pos + d;
        } else if (pick < 28) {
            // The same block again.
            blk = cs[rng.below(cs.size())].pos;
        } else {
            Cursor &c = cs[rng.below(cs.size())];
            c.pos += c.stride;
            blk = c.pos;
        }
        out.push_back({cpu, static_cast<BlockId>(blk)});
    }
    return out;
}

/** Flags of both detectors on @p misses; the first mismatch fails. */
void
expectSameFlags(const std::vector<Miss> &misses, const StrideConfig &cfg,
                std::size_t *predicted = nullptr)
{
    legacy::StrideDetector ref(cfg);
    StrideDetector det(cfg);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < misses.size(); ++i) {
        const bool want = ref.observe(misses[i].cpu, misses[i].block);
        const bool got = det.observe(misses[i].cpu, misses[i].block);
        ASSERT_EQ(got, want) << "miss " << i << " (cpu " << misses[i].cpu
                             << ", block " << misses[i].block << ")";
        hits += got;
    }
    if (predicted)
        *predicted = hits;
}

TEST(StrideDiff, SeededStreamsMatchTheReference)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        StrideConfig cfg;
        std::size_t predicted = 0;
        expectSameFlags(randomStream(seed, 1 + seed % 5, 20000, cfg.window),
                        cfg, &predicted);
        EXPECT_GT(predicted, 100u) << "the stream should exercise strides";
    }
}

TEST(StrideDiff, NonDefaultConfigurationsMatchTheReference)
{
    const StrideConfig cfgs[] = {{1, 12}, {2, 3}, {4, 64}, {32, 12},
                                 {16, 0}};
    for (const StrideConfig &cfg : cfgs) {
        SCOPED_TRACE(::testing::Message() << cfg.trackers << " trackers, "
                                          << "window " << cfg.window);
        for (std::uint64_t seed = 100; seed < 104; ++seed)
            expectSameFlags(
                randomStream(seed, 3, 10000, std::max<std::int64_t>(
                                                 cfg.window, 1)),
                cfg);
    }
}

TEST(StrideDiff, RecordedQuickTraceMatchesTheReference)
{
    const ExperimentResult res = runExperiment(ExperimentConfig::quick(
        WorkloadKind::DssQ1, SystemContext::MultiChip));
    const MissTrace &t = res.offChip;
    ASSERT_GT(t.misses.size(), 10000u);
    // Per CPU in order, as analyzeStreams() feeds its detector.
    std::vector<Miss> misses;
    misses.reserve(t.misses.size());
    for (unsigned c = 0; c < std::max(1u, t.numCpus); ++c)
        for (const MissRecord &m : t.misses)
            if (m.cpu == c)
                misses.push_back({m.cpu, m.block});
    std::size_t predicted = 0;
    expectSameFlags(misses, StrideConfig{}, &predicted);
    EXPECT_GT(predicted, 0u);
}

} // namespace
} // namespace tstream
