/**
 * @file
 * Property test of the single-chip presence mask: under random reads,
 * writes, DMA and copyout writes from every core, with caches small
 * enough that evictions and dirty write-backs happen all the time,
 * every cache holding a block has the block's presence bit set, and
 * the model's own invalidations clear exactly the bits they should.
 */

#include <gtest/gtest.h>

#include "mem/singlechip.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

constexpr unsigned kCores = 4;
constexpr BlockId kFirst = 0x1000;
constexpr BlockId kBlocks = 96;

SingleChipConfig
tinyChip()
{
    SingleChipConfig cfg;
    cfg.cores = kCores;
    cfg.l1 = CacheConfig{512, 2};  // 4 sets
    cfg.l2 = CacheConfig{2048, 4}; // 8 sets
    return cfg;
}

/** Every cache that holds a block of the universe has its bit set. */
void
expectMaskCoversHolders(const SingleChipSystem &sys, std::size_t step)
{
    for (BlockId blk = kFirst; blk < kFirst + kBlocks; ++blk) {
        const SingleChipSystem::Presence p = sys.presence(blk);
        for (unsigned c = 0; c < kCores; ++c) {
            if (sys.probeL1(c, blk)) {
                ASSERT_TRUE((p.l1s >> c) & 1u)
                    << "core " << c << " L1 holds block " << blk
                    << " without its bit, step " << step;
            }
        }
        if (sys.probeL2(blk)) {
            ASSERT_TRUE(p.l2) << "the L2 holds block " << blk
                              << " without its bit, step " << step;
        }
    }
}

TEST(PresenceMask, CoversEveryCachedCopyUnderRandomTraffic)
{
    SingleChipSystem sys(tinyChip());
    sys.setTracing(true);
    Rng rng(2024);
    for (std::size_t step = 0; step < 20000; ++step) {
        Access a;
        a.addr = blockBase(kFirst + rng.below(kBlocks));
        a.size = static_cast<std::uint32_t>(kBlockSize);
        a.cpu = static_cast<CpuId>(rng.below(kCores));
        const std::uint64_t kind = rng.below(20);
        a.type = kind < 12   ? AccessType::Read
                 : kind < 18 ? AccessType::Write
                 : kind < 19 ? AccessType::DmaWrite
                             : AccessType::NonAllocWrite;
        sys.accessBlock(a);

        const BlockId blk = blockOf(a.addr);
        const SingleChipSystem::Presence p = sys.presence(blk);
        if (a.type == AccessType::DmaWrite ||
            a.type == AccessType::NonAllocWrite) {
            // An I/O write invalidates every copy and clears the mask.
            EXPECT_EQ(p.l1s, 0u);
            EXPECT_FALSE(p.l2);
        } else if (a.type == AccessType::Write) {
            // A store leaves the block in the writer's L1.
            EXPECT_TRUE((p.l1s >> a.cpu) & 1u);
            EXPECT_TRUE(sys.probeL1(a.cpu, blk));
        } else {
            EXPECT_TRUE((p.l1s >> a.cpu) & 1u);
        }
        expectMaskCoversHolders(sys, step);
        if (testing::Test::HasFatalFailure())
            return;
    }
    // The traffic exercised every path the mask depends on.
    EXPECT_GT(sys.offChipTrace().misses.size(), 1000u);
    EXPECT_GT(sys.intraChipTrace().misses.size(),
              sys.offChipTrace().misses.size());
}

TEST(PresenceMask, StoreKeepsOnlyTheWritersL1)
{
    SingleChipSystem sys(tinyChip());
    const Addr a = blockBase(kFirst);
    for (unsigned c = 0; c < kCores; ++c)
        sys.accessBlock(Access{a, 64, AccessType::Read,
                               static_cast<CpuId>(c), 0});
    SingleChipSystem::Presence p = sys.presence(kFirst);
    EXPECT_EQ(p.l1s, (1u << kCores) - 1);
    EXPECT_TRUE(p.l2);

    sys.accessBlock(Access{a, 64, AccessType::Write, 2, 0});
    p = sys.presence(kFirst);
    EXPECT_EQ(p.l1s, 1u << 2);
    EXPECT_FALSE(p.l2);

    sys.accessBlock(Access{a, 64, AccessType::DmaWrite, 0, 0});
    p = sys.presence(kFirst);
    EXPECT_EQ(p.l1s, 0u);
    EXPECT_FALSE(p.l2);
    EXPECT_FALSE(sys.probeL1(2, kFirst));
}

} // namespace
} // namespace tstream
