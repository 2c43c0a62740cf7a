/**
 * @file
 * Protocol tests for the multi-chip MSI DSM and the single-chip MOSI
 * CMP: state transitions, invalidations, supplier selection, and the
 * classification of traced misses.
 */

#include <gtest/gtest.h>

#include "mem/multichip.hh"
#include "mem/singlechip.hh"

namespace tstream
{
namespace
{

Access
read(unsigned cpu, Addr a)
{
    return Access{a, 64, AccessType::Read, static_cast<CpuId>(cpu), 0};
}

Access
write(unsigned cpu, Addr a)
{
    return Access{a, 64, AccessType::Write, static_cast<CpuId>(cpu), 0};
}

Access
dma(Addr a)
{
    return Access{a, 64, AccessType::DmaWrite, 0, 0};
}

Access
nonAlloc(unsigned cpu, Addr a)
{
    return Access{a, 64, AccessType::NonAllocWrite,
                  static_cast<CpuId>(cpu), 0};
}

constexpr Addr kA = 0x1000;

// ---------------------------------------------------------------------
// Multi-chip MSI.
// ---------------------------------------------------------------------

TEST(MultiChip, FirstReadIsCompulsoryTracedMiss)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    sys.access(read(0, kA));
    ASSERT_EQ(sys.offChipTrace().misses.size(), 1u);
    EXPECT_EQ(static_cast<MissClass>(sys.offChipTrace().misses[0].cls),
              MissClass::Compulsory);
    EXPECT_EQ(sys.offChipTrace().misses[0].cpu, 0);
}

TEST(MultiChip, L1AndL2HitsAreNotTraced)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    sys.access(read(0, kA));
    sys.access(read(0, kA)); // L1 hit
    EXPECT_EQ(sys.offChipTrace().misses.size(), 1u);
}

TEST(MultiChip, ReadSharingAcrossNodes)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    sys.access(read(0, kA));
    sys.access(read(1, kA));
    ASSERT_EQ(sys.offChipTrace().misses.size(), 2u);
    // Second node's first read: globally warm, never read there ->
    // Replacement (cold at that node), not coherence.
    EXPECT_EQ(static_cast<MissClass>(sys.offChipTrace().misses[1].cls),
              MissClass::Replacement);
    const auto *de = sys.dirEntry(blockOf(kA));
    ASSERT_NE(de, nullptr);
    EXPECT_EQ(de->sharers & 0b11u, 0b11u);
}

TEST(MultiChip, WriteInvalidatesSharers)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    sys.access(read(0, kA));
    sys.access(read(1, kA));
    sys.access(write(2, kA));
    EXPECT_FALSE(sys.probeL2(0, blockOf(kA)));
    EXPECT_FALSE(sys.probeL2(1, blockOf(kA)));
    EXPECT_EQ(*sys.probeL2(2, blockOf(kA)), CohState::Modified);

    // Node 0 re-reads: coherence miss (written by another node since
    // node 0's last read).
    sys.access(read(0, kA));
    const auto &m = sys.offChipTrace().misses.back();
    EXPECT_EQ(static_cast<MissClass>(m.cls), MissClass::Coherence);
}

TEST(MultiChip, OwnerDowngradesToSharedOnRemoteRead)
{
    MultiChipSystem sys;
    sys.access(write(3, kA));
    sys.access(read(4, kA));
    EXPECT_EQ(*sys.probeL2(3, blockOf(kA)), CohState::Shared);
    EXPECT_EQ(*sys.probeL2(4, blockOf(kA)), CohState::Shared);
    const auto *de = sys.dirEntry(blockOf(kA));
    ASSERT_NE(de, nullptr);
    EXPECT_EQ(de->owner, -1);
}

TEST(MultiChip, RereadAfterOwnWriteAndEvictionIsReplacement)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    sys.access(read(0, kA));
    sys.access(write(0, kA));
    // Force eviction of kA from node 0's L2 by filling its set.
    const std::uint64_t sets = cachecfg::kL2.numSets();
    for (unsigned w = 0; w <= cachecfg::kL2.ways; ++w)
        sys.access(read(0, kA + (w + 1) * sets * kBlockSize));
    ASSERT_FALSE(sys.probeL2(0, blockOf(kA)));
    sys.access(read(0, kA));
    const auto &m = sys.offChipTrace().misses.back();
    EXPECT_EQ(static_cast<MissClass>(m.cls), MissClass::Replacement);
}

TEST(MultiChip, DmaWriteInvalidatesAllAndCausesIoCoherence)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    sys.access(read(0, kA));
    sys.access(read(5, kA));
    sys.access(dma(kA));
    EXPECT_FALSE(sys.probeL1(0, blockOf(kA)));
    EXPECT_FALSE(sys.probeL2(5, blockOf(kA)));
    sys.access(read(5, kA));
    const auto &m = sys.offChipTrace().misses.back();
    EXPECT_EQ(static_cast<MissClass>(m.cls), MissClass::IoCoherence);
}

TEST(MultiChip, DmaWriteClearsDirectoryEntryAndReadRecreatesIt)
{
    MultiChipSystem sys;
    sys.access(read(0, kA));
    sys.access(write(3, kA));
    ASSERT_NE(sys.dirEntry(blockOf(kA)), nullptr);
    sys.access(dma(kA));
    EXPECT_EQ(sys.dirEntry(blockOf(kA)), nullptr);
    sys.access(read(1, kA));
    const auto *de = sys.dirEntry(blockOf(kA));
    ASSERT_NE(de, nullptr);
    EXPECT_EQ(de->sharers, 1u << 1);
    EXPECT_EQ(de->owner, -1);
}

TEST(MultiChip, NonAllocWriteBehavesLikeIo)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    sys.access(read(1, kA));
    sys.access(nonAlloc(0, kA));
    EXPECT_FALSE(sys.probeL2(0, blockOf(kA))); // no allocation
    sys.access(read(1, kA));
    const auto &m = sys.offChipTrace().misses.back();
    EXPECT_EQ(static_cast<MissClass>(m.cls), MissClass::IoCoherence);
}

TEST(MultiChip, FirstReadOfDmaBlockIsCompulsory)
{
    // Paper semantics: DSS scans show huge compulsory despite all
    // data arriving by DMA — a block never read by any processor
    // classifies Compulsory on its first read.
    MultiChipSystem sys;
    sys.setTracing(true);
    sys.access(dma(kA));
    sys.access(read(2, kA));
    EXPECT_EQ(static_cast<MissClass>(sys.offChipTrace().misses[0].cls),
              MissClass::Compulsory);
}

TEST(MultiChip, WarmupTracingOffSuppressesRecords)
{
    MultiChipSystem sys;
    sys.access(read(0, kA));
    EXPECT_TRUE(sys.offChipTrace().misses.empty());
    sys.setTracing(true);
    sys.access(read(1, kA));
    EXPECT_EQ(sys.offChipTrace().misses.size(), 1u);
}

TEST(MultiChip, MultiBlockAccessTouchesEveryBlock)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    Access a{kA, 4096, AccessType::Read, 0, 0};
    sys.access(a);
    EXPECT_EQ(sys.offChipTrace().misses.size(), kBlocksPerPage);
}

TEST(MultiChip, SequenceNumbersAreMonotonic)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    for (unsigned i = 0; i < 100; ++i)
        sys.access(read(i % 16, kA + i * kBlockSize));
    const auto &ms = sys.offChipTrace().misses;
    for (std::size_t i = 1; i < ms.size(); ++i)
        EXPECT_GT(ms[i].seq, ms[i - 1].seq);
}

// ---------------------------------------------------------------------
// Single-chip MOSI.
// ---------------------------------------------------------------------

TEST(SingleChip, FirstReadGoesOffChipAndOnChipTraces)
{
    SingleChipSystem sys;
    sys.setTracing(true);
    sys.access(read(0, kA));
    ASSERT_EQ(sys.offChipTrace().misses.size(), 1u);
    ASSERT_EQ(sys.intraChipTrace().misses.size(), 1u);
    EXPECT_EQ(static_cast<IntraClass>(sys.intraChipTrace().misses[0].cls),
              IntraClass::OffChip);
}

TEST(SingleChip, SecondCoreHitsSharedL2)
{
    SingleChipSystem sys;
    sys.setTracing(true);
    sys.access(read(0, kA));
    sys.access(read(1, kA));
    EXPECT_EQ(sys.offChipTrace().misses.size(), 1u); // L2 hit, no 2nd
    ASSERT_EQ(sys.intraChipTrace().misses.size(), 2u);
    EXPECT_EQ(static_cast<IntraClass>(sys.intraChipTrace().misses[1].cls),
              IntraClass::ReplacementL2);
}

TEST(SingleChip, DirtyPeerSuppliesAndKeepsOwnership)
{
    SingleChipSystem sys;
    sys.setTracing(true);
    sys.access(write(0, kA)); // core 0 holds M in L1; L2 dropped
    sys.access(read(1, kA));
    // Peer supply: core 0 downgrades M -> O.
    EXPECT_EQ(*sys.probeL1(0, blockOf(kA)), CohState::Owned);
    EXPECT_EQ(*sys.probeL1(1, blockOf(kA)), CohState::Shared);
    const auto &m = sys.intraChipTrace().misses.back();
    EXPECT_EQ(static_cast<IntraClass>(m.cls),
              IntraClass::CoherencePeerL1);
    // No off-chip traffic for the peer transfer.
    EXPECT_TRUE(sys.offChipTrace().misses.empty());
}

TEST(SingleChip, InvalidationThenL2SupplyIsCoherenceL2)
{
    SingleChipSystem sys;
    sys.setTracing(true);
    sys.access(read(1, kA)); // both in caches
    sys.access(write(0, kA)); // invalidates core 1's L1
    // Writeback M into L2 by evicting core 0's line.
    const std::uint64_t l1sets = cachecfg::kL1.numSets();
    for (unsigned w = 0; w <= cachecfg::kL1.ways; ++w)
        sys.access(write(0, kA + (w + 1) * l1sets * kBlockSize));
    ASSERT_FALSE(sys.probeL1(0, blockOf(kA)));
    ASSERT_TRUE(sys.probeL2(blockOf(kA)));
    sys.access(read(1, kA));
    const auto &m = sys.intraChipTrace().misses.back();
    EXPECT_EQ(static_cast<IntraClass>(m.cls), IntraClass::CoherenceL2);
}

TEST(SingleChip, NoProcessorCoherenceOffChip)
{
    // Processor-to-processor communication must never appear as
    // off-chip coherence: the chip is one reader entity.
    SingleChipSystem sys;
    sys.setTracing(true);
    for (unsigned round = 0; round < 50; ++round) {
        sys.access(write(round % 4, kA + (round % 8) * kBlockSize));
        sys.access(read((round + 1) % 4, kA + (round % 8) * kBlockSize));
    }
    for (const auto &m : sys.offChipTrace().misses)
        EXPECT_NE(static_cast<MissClass>(m.cls), MissClass::Coherence);
}

TEST(SingleChip, DmaInvalidatesWholeChip)
{
    SingleChipSystem sys;
    sys.setTracing(true);
    sys.access(read(0, kA));
    sys.access(read(2, kA));
    sys.access(dma(kA));
    EXPECT_FALSE(sys.probeL1(0, blockOf(kA)));
    EXPECT_FALSE(sys.probeL1(2, blockOf(kA)));
    EXPECT_FALSE(sys.probeL2(blockOf(kA)));
    sys.access(read(0, kA));
    const auto &m = sys.offChipTrace().misses.back();
    EXPECT_EQ(static_cast<MissClass>(m.cls), MissClass::IoCoherence);
}

TEST(SingleChip, L1EvictionWritesBackDirtyIntoL2)
{
    SingleChipSystem sys;
    sys.access(write(0, kA));
    EXPECT_FALSE(sys.probeL2(blockOf(kA))); // ownership in L1
    const std::uint64_t l1sets = cachecfg::kL1.numSets();
    for (unsigned w = 0; w <= cachecfg::kL1.ways; ++w)
        sys.access(write(0, kA + (w + 1) * l1sets * kBlockSize));
    EXPECT_FALSE(sys.probeL1(0, blockOf(kA)));
    EXPECT_TRUE(sys.probeL2(blockOf(kA))); // written back
}

TEST(SingleChip, IntraTraceCpuAndSeqFields)
{
    SingleChipSystem sys;
    sys.setTracing(true);
    sys.access(read(3, kA));
    const auto &m = sys.intraChipTrace().misses.back();
    EXPECT_EQ(m.cpu, 3);
    for (std::size_t i = 1; i < sys.intraChipTrace().misses.size(); ++i)
        EXPECT_GT(sys.intraChipTrace().misses[i].seq,
                  sys.intraChipTrace().misses[i - 1].seq);
}

// ---------------------------------------------------------------------
// Warm-up miss counts.
// ---------------------------------------------------------------------

/**
 * Drive @p untraced and @p traced through the same mixed access
 * stream, tracing only the second: each miss the first counts is one
 * the second records.
 */
template <typename System>
void
expectUntracedCountsMatchTraces(System &untraced, System &traced,
                                unsigned cpus)
{
    traced.setTracing(true);
    for (unsigned i = 0; i < 4000; ++i) {
        const Addr a = kA + (i * 7919u % 3000u) * kBlockSize;
        const unsigned cpu = i % cpus;
        const Access acc = i % 11 == 0  ? dma(a)
                           : i % 5 == 0 ? write(cpu, a)
                                        : read(cpu, a);
        untraced.access(acc);
        traced.access(acc);
    }
    EXPECT_GT(untraced.untracedOffChipMisses(), 0u);
    EXPECT_EQ(untraced.untracedOffChipMisses(),
              traced.offChipTrace().misses.size());
    EXPECT_EQ(untraced.untracedIntraChipMisses(),
              traced.intraChipTrace().misses.size());
    EXPECT_TRUE(untraced.offChipTrace().misses.empty());
    EXPECT_EQ(traced.untracedOffChipMisses(), 0u);
}

TEST(WarmupCounts, MultiChipCountsEveryOffChipMissItWouldRecord)
{
    MultiChipConfig cfg;
    cfg.l2 = CacheConfig{64 * 1024, 4};
    MultiChipSystem untraced(cfg), traced(cfg);
    expectUntracedCountsMatchTraces(untraced, traced, 16);
}

TEST(WarmupCounts, SingleChipCountsOffChipAndIntraChipMisses)
{
    SingleChipConfig cfg;
    cfg.l2 = CacheConfig{64 * 1024, 4};
    SingleChipSystem untraced(cfg), traced(cfg);
    expectUntracedCountsMatchTraces(untraced, traced, 4);
}

} // namespace
} // namespace tstream
