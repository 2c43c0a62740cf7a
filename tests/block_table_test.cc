/**
 * @file
 * Unit tests for the paged per-block table (BlockTable) and the
 * per-block state footprint the memory models report from it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "mem/block_table.hh"
#include "mem/multichip.hh"
#include "mem/sim_alloc.hh"
#include "mem/singlechip.hh"

namespace tstream
{
namespace
{

struct Rec
{
    std::uint64_t value = 0;
};

using Table = BlockTable<Rec>;
constexpr BlockId kPage = Table::kPageBlocks;

TEST(BlockTable, FindOfAbsentBlockIsNull)
{
    Table t;
    EXPECT_EQ(t.find(42), nullptr);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.pages(), 0u);
}

TEST(BlockTable, InsertedRecordStartsDefaultAndPersists)
{
    Table t;
    Rec &r = t.findOrInsert(42);
    EXPECT_EQ(r.value, 0u);
    r.value = 7;
    ASSERT_NE(t.find(42), nullptr);
    EXPECT_EQ(t.find(42)->value, 7u);
    EXPECT_EQ(t.findOrInsert(42).value, 7u);
}

TEST(BlockTable, NeighboursInAPageStayAbsentUntilInserted)
{
    // The page holding block 42 exists, but only 42 was inserted.
    Table t;
    t.findOrInsert(42);
    EXPECT_EQ(t.pages(), 1u);
    EXPECT_EQ(t.find(41), nullptr);
    EXPECT_EQ(t.find(43), nullptr);
    const Table &ct = t;
    EXPECT_EQ(ct.find(43), nullptr);
    EXPECT_NE(ct.find(42), nullptr);
}

TEST(BlockTable, AdjacentPageBoundaryBlocksAreDistinct)
{
    // The last block of page p and the first block of page p + 1.
    Table t;
    const BlockId base = seg::kBufferPool >> kBlockBits;
    const BlockId last = base + 3 * kPage - 1;
    const BlockId first = base + 3 * kPage;
    t.findOrInsert(last).value = 1;
    t.findOrInsert(first).value = 2;
    EXPECT_EQ(t.pages(), 2u);
    EXPECT_EQ(t.find(last)->value, 1u);
    EXPECT_EQ(t.find(first)->value, 2u);
    EXPECT_EQ(t.find(last - 1), nullptr);
    EXPECT_EQ(t.find(first + 1), nullptr);
    EXPECT_EQ(t.size(), 2u);
}

TEST(BlockTable, SameOffsetInDifferentSegmentsIsDistinct)
{
    // Segment bases are 2^34 blocks apart, so these blocks share their
    // page offset and differ only in the page id.
    const Addr bases[] = {seg::kKernelText, seg::kKernelHeap,
                          seg::kBufferPool, seg::userHeap(0),
                          seg::userHeap(1), seg::kDmaRegion};
    Table t;
    const BlockId off = 17;
    for (std::size_t i = 0; i < std::size(bases); ++i)
        t.findOrInsert((bases[i] >> kBlockBits) + off).value = i + 1;
    EXPECT_EQ(t.size(), std::size(bases));
    EXPECT_EQ(t.pages(), std::size(bases));
    for (std::size_t i = 0; i < std::size(bases); ++i) {
        const Rec *r = t.find((bases[i] >> kBlockBits) + off);
        ASSERT_NE(r, nullptr) << i;
        EXPECT_EQ(r->value, i + 1);
    }
}

TEST(BlockTable, DirectoryGrowsAndKeepsEveryPage)
{
    // One block in each of 2 000 pages, strided so every insert adds a
    // page: the directory must grow many times over.
    Table t;
    const std::size_t initialDir = t.directoryBytes();
    constexpr BlockId kN = 2000;
    for (BlockId k = 0; k < kN; ++k)
        t.findOrInsert(k * kPage + k % kPage).value = k + 1;
    EXPECT_EQ(t.pages(), kN);
    EXPECT_GE(t.directoryBytes(), initialDir * 32);
    for (BlockId k = 0; k < kN; ++k) {
        const Rec *r = t.find(k * kPage + k % kPage);
        ASSERT_NE(r, nullptr) << k;
        EXPECT_EQ(r->value, k + 1);
        EXPECT_EQ(t.find(k * kPage + (k + 1) % kPage), nullptr);
    }
}

TEST(BlockTable, ReferenceStaysValidAcrossLaterInserts)
{
    Table t;
    Rec &r = t.findOrInsert(5);
    r.value = 99;
    for (BlockId b = 0; b < 100000; ++b)
        t.findOrInsert(1000 + b * 7).value = b;
    EXPECT_EQ(&r, t.find(5));
    EXPECT_EQ(r.value, 99u);
    r.value = 100;
    EXPECT_EQ(t.find(5)->value, 100u);
}

TEST(BlockTable, BytesArePagesPlusDirectory)
{
    Table t;
    EXPECT_EQ(Table::kPageBytes, kPage * sizeof(Rec) + kPage / 8);
    EXPECT_EQ(t.bytes(), t.directoryBytes());
    for (BlockId b = 0; b < 3 * kPage; b += 5)
        t.findOrInsert(b);
    t.findOrInsert(seg::kDmaRegion >> kBlockBits);
    EXPECT_EQ(t.pages(), 4u);
    EXPECT_EQ(t.bytes(), 4 * Table::kPageBytes + t.directoryBytes());
}

TEST(BlockTable, KeysSharingLowBitsStayDistinct)
{
    // Blocks that map to the same L2 set: they differ only above the
    // set-index bits.
    Table t;
    const BlockId base = seg::kDmaRegion >> kBlockBits;
    const BlockId sets = cachecfg::kL2.numSets();
    constexpr BlockId kN = 5000;
    for (BlockId k = 0; k < kN; ++k)
        t.findOrInsert(base + k * sets).value = k + 1;
    EXPECT_EQ(t.size(), kN);
    for (BlockId k = 0; k < kN; ++k) {
        ASSERT_NE(t.find(base + k * sets), nullptr) << k;
        EXPECT_EQ(t.find(base + k * sets)->value, k + 1);
    }
    EXPECT_EQ(t.find(base + 1), nullptr);
}

TEST(BlockTable, KeyZeroIsAnOrdinaryBlock)
{
    Table t;
    EXPECT_EQ(t.find(0), nullptr);
    t.findOrInsert(0).value = 5;
    t.findOrInsert(1).value = 6;
    ASSERT_NE(t.find(0), nullptr);
    EXPECT_EQ(t.find(0)->value, 5u);
    EXPECT_EQ(t.find(1)->value, 6u);
    EXPECT_EQ(t.size(), 2u);
}

TEST(BlockTable, AllOnesKeyIsAnOrdinaryBlock)
{
    // The last block of the 64-bit id space, in the last page.
    Table t;
    const BlockId top = ~BlockId{0};
    EXPECT_EQ(t.find(top), nullptr);
    t.findOrInsert(top).value = 3;
    t.findOrInsert(top - 1).value = 4;
    t.findOrInsert(0).value = 5;
    EXPECT_EQ(t.find(top)->value, 3u);
    EXPECT_EQ(t.find(top - 1)->value, 4u);
    EXPECT_EQ(t.find(0)->value, 5u);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.pages(), 2u);
}

TEST(BlockTable, EmptyKeyIsNeverFound)
{
    // No id is reserved to mark an empty record: ~BlockId{0} reads as
    // absent until inserted, even once its page holds neighbours.
    Table t;
    const BlockId top = ~BlockId{0};
    t.findOrInsert(1);
    t.findOrInsert(top - 1);
    EXPECT_EQ(t.pages(), 2u);
    EXPECT_EQ(t.find(top), nullptr);
    const Table &ct = t;
    EXPECT_EQ(ct.find(top), nullptr);
    EXPECT_EQ(t.size(), 2u);
}

TEST(BlockTable, SizeCountsOnlyFreshInserts)
{
    Table t;
    t.findOrInsert(9);
    t.findOrInsert(9);
    t.findOrInsert(10);
    (void)t.find(11);
    EXPECT_EQ(t.size(), 2u);
}

TEST(BlockTable, MatchesUnorderedMapOnMixedDenseAndSparseKeys)
{
    // Dense runs inside segments, sparse keys across the whole id
    // space (rarer: each one costs a page), and repeats, with a third
    // of the steps looking blocks up instead of inserting them.
    std::mt19937_64 rng(0x5eed);
    const BlockId bases[] = {seg::kKernelHeap >> kBlockBits,
                             seg::kBufferPool >> kBlockBits,
                             seg::userHeap(3) >> kBlockBits,
                             seg::kDmaRegion >> kBlockBits};
    Table t;
    std::unordered_map<BlockId, std::uint64_t> ref;
    std::vector<BlockId> seen;
    for (int i = 0; i < 200000; ++i) {
        // 1 in 64 sparse (anywhere), 29 in 64 dense (near a segment
        // base), the rest a repeat or a probe just past a known block.
        const std::uint64_t kind = rng() % 64;
        BlockId blk;
        if (kind == 0)
            blk = rng();
        else if (kind < 30 || seen.empty())
            blk = bases[rng() % std::size(bases)] + rng() % (64 * kPage);
        else
            blk = seen[rng() % seen.size()] + rng() % 2;
        if (rng() % 3 == 0) {
            const Rec *r = t.find(blk);
            const auto it = ref.find(blk);
            ASSERT_EQ(r != nullptr, it != ref.end()) << blk;
            if (r) {
                ASSERT_EQ(r->value, it->second) << blk;
            }
            continue;
        }
        const auto [it, fresh] = ref.try_emplace(blk, 0);
        Rec &r = t.findOrInsert(blk);
        ASSERT_EQ(r.value, it->second) << blk;
        r.value = it->second = i + 1;
        if (fresh)
            seen.push_back(blk);
        ASSERT_EQ(t.size(), ref.size());
    }
    for (const auto &[blk, v] : ref) {
        const Rec *r = t.find(blk);
        ASSERT_NE(r, nullptr) << blk;
        EXPECT_EQ(r->value, v);
    }
}

TEST(BlockTable, ModelsReportTheirTableFootprint)
{
    // Both models keep a 16-byte record, so an empty table is just the
    // directory and each touched page adds the same number of bytes.
    MultiChipSystem multi;
    SingleChipSystem single;
    EXPECT_EQ(multi.blockStateEntries(), 0u);
    EXPECT_EQ(single.blockStateBytes(), multi.blockStateBytes());
    const std::size_t empty = multi.blockStateBytes();

    multi.access(Access{0x1000, 128, AccessType::Read, 0, 0});
    single.access(Access{0x1000, 64, AccessType::Write, 1, 0});
    EXPECT_EQ(multi.blockStateEntries(), 2u);
    EXPECT_EQ(single.blockStateEntries(), 1u);
    EXPECT_EQ(multi.blockStateBytes(),
              empty + 16 * BlockTable<Rec>::kPageBlocks +
                  BlockTable<Rec>::kPageBlocks / 8);
    EXPECT_EQ(single.blockStateBytes(), multi.blockStateBytes());
}

} // namespace
} // namespace tstream
