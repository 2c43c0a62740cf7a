/**
 * @file
 * Unit tests for the open-addressing per-block table (BlockTable) and
 * the per-block state footprint the memory models report from it.
 */

#include <gtest/gtest.h>

#include <cstdint>

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

TEST(BlockTable, FindOfAbsentBlockIsNull)
{
    BlockTable<Rec> t;
    EXPECT_EQ(t.find(42), nullptr);
    EXPECT_EQ(t.size(), 0u);
}

TEST(BlockTable, InsertedRecordStartsDefaultAndPersists)
{
    BlockTable<Rec> t;
    Rec &r = t.findOrInsert(42);
    EXPECT_EQ(r.value, 0u);
    r.value = 7;
    ASSERT_NE(t.find(42), nullptr);
    EXPECT_EQ(t.find(42)->value, 7u);
    EXPECT_EQ(t.findOrInsert(42).value, 7u);
}

TEST(BlockTable, EntriesSurviveSeveralDoublings)
{
    BlockTable<Rec> t;
    const std::size_t initialBytes = t.bytes();
    constexpr BlockId kN = 100000;
    for (BlockId b = 0; b < kN; ++b)
        t.findOrInsert(b * 3 + 1).value = b;
    EXPECT_EQ(t.size(), kN);
    // 100k entries at <= 3/4 load need at least 2^17 slots.
    EXPECT_GE(t.bytes(), initialBytes * 128);
    for (BlockId b = 0; b < kN; ++b) {
        const Rec *r = t.find(b * 3 + 1);
        ASSERT_NE(r, nullptr) << b;
        EXPECT_EQ(r->value, b);
        EXPECT_EQ(t.find(b * 3 + 2), nullptr);
    }
}

TEST(BlockTable, KeysSharingLowBitsStayDistinct)
{
    // Blocks that map to the same L2 set: they differ only above the
    // set-index bits.
    BlockTable<Rec> t;
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
    BlockTable<Rec> t;
    EXPECT_EQ(t.find(0), nullptr);
    t.findOrInsert(0).value = 5;
    t.findOrInsert(1).value = 6;
    ASSERT_NE(t.find(0), nullptr);
    EXPECT_EQ(t.find(0)->value, 5u);
    EXPECT_EQ(t.find(1)->value, 6u);
    EXPECT_EQ(t.size(), 2u);
}

TEST(BlockTable, SizeCountsOnlyFreshInserts)
{
    BlockTable<Rec> t;
    t.findOrInsert(9);
    t.findOrInsert(9);
    t.findOrInsert(10);
    (void)t.find(11);
    EXPECT_EQ(t.size(), 2u);
}

TEST(BlockTable, EmptyKeyIsNeverFound)
{
    BlockTable<Rec> t;
    t.findOrInsert(1);
    EXPECT_EQ(t.find(BlockTable<Rec>::kEmptyKey), nullptr);
}

TEST(BlockTableDeathTest, EmptyKeyIsRejectedAsAKey)
{
    BlockTable<Rec> t;
    EXPECT_DEATH(t.findOrInsert(BlockTable<Rec>::kEmptyKey),
                 "empty-slot key");
}

TEST(BlockTable, ModelsReportTheirTableFootprint)
{
    // One 24-byte slot per table entry: the key plus a 16-byte record
    // (reader history and directory entry, or both viewpoints).
    MultiChipSystem multi;
    SingleChipSystem single;
    EXPECT_EQ(multi.blockStateEntries(), 0u);
    EXPECT_EQ(multi.blockStateBytes() % 24, 0u);
    EXPECT_EQ(single.blockStateBytes(), multi.blockStateBytes());

    multi.access(Access{0x1000, 128, AccessType::Read, 0, 0});
    single.access(Access{0x1000, 64, AccessType::Write, 1, 0});
    EXPECT_EQ(multi.blockStateEntries(), 2u);
    EXPECT_EQ(single.blockStateEntries(), 1u);
}

} // namespace
} // namespace tstream
