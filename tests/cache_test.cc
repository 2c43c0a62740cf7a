/**
 * @file
 * Unit tests for the set-associative cache model: geometry, LRU
 * replacement, state transitions, invalidation.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/multichip.hh"
#include "mem/singlechip.hh"

namespace tstream
{
namespace
{

TEST(Cache, GeometryFromConfig)
{
    CacheConfig cfg{64 * 1024, 2};
    EXPECT_EQ(cfg.numSets(), 64u * 1024 / (64 * 2));
    Cache c(cfg);
    EXPECT_EQ(c.residentCount(), 0u);
}

TEST(Cache, PaperConfigs)
{
    EXPECT_EQ(cachecfg::kL1.numSets(), 512u);
    EXPECT_EQ(cachecfg::kL2.numSets(), 8192u);
    EXPECT_EQ(cachecfg::kL2.ways, 16u);
}

TEST(Cache, MissThenHit)
{
    Cache c(CacheConfig{8 * 1024, 2});
    EXPECT_FALSE(c.lookup(100));
    c.insert(100, CohState::Shared);
    auto st = c.lookup(100);
    ASSERT_TRUE(st);
    EXPECT_EQ(*st, CohState::Shared);
}

TEST(Cache, InsertReturnsNoVictimWhenSetHasRoom)
{
    Cache c(CacheConfig{8 * 1024, 2});
    EXPECT_FALSE(c.insert(1, CohState::Shared).has_value());
    // Same set: sets = 64, so block 1 + 64 map together.
    EXPECT_FALSE(c.insert(1 + 64, CohState::Shared).has_value());
    EXPECT_EQ(c.residentCount(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way: fill a set, touch the first way, insert a third block;
    // the untouched way must be the victim.
    Cache c(CacheConfig{8 * 1024, 2});
    const std::uint64_t sets = CacheConfig{8 * 1024, 2}.numSets();
    const BlockId a = 7, b = 7 + sets, d = 7 + 2 * sets;
    c.insert(a, CohState::Shared);
    c.insert(b, CohState::Shared);
    c.lookup(a); // a is now MRU
    auto victim = c.insert(d, CohState::Shared);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->block, b);
    EXPECT_TRUE(c.probe(a));
    EXPECT_TRUE(c.probe(d));
    EXPECT_FALSE(c.probe(b));
}

TEST(Cache, ReinsertUpdatesStateWithoutEviction)
{
    Cache c(CacheConfig{8 * 1024, 2});
    c.insert(5, CohState::Shared);
    auto victim = c.insert(5, CohState::Modified);
    EXPECT_FALSE(victim);
    EXPECT_EQ(*c.probe(5), CohState::Modified);
    EXPECT_EQ(c.residentCount(), 1u);
}

TEST(Cache, VictimCarriesItsState)
{
    Cache c(CacheConfig{8 * 1024, 1}); // direct-mapped
    const std::uint64_t sets = CacheConfig{8 * 1024, 1}.numSets();
    c.insert(3, CohState::Modified);
    auto victim = c.insert(3 + sets, CohState::Shared);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->block, 3u);
    EXPECT_EQ(victim->state, CohState::Modified);
}

TEST(Cache, InvalidateReturnsPriorState)
{
    Cache c(CacheConfig{8 * 1024, 2});
    c.insert(9, CohState::Owned);
    auto prior = c.invalidate(9);
    ASSERT_TRUE(prior);
    EXPECT_EQ(*prior, CohState::Owned);
    EXPECT_FALSE(c.probe(9));
    EXPECT_FALSE(c.invalidate(9));
}

TEST(Cache, SetStateOnResidentOnly)
{
    Cache c(CacheConfig{8 * 1024, 2});
    EXPECT_FALSE(c.setState(11, CohState::Modified));
    c.insert(11, CohState::Shared);
    EXPECT_TRUE(c.setState(11, CohState::Modified));
    EXPECT_EQ(*c.probe(11), CohState::Modified);
}

TEST(Cache, ProbeDoesNotPerturbLru)
{
    Cache c(CacheConfig{8 * 1024, 2});
    const std::uint64_t sets = CacheConfig{8 * 1024, 2}.numSets();
    const BlockId a = 2, b = 2 + sets, d = 2 + 2 * sets;
    c.insert(a, CohState::Shared);
    c.insert(b, CohState::Shared);
    // probe(a) must NOT refresh it; a stays LRU and gets evicted.
    c.probe(a);
    auto victim = c.insert(d, CohState::Shared);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->block, a);
}

TEST(Cache, InvalidWaysArePreferredOverEviction)
{
    Cache c(CacheConfig{8 * 1024, 2});
    const std::uint64_t sets = CacheConfig{8 * 1024, 2}.numSets();
    c.insert(1, CohState::Shared);
    c.insert(1 + sets, CohState::Shared);
    c.invalidate(1);
    // Room exists again: no victim.
    EXPECT_FALSE(c.insert(1 + 2 * sets, CohState::Shared).has_value());
    EXPECT_EQ(c.residentCount(), 2u);
}

TEST(Cache, ArrayFootprintIsTagsPlusRanks)
{
    // One tag word per way and one 16-byte rank vector per set,
    // whatever is resident.
    Cache c(cachecfg::kL1);
    const std::size_t l1 = 512 * 2 * 8 + 512 * 16;
    EXPECT_EQ(c.bytes(), l1);
    c.insert(3, CohState::Modified);
    EXPECT_EQ(c.bytes(), l1);
    const std::size_t l2 = 8192 * 16 * 8 + 8192 * 16;
    EXPECT_EQ(Cache(cachecfg::kL2).bytes(), l2);

    // The models sum every L1 and L2: 16 nodes of each in the DSM
    // (19,136,512 B), 4 L1s over one shared L2 in the CMP (1,245,184 B).
    EXPECT_EQ(MultiChipSystem().cacheBytes(), 16 * (l1 + l2));
    EXPECT_EQ(SingleChipSystem().cacheBytes(), 4 * l1 + l2);
}

/** Property sweep: distinct blocks never exceed capacity. */
class CacheCapacityTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{
};

TEST_P(CacheCapacityTest, ResidentCountBounded)
{
    const auto [size, ways] = GetParam();
    Cache c(CacheConfig{size, ways});
    const std::uint64_t capacity = size / kBlockSize;
    for (BlockId b = 0; b < 4 * capacity; ++b)
        c.insert(b * 977, CohState::Shared);
    EXPECT_LE(c.residentCount(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheCapacityTest,
    ::testing::Values(std::pair{4096ull, 1u}, std::pair{8192ull, 2u},
                      std::pair{65536ull, 2u}, std::pair{65536ull, 4u},
                      std::pair{1048576ull, 8u},
                      std::pair{8388608ull, 16u}));

} // namespace
} // namespace tstream
