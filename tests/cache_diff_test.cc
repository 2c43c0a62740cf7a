/**
 * @file
 * Differential test of the packed cache (tag words plus per-set
 * recency ranks) against a frozen copy of the array-of-structs Cache
 * it replaced (one {tag, state, lru} struct per way).
 *
 * Seeded random lookup / probe / insert / fill / setState / invalidate
 * sequences, over every coherence state and over block ids drawn near
 * every simulated segment base (many of them differing only above the
 * set-index bits), must give identical results, victims included, and
 * identical resident counts, on tiny geometries and on the paper's L1
 * and L2. fill() of an absent block must match the reference's
 * insert(). Invalidate-heavy sequences drop the most recent, least
 * recent and middle-ranked ways of full sets and refill them.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/sim_alloc.hh"

namespace tstream
{
namespace
{

// ---------------------------------------------------------------------
// Frozen reference: the array-of-structs implementation.
// ---------------------------------------------------------------------

namespace legacy
{

class Cache
{
  public:
    struct Line
    {
        BlockId block;
        CohState state;
    };

    explicit Cache(const CacheConfig &cfg) : ways_(cfg.ways)
    {
        setMask_ = cfg.numSets() - 1;
        lines_.resize(cfg.numSets() * ways_);
    }

    std::optional<CohState>
    lookup(BlockId blk)
    {
        const std::uint64_t set = blk & setMask_;
        const int w = findWay(set, blk);
        if (w < 0)
            return std::nullopt;
        Way &way = lines_[set * ways_ + w];
        way.lru = ++tick_;
        return way.state;
    }

    std::optional<CohState>
    probe(BlockId blk) const
    {
        const std::uint64_t set = blk & setMask_;
        const int w = findWay(set, blk);
        if (w < 0)
            return std::nullopt;
        return lines_[set * ways_ + w].state;
    }

    std::optional<Line>
    insert(BlockId blk, CohState st)
    {
        const std::uint64_t set = blk & setMask_;
        const std::size_t base = set * ways_;
        const int hit = findWay(set, blk);
        if (hit >= 0) {
            Way &way = lines_[base + hit];
            way.state = st;
            way.lru = ++tick_;
            return std::nullopt;
        }
        int victim = -1;
        std::uint64_t oldest = UINT64_MAX;
        for (unsigned w = 0; w < ways_; ++w) {
            Way &way = lines_[base + w];
            if (way.state == CohState::Invalid) {
                victim = static_cast<int>(w);
                oldest = 0;
                break;
            }
            if (way.lru < oldest) {
                oldest = way.lru;
                victim = static_cast<int>(w);
            }
        }
        Way &way = lines_[base + victim];
        std::optional<Line> evicted;
        if (way.state != CohState::Invalid)
            evicted = Line{way.tag, way.state};
        way.tag = blk;
        way.state = st;
        way.lru = ++tick_;
        return evicted;
    }

    bool
    setState(BlockId blk, CohState st)
    {
        const std::uint64_t set = blk & setMask_;
        const int w = findWay(set, blk);
        if (w < 0)
            return false;
        lines_[set * ways_ + w].state = st;
        return true;
    }

    std::optional<CohState>
    invalidate(BlockId blk)
    {
        const std::uint64_t set = blk & setMask_;
        const int w = findWay(set, blk);
        if (w < 0)
            return std::nullopt;
        Way &way = lines_[set * ways_ + w];
        const CohState prior = way.state;
        way.state = CohState::Invalid;
        return prior;
    }

    std::size_t
    residentCount() const
    {
        std::size_t n = 0;
        for (const Way &w : lines_)
            if (w.state != CohState::Invalid)
                ++n;
        return n;
    }

    std::optional<unsigned>
    wayOf(BlockId blk) const
    {
        const int w = findWay(blk & setMask_, blk);
        if (w < 0)
            return std::nullopt;
        return static_cast<unsigned>(w);
    }

  private:
    struct Way
    {
        BlockId tag = 0;
        CohState state = CohState::Invalid;
        std::uint64_t lru = 0;
    };

    int
    findWay(std::uint64_t set, BlockId blk) const
    {
        const std::size_t base = set * ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            const Way &way = lines_[base + w];
            if (way.state != CohState::Invalid && way.tag == blk)
                return static_cast<int>(w);
        }
        return -1;
    }

    std::uint64_t setMask_;
    unsigned ways_;
    std::vector<Way> lines_;
    std::uint64_t tick_ = 0;
};

} // namespace legacy

// ---------------------------------------------------------------------
// The differential driver.
// ---------------------------------------------------------------------

constexpr CohState kStates[] = {CohState::Invalid, CohState::Shared,
                                CohState::Owned, CohState::Modified};

/**
 * A pool of block ids near every segment base. Within each segment the
 * ids share a few low (set-index) bit patterns and differ above them,
 * so sets fill and overflow; a few ids also differ only in the bits
 * just above the largest set index.
 */
std::vector<BlockId>
blockPool(const CacheConfig &cfg, std::mt19937_64 &rng)
{
    const Addr bases[] = {seg::kKernelText, seg::kKernelHeap,
                          seg::kBufferPool, seg::userHeap(0),
                          seg::userHeap(7), seg::kDmaRegion};
    const BlockId sets = cfg.numSets();
    const BlockId highBit = cachecfg::kL2.numSets() * 4;
    std::vector<BlockId> pool;
    for (const Addr a : bases) {
        const BlockId base = a >> kBlockBits;
        for (BlockId s = 0; s < 3; ++s) {
            const BlockId set = rng() % sets;
            for (BlockId k = 0; k < 2 * cfg.ways + 2; ++k)
                pool.push_back(base + set + k * sets);
            pool.push_back(base + set + highBit);
            pool.push_back(base + set + (highBit << 20));
        }
    }
    pool.push_back(0);
    pool.push_back(sets);
    return pool;
}

template <typename T>
std::string
show(const std::optional<T> &v)
{
    return v ? std::to_string(static_cast<int>(*v)) : "none";
}

/**
 * Random differential run. With @p fillAbsent, inserts of blocks the
 * reference does not hold go through Cache::fill instead.
 */
void
runDiff(const CacheConfig &cfg, std::uint64_t seed, int steps,
        bool fillAbsent = false)
{
    std::mt19937_64 rng(seed);
    const std::vector<BlockId> pool = blockPool(cfg, rng);
    legacy::Cache ref(cfg);
    Cache dut(cfg);

    for (int i = 0; i < steps; ++i) {
        const BlockId blk = pool[rng() % pool.size()];
        const CohState st = kStates[rng() % 4];
        const unsigned op = static_cast<unsigned>(rng() % 10);
        SCOPED_TRACE(testing::Message() << "step " << i << " op " << op
                                        << " blk " << blk);
        switch (op) {
          case 0:
          case 1: {
            const auto a = ref.lookup(blk);
            const auto b = dut.lookup(blk);
            ASSERT_EQ(show(a), show(b));
            break;
          }
          case 2: {
            const auto a = ref.probe(blk);
            const auto b = dut.probe(blk);
            ASSERT_EQ(show(a), show(b));
            break;
          }
          case 3:
          case 4:
          case 5:
          case 6: {
            const CohState ins =
                st == CohState::Invalid ? CohState::Shared : st;
            const bool fill = fillAbsent && !ref.probe(blk);
            const auto a = ref.insert(blk, ins);
            const auto b = fill ? dut.fill(blk, ins) : dut.insert(blk, ins);
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a) {
                ASSERT_EQ(a->block, b->block);
                ASSERT_EQ(a->state, b->state);
            }
            // Which way a block lands in is not visible through the
            // other calls (recency has no ties), so compare it too.
            ASSERT_EQ(show(ref.wayOf(blk)), show(dut.wayOf(blk)));
            break;
          }
          case 7:
          case 8: {
            // Invalid included: the protocols never do it, but the
            // interface allows it.
            ASSERT_EQ(ref.setState(blk, st), dut.setState(blk, st));
            break;
          }
          default: {
            const auto a = ref.invalidate(blk);
            const auto b = dut.invalidate(blk);
            ASSERT_EQ(show(a), show(b));
            break;
          }
        }
        if (i % 64 == 0) {
            ASSERT_EQ(ref.residentCount(), dut.residentCount());
        }
    }
    ASSERT_EQ(ref.residentCount(), dut.residentCount());
    for (const BlockId blk : pool) {
        ASSERT_EQ(show(ref.probe(blk)), show(dut.probe(blk))) << blk;
        ASSERT_EQ(show(ref.wayOf(blk)), show(dut.wayOf(blk))) << blk;
    }
}

TEST(CacheDiff, DirectMappedMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDiff(CacheConfig{4 * kBlockSize, 1}, seed, 20000);
}

TEST(CacheDiff, TinyTwoWayMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDiff(CacheConfig{4 * 2 * kBlockSize, 2}, seed, 20000);
}

TEST(CacheDiff, TinyFourWayMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDiff(CacheConfig{16 * 4 * kBlockSize, 4}, seed, 20000);
}

TEST(CacheDiff, SingleSetSixteenWayMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDiff(CacheConfig{16 * kBlockSize, 16}, seed, 20000);
}

TEST(CacheDiff, PaperL1MatchesReference)
{
    runDiff(cachecfg::kL1, 11, 50000);
}

TEST(CacheDiff, PaperL2MatchesReference)
{
    runDiff(cachecfg::kL2, 12, 50000);
}

TEST(CacheDiff, FillOfAbsentBlocksMatchesReferenceInsert)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        runDiff(CacheConfig{4 * kBlockSize, 1}, seed, 20000, true);
        runDiff(CacheConfig{4 * 2 * kBlockSize, 2}, seed, 20000, true);
        runDiff(CacheConfig{16 * 4 * kBlockSize, 4}, seed, 20000, true);
        runDiff(CacheConfig{16 * kBlockSize, 16}, seed, 20000, true);
    }
    runDiff(cachecfg::kL1, 13, 50000, true);
    runDiff(cachecfg::kL2, 14, 50000, true);
}

/** The reference and the cache under test, driven in lockstep. */
struct Lockstep
{
    legacy::Cache ref;
    Cache dut;

    explicit Lockstep(const CacheConfig &cfg) : ref(cfg), dut(cfg) {}

    void
    lookup(BlockId blk)
    {
        EXPECT_EQ(show(ref.lookup(blk)), show(dut.lookup(blk))) << blk;
    }

    /** Insert @p blk, through fill() when @p fill (it must be absent). */
    void
    insert(BlockId blk, bool fill)
    {
        const auto a = ref.insert(blk, CohState::Shared);
        const auto b = fill ? dut.fill(blk, CohState::Shared)
                            : dut.insert(blk, CohState::Shared);
        EXPECT_EQ(a.has_value(), b.has_value()) << blk;
        if (a && b) {
            EXPECT_EQ(a->block, b->block) << blk;
        }
        EXPECT_EQ(show(ref.wayOf(blk)), show(dut.wayOf(blk))) << blk;
    }

    /** Drop @p blk by invalidate(), or by setState(Invalid). */
    void
    drop(BlockId blk, bool viaSetState)
    {
        if (viaSetState) {
            EXPECT_EQ(ref.setState(blk, CohState::Invalid),
                      dut.setState(blk, CohState::Invalid))
                << blk;
        } else {
            EXPECT_EQ(show(ref.invalidate(blk)), show(dut.invalidate(blk)))
                << blk;
        }
    }

    void
    checkBlocks(const std::vector<BlockId> &blocks) const
    {
        EXPECT_EQ(ref.residentCount(), dut.residentCount());
        for (const BlockId blk : blocks) {
            EXPECT_EQ(show(ref.probe(blk)), show(dut.probe(blk))) << blk;
            EXPECT_EQ(show(ref.wayOf(blk)), show(dut.wayOf(blk))) << blk;
        }
    }
};

/**
 * Rounds of: fill a set with fresh blocks, reorder its recency with
 * lookups, drop the most recent, the least recent, a middle-ranked
 * and then random ways (by invalidate() or setState(Invalid)), and
 * refill past capacity so the surviving order decides the victims.
 * The test tracks the recency order itself only to pick the ways to
 * drop; every result is checked against the reference.
 */
void
runDropAndRefill(const CacheConfig &cfg, std::uint64_t seed, int rounds)
{
    std::mt19937_64 rng(seed);
    Lockstep c(cfg);
    const BlockId sets = cfg.numSets();
    const unsigned ways = cfg.ways;
    BlockId fresh = 1;
    for (int round = 0; round < rounds && !testing::Test::HasFailure();
         ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        const BlockId set = rng() % sets;
        std::vector<BlockId> used;
        // order: least recent first.
        std::vector<BlockId> order;
        for (unsigned k = 0; k < ways; ++k) {
            const BlockId blk = set + fresh++ * sets;
            c.insert(blk, k % 2 == 0);
            order.push_back(blk);
            used.push_back(blk);
        }
        for (int k = 0; k < 3; ++k) {
            const std::size_t i = rng() % order.size();
            const BlockId blk = order[i];
            c.lookup(blk);
            order.erase(order.begin() + static_cast<std::ptrdiff_t>(i));
            order.push_back(blk);
        }

        const unsigned drops = 1 + static_cast<unsigned>(rng() % ways);
        for (unsigned d = 0; d < drops; ++d) {
            std::size_t i;
            switch (d) {
              case 0: i = order.size() - 1; break; // most recent
              case 1: i = 0; break;                // least recent
              case 2: i = order.size() / 2; break; // middle
              default: i = rng() % order.size(); break;
            }
            c.drop(order[i], (round + d) % 2 == 1);
            order.erase(order.begin() + static_cast<std::ptrdiff_t>(i));
        }
        c.checkBlocks(used);
        if (!order.empty())
            c.lookup(order[rng() % order.size()]);

        // Refill the holes, then evict through the survivors.
        const unsigned refills = drops + static_cast<unsigned>(rng() % ways);
        for (unsigned k = 0; k < refills; ++k) {
            const BlockId blk = set + fresh++ * sets;
            c.insert(blk, k % 3 != 2);
            used.push_back(blk);
        }
        c.checkBlocks(used);
    }
}

TEST(CacheDiff, DropAndRefillMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        runDropAndRefill(CacheConfig{4 * kBlockSize, 1}, seed, 300);
        runDropAndRefill(CacheConfig{4 * 2 * kBlockSize, 2}, seed, 300);
        runDropAndRefill(CacheConfig{4 * 4 * kBlockSize, 4}, seed, 300);
        runDropAndRefill(CacheConfig{2 * 8 * kBlockSize, 8}, seed, 300);
        runDropAndRefill(CacheConfig{16 * kBlockSize, 16}, seed, 300);
    }
    runDropAndRefill(cachecfg::kL1, 21, 500);
    runDropAndRefill(cachecfg::kL2, 22, 500);
}

TEST(CacheDeathTest, ConstructorRejectsMoreThanSixteenWays)
{
    EXPECT_EQ(Cache(CacheConfig{4 * 16 * kBlockSize, 16}).config().ways,
              16u);
    EXPECT_DEATH(Cache(CacheConfig{4 * 17 * kBlockSize, 17}), "16 ways");
}

TEST(CacheDeathTest, InsertRejectsBlocksAtOrAbove2To62)
{
    Cache c(CacheConfig{4 * kBlockSize, 1});
    c.insert(Cache::kBlockLimit - 1, CohState::Shared);
    EXPECT_EQ(c.probe(Cache::kBlockLimit - 1), CohState::Shared);
    EXPECT_DEATH(c.insert(Cache::kBlockLimit, CohState::Shared),
                 "2\\^62");
    EXPECT_DEATH(c.fill(Cache::kBlockLimit, CohState::Shared), "2\\^62");
}

} // namespace
} // namespace tstream
