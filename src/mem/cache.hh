/**
 * @file
 * Set-associative cache with true-LRU replacement.
 *
 * This is a functional (timing-free) model: the paper collects traces
 * with in-order execution and no memory-system stalls, so all we need
 * is hit/miss/eviction behaviour and per-line coherence state.
 */

#ifndef TSTREAM_MEM_CACHE_HH
#define TSTREAM_MEM_CACHE_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "mem/address.hh"
#include "mem/coherence.hh"
#include "util/logging.hh"

namespace tstream
{

/** Geometry of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 0;
    unsigned ways = 1;

    /** Number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (kBlockSize * ways);
    }
};

/** Standard configurations from the paper's system models. */
namespace cachecfg
{
/** 64 KB 2-way L1 (per paper: split I/D; we model the D side). */
constexpr CacheConfig kL1{64 * 1024, 2};
/** 8 MB 16-way L2. */
constexpr CacheConfig kL2{8 * 1024 * 1024, 16};
} // namespace cachecfg

/**
 * A set-associative cache of coherence-stated blocks.
 *
 * The cache stores no data, only a tag word per way and a recency
 * vector per set. Insertion returns the victim, if any, so callers can
 * maintain inclusion or write-back invariants.
 *
 * The tag word packs the block and its state as `blk << 2 | state`
 * (Invalid is 0), in one array of sets * ways words. A lookup scans
 * only the tag words of its set (128 bytes for 16 ways). Blocks must be
 * below 2^62 so the shift keeps every tag bit; fill() rejects larger
 * ones (addresses are below 2^48, so blocks are below 2^42).
 *
 * Each set's recency order is one 16-byte vector with a lane per way:
 * valid ways hold their rank, 0 (most recent) to n-1 for n valid
 * ways; invalid ways hold kFree; lanes past the last way hold kAbsent.
 * Touching, filling and invalidating a way each adjust the other ranks
 * with one vector compare and add, and the victim is the first kFree
 * lane, else the lane ranked ways-1, so no operation scans the tags
 * twice or reads a per-way stamp. Victims and way placement are those
 * of true LRU with the lowest-index invalid way filled first.
 */
class Cache
{
  public:
    /** Result of a lookup. */
    struct Line
    {
        BlockId block;
        CohState state;
    };

    /** One past the largest block a cache can hold. */
    static constexpr BlockId kBlockLimit = BlockId{1} << 62;

    /** Most ways a set can have: one recency lane each. */
    static constexpr unsigned kMaxWays = 16;

    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up @p blk. On a hit the line becomes the most recent of its
     * set and its state is returned; on a miss std::nullopt.
     */
    std::optional<CohState>
    lookup(BlockId blk)
    {
        const std::size_t set = setOf(blk);
        const unsigned w = findWay(set, blk);
        if (w == kNoWay)
            return std::nullopt;
        promote(set, w);
        return stateOf(tags_[set * ways_ + w]);
    }

    /** Like lookup() but without touching recency (for probes). */
    std::optional<CohState>
    probe(BlockId blk) const
    {
        const std::size_t set = setOf(blk);
        const unsigned w = findWay(set, blk);
        if (w == kNoWay)
            return std::nullopt;
        return stateOf(tags_[set * ways_ + w]);
    }

    /**
     * Insert @p blk in @p st, evicting the LRU way if the set is full.
     * A resident block only changes state and becomes most recent.
     * @return the evicted line, if any.
     */
    std::optional<Line>
    insert(BlockId blk, CohState st)
    {
        const std::size_t set = setOf(blk);
        const unsigned w = findWay(set, blk);
        if (w == kNoWay)
            return fill(blk, st);
        if (st == CohState::Invalid)
            panic("Cache::insert of Invalid state");
        tags_[set * ways_ + w] = tagWord(blk, st);
        promote(set, w);
        return std::nullopt;
    }

    /**
     * insert() for a block the caller knows is not resident (it has
     * just missed on it), without searching the set for it: fills the
     * first invalid way, else evicts the LRU way.
     * @return the evicted line, if any.
     */
    std::optional<Line>
    fill(BlockId blk, CohState st)
    {
        if (st == CohState::Invalid)
            panic("Cache::fill of Invalid state");
        if (blk >= kBlockLimit)
            panic("Cache::fill of a block at or above 2^62");
        const std::size_t set = setOf(blk);
        assert(findWay(set, blk) == kNoWay);
        const unsigned w = victimWay(set);
        std::uint64_t &tag = tags_[set * ways_ + w];
        std::optional<Line> evicted;
        if (stateOf(tag) != CohState::Invalid)
            evicted = Line{tag >> 2, stateOf(tag)};
        tag = tagWord(blk, st);
        promote(set, w);
        return evicted;
    }

    /**
     * Change the state of a resident block. Recency is untouched,
     * except that a block set Invalid leaves its set's order.
     * @return false if the block is not resident.
     */
    bool
    setState(BlockId blk, CohState st)
    {
        const std::size_t set = setOf(blk);
        const unsigned w = findWay(set, blk);
        if (w == kNoWay)
            return false;
        tags_[set * ways_ + w] = tagWord(blk, st);
        if (st == CohState::Invalid)
            retire(set, w);
        return true;
    }

    /**
     * Invalidate @p blk if resident.
     * @return the line's prior state, if it was resident.
     */
    std::optional<CohState>
    invalidate(BlockId blk)
    {
        const std::size_t set = setOf(blk);
        const unsigned w = findWay(set, blk);
        if (w == kNoWay)
            return std::nullopt;
        std::uint64_t &tag = tags_[set * ways_ + w];
        const CohState prior = stateOf(tag);
        tag = tagWord(blk, CohState::Invalid);
        retire(set, w);
        return prior;
    }

    /** Number of resident (non-invalid) lines. */
    std::size_t residentCount() const;

    /** Way of its set holding @p blk, if resident (tests / debugging). */
    std::optional<unsigned>
    wayOf(BlockId blk) const
    {
        const unsigned w = findWay(setOf(blk), blk);
        if (w == kNoWay)
            return std::nullopt;
        return w;
    }

    const CacheConfig &config() const { return cfg_; }

    /** Bytes held by the tag array and the per-set rank vectors. */
    std::size_t
    bytes() const
    {
        return tags_.size() * sizeof(std::uint64_t) +
               ranks_.size() * sizeof(Ranks);
    }

  private:
    static constexpr unsigned kNoWay = ~0u;

    /**
     * One set's recency lanes, as a GCC/Clang vector so that a compare
     * or an add covers all lanes at once (one SSE2 or NEON instruction).
     * Ranks and markers are below 0x80, so signed lanes order them.
     */
    using Ranks = std::int8_t __attribute__((vector_size(kMaxWays)));

    /** Rank lane of an invalid way. */
    static constexpr std::int8_t kFree = 0x40;
    /** Rank lane past the last way. */
    static constexpr std::int8_t kAbsent = 0x7f;

    static std::uint64_t
    tagWord(BlockId blk, CohState st)
    {
        return blk << 2 | static_cast<std::uint64_t>(st);
    }

    static CohState
    stateOf(std::uint64_t word)
    {
        return static_cast<CohState>(word & 3);
    }

    std::size_t setOf(BlockId blk) const { return blk & setMask_; }

    /**
     * Way of @p set holding @p blk, or kNoWay. A way matches when its
     * tag is @p blk and its state is not Invalid: the XOR then leaves
     * only the state, 1 to 3, and any other word gives 0 or a value of
     * 4 or more.
     */
    unsigned
    findWay(std::size_t set, BlockId blk) const
    {
        const std::uint64_t key = blk << 2;
        const std::uint64_t *tags = tags_.data() + set * ways_;
        for (unsigned w = 0; w < ways_; ++w)
            if ((tags[w] ^ key) - 1 < 3)
                return w;
        return kNoWay;
    }

    /**
     * Make way @p w of @p set the most recent: every valid way more
     * recent than it (all of them when @p w was invalid) ages by one.
     */
    void
    promote(std::size_t set, unsigned w)
    {
        Ranks &r = ranks_[set];
        r -= r < r[w]; // a true lane is -1
        r[w] = 0;
    }

    /**
     * Take way @p w of @p set out of the order: every valid way less
     * recent than it moves up one, closing the gap.
     */
    void
    retire(std::size_t set, unsigned w)
    {
        Ranks &r = ranks_[set];
        r += (r > r[w]) & (r < static_cast<std::int8_t>(kMaxWays));
        r[w] = kFree;
    }

    /** First invalid way of @p set, else its least recent way. */
    unsigned
    victimWay(std::size_t set) const
    {
        const Ranks &r = ranks_[set];
        const unsigned w = firstLane(r == kFree);
        return w < ways_ ? w
                         : firstLane(r == static_cast<std::int8_t>(ways_ - 1));
    }

    /** First lane set in the compare result @p m, or kMaxWays if none. */
    static unsigned
    firstLane(Ranks m)
    {
        static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                      "lane 0 is the low byte of the first word");
        std::uint64_t half[2];
        std::memcpy(half, &m, sizeof half);
        if (half[0] != 0)
            return static_cast<unsigned>(__builtin_ctzll(half[0])) / 8;
        if (half[1] != 0)
            return 8 + static_cast<unsigned>(__builtin_ctzll(half[1])) / 8;
        return kMaxWays;
    }

    CacheConfig cfg_;
    std::uint64_t setMask_;
    unsigned ways_;
    std::vector<std::uint64_t> tags_; ///< sets * ways tag words, row-major
    std::vector<Ranks> ranks_;        ///< recency lanes of each set
};

} // namespace tstream

#endif // TSTREAM_MEM_CACHE_HH
