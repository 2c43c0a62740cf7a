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

#include <cstddef>
#include <cstdint>
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
 * The cache stores no data, only a tag word and an LRU stamp per way.
 * Insertion returns the victim, if any, so callers can maintain
 * inclusion or write-back invariants.
 *
 * The tag word packs the block and its state as `blk << 2 | state`
 * (Invalid is 0), in one array of sets * ways words; the u64 LRU
 * stamps live in a second array of the same shape. A lookup scans only
 * the tag words of its set (128 bytes for 16 ways), and only a
 * replacing insert reads the stamps. Blocks must be below 2^62 so the
 * shift keeps every tag bit; insert() rejects larger ones (addresses
 * are below 2^48, so blocks are below 2^42).
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

    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up @p blk. On a hit the LRU stamp is refreshed and the
     * line's state is returned; on a miss std::nullopt.
     */
    std::optional<CohState>
    lookup(BlockId blk)
    {
        const std::size_t i = findWay(blk);
        if (i == kNoWay)
            return std::nullopt;
        lru_[i] = ++tick_;
        return stateOf(tags_[i]);
    }

    /** Like lookup() but without touching LRU state (for probes). */
    std::optional<CohState>
    probe(BlockId blk) const
    {
        const std::size_t i = findWay(blk);
        if (i == kNoWay)
            return std::nullopt;
        return stateOf(tags_[i]);
    }

    /**
     * Insert @p blk in @p st, evicting the LRU way if the set is full.
     * @return the evicted line, if any.
     */
    std::optional<Line> insert(BlockId blk, CohState st);

    /**
     * Change the state of a resident block.
     * @return false if the block is not resident.
     */
    bool
    setState(BlockId blk, CohState st)
    {
        const std::size_t i = findWay(blk);
        if (i == kNoWay)
            return false;
        tags_[i] = tagWord(blk, st);
        return true;
    }

    /**
     * Invalidate @p blk if resident.
     * @return the line's prior state, if it was resident.
     */
    std::optional<CohState>
    invalidate(BlockId blk)
    {
        const std::size_t i = findWay(blk);
        if (i == kNoWay)
            return std::nullopt;
        const CohState prior = stateOf(tags_[i]);
        tags_[i] = tagWord(blk, CohState::Invalid);
        return prior;
    }

    /** Number of resident (non-invalid) lines. */
    std::size_t residentCount() const;

    /** Way of its set holding @p blk, if resident (tests / debugging). */
    std::optional<unsigned>
    wayOf(BlockId blk) const
    {
        const std::size_t i = findWay(blk);
        if (i == kNoWay)
            return std::nullopt;
        return static_cast<unsigned>(i - setBase(blk));
    }

    const CacheConfig &config() const { return cfg_; }

    /** Bytes held by the tag and LRU arrays. */
    std::size_t
    bytes() const
    {
        return (tags_.size() + lru_.size()) * sizeof(std::uint64_t);
    }

  private:
    static constexpr std::size_t kNoWay = ~std::size_t{0};

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

    /** First way of @p blk's set, as an index into tags_ and lru_. */
    std::size_t
    setBase(BlockId blk) const
    {
        return static_cast<std::size_t>(blk & setMask_) * ways_;
    }

    /**
     * Index of the way holding @p blk, or kNoWay. A way matches when
     * its tag is @p blk and its state is not Invalid: the XOR then
     * leaves only the state, 1 to 3, and any other word gives 0 or a
     * value of 4 or more.
     */
    std::size_t
    findWay(BlockId blk) const
    {
        const std::uint64_t key = blk << 2;
        const std::size_t base = setBase(blk);
        const std::uint64_t *set = tags_.data() + base;
        for (unsigned w = 0; w < ways_; ++w)
            if ((set[w] ^ key) - 1 < 3)
                return base + w;
        return kNoWay;
    }

    CacheConfig cfg_;
    std::uint64_t setMask_;
    unsigned ways_;
    std::vector<std::uint64_t> tags_; ///< sets * ways tag words, row-major
    std::vector<std::uint64_t> lru_;  ///< LRU stamp of each way
    std::uint64_t tick_ = 0;
};

} // namespace tstream

#endif // TSTREAM_MEM_CACHE_HH
