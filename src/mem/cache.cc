#include "mem/cache.hh"

namespace tstream
{

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg), ways_(cfg.ways)
{
    const std::uint64_t sets = cfg.numSets();
    panicIf(sets == 0 || (sets & (sets - 1)) != 0,
            "Cache: set count must be a nonzero power of two");
    panicIf(ways_ == 0, "Cache: zero ways");
    setMask_ = sets - 1;
    tags_.resize(sets * ways_);
    lru_.resize(sets * ways_);
}

std::optional<Cache::Line>
Cache::insert(BlockId blk, CohState st)
{
    panicIf(st == CohState::Invalid, "Cache::insert of Invalid state");
    panicIf(blk >= kBlockLimit, "Cache::insert of a block at or above 2^62");

    // Re-insertion of a resident block just updates state and LRU.
    const std::size_t hit = findWay(blk);
    if (hit != kNoWay) {
        tags_[hit] = tagWord(blk, st);
        lru_[hit] = ++tick_;
        return std::nullopt;
    }

    // Prefer the lowest-index invalid way; otherwise evict the LRU way
    // (stamps are unique, so there are no ties).
    const std::size_t base = setBase(blk);
    std::size_t victim = kNoWay;
    for (unsigned w = 0; w < ways_ && victim == kNoWay; ++w)
        if (stateOf(tags_[base + w]) == CohState::Invalid)
            victim = base + w;
    std::optional<Line> evicted;
    if (victim == kNoWay) {
        victim = base;
        for (unsigned w = 1; w < ways_; ++w)
            if (lru_[base + w] < lru_[victim])
                victim = base + w;
        evicted = Line{tags_[victim] >> 2, stateOf(tags_[victim])};
    }

    tags_[victim] = tagWord(blk, st);
    lru_[victim] = ++tick_;
    return evicted;
}

std::size_t
Cache::residentCount() const
{
    std::size_t n = 0;
    for (const std::uint64_t word : tags_)
        if (stateOf(word) != CohState::Invalid)
            ++n;
    return n;
}

} // namespace tstream
