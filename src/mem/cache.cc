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
    panicIf(ways_ > kMaxWays, "Cache: more than 16 ways");
    setMask_ = sets - 1;
    tags_.resize(sets * ways_);
    Ranks empty;
    for (unsigned w = 0; w < kMaxWays; ++w)
        empty[w] = w < ways_ ? kFree : kAbsent;
    ranks_.assign(sets, empty);
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
