#include "core/stride.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace tstream
{

StrideDetector::StrideDetector(const StrideConfig &cfg)
    : cfg_(cfg)
{
    panicIf(cfg_.trackers == 0, "StrideDetector: zero trackers");
}

void
StrideDetector::grow(CpuId cpu)
{
    const std::size_t slots = (std::size_t{cpu} + 1) * cfg_.trackers;
    last_.resize(slots);
    stride_.resize(slots);
    lru_.resize(slots);
    used_.resize(std::size_t{cpu} + 1, 0);
}

bool
StrideDetector::observe(CpuId cpu, BlockId blk)
{
    if (cpu >= used_.size())
        grow(cpu);
    const std::size_t base = std::size_t{cpu} * cfg_.trackers;
    std::int64_t *last = last_.data() + base;
    const unsigned used = used_[cpu];

    const std::int64_t b = static_cast<std::int64_t>(blk);
    ++tick_;

    // Find the closest tracker within the window (the first of equals).
    unsigned best = used;
    std::int64_t bestDist = cfg_.window + 1;
    for (unsigned i = 0; i < used; ++i) {
        const std::int64_t d = std::llabs(b - last[i]);
        const bool closer = d < bestDist;
        bestDist = closer ? d : bestDist;
        best = closer ? i : best;
    }

    if (best < used) {
        const std::int64_t delta = b - last[best];
        std::int64_t &stride = stride_[base + best];
        const bool predicted = delta == stride && delta != 0;
        stride = delta;
        last[best] = b;
        lru_[base + best] = tick_;
        return predicted;
    }

    // Allocate the first empty tracker, or else the least recently
    // used one.
    unsigned victim = used;
    if (used < cfg_.trackers) {
        used_[cpu] = used + 1;
    } else {
        const std::uint64_t *lru = lru_.data() + base;
        victim = 0;
        for (unsigned i = 1; i < used; ++i)
            if (lru[i] < lru[victim])
                victim = i;
    }
    last[victim] = b;
    stride_[base + victim] = 0;
    lru_[base + victim] = tick_;
    return false;
}

} // namespace tstream
