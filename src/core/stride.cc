#include "core/stride.hh"

#include <cstdlib>

namespace tstream
{

bool
StrideDetector::observe(CpuId cpu, BlockId blk)
{
    if (tables_.size() <= cpu)
        tables_.resize(cpu + 1);
    auto &table = tables_[cpu];
    if (table.empty())
        table.resize(cfg_.trackers);

    const std::int64_t b = static_cast<std::int64_t>(blk);
    ++tick_;

    // Find the closest tracker within the window.
    int best = -1;
    std::int64_t bestDist = cfg_.window + 1;
    for (std::size_t i = 0; i < table.size(); ++i) {
        Tracker &t = table[i];
        if (t.conf < 0)
            continue;
        const std::int64_t d = std::llabs(b - t.last);
        if (d <= cfg_.window && d < bestDist) {
            bestDist = d;
            best = static_cast<int>(i);
        }
    }

    if (best >= 0) {
        Tracker &t = table[best];
        const std::int64_t delta = b - t.last;
        bool predicted = false;
        if (delta == t.stride && delta != 0 && t.conf >= 0) {
            t.conf++;
            predicted = t.conf >= 1;
        } else {
            t.stride = delta;
            t.conf = 0;
        }
        t.last = b;
        t.lru = tick_;
        return predicted;
    }

    // Allocate the LRU (or first empty) tracker.
    std::size_t victim = 0;
    std::uint64_t oldest = UINT64_MAX;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i].conf < 0) {
            victim = i;
            break;
        }
        if (table[i].lru < oldest) {
            oldest = table[i].lru;
            victim = i;
        }
    }
    table[victim] = Tracker{b, 0, 0, tick_};
    return false;
}

} // namespace tstream
