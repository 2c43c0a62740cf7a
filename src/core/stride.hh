/**
 * @file
 * Constant-stride predictability detection (paper Section 4.3).
 *
 * A miss is "strided" if a conventional multi-tracker stride predictor
 * observing the same per-CPU miss sequence would have predicted its
 * address: some tracker has seen at least two consecutive equal deltas
 * ending at this miss. This is the standard stream-buffer criterion and
 * is orthogonal to SEQUITUR repetitiveness, as in Figure 3.
 */

#ifndef TSTREAM_CORE_STRIDE_HH
#define TSTREAM_CORE_STRIDE_HH

#include <cstdint>
#include <vector>

#include "mem/address.hh"
#include "trace/record.hh"

namespace tstream
{

/** Configuration of the stride detector. */
struct StrideConfig
{
    /** Trackers per CPU. */
    unsigned trackers = 16;
    /**
     * A new miss matches a tracker if within this many blocks. Kept
     * tight so unrelated buffers a few hundred bytes apart do not
     * alias into one tracker and fabricate strides.
     */
    std::int64_t window = 12;
};

/**
 * Per-CPU table of (last block, stride, confidence) trackers.
 *
 * Feed misses in per-CPU sequence order; observe() returns whether the
 * miss was stride-predicted.
 */
class StrideDetector
{
  public:
    explicit StrideDetector(const StrideConfig &cfg = {})
        : cfg_(cfg)
    {
    }

    /**
     * Observe the next miss of @p cpu to @p blk.
     * @return true if a tracker predicted this block.
     */
    bool observe(CpuId cpu, BlockId blk);

  private:
    struct Tracker
    {
        std::int64_t last = 0;
        std::int64_t stride = 0;
        int conf = -1; ///< -1 empty, 0 one delta seen, >=1 predicting
        std::uint64_t lru = 0;
    };

    StrideConfig cfg_;
    std::vector<std::vector<Tracker>> tables_; ///< per cpu
    std::uint64_t tick_ = 0;
};

} // namespace tstream

#endif // TSTREAM_CORE_STRIDE_HH
