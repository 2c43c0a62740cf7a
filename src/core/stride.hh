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
 * Per-CPU table of (last block, stride, last use) trackers.
 *
 * Feed misses in per-CPU sequence order; observe() returns whether the
 * miss was stride-predicted.
 */
class StrideDetector
{
  public:
    explicit StrideDetector(const StrideConfig &cfg = {});

    /**
     * Observe the next miss of @p cpu to @p blk.
     * @return true if a tracker predicted this block.
     */
    bool observe(CpuId cpu, BlockId blk);

  private:
    /** Give CPUs up to @p cpu their (empty) tracker slots. */
    void grow(CpuId cpu);

    StrideConfig cfg_;
    /*
     * The trackers as a struct of arrays: CPU c owns slots
     * [c * trackers, (c + 1) * trackers) of each array, so the
     * closest-tracker scan reads one contiguous run of last_. Slots
     * fill in order and are never emptied, so a CPU's live trackers
     * are its first used_[c] slots. A tracker predicts once it has
     * seen the same nonzero delta twice: stride_ holds the last delta
     * (0 until one is seen) and a match on it is the second sighting.
     */
    std::vector<std::int64_t> last_;   ///< last block seen
    std::vector<std::int64_t> stride_; ///< last delta
    std::vector<std::uint64_t> lru_;   ///< tick of last use
    std::vector<unsigned> used_;       ///< live trackers per CPU
    std::uint64_t tick_ = 0;
};

} // namespace tstream

#endif // TSTREAM_CORE_STRIDE_HH
