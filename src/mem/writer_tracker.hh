/**
 * @file
 * Exact last-writer / ever-touched tracking for miss classification.
 *
 * The paper's Section 4.1 taxonomy needs, at each read miss, to know
 * whether the block was (a) ever accessed before by anyone (else
 * Compulsory), (b) written since the reader's last read, and by whom:
 * another processor (Coherence), a DMA transfer or non-allocating bulk
 * copy (I/O Coherence), or nobody relevant (Replacement).
 *
 * The history is kept per *classification viewpoint*: the multi-chip
 * system classifies per node; the single-chip off-chip view treats the
 * whole chip as one reader (so processor-to-processor communication
 * never appears as off-chip coherence, matching the paper); the
 * intra-chip view classifies per core. The memory models embed one
 * ReaderHistory per viewpoint in their per-block record.
 */

#ifndef TSTREAM_MEM_WRITER_TRACKER_HH
#define TSTREAM_MEM_WRITER_TRACKER_HH

#include <cstdint>

#include "trace/record.hh"

namespace tstream
{

/** Sentinel writer ids for I/O-class writes. */
constexpr int kWriterDma = -1;
constexpr int kWriterCopyout = -2;

/**
 * One block's history at one viewpoint, for up to 8 * sizeof(Mask)
 * readers. A write sets `stale = everRead`; a read by reader r sets
 * bit r of `everRead` and clears it in `stale`. So bit r of `stale` is
 * set exactly when the block was written since r's last read, and a
 * clear bit r of `everRead` means r never read the block.
 */
template <typename Mask>
struct ReaderHistory
{
    Mask everRead = 0;      ///< readers that ever read the block
    Mask stale = 0;         ///< readers written since their last read
    std::int8_t writer = 0; ///< last writer: reader id or kWriter*
    bool touched = false;   ///< ever read (or store-allocated)

    /** A write by @p w (a reader id, or kWriterDma / kWriterCopyout). */
    void
    recordWrite(int w)
    {
        stale = everRead;
        writer = static_cast<std::int8_t>(w);
    }

    /**
     * Classify a read miss by @p reader and record the read.
     *
     * Following the paper's definitions strictly, Coherence and I/O
     * Coherence require a *prior read at this reader*: a block this
     * reader has never read cannot have been invalidated out of its
     * cache, so its first read here is Compulsory (if globally cold)
     * or Replacement (cold at this cache only).
     */
    MissClass
    classifyRead(unsigned reader)
    {
        const Mask bit = static_cast<Mask>(Mask{1} << reader);
        MissClass cls = MissClass::Replacement;
        if (!touched)
            cls = MissClass::Compulsory;
        else if (stale & bit) {
            if (writer == kWriterDma || writer == kWriterCopyout)
                cls = MissClass::IoCoherence;
            else if (writer != static_cast<int>(reader))
                cls = MissClass::Coherence;
        }
        touched = true;
        everRead |= bit;
        stale &= static_cast<Mask>(~bit);
        return cls;
    }

    /**
     * True if a read by @p reader would be coherence-caused: written
     * by anyone but the reader, or by I/O, since the reader's last read.
     */
    bool
    coherenceCaused(unsigned reader) const
    {
        return touched && ((stale >> reader) & 1u) &&
               writer != static_cast<int>(reader);
    }
};

} // namespace tstream

#endif // TSTREAM_MEM_WRITER_TRACKER_HH
