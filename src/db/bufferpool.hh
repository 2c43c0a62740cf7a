/**
 * @file
 * Database buffer pool: hashed page table, per-frame latches, clock
 * eviction, and demand paging through the kernel block device.
 *
 * Models the sqlpg/sqlb layers of the paper's DB2 categorization: page
 * fixes touch the bucket chain and frame headers (shared, read-write →
 * coherence among agents), and pool misses trigger DMA + copyout I/O,
 * whose destination-frame reads later classify as I/O coherence.
 */

#ifndef TSTREAM_DB_BUFFERPOOL_HH
#define TSTREAM_DB_BUFFERPOOL_HH

#include <cstdint>
#include <vector>

#include "kernel/kernel.hh"
#include "mem/sim_alloc.hh"

namespace tstream
{

/** Identifier of an on-disk database page. */
using PageId = std::uint64_t;

/** Buffer pool configuration. */
struct BufferPoolConfig
{
    /** Number of 4 KB frames (default 8192 = 32 MB, i.e. 4x L2). */
    unsigned frames = 8192;
    /** Hash bucket count. */
    unsigned buckets = 4096;
    /**
     * Recycle DMA staging buffers for page-ins. OLTP-style steady
     * traffic reuses kernel I/O buffers (repetitive I/O coherence);
     * DSS-style scans stream through fresh ones (the paper's
     * non-repetitive DSS copies).
     */
    bool recycleStaging = true;
};

/** The buffer pool. */
class BufferPool
{
  public:
    BufferPool(Kernel &kern, const BufferPoolConfig &cfg = {});

    /**
     * Fix page @p page, paging it in from disk if absent; returns the
     * frame base address. @p dirty marks the frame modified (write
     * latch + header update).
     */
    Addr fix(SysCtx &ctx, PageId page, bool dirty = false);

    /**
     * Fix a page that is being created (e.g. a fresh B+-tree split
     * page): allocates a frame without any disk read.
     */
    Addr fixNew(SysCtx &ctx, PageId page);

    /** True if the page currently has a frame. */
    bool resident(PageId page) const;

    /** Pool hit rate since construction. */
    double
    hitRate() const
    {
        const std::uint64_t t = hits_ + misses_;
        return t == 0 ? 0.0 : static_cast<double>(hits_) / t;
    }

    std::uint64_t misses() const { return misses_; }

    unsigned frameCount() const { return cfg_.frames; }

  private:
    struct Frame
    {
        PageId page = UINT64_MAX;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    /**
     * Resident page -> frame map. Linear probing over a power-of-two
     * slot array sized at construction to at least twice the frame
     * count, so it is never more than half full and never regrows;
     * Fibonacci hashing; backward-shift deletion, so no tombstones
     * pile up as pages come and go. The all-ones page id (a free
     * frame's page) marks empty slots.
     */
    class PageTable
    {
      public:
        static constexpr unsigned kNone = ~0u;

        explicit PageTable(unsigned frames);

        /** Frame holding @p page, or kNone. */
        unsigned
        find(PageId page) const
        {
            for (std::size_t i = home(page);; i = (i + 1) & mask_) {
                if (slots_[i].page == page)
                    return slots_[i].frame;
                if (slots_[i].page == kEmpty)
                    return kNone;
            }
        }

        /** Map @p page, which must be absent, to @p frame. */
        void put(PageId page, unsigned frame);

        /** Unmap @p page if it is mapped. */
        void erase(PageId page);

      private:
        static constexpr PageId kEmpty = ~PageId{0};

        struct Slot
        {
            PageId page = kEmpty;
            unsigned frame = kNone;
        };

        std::size_t
        home(PageId page) const
        {
            return static_cast<std::size_t>(
                (page * 0x9e3779b97f4a7c15ull) >> shift_);
        }

        std::vector<Slot> slots_;
        std::size_t mask_;
        unsigned shift_;
    };

    /** Pick a victim frame with a clock sweep (emits header probes). */
    unsigned evict(SysCtx &ctx);

    Kernel &kern_;
    BufferPoolConfig cfg_;
    Addr bucketBase_;  ///< bucket array (1 block per bucket)
    Addr frameHdrBase_; ///< frame headers (1 block each: latch + flags)
    Addr frameBase_;   ///< frame data (4 KB each)
    std::vector<Frame> frames_;
    PageTable pageMap_;
    unsigned clockHand_ = 0;
    std::uint64_t useTick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    FnId fnGetPage_, fnLatch_, fnCastout_;
};

} // namespace tstream

#endif // TSTREAM_DB_BUFFERPOOL_HH
