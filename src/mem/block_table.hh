/**
 * @file
 * Dense per-block state: keyless records in pages of consecutive
 * blocks.
 *
 * Each memory model keeps exactly one record per block it has seen
 * (reader history for the miss taxonomy, plus the directory entry in
 * the DSM). The simulated address space is a few bump-allocated
 * segments (mem/sim_alloc.hh), so the blocks a workload touches are
 * dense within each segment. Records therefore live in fixed pages of
 * kPageBlocks consecutive blocks, indexed by the block's offset in its
 * page, with no per-record key; a small open-addressing directory maps
 * a page id to its page. A per-page presence bitmap says which records
 * were inserted, so a never-inserted block reads as absent and size()
 * counts distinct blocks. Records are never erased and pages never
 * move, so a record's reference stays valid for the table's lifetime.
 */

#ifndef TSTREAM_MEM_BLOCK_TABLE_HH
#define TSTREAM_MEM_BLOCK_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/address.hh"

namespace tstream
{

/** One default-constructed Record per inserted block; see the file doc. */
template <typename Record>
class BlockTable
{
  public:
    /** log2 of the blocks per page. */
    static constexpr unsigned kPageBits = 9;
    /** Consecutive blocks sharing one page. */
    static constexpr std::size_t kPageBlocks = std::size_t{1} << kPageBits;

    BlockTable() : dir_(kInitialDirSlots) {}

    /** Record of @p blk, or nullptr if it was never inserted. */
    const Record *
    find(BlockId blk) const
    {
        const Page *p = dir_[dirProbe(blk >> kPageBits)].page;
        const std::size_t off = blk & (kPageBlocks - 1);
        return p && p->has(off) ? &p->recs[off] : nullptr;
    }

    Record *
    find(BlockId blk)
    {
        return const_cast<Record *>(std::as_const(*this).find(blk));
    }

    /**
     * Record of @p blk, default-constructed on first use. The reference
     * stays valid for the lifetime of the table.
     */
    Record &
    findOrInsert(BlockId blk)
    {
        const std::uint64_t id = blk >> kPageBits;
        Slot &slot = dir_[dirProbe(id)];
        Page *p = slot.page ? slot.page : addPage(slot, id);
        const std::size_t off = blk & (kPageBlocks - 1);
        if (!p->has(off)) {
            p->present[off / 64] |= std::uint64_t{1} << (off % 64);
            ++used_;
        }
        return p->recs[off];
    }

    /** Number of distinct blocks inserted. */
    std::size_t size() const { return used_; }

    /** Number of pages allocated. */
    std::size_t pages() const { return pages_.size(); }

    /** Bytes of one page: its records plus its presence bitmap. */
    static constexpr std::size_t kPageBytes = sizeof(Record) * kPageBlocks +
                                              kPageBlocks / 8;

    /** Bytes held by the page directory. */
    std::size_t directoryBytes() const { return dir_.size() * sizeof(Slot); }

    /** Bytes held by the table: its pages plus the directory. */
    std::size_t
    bytes() const
    {
        return pages_.size() * kPageBytes + directoryBytes();
    }

  private:
    struct Page
    {
        std::uint64_t present[kPageBlocks / 64] = {};
        Record recs[kPageBlocks] = {};

        bool
        has(std::size_t off) const
        {
            return (present[off / 64] >> (off % 64)) & 1u;
        }
    };
    static_assert(sizeof(Page) == kPageBytes,
                  "a page is its records plus its bitmap, unpadded");

    /** Directory slot: a page id and its page (nullptr when empty). */
    struct Slot
    {
        std::uint64_t id = 0;
        Page *page = nullptr;
    };

    static constexpr std::size_t kInitialDirSlots = 64;

    /** Slot holding page @p id, or the empty slot ending its probe. */
    std::size_t
    dirProbe(std::uint64_t id) const
    {
        const std::size_t mask = dir_.size() - 1;
        // Fibonacci hashing, folded so the masked low bits see the
        // high-entropy product bits.
        const std::uint64_t h = id * 0x9e3779b97f4a7c15ull;
        std::size_t i = static_cast<std::size_t>(h ^ (h >> 32)) & mask;
        while (dir_[i].page && dir_[i].id != id)
            i = (i + 1) & mask;
        return i;
    }

    /**
     * Allocate page @p id into @p slot, the empty slot ending its
     * probe; if the directory would then be over half full, double it
     * and enter the page there instead.
     */
    Page *
    addPage(Slot &slot, std::uint64_t id)
    {
        pages_.push_back(std::make_unique<Page>());
        Page *p = pages_.back().get();
        if (pages_.size() * 2 > dir_.size()) {
            growDirectory();
            dir_[dirProbe(id)] = Slot{id, p};
        } else {
            slot = Slot{id, p};
        }
        return p;
    }

    /** Double the directory (kept at most half full). */
    void
    growDirectory()
    {
        std::vector<Slot> old(dir_.size() * 2);
        old.swap(dir_);
        for (const Slot &s : old)
            if (s.page)
                dir_[dirProbe(s.id)] = s;
    }

    std::vector<Slot> dir_;
    std::vector<std::unique_ptr<Page>> pages_;
    std::size_t used_ = 0;
};

} // namespace tstream

#endif // TSTREAM_MEM_BLOCK_TABLE_HH
