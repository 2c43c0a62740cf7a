/**
 * @file
 * Flat per-block state: an open-addressing table keyed by BlockId.
 *
 * Each memory model keeps exactly one record per block it has seen
 * (reader history for the miss taxonomy, plus the directory entry in
 * the DSM), found with one linear-probe sequence. Records are never
 * erased, so there are no tombstones; the table doubles at 3/4 load,
 * the same rule as the SEQUITUR digram table.
 */

#ifndef TSTREAM_MEM_BLOCK_TABLE_HH
#define TSTREAM_MEM_BLOCK_TABLE_HH

#include <cstddef>
#include <vector>

#include "mem/address.hh"
#include "util/logging.hh"

namespace tstream
{

/** One default-constructed Record per inserted block; see the file doc. */
template <typename Record>
class BlockTable
{
  public:
    /** Marks an empty slot. Never a real block: addresses are < 2^48. */
    static constexpr BlockId kEmptyKey = ~BlockId{0};

    BlockTable() : slots_(kInitialSlots) {}

    /** Record of @p blk, or nullptr if it was never inserted. */
    const Record *
    find(BlockId blk) const
    {
        const Slot &s = slots_[probe(blk)];
        return s.key == kEmptyKey ? nullptr : &s.rec;
    }

    Record *
    find(BlockId blk)
    {
        Slot &s = slots_[probe(blk)];
        return s.key == kEmptyKey ? nullptr : &s.rec;
    }

    /**
     * Record of @p blk, default-constructed on first use. The reference
     * stays valid until the next insertion of a new block.
     */
    Record &
    findOrInsert(BlockId blk)
    {
        const std::size_t i = probe(blk);
        return slots_[i].key == kEmptyKey ? insert(i, blk) : slots_[i].rec;
    }

    /** Number of distinct blocks inserted. */
    std::size_t size() const { return used_; }

    /** Bytes held by the slot array (capacity x slot size). */
    std::size_t bytes() const { return slots_.size() * sizeof(Slot); }

  private:
    struct Slot
    {
        BlockId key = kEmptyKey;
        Record rec{};
    };

    static constexpr std::size_t kInitialSlots = 1024;

    /** log2 of the runs of consecutive blocks given adjacent slots. */
    static constexpr unsigned kRunBits = 3;

    static std::size_t
    hashKey(BlockId blk)
    {
        // Fibonacci hashing of the block's 8-block run, folded so the
        // masked low bits see the high-entropy product bits; the offset
        // in the run picks the slot. Workloads scan and DMA whole
        // regions, so a run's records then share cache lines and pages
        // of the table instead of costing one memory miss each.
        const BlockId h = (blk >> kRunBits) * 0x9e3779b97f4a7c15ull;
        const BlockId offset = blk & ((BlockId{1} << kRunBits) - 1);
        return static_cast<std::size_t>(((h ^ (h >> 32)) << kRunBits) |
                                        offset);
    }

    /** Slot holding @p blk, or the empty slot that ends its probe. */
    std::size_t
    probe(BlockId blk) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hashKey(blk) & mask;
        while (slots_[i].key != kEmptyKey && slots_[i].key != blk)
            i = (i + 1) & mask;
        return i;
    }

    /** Claim empty slot @p i (the end of @p blk's probe) for @p blk. */
    Record &
    insert(std::size_t i, BlockId blk)
    {
        panicIf(blk == kEmptyKey, "BlockTable: the empty-slot key is "
                                  "not a block");
        if ((used_ + 1) * 4 > slots_.size() * 3) {
            grow();
            i = probe(blk);
        }
        Slot &s = slots_[i];
        s.key = blk;
        ++used_;
        return s.rec;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        for (const Slot &s : old)
            if (s.key != kEmptyKey)
                slots_[probe(s.key)] = s;
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

} // namespace tstream

#endif // TSTREAM_MEM_BLOCK_TABLE_HH
