/**
 * @file
 * Multi-chip DSM model: N nodes, each with a private L1 and a large
 * private L2, kept coherent with a directory-based MSI protocol.
 *
 * Mirrors the paper's 16-node distributed-shared-memory system (64 KB
 * 2-way L1, 8 MB 16-way L2, MSI). The model is functional: the traced
 * events are off-chip read misses (L2 read misses), classified with the
 * 4C's+I/O taxonomy per node.
 */

#ifndef TSTREAM_MEM_MULTICHIP_HH
#define TSTREAM_MEM_MULTICHIP_HH

#include <cstdint>
#include <vector>

#include "mem/block_table.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/writer_tracker.hh"

namespace tstream
{

/** Configuration of the multi-chip DSM. */
struct MultiChipConfig
{
    unsigned nodes = 16;
    CacheConfig l1 = cachecfg::kL1;
    CacheConfig l2 = cachecfg::kL2;
};

/** Directory-based MSI multi-chip multiprocessor. */
class MultiChipSystem : public MemorySystem
{
  public:
    explicit MultiChipSystem(const MultiChipConfig &cfg = {});

    void accessBlock(const Access &acc) override;
    void accessBlockRun(const Access *accs, std::size_t n) override;

    unsigned numCpus() const override { return cfg_.nodes; }

    /**
     * Everything the DSM keeps per block: the per-node reader history
     * and the directory entry. 16 bytes (the directory fields fill the
     * history's tail padding); the table stores no key beside it.
     */
    struct BlockState : ReaderHistory<std::uint32_t>
    {
        std::int8_t owner = -1;    ///< node holding Modified, or -1
        std::uint32_t sharers = 0; ///< bitmask over nodes
    };
    static_assert(sizeof(BlockState) == 16,
                  "the directory fields fill the history's tail padding");

    /**
     * Probe the directory (tests / debugging). Entries are never
     * erased: one with no sharers and no owner reads as absent
     * (nullptr), exactly as if it had been erased.
     */
    const BlockState *dirEntry(BlockId blk) const;

    std::size_t blockStateBytes() const override { return blocks_.bytes(); }
    std::size_t blockStateEntries() const override { return blocks_.size(); }
    std::size_t cacheBytes() const override;

    /** Probe a node's caches (tests / debugging). */
    std::optional<CohState> probeL1(unsigned node, BlockId blk) const;
    std::optional<CohState> probeL2(unsigned node, BlockId blk) const;

  private:
    void handleRead(const Access &acc, BlockId blk);
    void handleWrite(const Access &acc, BlockId blk);
    void handleIoWrite(BlockId blk, int writer);

    /** Invalidate @p node's cached copies of @p blk. */
    void invalidateNode(unsigned node, BlockId blk);

    /**
     * Invalidate @p blk at every node in the bitmask @p sharers. The
     * owner is always among a block's sharers, so a directory entry's
     * sharer bits name every cached copy.
     */
    void invalidateSharers(std::uint32_t sharers, BlockId blk);

    /** Handle the line an L2 fill at @p node evicted, if any. */
    void evictL2(unsigned node, std::optional<Cache::Line> evicted);

    MultiChipConfig cfg_;
    std::vector<Cache> l1_;
    std::vector<Cache> l2_;
    BlockTable<BlockState> blocks_;
};

} // namespace tstream

#endif // TSTREAM_MEM_MULTICHIP_HH
