/**
 * @file
 * Single-chip CMP model: 4 cores with private L1s over a shared L2,
 * kept coherent with a Piranha-like non-inclusive MOSI protocol.
 *
 * Two traces are collected, matching the paper's contexts (2) and (3):
 *
 *  - off-chip: shared-L2 read misses, classified with the 4C's+I/O
 *    taxonomy where the *chip* is the reader entity — so there is no
 *    processor-coherence off-chip traffic, only I/O coherence, exactly
 *    as the paper observes;
 *  - intra-chip: L1 read misses, classified by cause and supplier
 *    (Coherence:Peer-L1 / Coherence:L2 / Replacement:L2 / Off-chip).
 */

#ifndef TSTREAM_MEM_SINGLECHIP_HH
#define TSTREAM_MEM_SINGLECHIP_HH

#include <cstdint>
#include <vector>

#include "mem/block_table.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/writer_tracker.hh"

namespace tstream
{

/** Configuration of the single-chip CMP. */
struct SingleChipConfig
{
    unsigned cores = 4;
    CacheConfig l1 = cachecfg::kL1;
    CacheConfig l2 = cachecfg::kL2;
};

/** Piranha-like non-inclusive MOSI chip multiprocessor. */
class SingleChipSystem : public MemorySystem
{
  public:
    explicit SingleChipSystem(const SingleChipConfig &cfg = {});

    void accessBlock(const Access &acc) override;
    void accessBlockRun(const Access *accs, std::size_t n) override;

    unsigned numCpus() const override { return cfg_.cores; }

    std::size_t blockStateBytes() const override { return blocks_.bytes(); }
    std::size_t blockStateEntries() const override { return blocks_.size(); }
    std::size_t cacheBytes() const override;

    /** Probe caches (tests / debugging). */
    std::optional<CohState> probeL1(unsigned core, BlockId blk) const;
    std::optional<CohState> probeL2(BlockId blk) const;

  private:
    /**
     * Per-block history at both viewpoints: per core (intra-chip
     * cause split) and the whole chip as one reader (off-chip
     * classification). 16 bytes; the table stores no key beside it.
     */
    struct BlockState
    {
        ReaderHistory<std::uint32_t> core;
        ReaderHistory<std::uint8_t> chip;
    };

    void handleRead(const Access &acc, BlockId blk);
    void handleWrite(const Access &acc, BlockId blk);
    void handleIoWrite(BlockId blk, int writer);

    /** Write the line an L1 fill evicted back into the L2 if dirty. */
    void evictL1(std::optional<Cache::Line> evicted);

    /**
     * Fetch a block absent from the L2 into it from memory (off-chip);
     * classifies and traces the off-chip miss.
     */
    void offChipFill(const Access &acc, BlockId blk, BlockState &b);

    SingleChipConfig cfg_;
    std::vector<Cache> l1_;
    Cache l2_;
    BlockTable<BlockState> blocks_;
};

} // namespace tstream

#endif // TSTREAM_MEM_SINGLECHIP_HH
