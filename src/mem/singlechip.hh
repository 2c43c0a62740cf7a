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

    /** The caches a block's presence mask names (see BlockState). */
    struct Presence
    {
        std::uint32_t l1s = 0; ///< bit c: core c's L1
        bool l2 = false;
    };

    /** Presence mask of @p blk (tests / debugging); empty if untracked. */
    Presence presence(BlockId blk) const;

  private:
    /**
     * Everything the chip keeps per block, 16 bytes with no key beside
     * it: the per-core history (intra-chip cause split), the history
     * of the whole chip as one reader (off-chip classification), and
     * the presence mask.
     *
     * The chip view is ReaderHistory<> for its one reader, 0: its
     * `touched`, `everRead` and `stale` bits share a byte with the
     * L2's presence bit, and with the L1 mask they fill the per-core
     * history's tail padding.
     *
     * The presence mask has a bit per core's L1 and one for the L2.
     * Each fill or insert into a cache sets the cache's bit, and only
     * an invalidation by the model clears it (an I/O write clears
     * all, a store keeps the writer's L1 alone); evictions leave it
     * set. So a clear bit proves the cache does not hold the block,
     * and the protocol handlers skip that cache: a lookup, probe or
     * invalidation there would miss without touching recency.
     */
    struct BlockState : ReaderHistory<std::uint32_t>
    {
        static constexpr std::uint8_t kChipTouched = 1;
        static constexpr std::uint8_t kChipRead = 2;
        static constexpr std::uint8_t kChipStale = 4;
        static constexpr std::uint8_t kInL2 = 8;

        std::int8_t chipWriter = 0; ///< chip view: 0 (a core) or kWriter*
        std::uint8_t bits = 0;      ///< kChip* and kInL2
        std::uint32_t l1s = 0;      ///< presence: bit c for core c's L1

        bool inL2() const { return bits & kInL2; }

        /** ReaderHistory::recordWrite() at the chip view. */
        void
        chipWrite(int w)
        {
            bits = static_cast<std::uint8_t>(
                (bits & ~kChipStale) | (bits & kChipRead ? kChipStale : 0));
            chipWriter = static_cast<std::int8_t>(w);
        }

        /** ReaderHistory::classifyRead(0) at the chip view. */
        MissClass
        chipClassifyRead()
        {
            MissClass cls = MissClass::Replacement;
            if (!(bits & kChipTouched))
                cls = MissClass::Compulsory;
            else if (bits & kChipStale) {
                if (chipWriter == kWriterDma || chipWriter == kWriterCopyout)
                    cls = MissClass::IoCoherence;
                else if (chipWriter != 0)
                    cls = MissClass::Coherence;
            }
            bits = static_cast<std::uint8_t>(
                (bits | kChipTouched | kChipRead) & ~kChipStale);
            return cls;
        }
    };
    static_assert(sizeof(BlockState) == 16,
                  "the chip view and the presence mask fill the per-core "
                  "history's tail padding");

    void handleRead(const Access &acc, BlockId blk);
    void handleWrite(const Access &acc, BlockId blk);
    void handleIoWrite(BlockId blk, int writer);

    /**
     * Invalidate @p blk in the L2 and in every L1 outside @p keep that
     * its presence mask names, and clear their bits.
     */
    void invalidateCopies(BlockState &b, BlockId blk, std::uint32_t keep);

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
