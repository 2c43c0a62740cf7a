/**
 * @file
 * Abstract interface of a traced multiprocessor memory system.
 *
 * A MemorySystem consumes the access stream produced by the workload
 * emulators (block by block) and collects read-miss traces. Two
 * concrete models exist, matching the paper's Section 3:
 *
 *  - MultiChipSystem: 16-node DSM with MSI; collects the off-chip trace.
 *  - SingleChipSystem: 4-core CMP with MOSI; collects both the off-chip
 *    (shared-L2 miss) trace and the intra-chip (L1 miss) trace.
 */

#ifndef TSTREAM_MEM_MEMORY_SYSTEM_HH
#define TSTREAM_MEM_MEMORY_SYSTEM_HH

#include <cstddef>
#include <cstdint>

#include "mem/address.hh"
#include "trace/record.hh"

namespace tstream
{

/**
 * Prefetcher-in-the-loop hook (core/prefetch_policy.hh). When
 * installed, a concrete model consults it on every off-chip read miss
 * *before* recording the miss: a true return means a previously
 * issued prefetch covers the access (a prefetch buffer at the chip
 * edge absorbs it), and the record is dropped from the trace — so
 * coverage changes the observed miss stream instead of being scored
 * offline. The cache fill itself proceeds either way, keeping the
 * run's cache behaviour identical to the un-hooked run: the recorded
 * trace is exactly the uncovered subsequence of the baseline trace.
 */
class PrefetchLoopHook
{
  public:
    virtual ~PrefetchLoopHook() = default;

    /**
     * Observe the off-chip read miss @p m (called for every miss,
     * warm-up included; @p traced says whether it would be recorded).
     * @return true when a buffered prefetch covers it.
     */
    virtual bool coverOffChipMiss(const MissRecord &m, bool traced) = 0;
};

/** Base class for the two hierarchy models. */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /** Process one block-sized access (addr must identify the block). */
    virtual void accessBlock(const Access &acc) = 0;

    /**
     * Process a run of block-sized accesses, in order. Semantically
     * identical to calling accessBlock() once per element; concrete
     * models override it to dispatch the whole run with a single
     * virtual call (the Engine's batching path), so the per-access
     * cost is a direct call into the protocol handlers.
     */
    virtual void
    accessBlockRun(const Access *accs, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            accessBlock(accs[i]);
    }

    /** Number of CPUs (cores or nodes) in the system. */
    virtual unsigned numCpus() const = 0;

    /** Bytes held by the model's per-block state table (its pages
     *  plus their directory), and the number of blocks it tracks. */
    virtual std::size_t blockStateBytes() const { return 0; }
    virtual std::size_t blockStateEntries() const { return 0; }

    /** Bytes held by the tag and LRU arrays of every L1 and L2. */
    virtual std::size_t cacheBytes() const { return 0; }

    /**
     * Process an access of arbitrary size by splitting it into its
     * constituent blocks.
     */
    void
    access(const Access &acc)
    {
        accessRun(&acc, 1);
    }

    /**
     * Process @p n accesses of arbitrary size, in order: each is split
     * into its constituent blocks and the expanded run is handed to
     * accessBlockRun() in large chunks, amortizing the virtual
     * dispatch over whole runs instead of paying it per block.
     */
    void
    accessRun(const Access *accs, std::size_t n)
    {
        Access run[kRunBlocks];
        std::size_t nb = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Access &acc = accs[i];
            const BlockId first = blockOf(acc.addr);
            const BlockId last = acc.size == 0
                                     ? first
                                     : blockOf(acc.addr + acc.size - 1);
            for (BlockId b = first; b <= last; ++b) {
                if (nb == kRunBlocks) {
                    accessBlockRun(run, nb);
                    nb = 0;
                }
                Access &blk = run[nb++];
                blk = acc;
                blk.addr = blockBase(b);
                blk.size = static_cast<std::uint32_t>(kBlockSize);
            }
        }
        if (nb > 0)
            accessBlockRun(run, nb);
    }

    /** Enable or disable trace collection (disabled during warmup). */
    void setTracing(bool on) { tracing_ = on; }

    /** Install (or clear, with nullptr) the prefetcher-in-the-loop
     *  hook; the caller keeps ownership and must outlive the run. */
    void setPrefetchHook(PrefetchLoopHook *hook) { prefetchHook_ = hook; }

    bool tracing() const { return tracing_; }

    /** Off-chip read-miss trace (MissRecord::cls holds a MissClass). */
    MissTrace &offChipTrace() { return offChip_; }
    const MissTrace &offChipTrace() const { return offChip_; }

    /**
     * Intra-chip L1 read-miss trace (MissRecord::cls holds an
     * IntraClass); empty for the multi-chip model.
     */
    MissTrace &intraChipTrace() { return intraChip_; }
    const MissTrace &intraChipTrace() const { return intraChip_; }

    /**
     * Off-chip and intra-chip read misses seen while tracing was off
     * (the warm-up), each counted where it would have been recorded;
     * runExperiment() sizes the traces from them.
     */
    std::uint64_t untracedOffChipMisses() const { return untracedOffChip_; }
    std::uint64_t untracedIntraChipMisses() const { return untracedIntra_; }

  protected:
    /** Block-expansion chunk size of accessRun(). */
    static constexpr std::size_t kRunBlocks = 128;

    /** Next global sequence number for the intra-chip trace. */
    std::uint64_t
    nextIntraSeq()
    {
        return intraSeq_++;
    }

    /**
     * Record one off-chip read miss, first giving the in-the-loop
     * prefetcher (if any) the chance to cover it. Concrete models call
     * this at their off-chip miss point; without a hook it appends the
     * record exactly as before.
     */
    void
    recordOffChipMiss(BlockId blk, CpuId cpu, std::uint8_t cls, FnId fn)
    {
        const MissRecord rec{offChipSeq_, blk, cpu, cls, fn};
        const bool covered =
            prefetchHook_ &&
            prefetchHook_->coverOffChipMiss(rec, tracing_);
        if (!tracing_) {
            ++untracedOffChip_;
        } else if (!covered) {
            offChip_.misses.push_back(rec);
            offChipSeq_++;
        }
    }

    /** Record one intra-chip read miss, or count it during warm-up. */
    void
    recordIntraChipMiss(BlockId blk, CpuId cpu, std::uint8_t cls, FnId fn)
    {
        if (tracing_)
            intraChip_.misses.push_back(
                MissRecord{nextIntraSeq(), blk, cpu, cls, fn});
        else
            ++untracedIntra_;
    }

    bool tracing_ = false;
    PrefetchLoopHook *prefetchHook_ = nullptr;
    MissTrace offChip_;
    MissTrace intraChip_;
    std::uint64_t offChipSeq_ = 0;
    std::uint64_t intraSeq_ = 0;
    std::uint64_t untracedOffChip_ = 0;
    std::uint64_t untracedIntra_ = 0;
};

} // namespace tstream

#endif // TSTREAM_MEM_MEMORY_SYSTEM_HH
