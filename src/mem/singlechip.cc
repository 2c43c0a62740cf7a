#include "mem/singlechip.hh"

namespace tstream
{

SingleChipSystem::SingleChipSystem(const SingleChipConfig &cfg)
    : cfg_(cfg), l2_(cfg.l2)
{
    panicIf(cfg.cores == 0 || cfg.cores > 32,
            "SingleChipSystem: core count must be in [1, 32]");
    l1_.reserve(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c)
        l1_.emplace_back(cfg.l1);
    offChip_.numCpus = cfg.cores;
    intraChip_.numCpus = cfg.cores;
}

std::size_t
SingleChipSystem::cacheBytes() const
{
    std::size_t n = l2_.bytes();
    for (const Cache &c : l1_)
        n += c.bytes();
    return n;
}

std::optional<CohState>
SingleChipSystem::probeL1(unsigned core, BlockId blk) const
{
    return l1_[core].probe(blk);
}

std::optional<CohState>
SingleChipSystem::probeL2(BlockId blk) const
{
    return l2_.probe(blk);
}

SingleChipSystem::Presence
SingleChipSystem::presence(BlockId blk) const
{
    const BlockState *b = blocks_.find(blk);
    return b ? Presence{b->l1s, b->inL2()} : Presence{};
}

void
SingleChipSystem::evictL1(std::optional<Cache::Line> evicted)
{
    if (evicted && dirty(evicted->state)) {
        // Non-inclusive hierarchy: dirty L1 victims are written back
        // into the L2 (allocating there). Every cached block has a
        // record, so this finds the victim's.
        auto l2evict = l2_.insert(evicted->block, CohState::Modified);
        (void)l2evict; // L2 victim writes back to memory implicitly.
        blocks_.findOrInsert(evicted->block).bits |= BlockState::kInL2;
    }
}

void
SingleChipSystem::offChipFill(const Access &acc, BlockId blk,
                              BlockState &b)
{
    const MissClass cls = b.chipClassifyRead();
    recordOffChipMiss(blk, acc.cpu, static_cast<std::uint8_t>(cls),
                      acc.fn);
    l2_.fill(blk, CohState::Shared);
    b.bits |= BlockState::kInL2;
}

void
SingleChipSystem::accessBlock(const Access &acc)
{
    const BlockId blk = blockOf(acc.addr);
    switch (acc.type) {
      case AccessType::Read:
        handleRead(acc, blk);
        break;
      case AccessType::Write:
        handleWrite(acc, blk);
        break;
      case AccessType::DmaWrite:
        handleIoWrite(blk, kWriterDma);
        break;
      case AccessType::NonAllocWrite:
        handleIoWrite(blk, kWriterCopyout);
        break;
    }
}

void
SingleChipSystem::accessBlockRun(const Access *accs, std::size_t n)
{
    // One virtual call for the whole run; every element dispatches
    // directly into the protocol handlers.
    for (std::size_t i = 0; i < n; ++i)
        SingleChipSystem::accessBlock(accs[i]);
}

void
SingleChipSystem::handleRead(const Access &acc, BlockId blk)
{
    const unsigned core = acc.cpu;

    // L1 hit.
    if (l1_[core].lookup(blk))
        return;

    // L1 read miss: determine cause before updating history.
    BlockState &b = blocks_.findOrInsert(blk);
    const bool cohCause = b.coherenceCaused(core);
    (void)b.classifyRead(core);

    // Find an on-chip supplier: the lowest-numbered peer L1 with an
    // owned/modified (or, because the hierarchy is non-inclusive, even
    // shared) copy, or the shared L2. Only peers in the presence mask
    // can hold it.
    int peer = -1;
    bool peerDirty = false;
    for (std::uint32_t m = b.l1s & ~(1u << core); m != 0; m &= m - 1) {
        const unsigned p = static_cast<unsigned>(__builtin_ctz(m));
        if (auto st = l1_[p].probe(blk)) {
            peer = static_cast<int>(p);
            peerDirty = dirty(*st);
            break;
        }
    }

    // A dirty peer supplies whether or not the L2 holds the block; a
    // clean peer only when the L2 does not. Dirty owners downgrade
    // M -> O and keep ownership (Piranha-style); the requestor fills
    // Shared. A dirty-peer supply is a cache-to-cache transfer and
    // counts as Coherence:Peer-L1 regardless of the reader's history
    // (classification by supplier, as in the paper's Figure 1 right);
    // a clean-peer supply of a merely-L2-evicted block is replacement
    // traffic. The L2 is looked up (and its recency refreshed) only
    // when no dirty peer supplies, and only an L2 hit supplies.
    IntraClass icls;
    if (peer >= 0 && peerDirty) {
        l1_[static_cast<unsigned>(peer)].setState(blk, CohState::Owned);
        icls = IntraClass::CoherencePeerL1;
    } else if (b.inL2() && l2_.lookup(blk)) {
        icls = cohCause ? IntraClass::CoherenceL2
                        : IntraClass::ReplacementL2;
    } else if (peer >= 0) {
        icls = cohCause ? IntraClass::CoherencePeerL1
                        : IntraClass::ReplacementL2;
    } else {
        icls = IntraClass::OffChip;
        offChipFill(acc, blk, b);
    }
    // The L1 missed above and no path since has filled it.
    evictL1(l1_[core].fill(blk, CohState::Shared));
    b.l1s |= 1u << core;

    recordIntraChipMiss(blk, static_cast<CpuId>(core),
                        static_cast<std::uint8_t>(icls), acc.fn);
}

void
SingleChipSystem::handleWrite(const Access &acc, BlockId blk)
{
    const unsigned core = acc.cpu;
    BlockState &b = blocks_.findOrInsert(blk);
    b.recordWrite(static_cast<int>(core));
    b.chipWrite(0);

    // Write hit in Modified: done. The lookup also refreshes recency
    // on an upgrade, which the insert below does again.
    if (auto st = l1_[core].lookup(blk); st && *st == CohState::Modified)
        return;

    // Invalidate peers; ownership moves to this core's L1. The L2
    // copy (if any) becomes stale; drop it. The up-to-date copy lives
    // in this L1 in Modified and is written back on eviction.
    invalidateCopies(b, blk, 1u << core);

    // A store to a block absent from the chip allocates silently (store
    // misses are not part of the paper's read-miss traces), but counts
    // as touched. The L2 copy is gone by now, and a block still in this
    // core's L1 is touched already: every on-chip fill sets the chip
    // history's `touched` first (off-chip fill, store allocation, or a
    // supplier that was filled that way) and nothing clears it.
    b.bits |= BlockState::kChipTouched;

    evictL1(l1_[core].insert(blk, CohState::Modified));
    b.l1s |= 1u << core;
}

void
SingleChipSystem::handleIoWrite(BlockId blk, int writer)
{
    BlockState &b = blocks_.findOrInsert(blk);
    b.recordWrite(writer);
    b.chipWrite(writer);
    // A DMA into a staging buffer no cache has held touches no cache.
    invalidateCopies(b, blk, 0);
}

void
SingleChipSystem::invalidateCopies(BlockState &b, BlockId blk,
                                   std::uint32_t keep)
{
    for (std::uint32_t m = b.l1s & ~keep; m != 0; m &= m - 1)
        l1_[static_cast<unsigned>(__builtin_ctz(m))].invalidate(blk);
    if (b.inL2())
        l2_.invalidate(blk);
    b.l1s &= keep;
    b.bits &= static_cast<std::uint8_t>(~BlockState::kInL2);
}

} // namespace tstream
