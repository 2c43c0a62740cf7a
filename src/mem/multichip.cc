#include "mem/multichip.hh"

namespace tstream
{

MultiChipSystem::MultiChipSystem(const MultiChipConfig &cfg)
    : cfg_(cfg)
{
    panicIf(cfg.nodes == 0 || cfg.nodes > 32,
            "MultiChipSystem: node count must be in [1, 32]");
    l1_.reserve(cfg.nodes);
    l2_.reserve(cfg.nodes);
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        l1_.emplace_back(cfg.l1);
        l2_.emplace_back(cfg.l2);
    }
    offChip_.numCpus = cfg.nodes;
}

std::size_t
MultiChipSystem::cacheBytes() const
{
    std::size_t n = 0;
    for (unsigned i = 0; i < cfg_.nodes; ++i)
        n += l1_[i].bytes() + l2_[i].bytes();
    return n;
}

const MultiChipSystem::BlockState *
MultiChipSystem::dirEntry(BlockId blk) const
{
    const BlockState *b = blocks_.find(blk);
    return b && (b->sharers != 0 || b->owner >= 0) ? b : nullptr;
}

std::optional<CohState>
MultiChipSystem::probeL1(unsigned node, BlockId blk) const
{
    return l1_[node].probe(blk);
}

std::optional<CohState>
MultiChipSystem::probeL2(unsigned node, BlockId blk) const
{
    return l2_[node].probe(blk);
}

void
MultiChipSystem::invalidateNode(unsigned node, BlockId blk)
{
    l1_[node].invalidate(blk);
    l2_[node].invalidate(blk);
}

void
MultiChipSystem::invalidateSharers(std::uint32_t sharers, BlockId blk)
{
    for (; sharers != 0; sharers &= sharers - 1)
        invalidateNode(static_cast<unsigned>(__builtin_ctz(sharers)), blk);
}

void
MultiChipSystem::evictL2(unsigned node, std::optional<Cache::Line> evicted)
{
    if (evicted) {
        // Maintain L1 subset of L2 within a node: back-invalidate.
        l1_[node].invalidate(evicted->block);
        // Update the directory: the node no longer caches the victim.
        if (BlockState *b = blocks_.find(evicted->block)) {
            b->sharers &= ~(1u << node);
            if (b->owner == static_cast<int>(node))
                b->owner = -1; // implicit writeback to memory
        }
    }
}

void
MultiChipSystem::accessBlock(const Access &acc)
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
MultiChipSystem::accessBlockRun(const Access *accs, std::size_t n)
{
    // One virtual call for the whole run; every element dispatches
    // directly into the protocol handlers.
    for (std::size_t i = 0; i < n; ++i)
        MultiChipSystem::accessBlock(accs[i]);
}

void
MultiChipSystem::handleRead(const Access &acc, BlockId blk)
{
    const unsigned node = acc.cpu;

    // L1 hit: nothing further.
    if (l1_[node].lookup(blk))
        return;

    // L2 hit: refill L1 from the local L2 (intra-node, untraced in the
    // multi-chip context). The L1 just missed, so fill() need not
    // search it.
    if (auto st = l2_[node].lookup(blk)) {
        l1_[node].fill(blk, *st);
        return;
    }

    // Off-chip read miss: classify, trace (unless an in-the-loop
    // prefetch covers it), and fetch.
    BlockState &b = blocks_.findOrInsert(blk);
    const MissClass cls = b.classifyRead(node);
    recordOffChipMiss(blk, static_cast<CpuId>(node),
                      static_cast<std::uint8_t>(cls), acc.fn);

    if (b.owner >= 0 && b.owner != static_cast<int>(node)) {
        // Remote owner supplies and downgrades to Shared (writeback).
        const unsigned o = static_cast<unsigned>(b.owner);
        l2_[o].setState(blk, CohState::Shared);
        l1_[o].setState(blk, CohState::Shared);
        b.sharers |= 1u << o;
        b.owner = -1;
    }
    b.sharers |= 1u << node;

    // Both caches just missed.
    evictL2(node, l2_[node].fill(blk, CohState::Shared));
    l1_[node].fill(blk, CohState::Shared);
}

void
MultiChipSystem::handleWrite(const Access &acc, BlockId blk)
{
    const unsigned node = acc.cpu;
    BlockState &b = blocks_.findOrInsert(blk);
    b.recordWrite(static_cast<int>(node));

    // Write hit in Modified: done. The lookup also refreshes recency
    // on an upgrade, which the insert below does again.
    if (auto st = l2_[node].lookup(blk); st && *st == CohState::Modified) {
        l1_[node].insert(blk, CohState::Modified);
        return;
    }

    // Upgrade or write miss: invalidate all other copies.
    invalidateSharers(b.sharers & ~(1u << node), blk);
    b.sharers = 1u << node;
    b.owner = static_cast<std::int8_t>(node);

    evictL2(node, l2_[node].insert(blk, CohState::Modified));
    l1_[node].insert(blk, CohState::Modified);
}

void
MultiChipSystem::handleIoWrite(BlockId blk, int writer)
{
    BlockState &b = blocks_.findOrInsert(blk);
    b.recordWrite(writer);

    // I/O writes invalidate every cached copy and do not allocate.
    invalidateSharers(b.sharers, blk);
    b.sharers = 0;
    b.owner = -1;
}

} // namespace tstream
