/**
 * @file
 * Differential test of the flat per-block state against a frozen copy
 * of the node-map implementation it replaced: a WriterTracker with one
 * std::unordered_map of per-block versions plus one map of last-read
 * versions per reader, and memory models whose DSM directory is a map
 * that erases entries once no node caches the block.
 *
 * Seeded random Read / Write / DmaWrite / NonAllocWrite streams over a
 * small block universe (and tiny caches, so evictions, coherence and
 * I/O-coherence misses all occur) must give identical classifications,
 * traces and directory states. The DSM directory's owner must also
 * always be among its sharers.
 */

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <vector>

#include "mem/multichip.hh"
#include "mem/singlechip.hh"
#include "mem/writer_tracker.hh"
#include "writer_tracker_wrapper.hh"

namespace tstream
{
namespace
{

// ---------------------------------------------------------------------
// Frozen reference: the node-map implementation.
// ---------------------------------------------------------------------

namespace legacy
{

class WriterTracker
{
  public:
    explicit WriterTracker(unsigned readers) : lastRead_(readers) {}

    void
    recordWrite(BlockId blk, int writer)
    {
        Info &bi = info_[blk];
        bi.version++;
        bi.writer = writer;
    }

    MissClass
    classifyRead(BlockId blk, unsigned reader)
    {
        auto [it, fresh] = info_.try_emplace(blk);
        Info &bi = it->second;

        MissClass cls;
        auto rit = lastRead_[reader].find(blk);
        if (fresh || !bi.touched) {
            cls = MissClass::Compulsory;
        } else if (rit == lastRead_[reader].end()) {
            cls = MissClass::Replacement;
        } else if (bi.version > rit->second) {
            if (bi.writer == kWriterDma || bi.writer == kWriterCopyout)
                cls = MissClass::IoCoherence;
            else if (bi.writer != static_cast<int>(reader))
                cls = MissClass::Coherence;
            else
                cls = MissClass::Replacement;
        } else {
            cls = MissClass::Replacement;
        }

        bi.touched = true;
        if (rit == lastRead_[reader].end())
            lastRead_[reader].emplace(blk, bi.version);
        else
            rit->second = bi.version;
        return cls;
    }

    bool
    coherenceCaused(BlockId blk, unsigned reader) const
    {
        auto it = info_.find(blk);
        if (it == info_.end() || !it->second.touched)
            return false;
        const Info &bi = it->second;
        auto rit = lastRead_[reader].find(blk);
        if (rit == lastRead_[reader].end())
            return false;
        return bi.version > rit->second &&
               bi.writer != static_cast<int>(reader);
    }

    void recordTouch(BlockId blk) { info_[blk].touched = true; }

    std::size_t distinctBlocks() const { return info_.size(); }

  private:
    struct Info
    {
        std::uint32_t version = 0;
        int writer = 0;
        bool touched = false;
    };

    std::unordered_map<BlockId, Info> info_;
    std::vector<std::unordered_map<BlockId, std::uint32_t>> lastRead_;
};

class MultiChip : public MemorySystem
{
  public:
    struct DirEntry
    {
        std::uint32_t sharers = 0;
        int owner = -1;
    };

    explicit MultiChip(const MultiChipConfig &cfg)
        : cfg_(cfg), tracker_(cfg.nodes)
    {
        for (unsigned n = 0; n < cfg.nodes; ++n) {
            l1_.emplace_back(cfg.l1);
            l2_.emplace_back(cfg.l2);
        }
        offChip_.numCpus = cfg.nodes;
    }

    unsigned numCpus() const override { return cfg_.nodes; }

    const DirEntry *
    dirEntry(BlockId blk) const
    {
        auto it = dir_.find(blk);
        return it == dir_.end() ? nullptr : &it->second;
    }

    void
    accessBlock(const Access &acc) override
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

  private:
    void
    invalidateNode(unsigned node, BlockId blk)
    {
        l1_[node].invalidate(blk);
        l2_[node].invalidate(blk);
    }

    void
    fillL2(unsigned node, BlockId blk, CohState st)
    {
        auto evicted = l2_[node].insert(blk, st);
        if (evicted) {
            l1_[node].invalidate(evicted->block);
            auto it = dir_.find(evicted->block);
            if (it != dir_.end()) {
                it->second.sharers &= ~(1u << node);
                if (it->second.owner == static_cast<int>(node))
                    it->second.owner = -1;
                if (it->second.sharers == 0 && it->second.owner < 0)
                    dir_.erase(it);
            }
        }
    }

    void
    handleRead(const Access &acc, BlockId blk)
    {
        const unsigned node = acc.cpu;
        if (l1_[node].lookup(blk))
            return;
        if (auto st = l2_[node].lookup(blk)) {
            l1_[node].insert(blk, *st);
            return;
        }
        const MissClass cls = tracker_.classifyRead(blk, node);
        recordOffChipMiss(blk, static_cast<CpuId>(node),
                          static_cast<std::uint8_t>(cls), acc.fn);
        DirEntry &de = dir_[blk];
        if (de.owner >= 0 && de.owner != static_cast<int>(node)) {
            const unsigned o = static_cast<unsigned>(de.owner);
            l2_[o].setState(blk, CohState::Shared);
            l1_[o].setState(blk, CohState::Shared);
            de.sharers |= 1u << o;
            de.owner = -1;
        }
        de.sharers |= 1u << node;
        fillL2(node, blk, CohState::Shared);
        l1_[node].insert(blk, CohState::Shared);
    }

    void
    handleWrite(const Access &acc, BlockId blk)
    {
        const unsigned node = acc.cpu;
        tracker_.recordWrite(blk, static_cast<int>(node));
        if (auto st = l2_[node].probe(blk);
            st && *st == CohState::Modified) {
            l2_[node].lookup(blk);
            l1_[node].insert(blk, CohState::Modified);
            return;
        }
        DirEntry &de = dir_[blk];
        for (unsigned n = 0; n < cfg_.nodes; ++n) {
            if (n == node)
                continue;
            if ((de.sharers & (1u << n)) ||
                de.owner == static_cast<int>(n))
                invalidateNode(n, blk);
        }
        de.sharers = 1u << node;
        de.owner = static_cast<int>(node);
        fillL2(node, blk, CohState::Modified);
        l1_[node].insert(blk, CohState::Modified);
    }

    void
    handleIoWrite(BlockId blk, int writer)
    {
        tracker_.recordWrite(blk, writer);
        auto it = dir_.find(blk);
        if (it != dir_.end()) {
            for (unsigned n = 0; n < cfg_.nodes; ++n)
                if ((it->second.sharers & (1u << n)) ||
                    it->second.owner == static_cast<int>(n))
                    invalidateNode(n, blk);
            dir_.erase(it);
        }
    }

    MultiChipConfig cfg_;
    std::vector<Cache> l1_;
    std::vector<Cache> l2_;
    std::unordered_map<BlockId, DirEntry> dir_;
    WriterTracker tracker_;
};

class SingleChip : public MemorySystem
{
  public:
    explicit SingleChip(const SingleChipConfig &cfg)
        : cfg_(cfg), l2_(cfg.l2), intraTracker_(cfg.cores),
          chipTracker_(1)
    {
        for (unsigned c = 0; c < cfg.cores; ++c)
            l1_.emplace_back(cfg.l1);
        offChip_.numCpus = cfg.cores;
        intraChip_.numCpus = cfg.cores;
    }

    unsigned numCpus() const override { return cfg_.cores; }

    void
    accessBlock(const Access &acc) override
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

  private:
    void
    fillL1(unsigned core, BlockId blk, CohState st)
    {
        auto evicted = l1_[core].insert(blk, st);
        if (evicted && dirty(evicted->state))
            l2_.insert(evicted->block, CohState::Modified);
    }

    void
    offChipFill(const Access &acc, BlockId blk)
    {
        const MissClass cls = chipTracker_.classifyRead(blk, 0);
        recordOffChipMiss(blk, acc.cpu, static_cast<std::uint8_t>(cls),
                          acc.fn);
        l2_.insert(blk, CohState::Shared);
    }

    void
    handleRead(const Access &acc, BlockId blk)
    {
        const unsigned core = acc.cpu;
        if (l1_[core].lookup(blk))
            return;
        const bool cohCause = intraTracker_.coherenceCaused(blk, core);
        (void)intraTracker_.classifyRead(blk, core);

        int peer = -1;
        bool peerDirty = false;
        for (unsigned p = 0; p < cfg_.cores && peer < 0; ++p) {
            if (p == core)
                continue;
            if (auto st = l1_[p].probe(blk)) {
                peer = static_cast<int>(p);
                peerDirty = dirty(*st);
            }
        }
        const bool l2Hit = l2_.probe(blk).has_value();

        IntraClass icls;
        if (peer >= 0 && (peerDirty || !l2Hit)) {
            if (peerDirty)
                l1_[static_cast<unsigned>(peer)].setState(blk,
                                                          CohState::Owned);
            icls = (peerDirty || cohCause) ? IntraClass::CoherencePeerL1
                                           : IntraClass::ReplacementL2;
            fillL1(core, blk, CohState::Shared);
        } else if (l2Hit) {
            l2_.lookup(blk);
            icls = cohCause ? IntraClass::CoherenceL2
                            : IntraClass::ReplacementL2;
            fillL1(core, blk, CohState::Shared);
        } else {
            icls = IntraClass::OffChip;
            offChipFill(acc, blk);
            fillL1(core, blk, CohState::Shared);
        }
        if (tracing_) {
            intraChip_.misses.push_back(MissRecord{
                nextIntraSeq(), blk, static_cast<CpuId>(core),
                static_cast<std::uint8_t>(icls), acc.fn});
        }
    }

    void
    handleWrite(const Access &acc, BlockId blk)
    {
        const unsigned core = acc.cpu;
        intraTracker_.recordWrite(blk, static_cast<int>(core));
        chipTracker_.recordWrite(blk, 0);
        if (auto st = l1_[core].probe(blk);
            st && *st == CohState::Modified) {
            l1_[core].lookup(blk);
            return;
        }
        for (unsigned p = 0; p < cfg_.cores; ++p)
            if (p != core)
                l1_[p].invalidate(blk);
        l2_.invalidate(blk);
        if (!l2_.probe(blk) && !l1_[core].probe(blk))
            chipTracker_.recordTouch(blk);
        fillL1(core, blk, CohState::Modified);
    }

    void
    handleIoWrite(BlockId blk, int writer)
    {
        intraTracker_.recordWrite(blk, writer);
        chipTracker_.recordWrite(blk, writer);
        for (unsigned p = 0; p < cfg_.cores; ++p)
            l1_[p].invalidate(blk);
        l2_.invalidate(blk);
    }

    SingleChipConfig cfg_;
    std::vector<Cache> l1_;
    Cache l2_;
    WriterTracker intraTracker_;
    WriterTracker chipTracker_;
};

} // namespace legacy

// ---------------------------------------------------------------------
// Stream generation and comparison helpers.
// ---------------------------------------------------------------------

constexpr unsigned kReaderCounts[] = {1, 4, 16, 32};

/** A small universe spread over the address space, key 0 included. */
std::vector<BlockId>
blockUniverse(std::size_t n)
{
    std::vector<BlockId> u;
    for (std::size_t i = 0; i < n; ++i) {
        const BlockId region = (i % 3 == 0)   ? 0
                               : (i % 3 == 1) ? blockOf(0x0400'0000'0000ull)
                                              : blockOf(0x0C00'0000'0000ull);
        u.push_back(region + i * 7);
    }
    return u;
}

/** Tiny caches: 4-set 2-way L1s, 16-set 4-way L2s. */
constexpr CacheConfig kTinyL1{4 * 2 * kBlockSize, 2};
constexpr CacheConfig kTinyL2{16 * 4 * kBlockSize, 4};

AccessType
randomType(std::mt19937_64 &rng)
{
    const unsigned r = rng() % 100;
    if (r < 60)
        return AccessType::Read;
    if (r < 85)
        return AccessType::Write;
    if (r < 93)
        return AccessType::DmaWrite;
    return AccessType::NonAllocWrite;
}

std::vector<Access>
randomStream(unsigned cpus, std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    const std::vector<BlockId> universe = blockUniverse(384);
    std::vector<Access> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Access a;
        a.addr = blockBase(universe[rng() % universe.size()]);
        a.size = static_cast<std::uint32_t>(kBlockSize);
        a.type = randomType(rng);
        a.cpu = static_cast<CpuId>(rng() % cpus);
        a.fn = static_cast<FnId>(rng() % 5);
        out.push_back(a);
    }
    return out;
}

void
expectSameTrace(const MissTrace &ref, const MissTrace &got,
                const char *what)
{
    ASSERT_EQ(ref.numCpus, got.numCpus) << what;
    ASSERT_EQ(ref.misses.size(), got.misses.size()) << what;
    for (std::size_t i = 0; i < ref.misses.size(); ++i) {
        const MissRecord &x = ref.misses[i], &y = got.misses[i];
        ASSERT_TRUE(x.seq == y.seq && x.block == y.block &&
                    x.cpu == y.cpu && x.cls == y.cls && x.fn == y.fn)
            << what << " record " << i;
    }
}

/** Count of each class in @p t (MissClass or IntraClass values). */
std::vector<std::size_t>
classCounts(const MissTrace &t)
{
    std::vector<std::size_t> n(8, 0);
    for (const MissRecord &m : t.misses)
        ++n[m.cls];
    return n;
}

std::size_t
count(const std::vector<std::size_t> &n, MissClass c)
{
    return n[static_cast<std::size_t>(c)];
}

// ---------------------------------------------------------------------
// Tracker: every classification and predicate, step by step.
// ---------------------------------------------------------------------

TEST(BlockStateDiff, TrackerMatchesNodeMapReference)
{
    const std::vector<BlockId> universe = blockUniverse(48);
    for (unsigned readers : kReaderCounts) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            std::mt19937_64 rng(seed * 1000 + readers);
            legacy::WriterTracker ref(readers);
            WriterTracker got(readers);
            std::size_t cls[4] = {};
            for (int step = 0; step < 40000; ++step) {
                // Sometimes a block outside the universe, so lookups of
                // never-seen blocks are exercised too.
                const BlockId blk = rng() % 64 == 0
                                        ? (BlockId{1} << 40) + rng() % 1024
                                        : universe[rng() % universe.size()];
                const unsigned r = static_cast<unsigned>(rng() % readers);
                ASSERT_EQ(ref.coherenceCaused(blk, r),
                          got.coherenceCaused(blk, r))
                    << "readers " << readers << " step " << step;
                switch (rng() % 10) {
                  case 0:
                    ref.recordWrite(blk, kWriterDma);
                    got.recordWrite(blk, kWriterDma);
                    break;
                  case 1:
                    ref.recordWrite(blk, kWriterCopyout);
                    got.recordWrite(blk, kWriterCopyout);
                    break;
                  case 2:
                  case 3: {
                    const int w = static_cast<int>(rng() % readers);
                    ref.recordWrite(blk, w);
                    got.recordWrite(blk, w);
                    break;
                  }
                  case 4:
                    if (rng() % 4 == 0) {
                        ref.recordTouch(blk);
                        got.recordTouch(blk);
                        break;
                    }
                    [[fallthrough]];
                  default: {
                    const MissClass c = ref.classifyRead(blk, r);
                    ASSERT_EQ(c, got.classifyRead(blk, r))
                        << "readers " << readers << " step " << step;
                    ++cls[static_cast<int>(c)];
                  }
                }
            }
            EXPECT_EQ(ref.distinctBlocks(), got.distinctBlocks());
            // The universe is small enough for every class to occur
            // (processor coherence needs a second reader).
            EXPECT_GT(cls[static_cast<int>(MissClass::Compulsory)], 0u);
            EXPECT_GT(cls[static_cast<int>(MissClass::Replacement)], 0u);
            EXPECT_GT(cls[static_cast<int>(MissClass::IoCoherence)], 0u);
            if (readers > 1) {
                EXPECT_GT(cls[static_cast<int>(MissClass::Coherence)], 0u);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Full models: traces and directory state.
// ---------------------------------------------------------------------

void
drive(MemorySystem &a, MemorySystem &b, const std::vector<Access> &s)
{
    // The first quarter is warm-up: classifier history builds up but
    // nothing is traced.
    const std::size_t warm = s.size() / 4;
    a.setTracing(false);
    b.setTracing(false);
    a.accessRun(s.data(), warm);
    b.accessRun(s.data(), warm);
    a.setTracing(true);
    b.setTracing(true);
    a.accessRun(s.data() + warm, s.size() - warm);
    b.accessRun(s.data() + warm, s.size() - warm);
}

TEST(BlockStateDiff, MultiChipMatchesNodeMapReference)
{
    for (unsigned nodes : kReaderCounts) {
        MultiChipConfig cfg;
        cfg.nodes = nodes;
        cfg.l1 = kTinyL1;
        cfg.l2 = kTinyL2;
        legacy::MultiChip ref(cfg);
        MultiChipSystem got(cfg);
        drive(ref, got, randomStream(nodes, 60000, 7 + nodes));

        expectSameTrace(ref.offChipTrace(), got.offChipTrace(),
                        "multi-chip off-chip");
        const auto n = classCounts(ref.offChipTrace());
        EXPECT_GT(count(n, MissClass::Replacement), 0u);
        EXPECT_GT(count(n, MissClass::IoCoherence), 0u);
        if (nodes > 1) {
            EXPECT_GT(count(n, MissClass::Coherence), 0u);
        }

        std::size_t entries = 0;
        for (BlockId blk : blockUniverse(384)) {
            const auto *r = ref.dirEntry(blk);
            const auto *g = got.dirEntry(blk);
            ASSERT_EQ(r == nullptr, g == nullptr) << "block " << blk;
            if (r) {
                ++entries;
                EXPECT_EQ(r->sharers, g->sharers) << "block " << blk;
                EXPECT_EQ(r->owner, g->owner) << "block " << blk;
            }
        }
        EXPECT_GT(entries, 0u);
    }
}

TEST(BlockStateDiff, DirectoryOwnerIsAlwaysASharer)
{
    // The DSM invalidates the copies of a block by walking the set bits
    // of its directory entry's sharers, which finds every copy only if
    // the owner is always a sharer and no node caches the block without
    // being one. Check both as a random run with DMA and copyout writes
    // goes: the owner after every access, the cached copies every 97.
    const std::vector<BlockId> universe = blockUniverse(384);
    for (unsigned nodes : kReaderCounts) {
        MultiChipConfig cfg;
        cfg.nodes = nodes;
        cfg.l1 = kTinyL1;
        cfg.l2 = kTinyL2;
        MultiChipSystem sys(cfg);
        const std::vector<Access> s = randomStream(nodes, 20000, 31 + nodes);
        std::size_t owned = 0;
        for (std::size_t i = 0; i < s.size(); ++i) {
            sys.accessRun(&s[i], 1);
            for (BlockId blk : universe) {
                const auto *e = sys.dirEntry(blk);
                if (!e || e->owner < 0)
                    continue;
                ++owned;
                ASSERT_TRUE(e->sharers >> e->owner & 1u)
                    << "nodes " << nodes << " step " << i << " block "
                    << blk;
            }
            if (i % 97 != 0)
                continue;
            for (BlockId blk : universe) {
                const auto *e = sys.dirEntry(blk);
                const std::uint32_t sharers = e ? e->sharers : 0;
                for (unsigned n = 0; n < nodes; ++n) {
                    const bool cached =
                        sys.probeL1(n, blk) || sys.probeL2(n, blk);
                    ASSERT_TRUE(!cached || (sharers >> n & 1u))
                        << "nodes " << nodes << " step " << i << " node "
                        << n << " block " << blk;
                }
            }
        }
        EXPECT_GT(owned, 0u);
    }
}

TEST(BlockStateDiff, SingleChipMatchesNodeMapReference)
{
    for (unsigned cores : kReaderCounts) {
        SingleChipConfig cfg;
        cfg.cores = cores;
        cfg.l1 = kTinyL1;
        cfg.l2 = kTinyL2;
        legacy::SingleChip ref(cfg);
        SingleChipSystem got(cfg);
        drive(ref, got, randomStream(cores, 60000, 11 + cores));

        expectSameTrace(ref.offChipTrace(), got.offChipTrace(),
                        "single-chip off-chip");
        expectSameTrace(ref.intraChipTrace(), got.intraChipTrace(),
                        "single-chip intra-chip");
        const auto off = classCounts(ref.offChipTrace());
        EXPECT_GT(count(off, MissClass::IoCoherence), 0u);
        if (cores > 1) {
            const auto intra = classCounts(ref.intraChipTrace());
            EXPECT_GT(intra[static_cast<int>(IntraClass::CoherenceL2)] +
                          intra[static_cast<int>(
                              IntraClass::CoherencePeerL1)],
                      0u);
        }
    }
}

} // namespace
} // namespace tstream
