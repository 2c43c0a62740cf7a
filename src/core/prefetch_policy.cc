#include "core/prefetch_policy.hh"

#include <algorithm>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace tstream
{

// ---- FixedDepthPolicy -------------------------------------------------------

FixedDepthPolicy::FixedDepthPolicy(const TsPrefetcherConfig &cfg)
    : cfg_(cfg)
{
    panicIf(cfg.historyEntries == 0, "FixedDepthPolicy: empty history");
}

void
FixedDepthPolicy::reset(unsigned numCpus)
{
    ncpu_ = std::max(1u, numCpus);
    history_.assign(ncpu_, History{});
    for (History &h : history_)
        h.ring.assign(cfg_.historyEntries, 0);
    index_.clear();
    pending_.clear();
    lookups_ = 0;
}

std::uint32_t
FixedDepthPolicy::depthFor(std::uint32_t home) const
{
    (void)home;
    return cfg_.replayDepth;
}

void
FixedDepthPolicy::append(unsigned cpu, BlockId blk)
{
    History &h = history_[cpu];
    h.ring[static_cast<std::size_t>(h.head % cfg_.historyEntries)] = blk;
    index_[blk] = HistoryPos{static_cast<std::uint32_t>(cpu), h.head};
    h.head++;
}

void
FixedDepthPolicy::observeMiss(const MissRecord &m)
{
    const unsigned cpu = m.cpu < ncpu_ ? m.cpu : 0;

    // Stream lookup: where did this block last appear?
    auto found = index_.find(m.block);
    if (found != index_.end() &&
        (cfg_.crossCpu || found->second.cpu == cpu)) {
        const HistoryPos &pos = found->second;
        const History &h = history_[pos.cpu];
        // The located occurrence must still be inside the ring.
        if (h.head - pos.pos <= cfg_.historyEntries) {
            lookups_++;
            // Replay the addresses that followed it, up to the depth,
            // staying within what has actually been recorded. The tag
            // is the stream's home CPU, so usefulness feedback reaches
            // the right per-stream accuracy window in the adaptive
            // subclass.
            const std::uint32_t depth = depthFor(pos.cpu);
            for (std::uint32_t k = 1; k <= depth; ++k) {
                const std::uint64_t next = pos.pos + k;
                if (next >= h.head)
                    break;
                pending_.push_back(PrefetchCandidate{
                    h.ring[static_cast<std::size_t>(
                        next % cfg_.historyEntries)],
                    pos.cpu});
            }
        }
    }

    // Record the miss in this CPU's history (after the replay read the
    // pre-miss state, as in the pre-API model).
    append(cpu, m.block);
}

void
FixedDepthPolicy::drainPrefetches(std::vector<PrefetchCandidate> &out)
{
    out.insert(out.end(), pending_.begin(), pending_.end());
    pending_.clear();
}

std::uint64_t
FixedDepthPolicy::storageBytes() const
{
    // The CMOB budget axis: one block id per history entry per CPU.
    return static_cast<std::uint64_t>(std::max(1u, ncpu_)) *
           cfg_.historyEntries * sizeof(BlockId);
}

// ---- AdaptiveDepthPolicy ----------------------------------------------------

AdaptiveDepthPolicy::AdaptiveDepthPolicy(
    const TsPrefetcherConfig &cfg, const AdaptiveDepthConfig &adaptive)
    : FixedDepthPolicy(cfg), acfg_(adaptive)
{
    panicIf(acfg_.minDepth == 0 || acfg_.minDepth > acfg_.maxDepth,
            "AdaptiveDepthPolicy: bad depth bounds");
    panicIf(acfg_.window == 0, "AdaptiveDepthPolicy: empty window");
}

void
AdaptiveDepthPolicy::reset(unsigned numCpus)
{
    FixedDepthPolicy::reset(numCpus);
    const std::uint32_t start = std::clamp(
        cfg_.replayDepth, acfg_.minDepth, acfg_.maxDepth);
    depth_.assign(ncpu_, start);
    win_.assign(ncpu_, WindowCounters{});
}

std::uint32_t
AdaptiveDepthPolicy::depthFor(std::uint32_t home) const
{
    return depth_[home];
}

void
AdaptiveDepthPolicy::noteUseful(std::uint32_t tag)
{
    win_[tag].useful++;
}

void
AdaptiveDepthPolicy::drainPrefetches(std::vector<PrefetchCandidate> &out)
{
    // Charge this drain's candidates to their streams' windows; a full
    // window decides whether the stream's replays are paying off.
    for (const PrefetchCandidate &c : pending_) {
        WindowCounters &w = win_[c.tag];
        if (++w.issued >= acfg_.window) {
            const double acc = static_cast<double>(w.useful) /
                               static_cast<double>(w.issued);
            std::uint32_t &d = depth_[c.tag];
            if (acc >= acfg_.raiseAt)
                d = std::min(d * 2, acfg_.maxDepth);
            else if (acc <= acfg_.throttleAt)
                d = std::max(d / 2, acfg_.minDepth);
            w = WindowCounters{};
        }
    }
    FixedDepthPolicy::drainPrefetches(out);
}

// ---- StridePolicy -----------------------------------------------------------

StridePolicy::StridePolicy(const StridePolicyConfig &cfg)
    : cfg_(cfg)
{
    panicIf(cfg.degree == 0, "StridePolicy: zero degree");
}

void
StridePolicy::reset(unsigned numCpus)
{
    ncpu_ = std::max(1u, numCpus);
    stride_ = std::make_unique<StrideDetector>(cfg_.stride);
    last_.assign(ncpu_, -1);
    pending_.clear();
}

void
StridePolicy::observeMiss(const MissRecord &m)
{
    const unsigned cpu = m.cpu < ncpu_ ? m.cpu : 0;
    // On a confirmed run, fetch ahead (the detector sees the raw CPU
    // id, as the pre-API hybrid did).
    const bool strided = stride_->observe(m.cpu, m.block);
    if (strided && last_[cpu] >= 0) {
        const std::int64_t delta =
            static_cast<std::int64_t>(m.block) - last_[cpu];
        if (delta != 0) {
            for (unsigned k = 1; k <= cfg_.degree; ++k)
                pending_.push_back(PrefetchCandidate{
                    static_cast<BlockId>(
                        static_cast<std::int64_t>(m.block) +
                        delta * static_cast<std::int64_t>(k)),
                    0});
        }
    }
    last_[cpu] = static_cast<std::int64_t>(m.block);
}

void
StridePolicy::drainPrefetches(std::vector<PrefetchCandidate> &out)
{
    out.insert(out.end(), pending_.begin(), pending_.end());
    pending_.clear();
}

std::uint64_t
StridePolicy::storageBytes() const
{
    // (last block, stride, confidence) per tracker.
    return static_cast<std::uint64_t>(std::max(1u, ncpu_)) *
           cfg_.stride.trackers * 24;
}

// ---- HybridPolicy -----------------------------------------------------------

HybridPolicy::HybridPolicy(
    std::vector<std::unique_ptr<PrefetchPolicy>> parts)
    : parts_(std::move(parts))
{
    panicIf(parts_.empty(), "HybridPolicy: no sub-policies");
    panicIf(parts_.size() > 255, "HybridPolicy: too many sub-policies");
    for (const auto &p : parts_)
        panicIf(!p, "HybridPolicy: null sub-policy");
}

std::unique_ptr<HybridPolicy>
HybridPolicy::temporalPlusStride(const TsPrefetcherConfig &cfg,
                                 unsigned strideDegree)
{
    std::vector<std::unique_ptr<PrefetchPolicy>> parts;
    parts.push_back(std::make_unique<FixedDepthPolicy>(cfg));
    StridePolicyConfig sc;
    sc.degree = strideDegree;
    parts.push_back(std::make_unique<StridePolicy>(sc));
    return std::make_unique<HybridPolicy>(std::move(parts));
}

void
HybridPolicy::reset(unsigned numCpus)
{
    for (auto &p : parts_)
        p->reset(numCpus);
}

void
HybridPolicy::observeMiss(const MissRecord &m)
{
    for (auto &p : parts_)
        p->observeMiss(m);
}

void
HybridPolicy::drainPrefetches(std::vector<PrefetchCandidate> &out)
{
    for (std::size_t i = 0; i < parts_.size(); ++i) {
        scratch_.clear();
        parts_[i]->drainPrefetches(scratch_);
        for (const PrefetchCandidate &c : scratch_)
            out.push_back(PrefetchCandidate{
                c.block,
                (static_cast<std::uint32_t>(i) << kTagShift) |
                    (c.tag & ((1u << kTagShift) - 1))});
    }
}

void
HybridPolicy::noteUseful(std::uint32_t tag)
{
    const std::size_t idx = tag >> kTagShift;
    parts_[idx]->noteUseful(tag & ((1u << kTagShift) - 1));
}

std::uint64_t
HybridPolicy::storageBytes() const
{
    std::uint64_t total = 0;
    for (const auto &p : parts_)
        total += p->storageBytes();
    return total;
}

std::uint64_t
HybridPolicy::streamLookups() const
{
    std::uint64_t total = 0;
    for (const auto &p : parts_)
        total += p->streamLookups();
    return total;
}

// ---- registry ---------------------------------------------------------------

const std::vector<std::string> &
prefetchPolicyNames()
{
    static const std::vector<std::string> names = {
        "fixed", "adaptive", "stride", "hybrid"};
    return names;
}

std::unique_ptr<PrefetchPolicy>
makePrefetchPolicy(std::string_view name,
                   const PrefetchPolicyParams &params)
{
    if (name == "fixed")
        return std::make_unique<FixedDepthPolicy>(params.ts);
    if (name == "adaptive")
        return std::make_unique<AdaptiveDepthPolicy>(params.ts,
                                                     params.adaptive);
    if (name == "stride") {
        StridePolicyConfig sc;
        sc.degree = params.strideDegree;
        return std::make_unique<StridePolicy>(sc);
    }
    if (name == "hybrid")
        return HybridPolicy::temporalPlusStride(params.ts,
                                                params.strideDegree);
    return nullptr;
}

// ---- harness ----------------------------------------------------------------

namespace
{

/** One buffered prefetch: the block plus its policy tag. */
struct BufferedPrefetch
{
    BlockId block;
    std::uint32_t tag;
};

/** Per-CPU prefetch buffer: FIFO set of predicted blocks. */
struct Buffer
{
    std::vector<BufferedPrefetch> fifo;
    std::unordered_map<BlockId, std::uint32_t> present; // -> count
};

/**
 * The shared per-miss step: demand check with usefulness feedback,
 * train, drain, insert with FIFO displacement. Bit-identical to the
 * pre-API prefetcher loops — candidates are inserted after the
 * policy observed the miss, but insertion only touches the buffer, so
 * the order change is unobservable.
 */
class Harness
{
  public:
    Harness(PrefetchPolicy &policy, std::uint32_t bufferBlocks,
            unsigned numCpus)
        : policy_(policy), bufferBlocks_(bufferBlocks),
          ncpu_(std::max(1u, numCpus)), buffers_(ncpu_)
    {
        panicIf(bufferBlocks_ == 0, "prefetch harness: empty buffer");
        policy_.reset(ncpu_);
    }

    /** Process one demand miss; true when the buffer covered it. */
    bool
    step(const MissRecord &m)
    {
        const unsigned cpu = m.cpu < ncpu_ ? m.cpu : 0;
        Buffer &buf = buffers_[cpu];
        stats_.misses++;

        // Demand check against the prefetch buffer.
        bool covered = false;
        auto hit = buf.present.find(m.block);
        if (hit != buf.present.end()) {
            covered = true;
            stats_.covered++;
            stats_.useful += hit->second;
            // Consume every buffered copy, crediting its issuer.
            for (auto it = buf.fifo.begin(); it != buf.fifo.end();) {
                if (it->block == m.block) {
                    policy_.noteUseful(it->tag);
                    it = buf.fifo.erase(it);
                } else {
                    ++it;
                }
            }
            buf.present.erase(hit);
        }

        // Train on every miss (covered or not), then issue.
        policy_.observeMiss(m);
        scratch_.clear();
        policy_.drainPrefetches(scratch_);
        for (const PrefetchCandidate &c : scratch_)
            insert(buf, c);
        return covered;
    }

    /** Aggregate stats with the policy's lookup count folded in. */
    TsPrefetcherStats
    stats() const
    {
        TsPrefetcherStats s = stats_;
        s.streamLookups = policy_.streamLookups();
        return s;
    }

  private:
    void
    insert(Buffer &buf, const PrefetchCandidate &c)
    {
        stats_.issued++;
        buf.fifo.push_back(BufferedPrefetch{c.block, c.tag});
        buf.present[c.block]++;
        // FIFO displacement.
        if (buf.fifo.size() > bufferBlocks_) {
            const BlockId victim = buf.fifo.front().block;
            buf.fifo.erase(buf.fifo.begin());
            stats_.evictions++;
            auto it = buf.present.find(victim);
            if (it != buf.present.end() && --it->second == 0)
                buf.present.erase(it);
        }
    }

    PrefetchPolicy &policy_;
    std::uint32_t bufferBlocks_;
    unsigned ncpu_;
    std::vector<Buffer> buffers_;
    std::vector<PrefetchCandidate> scratch_;
    TsPrefetcherStats stats_;
};

/** Bump the prefetch.* run counters (docs/OBSERVABILITY.md). */
void
countPrefetchStats(const TsPrefetcherStats &s)
{
    telemetry::count("prefetch.issued", s.issued);
    telemetry::count("prefetch.useful", s.useful);
    telemetry::count("prefetch.covered", s.covered);
    telemetry::count("prefetch.evictions", s.evictions);
}

} // namespace

TsPrefetcherStats
evaluatePolicy(const MissTrace &trace, PrefetchPolicy &policy,
               std::uint32_t bufferBlocks)
{
    telemetry::Span span("prefetch.evaluate", "prefetch");
    if (span.active())
        span.arg("policy", policy.name());

    Harness harness(policy, bufferBlocks, trace.numCpus);
    for (const MissRecord &m : trace.misses)
        harness.step(m);

    const TsPrefetcherStats stats = harness.stats();
    if (span.active()) {
        span.arg("misses",
                 static_cast<std::int64_t>(stats.misses));
        span.arg("coverage_pct", 100.0 * stats.coverage());
    }
    countPrefetchStats(stats);
    return stats;
}

// ---- in-the-loop engine -----------------------------------------------------

struct PrefetchLoopEngine::Impl
{
    explicit Impl(PrefetchPolicy &policy, std::uint32_t bufferBlocks,
                  unsigned numCpus)
        : harness(policy, bufferBlocks, numCpus)
    {
    }

    Harness harness;
};

PrefetchLoopEngine::PrefetchLoopEngine(
    std::unique_ptr<PrefetchPolicy> policy, std::uint32_t bufferBlocks)
    : policy_(std::move(policy)), bufferBlocks_(bufferBlocks)
{
    panicIf(!policy_, "PrefetchLoopEngine: null policy");
}

PrefetchLoopEngine::~PrefetchLoopEngine()
{
    if (impl_)
        countPrefetchStats(stats());
}

void
PrefetchLoopEngine::attach(MemorySystem &sys)
{
    panicIf(impl_ != nullptr, "PrefetchLoopEngine: already attached");
    impl_ = std::make_unique<Impl>(*policy_, bufferBlocks_,
                                   sys.numCpus());
    sys.setPrefetchHook(this);
}

bool
PrefetchLoopEngine::coverOffChipMiss(const MissRecord &m, bool traced)
{
    const bool covered = impl_->harness.step(m);
    if (covered && traced)
        coveredTraced_++;
    return covered;
}

TsPrefetcherStats
PrefetchLoopEngine::stats() const
{
    return impl_ ? impl_->harness.stats() : TsPrefetcherStats{};
}

} // namespace tstream
