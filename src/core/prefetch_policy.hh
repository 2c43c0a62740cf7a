/**
 * @file
 * Pluggable prefetch-policy API.
 *
 * The paper is the characterization behind the temporal-streaming
 * prefetcher line (TSE [25], STEMS, and successors): record the miss
 * sequence in a history buffer, locate the previous occurrence of a
 * missing address, and replay the addresses that followed it. The
 * model reports the standard figures of merit: coverage (fraction of
 * misses eliminated by an earlier prefetch) and accuracy (fraction of
 * issued prefetches that were useful); timeliness is not modeled (the
 * traces are timing-free), matching the paper's hardware-independent
 * stance.
 *
 * This header makes the mechanism a policy interface: a policy consumes the
 * demand-miss stream one record at a time (observeMiss), hands back
 * the blocks it wants prefetched (drainPrefetches), learns from
 * feedback when a prefetched block absorbs a later miss (noteUseful),
 * and accounts for its predictor storage (storageBytes) so the paper's
 * Section 4.5 storage-budget sweeps fall out of the API.
 *
 * The surrounding machinery is shared by every policy and lives in the
 * harness, not the policies:
 *
 *  - evaluatePolicy() replays a collected trace through a policy and
 *    scores coverage/accuracy offline (the classic trace-driven mode);
 *  - PrefetchLoopEngine adapts a policy to the MemorySystem's
 *    PrefetchLoopHook so issued prefetches absorb misses *during* the
 *    simulation and covered misses vanish from the recorded trace
 *    (prefetcher-in-the-loop mode).
 *
 * Both drive the same per-CPU FIFO prefetch buffer with the same
 * demand-check-then-train step, so offline scores and in-the-loop
 * trace thinning agree by construction.
 *
 * Concrete policies:
 *
 *  - FixedDepthPolicy:    the paper's fixed replay depth (bit-identical
 *                         to the pre-API fixed-depth prefetcher);
 *  - AdaptiveDepthPolicy: per-stream accuracy feedback throttles or
 *                         extends the replay depth (Section 4.4's
 *                         argument against fixed depth);
 *  - StridePolicy:        a conventional stride engine (Section 4.3);
 *  - HybridPolicy:        an ordered composite (temporalPlusStride()
 *                         is the paper's Section 4.3 synergy).
 *
 * makePrefetchPolicy() is the registry every future prefetcher idea
 * plugs into; bench/ext_prefetcher's --policy flag resolves through it.
 */

#ifndef TSTREAM_CORE_PREFETCH_POLICY_HH
#define TSTREAM_CORE_PREFETCH_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/stride.hh"
#include "mem/memory_system.hh"
#include "trace/record.hh"

namespace tstream
{

/** Configuration of the temporal-streaming prefetcher. */
struct TsPrefetcherConfig
{
    /** History buffer entries per CPU. */
    std::uint32_t historyEntries = 1 << 18;
    /** Addresses replayed per stream lookup. */
    std::uint32_t replayDepth = 8;
    /** Prefetch buffer capacity (blocks) per CPU. */
    std::uint32_t bufferBlocks = 64;
    /**
     * Cross-CPU lookups: a miss may locate its stream in another
     * CPU's history (the paper's streams recur across processors).
     */
    bool crossCpu = true;
};

/** Result of evaluating a prefetch policy over one trace. */
struct TsPrefetcherStats
{
    std::uint64_t misses = 0;        ///< demand misses observed
    std::uint64_t covered = 0;       ///< eliminated by a prefetch
    std::uint64_t issued = 0;        ///< prefetches issued
    std::uint64_t useful = 0;        ///< prefetches that were hit
    std::uint64_t evictions = 0;     ///< buffer entries displaced unused
    std::uint64_t streamLookups = 0; ///< index hits that replayed

    double
    coverage() const
    {
        return misses == 0
                   ? 0.0
                   : static_cast<double>(covered) /
                         static_cast<double>(misses);
    }

    double
    accuracy() const
    {
        return issued == 0
                   ? 0.0
                   : static_cast<double>(useful) /
                         static_cast<double>(issued);
    }
};

/**
 * One block a policy wants prefetched. The tag is policy-private: it
 * travels with the block through the prefetch buffer and comes back
 * via noteUseful() when the block absorbs a demand miss, so a policy
 * can attribute usefulness to the stream (or engine) that issued it.
 */
struct PrefetchCandidate
{
    BlockId block = 0;
    std::uint32_t tag = 0;
};

/**
 * Abstract prefetch policy: consumes the demand-miss stream, produces
 * prefetch candidates, learns from usefulness feedback, and accounts
 * for its predictor storage. Policies hold predictor state only — the
 * prefetch buffer, the coverage/accuracy bookkeeping, and the
 * miss-vs-buffer demand check belong to the harness (evaluatePolicy /
 * PrefetchLoopEngine), so every policy is scored identically.
 */
class PrefetchPolicy
{
  public:
    virtual ~PrefetchPolicy() = default;

    /** Registry name ("fixed", "adaptive", ...). */
    virtual std::string_view name() const = 0;

    /** Clear predictor state and size it for @p numCpus CPUs. Called
     *  once before the first observeMiss(). */
    virtual void reset(unsigned numCpus) = 0;

    /**
     * Observe the next demand miss (in global trace order). Called
     * after the harness's demand check against the prefetch buffer,
     * i.e. for *every* miss, covered or not — exactly the stream the
     * pre-API model trained on.
     */
    virtual void observeMiss(const MissRecord &m) = 0;

    /** Append the candidates produced by the last observeMiss() to
     *  @p out (in issue order) and clear the pending set. */
    virtual void drainPrefetches(std::vector<PrefetchCandidate> &out) = 0;

    /** Feedback: one buffered candidate carrying @p tag absorbed a
     *  demand miss. Called once per consumed buffer entry. */
    virtual void
    noteUseful(std::uint32_t tag)
    {
        (void)tag;
    }

    /** Predictor storage in bytes (the paper's CMOB budget axis —
     *  history rings, stride trackers; derived lookup metadata is not
     *  charged). Deterministic from config + reset(numCpus). */
    virtual std::uint64_t storageBytes() const = 0;

    /** Stream lookups that replayed (temporal policies; 0 otherwise).
     *  Kept so TsPrefetcherStats::streamLookups survives the API. */
    virtual std::uint64_t
    streamLookups() const
    {
        return 0;
    }
};

// ---------------------------------------------------------------------------
// Concrete policies
// ---------------------------------------------------------------------------

/**
 * The classic temporal-streaming policy at a fixed replay depth:
 * per-CPU circular history, global block -> last-position index,
 * replay of the @c replayDepth successors. Bit-identical to the
 * pre-API prefetcher (frozen as RefPrefetcher in
 * tests/prefetch_policy_test.cc) when driven by evaluatePolicy() with
 * the same TsPrefetcherConfig.
 */
class FixedDepthPolicy : public PrefetchPolicy
{
  public:
    explicit FixedDepthPolicy(const TsPrefetcherConfig &cfg = {});

    std::string_view name() const override { return "fixed"; }
    void reset(unsigned numCpus) override;
    void observeMiss(const MissRecord &m) override;
    void drainPrefetches(std::vector<PrefetchCandidate> &out) override;
    std::uint64_t storageBytes() const override;
    std::uint64_t streamLookups() const override { return lookups_; }

  protected:
    struct HistoryPos
    {
        std::uint32_t cpu;
        std::uint64_t pos; ///< absolute append index into the history
    };

    /** Per-CPU circular history of miss blocks. */
    struct History
    {
        std::vector<BlockId> ring;
        std::uint64_t head = 0; ///< total appended
    };

    /** Replay depth for a stream located in @p home's history. The
     *  adaptive subclass modulates this per home CPU. */
    virtual std::uint32_t depthFor(std::uint32_t home) const;

    void append(unsigned cpu, BlockId blk);

    TsPrefetcherConfig cfg_;
    unsigned ncpu_ = 0;
    std::vector<History> history_;
    std::unordered_map<BlockId, HistoryPos> index_;
    std::vector<PrefetchCandidate> pending_;
    std::uint64_t lookups_ = 0;
};

/** Accuracy window/threshold knobs of AdaptiveDepthPolicy. */
struct AdaptiveDepthConfig
{
    std::uint32_t minDepth = 1;
    std::uint32_t maxDepth = 32;
    /** Issued prefetches per (home CPU) accuracy window. */
    std::uint32_t window = 64;
    /** Window accuracy >= this: double the depth (up to maxDepth). */
    double raiseAt = 0.8;
    /** Window accuracy <= this: halve the depth (down to minDepth). */
    double throttleAt = 0.4;
};

/**
 * Temporal streaming with per-stream accuracy feedback (Section 4.4):
 * each home CPU's streams carry their own replay depth, raised while
 * replays prove accurate and throttled when issued prefetches go
 * unused. The candidate tag is the stream's home CPU, so noteUseful()
 * credits the right window.
 */
class AdaptiveDepthPolicy : public FixedDepthPolicy
{
  public:
    explicit AdaptiveDepthPolicy(const TsPrefetcherConfig &cfg = {},
                                 const AdaptiveDepthConfig &adaptive = {});

    std::string_view name() const override { return "adaptive"; }
    void reset(unsigned numCpus) override;
    void noteUseful(std::uint32_t tag) override;
    void drainPrefetches(std::vector<PrefetchCandidate> &out) override;

    /** Current replay depth of @p home's streams (tests). */
    std::uint32_t depthOf(unsigned home) const { return depth_[home]; }

  protected:
    std::uint32_t depthFor(std::uint32_t home) const override;

  private:
    struct WindowCounters
    {
        std::uint32_t issued = 0;
        std::uint32_t useful = 0;
    };

    AdaptiveDepthConfig acfg_;
    std::vector<std::uint32_t> depth_; ///< per home CPU
    std::vector<WindowCounters> win_;  ///< per home CPU
};

/** Stride-degree knob of StridePolicy. */
struct StridePolicyConfig
{
    /** Blocks fetched ahead on a confirmed arithmetic run. */
    unsigned degree = 2;
    StrideConfig stride;
};

/**
 * Conventional stride engine (Section 4.3): on a miss the per-CPU
 * stride detector confirms, fetch the next @c degree blocks of the
 * run. Identical to the stride half of the old evaluateHybrid().
 */
class StridePolicy : public PrefetchPolicy
{
  public:
    explicit StridePolicy(const StridePolicyConfig &cfg = {});

    std::string_view name() const override { return "stride"; }
    void reset(unsigned numCpus) override;
    void observeMiss(const MissRecord &m) override;
    void drainPrefetches(std::vector<PrefetchCandidate> &out) override;
    std::uint64_t storageBytes() const override;

  private:
    StridePolicyConfig cfg_;
    unsigned ncpu_ = 0;
    std::unique_ptr<StrideDetector> stride_;
    std::vector<std::int64_t> last_; ///< per-CPU last miss block
    std::vector<PrefetchCandidate> pending_;
};

/**
 * Ordered composite: every sub-policy observes every miss, and the
 * drained candidates concatenate in sub-policy order, sharing one
 * prefetch buffer — the Section 4.3 synergy. Tags are namespaced
 * (sub-policy index in the high byte) so usefulness feedback routes to
 * the engine that issued the prefetch. temporalPlusStride() rebuilds
 * the old evaluateHybrid() pairing bit-identically.
 */
class HybridPolicy : public PrefetchPolicy
{
  public:
    explicit HybridPolicy(
        std::vector<std::unique_ptr<PrefetchPolicy>> parts);

    /** The old evaluateHybrid() pairing: temporal replay at @p cfg
     *  plus a stride engine of @p strideDegree. */
    static std::unique_ptr<HybridPolicy>
    temporalPlusStride(const TsPrefetcherConfig &cfg = {},
                       unsigned strideDegree = 2);

    std::string_view name() const override { return "hybrid"; }
    void reset(unsigned numCpus) override;
    void observeMiss(const MissRecord &m) override;
    void drainPrefetches(std::vector<PrefetchCandidate> &out) override;
    void noteUseful(std::uint32_t tag) override;
    std::uint64_t storageBytes() const override;
    std::uint64_t streamLookups() const override;

  private:
    /** Sub-policy index lives in the tag's top byte. */
    static constexpr unsigned kTagShift = 24;

    std::vector<std::unique_ptr<PrefetchPolicy>> parts_;
    std::vector<PrefetchCandidate> scratch_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/** Construction parameters understood by the policy registry. */
struct PrefetchPolicyParams
{
    /** History/depth/buffer geometry (bufferBlocks sizes the harness's
     *  prefetch buffer, not the policy). */
    TsPrefetcherConfig ts;
    AdaptiveDepthConfig adaptive;
    /** Stride engine degree ("stride" and the "hybrid" composite). */
    unsigned strideDegree = 2;
};

/** Registered policy names, in presentation order. */
const std::vector<std::string> &prefetchPolicyNames();

/**
 * Build the policy registered under @p name ("fixed", "adaptive",
 * "stride", "hybrid") with @p params; nullptr for an unknown name.
 */
std::unique_ptr<PrefetchPolicy>
makePrefetchPolicy(std::string_view name,
                   const PrefetchPolicyParams &params = {});

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/**
 * Score @p policy over a collected trace: per-CPU FIFO prefetch
 * buffers of @p bufferBlocks entries, the demand check / usefulness
 * feedback / train / drain step per miss. This is the offline mode —
 * coverage is scored against the recorded stream without altering it.
 * Emits the prefetch.* telemetry counters and a per-policy evaluation
 * span (docs/OBSERVABILITY.md); recording never perturbs the stats.
 * The policy is reset() for the trace's CPU count first.
 */
TsPrefetcherStats evaluatePolicy(const MissTrace &trace,
                                 PrefetchPolicy &policy,
                                 std::uint32_t bufferBlocks = 64);

/**
 * Prefetcher-in-the-loop adapter: attach() installs the engine as the
 * MemorySystem's PrefetchLoopHook, so every off-chip demand miss runs
 * the same buffer/train/drain step *during* the simulation and a
 * buffer hit suppresses the miss record — covered misses vanish from
 * the collected trace (the remaining records are the uncovered
 * subsequence). Cache fills proceed normally either way: the model is
 * a prefetch buffer at the chip edge absorbing the off-chip access,
 * not a cache-contents change, which keeps the run's cache behaviour
 * — and therefore the underlying miss sequence — identical to the
 * un-hooked run.
 */
class PrefetchLoopEngine : public PrefetchLoopHook
{
  public:
    PrefetchLoopEngine(std::unique_ptr<PrefetchPolicy> policy,
                       std::uint32_t bufferBlocks = 64);
    ~PrefetchLoopEngine() override;

    /** Size the policy for @p sys and install the hook. */
    void attach(MemorySystem &sys);

    bool coverOffChipMiss(const MissRecord &m, bool traced) override;

    /** Stats over every observed miss (warm-up included), with
     *  streamLookups folded in. */
    TsPrefetcherStats stats() const;

    /** Covered misses that were dropped from the trace (i.e. covered
     *  while tracing was on). */
    std::uint64_t coveredTraced() const { return coveredTraced_; }

    const PrefetchPolicy &policy() const { return *policy_; }

  private:
    struct Impl;
    std::unique_ptr<PrefetchPolicy> policy_;
    std::uint32_t bufferBlocks_;
    std::unique_ptr<Impl> impl_;
    std::uint64_t coveredTraced_ = 0;
};

} // namespace tstream

#endif // TSTREAM_CORE_PREFETCH_POLICY_HH
