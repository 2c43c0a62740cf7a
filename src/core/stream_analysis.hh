/**
 * @file
 * Temporal-stream identification and statistics (paper Sections 4.2,
 * 4.4, 4.5 and the stream half of 4.3).
 *
 * The analysis follows the paper's methodology exactly:
 *
 *  - Miss traces are projected per CPU (streams live in per-processor
 *    miss order; recurrences may be on any processor) and the per-CPU
 *    sequences are concatenated with unique sentinel symbols so a
 *    single SEQUITUR grammar finds both same-CPU and cross-CPU repeats
 *    without ever forming a rule across a CPU boundary.
 *  - A temporal stream is a (non-root) grammar rule; each root-level
 *    non-terminal instance is one stream occurrence. The rule-utility
 *    invariant guarantees every rule repeats, so a miss is "in a
 *    stream" iff its root-level covering symbol is a non-terminal.
 *  - The earliest expansion (anywhere in the derivation, in global
 *    time) of a rule is the stream's first occurrence: misses there are
 *    "New stream", later occurrences are "Recurring stream"
 *    (Figure 2).
 *  - Stream length = expanded terminal count of the rule (Figure 4
 *    left, weighted by contribution).
 *  - Reuse distance between consecutive occurrences = number of
 *    intervening misses *on the first occurrence's CPU*, the storage-
 *    motivated definition of Section 4.5 (Figure 4 right, weighted by
 *    stream length).
 */

#ifndef TSTREAM_CORE_STREAM_ANALYSIS_HH
#define TSTREAM_CORE_STREAM_ANALYSIS_HH

#include <cstdint>
#include <vector>

#include "core/stride.hh"
#include "trace/record.hh"

namespace tstream
{

/** Per-miss repetition label (Figure 2 legend). */
enum class RepLabel : std::uint8_t
{
    NonRepetitive,
    NewStream,
    RecurringStream,
};

/** Result of the temporal-stream analysis over one miss trace. */
struct StreamStats
{
    std::uint64_t totalMisses = 0;

    /// Miss counts by repetition label (Figure 2).
    std::uint64_t nonRepetitive = 0;
    std::uint64_t newStream = 0;
    std::uint64_t recurringStream = 0;

    /// Joint strided x repetitive miss counts (Figure 3).
    std::uint64_t stridedRepetitive = 0;
    std::uint64_t stridedNonRepetitive = 0;
    std::uint64_t nonStridedRepetitive = 0;
    std::uint64_t nonStridedNonRepetitive = 0;

    /// Per-miss labels aligned with the input trace (for Tables 3-5).
    std::vector<RepLabel> labels;
    std::vector<bool> strided;

    /// (stream length, total misses contributed at that length),
    /// aggregated per rule (Figure 4 left).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> lengthWeighted;

    /// (reuse distance in first-CPU misses, weight = stream length),
    /// one entry per consecutive occurrence pair (Figure 4 right).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reuseWeighted;

    /// Grammar size diagnostics.
    std::uint64_t grammarRules = 0;

    /** Fraction of misses inside temporal streams (0..1). */
    double
    inStreamFraction() const
    {
        return totalMisses == 0
                   ? 0.0
                   : static_cast<double>(newStream + recurringStream) /
                         static_cast<double>(totalMisses);
    }

    /** Weighted p-th percentile of stream length (p in 0..100). */
    double lengthPercentile(double p) const;

    /** Median stream length (the paper's headline "eight misses"). */
    double medianStreamLength() const { return lengthPercentile(50.0); }
};

/** Options for analyzeStreams(). */
struct StreamAnalysisConfig
{
    /**
     * Project the trace per CPU before grammar construction (default,
     * the paper's model). When false the global interleaved order is
     * used as a single sequence.
     */
    bool perCpu = true;

    /** Stride detector settings for the joint breakdown. */
    StrideConfig stride;

    /**
     * Worker threads for the per-CPU projection phases (stride
     * labeling and per-CPU sequence extraction — each CPU's state is
     * independent, so they fan out over a util/work_pool). 0 = auto
     * (WorkPool::defaultJobs(), i.e. the hardware concurrency), 1 =
     * run inline. The result is bit-identical for any value; this only
     * affects wall time.
     */
    unsigned jobs = 0;
};

/** Run the full temporal-stream analysis over @p trace. */
StreamStats analyzeStreams(const MissTrace &trace,
                           const StreamAnalysisConfig &cfg = {});

} // namespace tstream

#endif // TSTREAM_CORE_STREAM_ANALYSIS_HH
