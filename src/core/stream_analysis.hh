/**
 * @file
 * Temporal-stream identification and statistics (paper Sections 4.2,
 * 4.4, 4.5 and the stream half of 4.3).
 *
 * The analysis follows the paper's methodology exactly, and it is the
 * only model: analyzeStreams() takes nothing but the trace.
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
 *  - A miss is strided (Figure 3) when a default StrideDetector fed
 *    its CPU's misses in order predicts it.
 *
 * Everything runs on the calling thread: the driver already runs one
 * cell per pool worker (sim/driver.hh).
 */

#ifndef TSTREAM_CORE_STREAM_ANALYSIS_HH
#define TSTREAM_CORE_STREAM_ANALYSIS_HH

#include <cstdint>
#include <vector>

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

/**
 * The per-miss results of the analysis, aligned with the input trace:
 * each miss's repetition label and stride flag. Module attribution
 * (Tables 3-5) folds them per category; no view reads them, so the
 * driver frees them once a run's analysis is done.
 */
struct MissLabels
{
    std::vector<RepLabel> rep;
    std::vector<bool> strided;
};

/**
 * Result of the temporal-stream analysis over one miss trace: counts
 * and per-stream histograms, no per-miss data.
 */
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

/**
 * Run the full temporal-stream analysis over @p trace; the per-miss
 * labels go to @p labels when it is given.
 */
StreamStats analyzeStreams(const MissTrace &trace,
                           MissLabels *labels = nullptr);

} // namespace tstream

#endif // TSTREAM_CORE_STREAM_ANALYSIS_HH
