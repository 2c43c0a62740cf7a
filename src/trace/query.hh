/**
 * @file
 * Temporal queries over saved miss traces — the trace store's
 * "queryable temporal database" face
 * (ROADMAP; modeled on the language-integrated temporal-query and
 * temporal-DB range/window operators in PAPERS.md).
 *
 * A QuerySpec combines record *filters* (cpu, miss class, module,
 * category, block range, and a half-open `[t0, t1)` seq window) with
 * windowed *aggregates* (summary, matching records, per-interval miss
 * counts, fig2-style stream fractions, per-interval stream-length
 * histograms). Execution is index-driven: a seq window binary-searches
 * the chunk index (TraceReader::chunkRangeForSeq) and decodes only the
 * overlapping chunks — TraceReader::chunksDecoded() exposes exactly
 * how many, and tests/trace_query_test.cc proves the result
 * bit-identical to a naive decode-everything scan on randomized
 * filter/window combinations. Everything here follows trace_io.hh's
 * error contract: malformed input fails with a diagnostic
 * TraceResult, never a crash.
 */

#ifndef TSTREAM_TRACE_QUERY_HH
#define TSTREAM_TRACE_QUERY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_io.hh"

namespace tstream
{

/**
 * One temporal query: every set filter must hold for a record to
 * match (conjunction), and each requested aggregate contributes rows
 * to the output. Defaults match everything and summarize.
 */
struct QuerySpec
{
    // ---- filters (all optional, AND-ed) --------------------------

    /** Requesting CPU (node for multi-chip traces). */
    std::optional<std::uint32_t> cpu;

    /**
     * Miss-class name per the trace's content kind: an off-chip
     * trace takes missClassName() names ("Compulsory", ...), an
     * intra-chip trace intraClassName() names ("Coherence:L2", ...).
     */
    std::string cls;

    /**
     * Exact function name from the embedded function table (module
     * filter). Requires a trace with a function table.
     */
    std::string module;

    /**
     * categoryName() of a Table 2 module category ("System calls",
     * ...). Requires a function table to map fn -> category.
     */
    std::string category;

    /** Half-open block-address range [blockLo, blockHi). */
    std::optional<std::uint64_t> blockLo;
    std::optional<std::uint64_t> blockHi;

    /**
     * Half-open temporal window [seqLo, seqHi) on the global miss
     * sequence number — the index-accelerated filter: only chunks
     * overlapping the window are decoded.
     */
    std::optional<std::uint64_t> seqLo;
    std::optional<std::uint64_t> seqHi;

    // ---- aggregates ----------------------------------------------

    /**
     * Which row groups runQuery() emits, in order. Valid names:
     *   summary  one row of match/decode statistics (always cheap)
     *   select   one row per matching record, capped at `limit`
     *   counts   per-interval miss counts, split by miss class
     *   streams  fig2-style stream fractions over the matches
     *            (metric names/values identical to the live bench row)
     *   lengths  per-interval weighted stream-length histogram
     * Empty selects {"summary", "select"}.
     */
    std::vector<std::string> aggregates;

    /**
     * Interval count for the windowed aggregates (counts, lengths).
     * The effective window — [seqLo, seqHi) when given, else the
     * matched records' extent — splits into this many equal-width
     * intervals (the last may be shorter). Clamped to [1, 4096].
     */
    std::uint32_t intervals = 8;

    /** Max `select` rows; 0 = unlimited. */
    std::uint64_t limit = 32;
};

/** One query result row (shape mirrors sim/bench_report BenchRow). */
struct QueryRow
{
    std::string table; ///< aggregate that produced the row
    std::string trace; ///< sub-key: interval "[lo,hi)", record seq, ""
    std::string label; ///< optional sub-label
    std::string text;  ///< the exact printed line (no newline)
    std::vector<std::pair<std::string, double>> metrics;
};

/** Everything runQuery() produces beyond the matched records. */
struct QueryOutput
{
    std::uint64_t matched = 0;       ///< records passing all filters
    std::uint64_t scanned = 0;       ///< records decoded and tested
    std::uint64_t chunksDecoded = 0; ///< chunks actually decoded
    std::uint64_t chunksTotal = 0;   ///< chunks in the trace
    std::vector<QueryRow> rows;      ///< grouped by aggregate, in order
};

/**
 * The matched records of @p spec, in trace order — the primitive the
 * differential tests compare against a naive full scan. Decodes only
 * the chunks chunkRangeForSeq() selects for the spec's seq window
 * (@p reader's chunksDecoded() counter shows exactly which). Fails on
 * unreadable chunks, on a cls/category/module name that does not
 * resolve against this trace, and on filters that need an absent
 * function table.
 */
TraceResult<std::vector<MissRecord>>
queryRecords(TraceReader &reader, const QuerySpec &spec);

/** Run @p spec and build the aggregate rows. */
TraceResult<QueryOutput> runQuery(TraceReader &reader,
                                  const QuerySpec &spec);

// ---------------------------------------------------------------------------
// Query document (JSON emission lives in sim/bench_report)
// ---------------------------------------------------------------------------

/**
 * One executed query with its provenance — the payload of
 * `tstream-trace query --json` (schema "tstream-query/v1", serialized
 * by sim/bench_report queryDocToJson()).
 */
struct QueryDoc
{
    std::string source; ///< trace path as given
    TraceContentKind kind = TraceContentKind::Unknown;
    std::uint64_t configHash = 0;
    QuerySpec spec;
    QueryOutput output;
};

} // namespace tstream

#endif // TSTREAM_TRACE_QUERY_HH
