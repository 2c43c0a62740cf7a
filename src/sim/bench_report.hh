/**
 * @file
 * Versioned machine-readable bench reports — the `-o` output of
 * `tstream-bench run` (and every figure/table bench alias) and the
 * interchange format of the tstream-bench front-end.
 *
 * One *bench document* (schema "tstream-bench/v3") describes one
 * bench binary's run, or one cell of it (the record a claim session's
 * done marker carries): the budgets, the total grid size, and one
 * entry per executed cell
 * carrying the cell
 * id, its configHash() provenance, wall/sim time, and the bench's
 * rows — each row holds both the exact printed table line (`text`)
 * and the named numeric metrics behind it, so a JSON report is
 * bit-identical to the printed table and still machine-comparable. A
 * cell whose execution threw is recorded as a *failure row*:
 * `failed.cause`, with no table rows — the sweep keeps going and the
 * failure travels through merge and check-equal instead of
 * disappearing. The cell records of a claim session merge into
 * the one-process document (exact cover of the grid is verified; a
 * *failed* cell covers its index, a *missing* cell is still an error —
 * the two are never conflated); equivalence
 * ignores non-deterministic fields (wall time, cache hits, jobs) so
 * "merged fleet run equals one-process run" is a checkable
 * invariant. Several bench documents bundle into a *combined report*
 * (schema "tstream-bench-report/v3").
 *
 * v1 -> v2 (scenario-subsystem PR): the nine-workload grid, the
 * origins benches' self-contained `origins_block` rows, and the
 * l2-sweep per-workload label changed the *row* content without any
 * field-level change, so the version was bumped to keep a consumer
 * that reuses stored rows verbatim from silently mixing row shapes
 * across binaries.
 *
 * v2 -> v3 (fleet claiming): cells gained the optional `failed` object, and
 * a cell with a failure row deliberately has no table rows — a v2
 * consumer would misread such a cell as "ran fine, produced nothing",
 * so the version was bumped. Old reports are rejected with a schema
 * error; re-run the bench to regenerate. v3 cells also carried an
 * `attempts` count while cells could be retried, and documents a
 * `shard` object while static sharding existed; neither is written
 * any more and the loader ignores both.
 *
 * Field-by-field schema documentation: docs/BENCHMARKING.md.
 */

#ifndef TSTREAM_SIM_BENCH_REPORT_HH
#define TSTREAM_SIM_BENCH_REPORT_HH

#include <string>
#include <vector>

#include "sim/driver.hh"
#include "trace/query.hh"
#include "util/json.hh"

namespace tstream
{

inline constexpr std::string_view kBenchDocSchema = "tstream-bench/v3";
inline constexpr std::string_view kBenchReportSchema =
    "tstream-bench-report/v3";
inline constexpr std::string_view kQueryDocSchema = "tstream-query/v1";

/** One printed table row with its machine-readable metrics. */
struct BenchRow
{
    std::string table; ///< which printed table/panel the row is in
    std::string trace; ///< trace kind or sweep key ("multi-chip", "4MB")
    std::string label; ///< optional sub-key (e.g. origin category)
    /** Optional prefetch-policy name (core/prefetch_policy.hh) for
     *  rows produced under a named policy (ext_prefetcher --policy /
     *  --budget-sweep); serialized only when non-empty, so documents
     *  without policy rows are byte-identical to pre-field reports. */
    std::string policy;
    std::string text;  ///< the exact printed line (no trailing newline)
    std::vector<std::pair<std::string, double>> metrics;
};

/** One executed cell inside a bench document. */
struct BenchCell
{
    std::size_t index = 0;
    std::string id;
    std::string workload;
    std::string context;
    std::uint64_t configHash = 0;
    bool cacheHit = false;
    double wallSeconds = 0.0;
    std::uint64_t instructions = 0;
    /** Failure row: the cell threw; rows is empty and failureCause
     *  says why (e.g. "exception: <what>"). */
    bool failed = false;
    std::string failureCause;
    std::vector<BenchRow> rows;
};

/** One bench binary's run, or one cell's record of it. */
struct BenchDoc
{
    std::string bench; ///< binary name, e.g. "fig2_stream_fraction"
    bool quick = false;
    BenchBudgets budgets;
    std::size_t gridCells = 0; ///< total grid size (cover check)
    unsigned jobs = 0;
    std::vector<BenchCell> cells; ///< ascending by index
};

/** Build a report cell from a driver result plus the bench's rows. */
BenchCell makeBenchCell(const CellResult &res,
                        std::vector<BenchRow> rows);

json::Value benchDocToJson(const BenchDoc &doc);

/**
 * Parse one bench document; false + @p err on a schema mismatch, a
 * missing field, a malformed config_hash (anything but 16 hex
 * digits), a count or index that is not a non-negative JSON integer
 * (budgets, grid_cells, jobs, a cell's index or instructions), or a
 * cell index that is out of range (>= grid_cells) or repeated.
 */
bool benchDocFromJson(const json::Value &v, BenchDoc &out,
                      std::string &err);

/** Serialize @p doc to @p path (pretty JSON). */
bool writeBenchDoc(const BenchDoc &doc, const std::string &path,
                   std::string &err);

/** A combined report bundling several bench documents. */
json::Value combinedReportToJson(const std::vector<BenchDoc> &docs);

/**
 * Read bench documents from @p path: accepts a single bench document
 * or a combined report (appends every contained document).
 */
bool readBenchDocs(const std::string &path, std::vector<BenchDoc> &out,
                   std::string &err);

/**
 * Merge documents of one bench (a claim session's cell records) into
 * the one-process document: headers (bench, quick, budgets, grid
 * size) must agree and the union must cover every grid index exactly. A *failed* cell
 * covers its index (the failure row is carried into the merged
 * document); a *missing* cell is an error naming the absent indexes
 * (the first 16, then a count) — the two are distinct outcomes and
 * neither is dropped silently.
 * Duplicate cells: a successful copy beats a failed one (another
 * worker recovered the cell), two successful copies must be
 * equivalent, and of two failed copies the first is kept (causes may
 * legitimately differ between workers).
 */
bool mergeBenchDocs(const std::vector<BenchDoc> &docs, BenchDoc &out,
                    std::string &err);

/**
 * Deterministic-content equivalence: bench, quick, budgets, grid
 * size, and every cell's (index, id, workload, context, configHash,
 * instructions, rows) must match exactly; wallSeconds, cacheHit
 * and jobs are execution details and ignored. A cell
 * present on one side only, a cell that failed on either side, and a
 * metric mismatch each produce a distinct diagnostic in @p why naming
 * the cell — a failure row is never silently "equal" to anything.
 */
bool benchDocsEquivalent(const BenchDoc &a, const BenchDoc &b,
                         std::string &why);

/**
 * Subset equivalence for restricted-grid runs (`--workload FILE`
 * narrows a bench to the configured workload): every cell of @p sub
 * must have a cell with the same id in @p full whose deterministic
 * content (workload, context, configHash, instructions, rows)
 * matches; @p full may hold additional cells, and grid size / cell
 * indexes are ignored since the restricted grid renumbers from zero.
 * Bench name, quick flag and budgets must still agree. Backs
 * `tstream-bench check-equal --subset`.
 */
bool benchDocIsSubset(const BenchDoc &sub, const BenchDoc &full,
                      std::string &why);

// ---------------------------------------------------------------------------
// Query documents — the `--json` output of `tstream-trace query`
// (schema "tstream-query/v1"). Rows share the bench rows' JSON shape
// ({table, trace, label, text, metrics}), so the fig2-equality e2e
// chain can compare a query's `streams` row against a live bench row
// value-for-value through the same serializer.
// ---------------------------------------------------------------------------

json::Value queryDocToJson(const QueryDoc &doc);

/** Serialize @p doc to @p path (pretty JSON). */
bool writeQueryDoc(const QueryDoc &doc, const std::string &path,
                   std::string &err);

// ---------------------------------------------------------------------------
// Perf series — what `tstream-bench trend` and the CI perf-regression
// gate read from a report (docs/BENCHMARKING.md).
// ---------------------------------------------------------------------------

/** One named perf measurement. Time in nanoseconds; lower is better. */
struct PerfSample
{
    std::string name;
    double timeNs = 0.0;
};

/**
 * Load the perf series of the report at @p path. Two formats are
 * recognized:
 *
 *  - Google Benchmark JSON (`--benchmark_out_format=json`): one
 *    sample per "iteration" entry (aggregates are skipped), named by
 *    `name`, valued by `cpu_time` normalized to ns via `time_unit`.
 *    Repeated names (repetitions) keep the fastest run.
 *  - tstream-bench documents / combined reports: one sample per
 *    cell, named "<bench>/<cell id>", valued by `wall_seconds`.
 *
 * Anything else (including structurally broken reports) fails with a
 * description in @p err.
 */
bool loadPerfSeries(const std::string &path,
                    std::vector<PerfSample> &out, std::string &err);

// ---------------------------------------------------------------------------
// Perf trend and gate — `tstream-bench trend`: each series' trajectory
// across an ordered sequence of reports (e.g. BENCH_perf.json artifacts
// from successive commits), optionally gated oldest -> newest.
// ---------------------------------------------------------------------------

/** One series across the report sequence. */
struct TrendSeries
{
    /** Gate verdict; always Ok for a series that is not gated. */
    enum class Verdict : std::uint8_t
    {
        Ok,
        Regressed, ///< newest/oldest strictly above maxRegress
        Missing,   ///< gated but absent from the oldest or newest report
    };

    std::string name;
    /** Aligned with TrendTable::labels; 0 = absent from that report. */
    std::vector<double> timesNs;
    /** last present value / first present value; 0 with <2 points. */
    double lastVsFirst = 0.0;
    bool gated = false;
    Verdict verdict = Verdict::Ok;
};

/** The trend of every (filtered) series across the inputs. */
struct TrendTable
{
    std::vector<std::string> labels; ///< one per input report, in order
    std::vector<TrendSeries> rows;   ///< first-appearance order
    /** Filter names found in no report (a typo); they have no row. */
    std::vector<std::string> unknownSeries;
    std::size_t regressed = 0;
    std::size_t missing = 0;
    /** No unknown filter name and no gated series Regressed/Missing. */
    bool pass = true;
};

/**
 * Align the per-report sample sets of an ordered sequence of reports
 * (@p labels names them, typically file paths or commit ids) into one
 * table. @p filter restricts to exact series names (empty = all).
 *
 * With @p maxRegress > 0 the table is also the perf gate, applied
 * oldest -> newest: a series named in @p filter is gated (with no
 * filter, every series of the oldest report is); a gated series
 * absent from the oldest or the newest report is Missing; one whose
 * newest/oldest ratio is strictly greater than @p maxRegress is
 * Regressed (a ratio equal to it passes). A series that first
 * appears in a later report is listed but not gated. A filter name
 * found in no report fails the table with or without a gate.
 *
 * Pure over already-loaded samples so it unit-tests without files;
 * `tstream-bench trend` feeds it one loadPerfSeries() result per
 * report and prints the result.
 */
TrendTable computeTrend(const std::vector<std::string> &labels,
                        const std::vector<std::vector<PerfSample>> &series,
                        const std::vector<std::string> &filter,
                        double maxRegress = 0.0);

} // namespace tstream

#endif // TSTREAM_SIM_BENCH_REPORT_HH
