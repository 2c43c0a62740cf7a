/**
 * @file
 * Cell-level experiment driver.
 *
 * The paper's results form a (workload x context x budget) grid; this
 * driver enumerates that grid as independent *cells* and executes them
 * on a bounded work-stealing thread pool (util/work_pool.hh) sized by
 * --jobs. A process runs the whole grid, or drains it together with
 * other processes by **dynamic claiming** (--claim-session): workers
 * race on atomic claim files (util/claim_file.hh) under
 * `$TSTREAM_TRACE_CACHE/claims/<session>/<bench>`; a worker that dies
 * mid-cell leaves a stale claim that another worker reclaims after
 * the heartbeat TTL, and a cell already marked done is skipped, so
 * re-running a session finishes what an earlier run left. A cell's
 * done marker carries its record, so the claim directory is the
 * session's report (`tstream-bench merge --session`), and
 * `tstream-bench run --fleet N` builds on this.
 *
 * A cell runs exactly once. It is a deterministic function of its
 * configHash() (the memo, the trace cache and check-equal all rely on
 * that), so a cell that threw would throw again if re-run: it becomes
 * a structured *failure result* (cause, wall time) in the report
 * instead of aborting the sweep. All workers can point at one
 * TSTREAM_TRACE_CACHE directory (cells are keyed on
 * configHash(); stores are temp+rename atomic). Results always come
 * back in deterministic grid order, independent of the job count, so
 * printed tables and -o reports (sim/bench_report.hh) are
 * reproducible.
 *
 * Every cell is simulated (or loaded from the trace cache) and then
 * analyzed by analyzeRun(), the step `tstream-trace analyze` also
 * runs on a recorded trace: SEQUITUR, stride and module attribution
 * always run, and the intra-chip trace is always restricted to
 * on-chip hits. A CellMemo shares those analyses between the views
 * of one `tstream-bench run` (src/bench/run.hh), so each distinct
 * cell is analyzed once per run; docs/BENCHMARKING.md is the
 * operator's guide.
 *
 * What outlives a cell's analysis is split in two. Its summary
 * (CellAnalysis: one RunOutput per analyzed trace, with the trace's
 * scalars, class counts, stream statistics and module profile) is all
 * a figure or table view reads; the memo holds it until the last view
 * that needs the cell. Its analyzed traces (CellTraces) are held only
 * when a view that walks misses (the stream-detector ablation, the
 * prefetcher extension) is still ahead in the run's plan: runCell()
 * then keeps them for CellResult::trace(), and the memo drops them
 * after the last such view. Otherwise analyzeRun() frees each trace,
 * and always frees the per-miss labels, before it returns.
 */

#ifndef TSTREAM_SIM_DRIVER_HH
#define TSTREAM_SIM_DRIVER_HH

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/module_profile.hh"
#include "core/stream_analysis.hh"
#include "sim/experiment.hh"

namespace tstream
{

/** The paper's three analysis contexts (trace kinds). */
enum class TraceKind
{
    MultiChip,  ///< off-chip trace of the 16-node DSM
    SingleChip, ///< off-chip trace of the 4-core CMP
    IntraChip,  ///< on-chip-satisfied L1 misses of the CMP
};

std::string_view traceKindName(TraceKind k);

/** Instruction budgets for one sweep (presets in sim/experiment.hh). */
struct BenchBudgets
{
    std::uint64_t warmup = kPaperBudgets.warmupInstructions;
    std::uint64_t measure = kPaperBudgets.measureInstructions;
    double scale = kPaperBudgets.scale;
};

/**
 * One independent unit of work: a fully specified experiment plus its
 * position in the enumeration (part of its claim key) and a stable
 * human-readable id.
 */
struct Cell
{
    std::size_t index = 0;
    std::string id; ///< e.g. "oltp/single-chip"
    ExperimentConfig cfg;
};

/**
 * The standard bench grid: for each workload, one multi-chip cell then
 * one single-chip cell (a single-chip cell yields both the off-chip
 * and the intra-chip trace from one simulation). Enumeration order is
 * deterministic: workload-major in the order given.
 */
std::vector<Cell> standardGrid(const std::vector<WorkloadKind> &workloads,
                               const BenchBudgets &budgets);

/**
 * The summary of one analyzed trace out of a cell: everything the
 * figure and table views read. A flat value with no per-miss data and
 * no pointer into the trace: the trace's scalars, its class counts,
 * the stream statistics and the module profile.
 */
struct RunOutput
{
    WorkloadKind workload = WorkloadKind::Oltp;
    TraceKind kind = TraceKind::MultiChip;
    std::uint64_t instructions = 0; ///< the trace's instruction count
    /** Analyzed misses; for IntraChip, the on-chip hits only. */
    std::uint64_t misses = 0;
    unsigned numCpus = 0;
    /** Misses per class, counted before the intra-chip filter (so
     *  the IntraChip run still counts its Off-chip class). */
    std::array<std::uint64_t, kNumMissClasses> classMisses{};
    StreamStats streams;
    ModuleProfile modules;

    /** Analyzed misses per 1000 instructions (MissTrace::mpki()). */
    double
    mpki() const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(misses) /
                         static_cast<double>(instructions);
    }
};

/** The misses of intra-chip trace @p intra satisfied on chip (the
 *  paper's context (3): hits in shared on-chip caches). */
MissTrace onChipMisses(MissTrace intra);

/**
 * The one trace -> RunOutput step of the driver and of `tstream-trace
 * analyze`: count the misses of @p trace per class, restrict an
 * IntraChip trace to its on-chip hits, then run the stream analysis
 * and the module attribution (skipped when @p registry is null). The
 * per-miss labels are freed on return, and so is the analyzed trace,
 * unless @p keep is given: it then receives the analyzed trace, for a
 * view that walks its misses. The caller sets the result's workload.
 */
RunOutput analyzeRun(TraceKind kind, MissTrace trace,
                     const FunctionRegistry *registry,
                     MissTrace *keep = nullptr);

/** Everything a summary view reads of one cell; shared, never copied. */
struct CellAnalysis
{
    std::uint64_t instructions = 0; ///< simulated instructions
    /** MultiChip cell: {multi}. SingleChip cell: {single, intra}. */
    std::vector<RunOutput> runs;

    /** Bytes of the summaries, their histograms included. */
    std::uint64_t footprintBytes() const;
};

/** The analyzed traces of one cell, aligned with CellAnalysis::runs. */
using CellTraces = std::vector<MissTrace>;

/** Bytes of the miss records @p traces hold. */
std::uint64_t footprintBytes(const CellTraces &traces);

/** One executed cell: its analysis and run diagnostics. */
struct CellResult
{
    Cell cell;
    /** Null when the cell failed. */
    std::shared_ptr<const CellAnalysis> analysis;
    /** The analyzed traces; null unless the run's plan has a view that
     *  walks this cell's misses (CellMemo::keepsTraces). */
    std::shared_ptr<const CellTraces> traces;
    double wallSeconds = 0.0;          ///< execute + analyze wall time
    std::uint64_t instructions = 0;    ///< simulated instructions
    /** Served from TSTREAM_TRACE_CACHE or from the run's CellMemo. */
    bool cacheHit = false;
    /**
     * The cell threw: runs is empty and the cell becomes a structured
     * failure row in the report instead of aborting the sweep.
     */
    bool failed = false;
    std::string failureCause; ///< e.g. "exception: <what>"

    /** The analyzed runs; empty when the cell failed. */
    const std::vector<RunOutput> &runs() const;

    /** The analyzed trace of runs()[@p run]; panics when the plan kept
     *  no traces for this cell. */
    const MissTrace &trace(std::size_t run) const;
};

/** One view of a run, as the memo plans it. */
struct PlannedView
{
    std::vector<Cell> grid;
    /** The view reads its cells' analyzed traces (CellResult::trace),
     *  not only their summaries. */
    bool walksMisses = false;
};

/**
 * The analyses of one multi-view run, keyed by configHash(): a cell
 * that several views share is simulated and analyzed by the first of
 * them and handed to the rest without copying. The memo is the run's
 * plan: it knows every view's grid up front, keeps a cell's summary
 * until the last view that needs the cell, and keeps its analyzed
 * traces only while a view that walks misses still needs them; every
 * other trace is freed by analyzeRun(). Failed cells are never stored.
 * The `driver.memo_bytes` gauge follows the bytes held. Thread-safe.
 */
class CellMemo
{
  public:
    /** Plan a run of @p views, in execution order. */
    explicit CellMemo(const std::vector<PlannedView> &views);

    /** Whether a view not yet finished walks the misses of @p cfg: the
     *  driver then keeps the cell's analyzed traces. */
    bool keepsTraces(const ExperimentConfig &cfg) const;

    /** The stored summary of @p cfg (null when absent); @p traces
     *  gets its kept traces (null when none are kept). */
    std::shared_ptr<const CellAnalysis>
    find(const ExperimentConfig &cfg,
         std::shared_ptr<const CellTraces> &traces) const;
    /** Keep @p analysis if a planned view needs @p cfg, and @p traces
     *  (may be null) if a view that walks misses still does. */
    void store(const ExperimentConfig &cfg,
               std::shared_ptr<const CellAnalysis> analysis,
               std::shared_ptr<const CellTraces> traces);
    /** View @p view is done: drop what no later view needs. */
    void finishView(std::size_t view);
    /** Stored summaries. */
    std::size_t size() const;

  private:
    /** A view not yet finished walks the misses of cell @p key;
     *  callers hold mu_. */
    bool walkAhead(std::uint64_t key) const;

    struct Entry
    {
        std::shared_ptr<const CellAnalysis> analysis;
        std::shared_ptr<const CellTraces> traces;
        std::uint64_t summaryBytes = 0;
        std::uint64_t traceBytes = 0;
    };

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, std::size_t> lastView_;
    /** The last view that walks each cell's misses. */
    std::unordered_map<std::uint64_t, std::size_t> lastWalk_;
    std::unordered_map<std::uint64_t, Entry> cells_;
    std::size_t finished_ = 0; ///< views finished so far
    std::uint64_t bytes_ = 0;  ///< the driver.memo_bytes gauge
};

/** Dynamic work claiming across cooperating worker processes. */
struct ClaimOptions
{
    /** Sweep id; all workers draining one grid share it. Empty =
     *  run the whole grid (the default). */
    std::string session;
    /** Claim directory, e.g.
     *  `$TSTREAM_TRACE_CACHE/claims/<session>/<bench>`. */
    std::string dir;
    /** Stale-claim steal threshold; held claims beat every ttlMs / 3. */
    std::int64_t ttlMs = 30'000;
    std::string owner; ///< "" = ClaimDir::defaultOwner()

    bool
    enabled() const
    {
        return !session.empty();
    }
};

/** Execution options for runCells(). */
struct DriverOptions
{
    unsigned jobs = 0; ///< 0 = hardware concurrency
    /** When enabled, workers race on claim files for the cells. */
    ClaimOptions claim;
    /**
     * Test seam: invoked with the cell before it runs. A throwing hook
     * makes the cell a failure row with "exception: <what>" — used by
     * the fault-injection tests to exercise failure rows
     * deterministically.
     */
    std::function<void(const Cell &)> testCellHook;
    /** The run's shared analyses (null = none): looked up before the
     *  trace cache; successful cells are stored. */
    std::shared_ptr<CellMemo> memo;
    /** Invoked on the worker thread with each cell this process ran,
     *  as it finishes. Under claiming it returns the cell's record,
     *  and the cell is committed by writing that record into its done
     *  marker: a done cell's rows survive its worker. A worker whose
     *  commit fails releases the claim, claims nothing more and exits
     *  1. Without claiming the result is ignored. */
    std::function<std::string(const CellResult &)> cellDone;
};

/**
 * Execute the cells of @p grid on a bounded work-stealing pool of
 * opts.jobs threads — or, when opts.claim.enabled(), the subset of
 * @p grid this worker
 * wins by racing on the claim directory (dying workers' cells are
 * reclaimed after the heartbeat TTL, so cooperating workers always
 * drain the whole grid between them). Results are returned in grid order
 * regardless of completion order; under claiming only the cells this
 * worker executed are returned (the session's done markers hold the
 * full grid). A worker that cannot claim (the claim directory is
 * unusable) or cannot commit a cell stops claiming, lets its running
 * cells finish and exits 1 with the reason. Cells are served from the
 * trace cache when TSTREAM_TRACE_CACHE is set and the cell was
 * recorded before (by any worker or bench).
 *
 * Fault injection: TSTREAM_CLAIM_DIE_AFTER=N makes the process
 * raise(SIGKILL) immediately after winning its N-th claim, before
 * running the cell — the deterministic "worker dies mid-cell" used by
 * the fleet tests and the CI smoke job. N = 0 (or unset) never
 * fires; any value that is not a non-negative integer exits with a
 * diagnostic before a claim is made.
 */
std::vector<CellResult> runCells(const std::vector<Cell> &grid,
                                 const DriverOptions &opts);

// ---- trace cache ------------------------------------------------------------

/**
 * Cache-file path stem for @p cfg, or "" when the cache is disabled.
 * Set TSTREAM_TRACE_CACHE to a directory to enable: each (workload,
 * context, budget) cell is keyed on configHash() and stored as
 * `<stem>.off.tst` (off-chip trace, with the function table so module
 * attribution survives) plus `<stem>.l1.tst` (unfiltered intra-chip
 * trace, single-chip cells only). The directory is created on first
 * store if missing.
 */
std::string traceCacheStem(const ExperimentConfig &cfg);

/**
 * Reload a previously cached run for @p cfg. Returns nullopt when the
 * cache is disabled, the cell is absent, or a file fails to load (the
 * caller then simulates; a stale or corrupt cache is never fatal).
 */
std::optional<ExperimentResult>
traceCacheLoad(const ExperimentConfig &cfg);

/**
 * Save a freshly simulated run for @p cfg, creating the cache
 * directory if needed. Files are written to a temporary name and
 * renamed into place so concurrent processes recording the same cell
 * never observe a half-written trace. No-op when disabled.
 */
void traceCacheStore(const ExperimentConfig &cfg,
                     const ExperimentResult &res);

} // namespace tstream

#endif // TSTREAM_SIM_DRIVER_HH
