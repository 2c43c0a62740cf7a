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
 * re-running a session finishes what an earlier run left.
 * `tstream-bench run --fleet` builds on this.
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
 * on-chip hits. A
 * CellMemo shares those analyses between the figure/table views of
 * one `tstream-bench run` (src/bench/run.hh), so each distinct cell
 * is analyzed once per run; docs/BENCHMARKING.md is the operator's
 * guide.
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

/** One analyzed trace out of a cell. */
struct RunOutput
{
    WorkloadKind workload = WorkloadKind::Oltp;
    TraceKind kind = TraceKind::MultiChip;
    /** The analyzed trace; for IntraChip, the on-chip hits only. */
    MissTrace trace;
    /** Misses per class, counted before the intra-chip filter (so
     *  the IntraChip run still counts its Off-chip class). */
    std::array<std::uint64_t, kNumMissClasses> classMisses{};
    StreamStats streams;
    ModuleProfile modules;
};

/** The misses of intra-chip trace @p intra satisfied on chip (the
 *  paper's context (3): hits in shared on-chip caches). */
MissTrace onChipMisses(MissTrace intra);

/**
 * The one trace -> RunOutput step of the driver and of `tstream-trace
 * analyze`: count the misses of @p trace per class, restrict an
 * IntraChip trace to its on-chip hits, then run the stream analysis
 * and the module attribution (skipped when @p registry is null). The
 * caller sets the result's workload.
 */
RunOutput analyzeRun(TraceKind kind, MissTrace trace,
                     const FunctionRegistry *registry);

/** Everything a view reads of one cell; shared, never copied. */
struct CellAnalysis
{
    std::uint64_t instructions = 0; ///< simulated instructions
    /** MultiChip cell: {multi}. SingleChip cell: {single, intra}. */
    std::vector<RunOutput> runs;
};

/** One executed cell: its analysis and run diagnostics. */
struct CellResult
{
    Cell cell;
    /** Null when the cell failed. */
    std::shared_ptr<const CellAnalysis> analysis;
    double wallSeconds = 0.0;          ///< execute + analyze wall time
    std::uint64_t instructions = 0;    ///< simulated instructions
    /** Served from TSTREAM_TRACE_CACHE or from the run's CellMemo. */
    bool cacheHit = false;
    /**
     * The cell threw (or could not be claimed): runs is empty and the
     * cell becomes a structured failure row in the report instead of
     * aborting the sweep.
     */
    bool failed = false;
    std::string failureCause; ///< e.g. "exception: <what>"

    /** The analyzed runs; empty when the cell failed. */
    const std::vector<RunOutput> &runs() const;
};

/**
 * The analyses of one multi-view run, keyed by configHash(): a cell
 * that several views share is simulated and analyzed by the first of
 * them and handed to the rest without copying. The memo knows the
 * grids of all views up front and drops each entry after the last
 * view that needs it. Failed cells are never stored. Thread-safe.
 */
class CellMemo
{
  public:
    /** Plan a run of views over @p grids, in execution order. */
    explicit CellMemo(const std::vector<std::vector<Cell>> &grids);

    std::shared_ptr<const CellAnalysis>
    find(const ExperimentConfig &cfg) const;
    /** Keep @p analysis if a planned view needs @p cfg. */
    void store(const ExperimentConfig &cfg,
               std::shared_ptr<const CellAnalysis> analysis);
    /** View @p view is done: drop what no later view needs. */
    void finishView(std::size_t view);
    std::size_t size() const;

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, std::size_t> lastView_;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const CellAnalysis>>
        cells_;
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
     *  as it finishes; returns whether the cell's result was committed
     *  (written out). Under claiming the done marker goes up only
     *  after a commit, so a cell recorded here survives its worker; a
     *  failed commit releases the claim, with no done marker, and the
     *  worker claims nothing more. */
    std::function<bool(const CellResult &)> cellDone;
};

/**
 * Execute the cells of @p grid on a bounded work-stealing pool of
 * opts.jobs threads — or, when opts.claim.enabled(), the subset of
 * @p grid this worker
 * wins by racing on the claim directory (dying workers' cells are
 * reclaimed after the heartbeat TTL, so cooperating workers always
 * drain the whole grid between them). Results are returned in grid order
 * regardless of completion order; under claiming only the cells this
 * worker executed are returned (merge the per-worker reports to get
 * the full grid). Cells are served from the trace cache when
 * TSTREAM_TRACE_CACHE is set and the cell was recorded before (by any
 * worker or bench).
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
