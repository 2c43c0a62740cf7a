/**
 * @file
 * Sharded/fleet cell-level experiment driver.
 *
 * The paper's results form a (workload x context x budget) grid; this
 * driver enumerates that grid as independent *cells*, executes them on
 * a bounded work-stealing thread pool (util/work_pool.hh) sized by
 * --jobs, and distributes cells across processes two ways:
 *
 *  - **Static sharding** (--shard k/N): shard k
 *    owns exactly the cells whose grid index is congruent to k mod N,
 *    so the N shards are a disjoint exact cover of the grid for any N
 *    and a merged run equals an unsharded one cell-for-cell.
 *  - **Dynamic claiming** (--claim-session):
 *    heterogeneous workers drain the grid by racing on atomic claim
 *    files (util/claim_file.hh) under
 *    `$TSTREAM_TRACE_CACHE/claims/<session>/<bench>`; a worker that
 *    dies mid-cell leaves a stale claim that another worker reclaims
 *    after the heartbeat TTL, so the sweep completes without
 *    pre-partitioning. `tstream-bench run --fleet` builds on this.
 *
 * Cells additionally run under a per-attempt timeout with bounded
 * retry/backoff (util/retry.hh); a cell that exhausts its attempts
 * becomes a structured *failure result* (cause, attempts, wall time)
 * in the report instead of aborting the sweep. All shards/workers can
 * point at one TSTREAM_TRACE_CACHE directory (cells are keyed on
 * configHash(); stores are temp+rename atomic). Results always come
 * back in deterministic grid order, independent of the job count, so
 * printed tables and -o reports (sim/bench_report.hh) are
 * reproducible.
 *
 * Every cell is simulated (or loaded from the trace cache) and then
 * analyzed: SEQUITUR, stride and module attribution always run, and
 * the intra-chip trace is always restricted to on-chip hits. A
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
#include "util/retry.hh"

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

/** Deterministic k-of-N shard assignment. */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 1;

    bool
    owns(std::size_t cellIndex) const
    {
        return count <= 1 || cellIndex % count == index;
    }
};

/** Parse "k/N" (k < N, N >= 1) into @p out. */
bool parseShardSpec(std::string_view text, ShardSpec &out);

/**
 * One independent unit of work: a fully specified experiment plus its
 * position in the enumeration (the sharding key) and a stable
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

/** The cells of @p grid owned by @p shard, in grid order. */
std::vector<Cell> shardCells(const std::vector<Cell> &grid,
                             const ShardSpec &shard);

/** One analyzed trace out of a cell. */
struct RunOutput
{
    WorkloadKind workload;
    TraceKind kind;
    /** The analyzed trace; for IntraChip, the on-chip hits only. */
    MissTrace trace;
    /** Misses per class, counted before the intra-chip filter (so
     *  the IntraChip run still counts its Off-chip class). */
    std::array<std::uint64_t, kNumMissClasses> classMisses{};
    StreamStats streams;
    ModuleProfile modules;
};

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
     * Attempts exhausted (timeouts and/or exceptions): runs is empty
     * and the cell becomes a structured failure row in the report
     * instead of aborting the sweep.
     */
    bool failed = false;
    std::string failureCause; ///< last failure, e.g. "timeout after 500ms"
    unsigned attempts = 1;    ///< attempts consumed (1 = first try)

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
     *  static sharding (the default). */
    std::string session;
    /** Claim directory, e.g.
     *  `$TSTREAM_TRACE_CACHE/claims/<session>/<bench>`. */
    std::string dir;
    std::int64_t ttlMs = 30'000; ///< stale-claim steal threshold
    /** Heartbeat period; 0 = ttlMs / 3. */
    std::int64_t heartbeatMs = 0;
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
    /** Per-attempt timeout / bounded retry for every cell. The default
     *  (timeoutMs = 0) never times out and never retries in practice
     *  because a cell only "fails" on exception or timeout. */
    RetryPolicy retry;
    /**
     * Test seam: invoked at the start of every attempt with the cell
     * and the 1-based attempt ordinal, before simulation. A throwing
     * hook makes the attempt fail with "exception: <what>" — used by
     * the fault-injection tests to exercise retry and failure rows
     * deterministically.
     */
    std::function<void(const Cell &, unsigned attempt)> testCellHook;
    /** The run's shared analyses (null = none): looked up inside each
     *  attempt before the trace cache; successful cells are stored. */
    std::shared_ptr<CellMemo> memo;
};

/**
 * Execute the cells of @p grid (callers pass a shard's cells through
 * shardCells()) on a bounded work-stealing pool of opts.jobs threads
 * — or, when opts.claim.enabled(), the subset of @p grid this worker
 * wins by racing on the claim directory (dying workers' cells are
 * reclaimed after the heartbeat TTL, so cooperating workers always
 * drain the whole grid between them). Results are returned in grid order
 * regardless of completion order; under claiming only the cells this
 * worker executed are returned (merge the per-worker reports to get
 * the full grid). Cells are served from the trace cache when
 * TSTREAM_TRACE_CACHE is set and the cell was recorded before (by any
 * shard, worker or bench).
 *
 * Fault injection: TSTREAM_CLAIM_DIE_AFTER=N makes the process
 * raise(SIGKILL) immediately after winning its N-th claim, before
 * running the cell — the deterministic "worker dies mid-cell" used by
 * the fleet tests and the CI smoke job.
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
