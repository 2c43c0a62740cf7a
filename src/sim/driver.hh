/**
 * @file
 * Sharded/fleet cell-level experiment driver.
 *
 * The paper's results form a (workload x context x budget) grid; this
 * driver enumerates that grid as independent *cells*, executes them on
 * a bounded work-stealing thread pool (util/work_pool.hh) sized by
 * --jobs / TSTREAM_JOBS, and distributes cells across processes two
 * ways:
 *
 *  - **Static sharding** (--shard k/N / TSTREAM_SHARD=k/N): shard k
 *    owns exactly the cells whose grid index is congruent to k mod N,
 *    so the N shards are a disjoint exact cover of the grid for any N
 *    and a merged run equals an unsharded one cell-for-cell.
 *  - **Dynamic claiming** (--claim-session / TSTREAM_CLAIM_SESSION):
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
 * printed tables and --json reports (sim/bench_report.hh) are
 * reproducible.
 *
 * Every cell is simulated (or loaded from the trace cache) and then
 * analyzed: SEQUITUR, stride and module attribution always run, and
 * the intra-chip trace is always restricted to on-chip hits. A
 * CellMemo shares those analyses between the figure/table views of
 * one `tstream-bench run` (src/bench/views.hh), so each distinct cell
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
    /** Claim directory. Empty = derived by BenchOptions::driver() as
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
    unsigned jobs = 0; ///< 0 = TSTREAM_JOBS or hardware concurrency
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

// ---- bench command line -----------------------------------------------------

/** Options shared by every figure/table bench binary. */
struct BenchOptions
{
    std::string benchName; ///< binary name (set by parseBenchArgs)
    BenchBudgets budgets;
    bool quick = false;
    unsigned jobs = 0;
    ShardSpec shard;
    std::string jsonPath; ///< empty = no JSON report
    /**
     * --resume: reuse the cells already present in the existing
     * --json report instead of re-running them; fail if the report's
     * schema version or any cell's config hash mismatches.
     */
    bool resume = false;
    /**
     * --workload FILE: a workload config file
     * (gen/workload_config.hh). benchGrid() restricts the sweep to
     * the configured workload and runs it under the file's phase
     * schedule / key distributions.
     */
    std::string workloadFile;
    /**
     * --phases SPEC: inline phase records (parsePhasesSpec) applied
     * to the PhasedMix workload; benchGrid() restricts the sweep to
     * PhasedMix. Mutually exclusive with --workload.
     */
    std::string phasesSpec;
    /**
     * --claim-session ID: drain the grid by dynamic claiming instead
     * of static sharding (requires TSTREAM_TRACE_CACHE for the shared
     * claim directory; mutually exclusive with --shard and --resume).
     */
    std::string claimSession;
    std::int64_t claimTtlMs = 30'000; ///< --claim-ttl MS
    std::int64_t heartbeatMs = 0;     ///< --heartbeat MS; 0 = ttl/3
    std::int64_t cellTimeoutMs = 0;   ///< --cell-timeout MS; 0 = none
    unsigned cellRetries = 3;         ///< --cell-retries N (attempts)
    /**
     * --telemetry-out PATH: record run telemetry (obs/telemetry.hh)
     * and write the metrics JSON to PATH — plus the Chrome
     * trace-event timeline next to it — at process exit. Also:
     * TSTREAM_TELEMETRY=PATH. parseBenchArgs() enables telemetry as a
     * side effect; recording never perturbs results.
     */
    std::string telemetryOut;

    /** The claim directory for this bench's sweep, or "" when
     *  claiming is off: `$TSTREAM_TRACE_CACHE/claims/<session>/<bench>`. */
    std::string claimDir() const;

    DriverOptions
    driver() const
    {
        DriverOptions d;
        d.jobs = jobs;
        d.claim.session = claimSession;
        d.claim.dir = claimDir();
        d.claim.ttlMs = claimTtlMs;
        d.claim.heartbeatMs = heartbeatMs;
        d.retry.maxAttempts = cellRetries;
        d.retry.timeoutMs = cellTimeoutMs;
        return d;
    }
};

/**
 * Bench-specific CLI extension for parseBenchArgs(). The shared flag
 * set stays strict: an extension can only *add* flags (consumed by
 * @c handler before the unknown-flag rejection) plus their usage text
 * and cross-flag validation — it cannot loosen the rejection of
 * anything neither side recognizes.
 */
struct BenchExtraArgs
{
    /** Extra usage lines, appended under "options:" (each line
     *  terminated with '\n'). */
    const char *usage = nullptr;

    /**
     * Try to consume @p arg. @p take("--flag") returns the flag's
     * value argument, or prints usage and exits 2 when it is missing.
     * Return true when the flag was consumed.
     */
    std::function<bool(
        std::string_view arg,
        const std::function<const char *(const char *)> &take)>
        handler;

    /**
     * Post-parse validation across shared and extension flags (e.g.
     * "--budget-sweep excludes --resume"); return a non-empty
     * diagnostic to reject with usage and exit 2.
     */
    std::function<std::string(const BenchOptions &opts)> validate;
};

/**
 * Strict bench argument parser: --quick, --jobs N, --shard k/N,
 * --json PATH, --resume, --workload FILE, --phases SPEC,
 * --claim-session ID, --claim-ttl MS, --heartbeat MS,
 * --cell-timeout MS, --cell-retries N, --telemetry-out PATH, --help,
 * plus the TSTREAM_QUICK
 * / TSTREAM_JOBS / TSTREAM_SHARD / TSTREAM_CLAIM_SESSION /
 * TSTREAM_CLAIM_TTL_MS / TSTREAM_HEARTBEAT_MS /
 * TSTREAM_CELL_TIMEOUT_MS / TSTREAM_CELL_RETRIES environment
 * fallbacks. Any unknown flag prints a usage message naming
 * @p benchName and exits with status 2 (a typo like --qiuck must not
 * silently run at paper scale for hours); --help exits 0. --resume
 * requires --json; --workload and --phases are mutually exclusive;
 * --claim-session requires TSTREAM_TRACE_CACHE and excludes --shard
 * and --resume. @p extra (optional) adds bench-specific flags and
 * validation without loosening the unknown-flag rejection.
 */
BenchOptions parseBenchArgs(int argc, char **argv,
                            const char *benchName,
                            const BenchExtraArgs *extra = nullptr);

/**
 * The bench's grid after applying any --workload / --phases override:
 * with neither flag this is standardGrid(@p workloads, opts.budgets);
 * with --workload FILE the sweep is restricted to the file's workload
 * kind (which must be in @p workloads) running the file's schedule;
 * with --phases SPEC it is restricted to PhasedMix under the inline
 * schedule. Config errors and overrides that name a workload outside
 * this bench's sweep print a diagnostic and exit with status 2.
 */
std::vector<Cell> benchGrid(const std::vector<WorkloadKind> &workloads,
                            const BenchOptions &opts);

/**
 * For benches whose grid is fixed (not workload-swept): exit with
 * status 2 if the user passed --workload or --phases, instead of
 * silently ignoring the override.
 */
void benchRejectWorkloadOverrides(const BenchOptions &opts);

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
