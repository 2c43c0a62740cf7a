/**
 * @file
 * The bench command line: `tstream-bench run [flags] VIEW...` and its
 * per-view aliases (bench/main.cc). parseRunArgs() is the only parser
 * of the bench flags; runBench() executes the named views in order in
 * this process over one CellMemo, so each distinct cell is simulated
 * and analyzed once per run, and writes one report. A claiming run
 * (`--claim-session`) writes no report: each cell it finishes is
 * committed with its record in its done marker, and mergeSession()
 * builds the session's report from those markers. The fleet fan-out
 * (`--fleet N`) stays in tools/tstream_bench.cc and re-runs this
 * command line in its workers. docs/BENCHMARKING.md is the operator's
 * guide.
 */

#ifndef TSTREAM_BENCH_RUN_HH
#define TSTREAM_BENCH_RUN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench/views.hh"

namespace tstream::bench
{

/** The `ext` view's flags: policy scoring and the budget sweep. */
struct ExtOptions
{
    std::vector<std::string> policies; ///< --policy, in given order
    bool budgetSweep = false;          ///< --budget-sweep
    unsigned replayDepth = 8;          ///< --replay-depth
};

/** Everything `run` takes, parsed and validated. */
struct BenchOptions
{
    /** The named views in run order (`paper`/`all` expanded). */
    std::vector<const ViewEntry *> views;
    bool quick = false;    ///< --quick
    BenchBudgets budgets;  ///< kQuickBudgets under --quick
    unsigned jobs = 0;     ///< --jobs; 0 = hardware concurrency
    std::string out;       ///< -o PATH; empty = print the tables only
    /** --workload FILE (gen/workload_config.hh): restrict each swept
     *  view to the file's workload and schedule. */
    std::string workloadFile;
    /** --phases SPEC: inline PhasedMix schedule (parsePhasesSpec). */
    std::string phasesSpec;
    /** --claim-session ID: drain the grid by dynamic claiming under
     *  `$TSTREAM_TRACE_CACHE/claims/<ID>/<binary>`; a re-run of the
     *  session runs only the cells not yet done. Excludes -o. */
    std::string claimSession;
    std::int64_t claimTtlMs = 30'000; ///< --claim-ttl MS
    /** --telemetry-out BASE: metrics and Chrome trace per view at
     *  BASE.<binary>.json and BASE.<binary>.trace.json. */
    std::string telemetryOut;
    long slowest = 5; ///< --slowest N cells logged after the run
    unsigned fleet = 0;      ///< --fleet N local workers; 0 = no fleet
    long fleetKillAfter = 0; ///< --fleet-kill-after N
    ExtOptions ext;          ///< --policy/--budget-sweep/--replay-depth
    /** The flags a fleet worker repeats verbatim (every flag but -o,
     *  --fleet*, --telemetry-out and --slowest). */
    std::vector<std::string> workerArgs;
    bool help = false; ///< --help / -h

    /** The driver options for view @p binary; under claiming its claim
     *  directory is `$TSTREAM_TRACE_CACHE/claims/<session>/<binary>`. */
    DriverOptions driver(const std::string &binary) const;
};

/**
 * Parse the arguments after `run` into @p opts. Returns "" on success
 * or a one-line diagnostic; never exits. Unknown flags are rejected (a
 * typo like --qiuck must not start a paper-scale run), as is any
 * number that overflows its field, any flag combination that could
 * not take effect, and the ext flags unless `ext` or `all` is named.
 */
std::string parseRunArgs(int argc, const char *const *argv,
                         BenchOptions &opts);

/** The flag list of `run`, for usage messages. */
extern const char *const kRunFlagsHelp;

/**
 * Run the views of @p opts in order (not --fleet): print each table
 * and write each view's telemetry files, then write the -o report and
 * log the --slowest cells. A claiming run first creates every view's
 * claim directory, so a session's merge can tell a view no worker
 * reached from one the session never named. Returns the process exit
 * status.
 */
int runBench(const BenchOptions &opts);

/** `$TSTREAM_TRACE_CACHE/claims/<session>`, or "" when the cache is
 *  not set. */
std::string claimSessionDir(const std::string &session);

/**
 * Build the report of claim session @p session from its done markers:
 * each `<binary>/<key>.done` under claimSessionDir() holds one cell's
 * record, a one-cell bench document. The records of each view are
 * merged by mergeBenchDocs() (exact cover of the grid), and @p merged
 * gets one document per view, in kViews order. A view directory with
 * no done marker, a marker that does not read back whole, and a
 * record that does not load are errors naming the directory or file.
 */
bool mergeSession(const std::string &session,
                  std::vector<BenchDoc> &merged, std::string &err);

/** Write @p docs to @p path: one bench document, or a combined report
 *  when there are several. Logs and returns false on error. */
bool writeDocs(const std::vector<BenchDoc> &docs, const std::string &path);

/** Log the top-@p n cells of @p docs by wall time (0 = off). */
void printSlowestCells(const std::vector<BenchDoc> &docs, long n);

} // namespace tstream::bench

#endif // TSTREAM_BENCH_RUN_HH
