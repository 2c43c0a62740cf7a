#include "bench/run.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <type_traits>

#include "core/prefetch_policy.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/work_pool.hh"

namespace tstream::bench
{

const char *const kRunFlagsHelp =
    "  --quick        reduced smoke budgets (default: paper scale)\n"
    "  --jobs N       worker threads for the cell pool (default:\n"
    "                 hardware concurrency)\n"
    "  --shard k/N    run only grid cells with index % N == k\n"
    "  -o PATH        write the report (schema in docs/BENCHMARKING.md)\n"
    "                 after every view; without it only the tables print\n"
    "  --resume       reuse the cells already in the -o report (fails on\n"
    "                 a schema, budget or config-hash mismatch)\n"
    "  --workload F   run the workload config file F instead of each\n"
    "                 view's compiled-in sweep\n"
    "  --phases S     inline phase records for the PhasedMix workload,\n"
    "                 e.g. \"kv mix=0.9 dist=zipfian duration=1500000\"\n"
    "  --claim-session ID\n"
    "                 drain the grid by dynamic work claiming with the\n"
    "                 other workers of session ID (needs\n"
    "                 TSTREAM_TRACE_CACHE; excludes --shard, --resume)\n"
    "  --claim-ttl MS heartbeat staleness before a claim may be stolen\n"
    "                 (default 30000)\n"
    "  --heartbeat MS heartbeat period for held claims (default ttl/3)\n"
    "  --cell-timeout MS\n"
    "                 per-attempt cell timeout; 0 = none (default)\n"
    "  --cell-retries N\n"
    "                 attempts per cell before it becomes a failure row\n"
    "                 (default 3)\n"
    "  --telemetry-out BASE\n"
    "                 write each view's metrics and Chrome trace to\n"
    "                 BASE.<binary>.json and BASE.<binary>.trace.json\n"
    "  --slowest N    log the N slowest cells afterwards (default 5)\n"
    "  --fleet HOSTS  fan a claim session out to one worker per line of\n"
    "                 HOSTS (`local` or an ssh host); needs -o\n"
    "  --fleet-kill-after N\n"
    "                 worker 0 SIGKILLs itself after its N-th claim\n"
    "  --policy NAMES ext: score the comma-separated prefetch policies\n"
    "                 (fixed, adaptive, stride, hybrid) per trace\n"
    "  --budget-sweep ext: add the Section 4.5 storage-budget sweep\n"
    "  --replay-depth N\n"
    "                 ext: replay depth of those tables (default 8)\n";

namespace
{

/** Flags that take a value argument. */
constexpr std::string_view kValueFlags[] = {
    "--jobs",          "--shard",        "-o",
    "--output",        "--workload",     "--phases",
    "--claim-session", "--claim-ttl",    "--heartbeat",
    "--cell-timeout",  "--cell-retries", "--telemetry-out",
    "--slowest",       "--fleet",        "--fleet-kill-after",
    "--policy",        "--replay-depth"};

/** Flags a fleet worker does not repeat: the fleet sets its own. */
constexpr std::string_view kLocalFlags[] = {
    "-o", "--output", "--telemetry-out", "--slowest", "--fleet",
    "--fleet-kill-after"};

template <typename List>
bool
contains(const List &list, std::string_view s)
{
    return std::find(std::begin(list), std::end(list), s) !=
           std::end(list);
}

/**
 * Parse all of @p text into @p out when it is an integer in [@p lo,
 * @p hi]; a value that overflows @p out's type fails like any other
 * out-of-range one. Returns "" or the diagnostic for @p flag.
 */
template <typename T>
std::string
parseInt(std::string_view flag, std::string_view text, T &out,
         std::common_type_t<T> lo,
         std::common_type_t<T> hi = std::numeric_limits<T>::max())
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc() && p == end && v >= lo && v <= hi) {
        out = v;
        return {};
    }
    return std::string(flag) + " wants a " +
           (lo == 0 ? "non-negative" : "positive") +
           " integer no larger than " + std::to_string(hi);
}

std::vector<std::string>
splitPolicies(std::string_view arg)
{
    std::vector<std::string> out;
    for (;;) {
        const std::size_t comma = arg.find(',');
        out.emplace_back(arg.substr(0, comma));
        if (comma == std::string_view::npos)
            return out;
        arg.remove_prefix(comma + 1);
    }
}

/** Validate the ext view's flags; "" when fine. */
std::string
validateExt(const BenchOptions &opts, bool depthGiven)
{
    const ExtOptions &ext = opts.ext;
    const bool scoring = !ext.policies.empty() || ext.budgetSweep;
    if (!scoring && !depthGiven)
        return {};
    if (std::find(opts.views.begin(), opts.views.end(),
                  findView("ext")) == opts.views.end())
        return "--policy/--budget-sweep/--replay-depth apply only to "
               "the ext view (name ext or all)";
    for (const std::string &name : ext.policies) {
        const std::vector<std::string> known = prefetchPolicyNames();
        if (std::find(known.begin(), known.end(), name) == known.end()) {
            std::string diag = "--policy: unknown policy '" + name +
                               "' (known:";
            for (const std::string &k : known)
                diag += " " + k;
            return diag + ")";
        }
    }
    if (!scoring)
        return "--replay-depth needs --policy or --budget-sweep (the "
               "default depth-sweep columns are fixed)";
    if (opts.resume)
        return "--policy/--budget-sweep and --resume are mutually "
               "exclusive (a stored report may lack the policy tables)";
    return {};
}

/**
 * Run @p view over @p grid and print its table. The cells this shard
 * owns are executed on the driver pool, except those in @p prior (the
 * already-validated cells of a --resume report), which are reused
 * verbatim. Under --claim-session the claim protocol decides which
 * cells this worker runs. A cell that exhausted its retries becomes a
 * failure row.
 */
BenchDoc
runView(const BenchView &view, const std::string &binary,
        const BenchOptions &opts, const std::vector<Cell> &grid,
        std::vector<BenchCell> prior, std::shared_ptr<CellMemo> memo)
{
    // Keep only the reused cells this shard owns, so a resumed shard
    // run emits exactly what a fresh shard run would.
    prior.erase(std::remove_if(prior.begin(), prior.end(),
                               [&](const BenchCell &c) {
                                   return !opts.shard.owns(c.index);
                               }),
                prior.end());
    if (!prior.empty())
        std::fprintf(stderr, "[bench] %s --resume: reusing %zu cell(s)\n",
                     binary.c_str(), prior.size());

    std::vector<bool> have(grid.size(), false);
    for (const BenchCell &c : prior)
        have[c.index] = true;
    std::vector<Cell> todo;
    for (const Cell &c : shardCells(grid, opts.shard))
        if (!have[c.index])
            todo.push_back(c);

    DriverOptions dopts = opts.driver(binary);
    dopts.memo = std::move(memo);
    std::vector<BenchCell> cells = std::move(prior);
    for (const CellResult &res : runCells(todo, dopts))
        cells.push_back(makeBenchCell(
            res, res.failed ? std::vector<BenchRow>{} : view.rows(res)));
    std::stable_sort(cells.begin(), cells.end(),
                     [](const BenchCell &a, const BenchCell &b) {
                         return a.index < b.index;
                     });

    view.print(cells);

    BenchDoc doc;
    doc.bench = binary;
    doc.quick = opts.quick;
    doc.budgets = opts.budgets;
    doc.gridCells = grid.size();
    doc.shard = opts.shard;
    doc.jobs = opts.jobs != 0 ? opts.jobs : WorkPool::defaultJobs();
    doc.cells = std::move(cells);
    return doc;
}

} // namespace

DriverOptions
BenchOptions::driver(const std::string &binary) const
{
    DriverOptions d;
    d.jobs = jobs;
    d.claim.session = claimSession;
    if (const char *cache = std::getenv("TSTREAM_TRACE_CACHE");
        !claimSession.empty() && cache && *cache)
        d.claim.dir =
            std::string(cache) + "/claims/" + claimSession + "/" + binary;
    d.claim.ttlMs = claimTtlMs;
    d.claim.heartbeatMs = heartbeatMs;
    d.retry.maxAttempts = cellRetries;
    d.retry.timeoutMs = cellTimeoutMs;
    return d;
}

std::string
parseRunArgs(int argc, const char *const *argv, BenchOptions &opts)
{
    opts = BenchOptions{};
    bool depthGiven = false;
    for (int i = 0; i < argc; ++i) {
        const int first = i;
        const std::string_view arg = argv[i];
        const bool takesValue = contains(kValueFlags, arg);
        if (takesValue && i + 1 >= argc)
            return "missing value for " + std::string(arg);
        const std::string_view v = takesValue ? argv[++i] : "";

        std::string err;
        if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--budget-sweep") {
            opts.ext.budgetSweep = true;
        } else if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else if (arg == "--jobs") {
            err = parseInt(arg, v, opts.jobs, 1);
        } else if (arg == "--shard") {
            if (!parseShardSpec(v, opts.shard))
                err = "--shard wants k/N with k < N";
        } else if (arg == "-o" || arg == "--output") {
            opts.out = v;
        } else if (arg == "--workload") {
            opts.workloadFile = v;
        } else if (arg == "--phases") {
            opts.phasesSpec = v;
        } else if (arg == "--claim-session") {
            opts.claimSession = v;
        } else if (arg == "--claim-ttl") {
            err = parseInt(arg, v, opts.claimTtlMs, 1);
        } else if (arg == "--heartbeat") {
            err = parseInt(arg, v, opts.heartbeatMs, 0);
        } else if (arg == "--cell-timeout") {
            err = parseInt(arg, v, opts.cellTimeoutMs, 0);
        } else if (arg == "--cell-retries") {
            err = parseInt(arg, v, opts.cellRetries, 1);
        } else if (arg == "--telemetry-out") {
            opts.telemetryOut = v;
        } else if (arg == "--slowest") {
            err = parseInt(arg, v, opts.slowest, 0);
        } else if (arg == "--fleet") {
            opts.fleetFile = v;
        } else if (arg == "--fleet-kill-after") {
            err = parseInt(arg, v, opts.fleetKillAfter, 1);
        } else if (arg == "--policy") {
            opts.ext.policies = splitPolicies(v);
        } else if (arg == "--replay-depth") {
            err = parseInt(arg, v, opts.ext.replayDepth, 1, 1024);
            depthGiven = true;
        } else if (arg == "paper") {
            for (const char *n : {"fig1", "fig2", "fig3", "fig4",
                                  "table3", "table4", "table5"})
                opts.views.push_back(findView(n));
        } else if (arg == "all") {
            for (const ViewEntry &entry : kViews)
                opts.views.push_back(&entry);
        } else if (const ViewEntry *entry = findView(arg)) {
            opts.views.push_back(entry);
        } else if (!arg.empty() && arg[0] == '-') {
            // A typo like --qiuck must not silently run at paper scale.
            err = "unknown option: " + std::string(arg);
        } else {
            err = "unknown bench: " + std::string(arg) +
                  " (see tstream-bench list)";
        }
        if (!err.empty())
            return err;
        if (!contains(kLocalFlags, arg))
            opts.workerArgs.insert(opts.workerArgs.end(), argv + first,
                                   argv + i + 1);
    }
    if (opts.help)
        return {};

    if (opts.views.empty())
        return "run needs at least one bench name (see tstream-bench "
               "list)";
    if (opts.resume && opts.out.empty())
        return "--resume needs -o PATH (the report to resume from)";
    if (!opts.workloadFile.empty() && !opts.phasesSpec.empty())
        return "--workload and --phases are mutually exclusive (a config "
               "file already carries its schedule)";
    if (!opts.claimSession.empty() || !opts.fleetFile.empty()) {
        const std::string flag =
            opts.fleetFile.empty() ? "--claim-session" : "--fleet";
        const char *cache = std::getenv("TSTREAM_TRACE_CACHE");
        if (!cache || !*cache)
            return flag + " needs TSTREAM_TRACE_CACHE set (the claim "
                          "directory lives in the shared cache)";
        if (opts.shard.count > 1)
            return flag + " and --shard are mutually exclusive (dynamic "
                          "claiming replaces static sharding)";
        if (opts.resume)
            return flag + " and --resume are mutually exclusive "
                          "(claiming workers skip done cells via the "
                          "claim directory)";
    }
    if (!opts.fleetFile.empty() && !opts.claimSession.empty())
        return "--fleet generates its own claim session; drop "
               "--claim-session";
    if (!opts.fleetFile.empty() && opts.out.empty())
        return "--fleet needs -o PATH (the merged report)";
    if (opts.fleetKillAfter > 0 && opts.fleetFile.empty())
        return "--fleet-kill-after needs --fleet";
    if (std::string err = validateExt(opts, depthGiven); !err.empty())
        return err;

    if (opts.quick)
        opts.budgets = {kQuickBudgets.warmupInstructions,
                        kQuickBudgets.measureInstructions,
                        kQuickBudgets.scale};
    return {};
}

bool
writeDocs(const std::vector<BenchDoc> &docs, const std::string &path)
{
    std::string err;
    if (docs.size() == 1
            ? writeBenchDoc(docs[0], path, err)
            : json::writeFile(combinedReportToJson(docs), path, err))
        return true;
    std::fprintf(stderr, "tstream-bench: %s\n", err.c_str());
    return false;
}

void
printSlowestCells(const std::vector<BenchDoc> &docs, long n)
{
    if (n <= 0)
        return;
    struct SlowCell
    {
        double wallSeconds;
        const BenchDoc *doc;
        const BenchCell *cell;
    };
    std::vector<SlowCell> all;
    for (const BenchDoc &doc : docs)
        for (const BenchCell &cell : doc.cells)
            all.push_back({cell.wallSeconds, &doc, &cell});
    if (all.empty())
        return;
    std::stable_sort(all.begin(), all.end(),
                     [](const SlowCell &a, const SlowCell &b) {
                         return a.wallSeconds > b.wallSeconds;
                     });
    const std::size_t top =
        std::min(all.size(), static_cast<std::size_t>(n));
    logf(LogLevel::Info, "[tstream-bench] slowest %zu of %zu cells:",
         top, all.size());
    for (std::size_t i = 0; i < top; ++i) {
        const SlowCell &s = all[i];
        logf(LogLevel::Info, "[tstream-bench]   %6.2fs  %s/%s%s%s",
             s.wallSeconds, s.doc->bench.c_str(), s.cell->id.c_str(),
             s.cell->cacheHit ? "  (cache hit)" : "",
             s.cell->failed ? "  (FAILED)" : "");
    }
}

int
runBench(const BenchOptions &opts)
{
    // Build every grid up front: that reports a config error before
    // any work starts, and the memo needs every grid to know when no
    // later view needs a cell.
    std::vector<BenchView> views;
    std::vector<std::vector<Cell>> grids;
    std::string err;
    for (const ViewEntry *entry : opts.views) {
        views.push_back(entry->make(opts));
        grids.push_back(views.back().grid(opts, err));
        if (!err.empty()) {
            std::fprintf(stderr, "%s: %s\n", entry->binary, err.c_str());
            return 2;
        }
    }

    // --resume: reuse cells recorded in the existing report; each view
    // revalidates its prior document cell by cell.
    std::vector<BenchDoc> priorDocs;
    if (opts.resume && !readResumeDocs(opts.out, priorDocs, err)) {
        std::fprintf(stderr, "--resume: %s\n", err.c_str());
        return 1;
    }

    auto memo = std::make_shared<CellMemo>(grids);
    if (!opts.telemetryOut.empty())
        telemetry::enable(""); // each view writes its own files below

    std::vector<BenchDoc> docs;
    std::size_t lastWritten = 0;
    for (std::size_t i = 0; i < views.size(); ++i) {
        const std::string binary = opts.views[i]->binary;
        std::vector<BenchCell> prior;
        for (const BenchDoc &doc : priorDocs)
            if (doc.bench == binary &&
                !resumeCells(doc, opts.out, opts.quick, opts.budgets,
                             grids[i], prior, err)) {
                std::fprintf(stderr, "%s: --resume: %s\n",
                             binary.c_str(), err.c_str());
                return 1;
            }

        logf(LogLevel::Info, "[tstream-bench] %s", binary.c_str());
        docs.push_back(runView(views[i], binary, opts, grids[i],
                               std::move(prior), memo));
        memo->finishView(i);
        if (!opts.telemetryOut.empty()) {
            if (!telemetry::writeArtifacts(
                    opts.telemetryOut + "." + binary + ".json", err))
                logWarn("telemetry: " + err);
            telemetry::reset();
        }
        if (opts.out.empty())
            continue;

        // Checkpoint the report after every view, so a sweep that dies
        // partway leaves the completed views behind for --resume.
        // Under --resume, prior documents whose view this write does
        // not yet hold are carried forward, so resuming a subset
        // (e.g. just one failed table) never truncates the report.
        std::vector<BenchDoc> flat = docs;
        for (const BenchDoc &doc : priorDocs)
            if (std::none_of(docs.begin(), docs.end(),
                             [&](const BenchDoc &d) {
                                 return d.bench == doc.bench;
                             }))
                flat.push_back(doc);
        if (!writeDocs(flat, opts.out))
            return 1;
        lastWritten = flat.size();
    }

    printSlowestCells(docs, opts.slowest);
    if (!opts.out.empty())
        logf(LogLevel::Info, "[tstream-bench] wrote %s (%zu benches)",
             opts.out.c_str(), lastWritten);
    return 0;
}

} // namespace tstream::bench
