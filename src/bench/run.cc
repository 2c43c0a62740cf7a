#include "bench/run.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>

#include "core/prefetch_policy.hh"
#include "obs/telemetry.hh"
#include "util/claim_file.hh"
#include "util/logging.hh"
#include "util/parse_number.hh"
#include "util/work_pool.hh"

namespace tstream::bench
{

const char *const kRunFlagsHelp =
    "  --quick        reduced smoke budgets (default: paper scale)\n"
    "  --jobs N       worker threads for the cell pool (default:\n"
    "                 hardware concurrency)\n"
    "  -o PATH        write the report (schema in docs/BENCHMARKING.md);\n"
    "                 without it only the tables print\n"
    "  --workload F   run the workload config file F instead of each\n"
    "                 view's compiled-in sweep\n"
    "  --phases S     inline phase records for the PhasedMix workload,\n"
    "                 e.g. \"kv mix=0.9 dist=zipfian duration=1500000\"\n"
    "  --claim-session ID\n"
    "                 drain the grid by dynamic work claiming with the\n"
    "                 other workers of session ID; re-running a session\n"
    "                 runs only the cells it has not finished. Each\n"
    "                 finished cell's record goes into its done marker\n"
    "                 (no -o: `merge --session ID` writes the report;\n"
    "                 needs TSTREAM_TRACE_CACHE)\n"
    "  --claim-ttl MS heartbeat staleness before a claim may be stolen\n"
    "                 (default 30000)\n"
    "  --telemetry-out BASE\n"
    "                 write each view's metrics and Chrome trace to\n"
    "                 BASE.<binary>.json and BASE.<binary>.trace.json\n"
    "  --slowest N    log the N slowest cells afterwards (default 5)\n"
    "  --fleet N      fan a claim session out to N local worker\n"
    "                 processes (1-64), then merge it into -o\n"
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
    "--jobs",          "-o",        "--output",
    "--workload",      "--phases",  "--claim-session",
    "--claim-ttl",     "--slowest", "--telemetry-out",
    "--fleet",         "--policy",  "--fleet-kill-after",
    "--replay-depth"};

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
    for (const std::string &name : ext.policies)
        if (std::string err = unknownPolicyError("--policy", name);
            !err.empty())
            return err;
    if (!scoring)
        return "--replay-depth needs --policy or --budget-sweep (the "
               "default depth-sweep columns are fixed)";
    return {};
}

/** The process's peak resident set size (VmHWM in /proc/self/status)
 *  in KiB; 0 where it cannot be read. */
std::int64_t
peakRssKib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib;
}

/**
 * Run @p view over @p grid and print its table. The cells are executed
 * on the driver pool; under --claim-session the claim protocol decides
 * which of them this worker runs, and each cell's record (a one-cell
 * bench document) is committed with its done marker. A cell that
 * threw becomes a failure row. Each cell's rows are built on its
 * worker thread as it finishes.
 */
BenchDoc
runView(const BenchView &view, const std::string &binary,
        const BenchOptions &opts, const std::vector<Cell> &grid,
        std::shared_ptr<CellMemo> memo)
{
    BenchDoc doc;
    doc.bench = binary;
    doc.quick = opts.quick;
    doc.budgets = opts.budgets;
    doc.gridCells = grid.size();
    doc.jobs = opts.jobs != 0 ? opts.jobs : WorkPool::defaultJobs();
    auto byIndex = [](const BenchCell &a, const BenchCell &b) {
        return a.index < b.index;
    };

    const BenchDoc head = doc;

    std::mutex mu;
    DriverOptions dopts = opts.driver(binary);
    dopts.memo = std::move(memo);
    dopts.cellDone = [&](const CellResult &res) {
        BenchCell cell = makeBenchCell(
            res, res.failed ? std::vector<BenchRow>{} : view.rows(res));
        std::string record;
        if (dopts.claim.enabled()) {
            BenchDoc one = head;
            one.cells.push_back(cell);
            record = benchDocToJson(one).dump();
        }
        std::lock_guard<std::mutex> lk(mu);
        doc.cells.insert(std::upper_bound(doc.cells.begin(),
                                          doc.cells.end(), cell, byIndex),
                         std::move(cell));
        return record;
    };
    runCells(grid, dopts);

    view.print(doc.cells);
    return doc;
}

} // namespace

std::string
claimSessionDir(const std::string &session)
{
    const char *cache = std::getenv("TSTREAM_TRACE_CACHE");
    if (!cache || !*cache)
        return {};
    return std::string(cache) + "/claims/" + session;
}

DriverOptions
BenchOptions::driver(const std::string &binary) const
{
    DriverOptions d;
    d.jobs = jobs;
    d.claim.session = claimSession;
    if (const std::string dir = claimSessionDir(claimSession);
        !claimSession.empty() && !dir.empty())
        d.claim.dir = dir + "/" + binary;
    d.claim.ttlMs = claimTtlMs;
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
        } else if (arg == "--budget-sweep") {
            opts.ext.budgetSweep = true;
        } else if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else if (arg == "--jobs") {
            err = parseInt(arg, v, opts.jobs, 1);
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
        } else if (arg == "--telemetry-out") {
            opts.telemetryOut = v;
        } else if (arg == "--slowest") {
            err = parseInt(arg, v, opts.slowest, 0);
        } else if (arg == "--fleet") {
            err = parseInt(arg, v, opts.fleet, 1, 64);
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
    if (!opts.workloadFile.empty() && !opts.phasesSpec.empty())
        return "--workload and --phases are mutually exclusive (a config "
               "file already carries its schedule)";
    if (!opts.claimSession.empty() || opts.fleet > 0) {
        const std::string flag =
            opts.fleet == 0 ? "--claim-session" : "--fleet";
        const char *cache = std::getenv("TSTREAM_TRACE_CACHE");
        if (!cache || !*cache)
            return flag + " needs TSTREAM_TRACE_CACHE set (the claim "
                          "directory lives in the shared cache)";
    }
    if (opts.fleet > 0 && !opts.claimSession.empty())
        return "--fleet generates its own claim session; drop "
               "--claim-session";
    if (opts.fleet > 0 && opts.out.empty())
        return "--fleet needs -o PATH (the merged report)";
    if (!opts.claimSession.empty() && !opts.out.empty())
        return "--claim-session writes no report (each cell's record "
               "goes into its done marker); drop -o and build the report "
               "with `tstream-bench merge --session " +
               opts.claimSession + " -o PATH`";
    if (opts.fleetKillAfter > 0 && opts.fleet == 0)
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
    std::vector<PlannedView> plan;
    std::string err;
    for (const ViewEntry *entry : opts.views) {
        views.push_back(entry->make(opts));
        plan.push_back({views.back().grid(opts, err),
                        views.back().walksMisses});
        if (!err.empty()) {
            std::fprintf(stderr, "%s: %s\n", entry->binary, err.c_str());
            return 2;
        }
    }

    if (!opts.claimSession.empty())
        for (const ViewEntry *entry : opts.views) {
            const std::string dir = opts.driver(entry->binary).claim.dir;
            std::error_code ec;
            std::filesystem::create_directories(dir, ec);
            if (ec) {
                std::fprintf(stderr,
                             "tstream-bench: cannot create claim "
                             "directory %s: %s\n",
                             dir.c_str(), ec.message().c_str());
                return 1;
            }
        }

    auto memo = std::make_shared<CellMemo>(plan);
    if (!opts.telemetryOut.empty())
        telemetry::enable(""); // each view writes its own files below

    std::vector<BenchDoc> docs;
    for (std::size_t i = 0; i < views.size(); ++i) {
        const std::string binary = opts.views[i]->binary;
        logf(LogLevel::Info, "[tstream-bench] %s", binary.c_str());
        docs.push_back(
            runView(views[i], binary, opts, plan[i].grid, memo));
        memo->finishView(i);
        if (telemetry::enabled())
            telemetry::gaugeSet("proc.vm_hwm_kib", peakRssKib());
        if (!opts.telemetryOut.empty()) {
            if (!telemetry::writeArtifacts(
                    opts.telemetryOut + "." + binary + ".json", err))
                logWarn("telemetry: " + err);
            telemetry::reset();
        }
    }
    if (!opts.out.empty() && !writeDocs(docs, opts.out))
        return 1;

    printSlowestCells(docs, opts.slowest);
    if (!opts.out.empty())
        logf(LogLevel::Info, "[tstream-bench] wrote %s (%zu benches)",
             opts.out.c_str(), docs.size());
    return 0;
}

bool
mergeSession(const std::string &session, std::vector<BenchDoc> &merged,
             std::string &err)
{
    namespace fs = std::filesystem;
    const std::string root = claimSessionDir(session);
    if (root.empty()) {
        err = "merge --session needs TSTREAM_TRACE_CACHE set (claim "
              "sessions live in the shared cache)";
        return false;
    }
    merged.clear();
    for (const ViewEntry &view : kViews) {
        const std::string dir = root + "/" + view.binary;
        std::error_code ec;
        if (!fs::is_directory(dir, ec))
            continue; // the session did not name this view
        std::vector<BenchDoc> records;
        for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
             it.increment(ec)) {
            if (it->path().extension() != ".done")
                continue;
            const std::string path = it->path().string();
            DoneInfo info;
            json::Value v;
            BenchDoc &record = records.emplace_back();
            if (!ClaimDir::readDone(path, info)) {
                err = path + ": unreadable done marker (truncated or "
                             "corrupt)";
                return false;
            }
            if (!json::Value::parse(info.body, v, err) ||
                !benchDocFromJson(v, record, err)) {
                err = path + ": record: " + err;
                return false;
            }
            if (record.bench != view.binary || record.cells.size() != 1) {
                err = path + ": record is not one cell of " + view.binary;
                return false;
            }
        }
        if (ec) {
            err = dir + ": " + ec.message();
            return false;
        }
        if (records.empty()) {
            err = dir + ": no done marker (no worker finished a cell of "
                        "this view)";
            return false;
        }
        merged.emplace_back();
        if (!mergeBenchDocs(records, merged.back(), err)) {
            err = dir + ": " + err;
            return false;
        }
    }
    if (merged.empty()) {
        err = "no claim session at " + root;
        return false;
    }
    return true;
}

} // namespace tstream::bench
