/**
 * @file
 * `tstream-bench` — front-end for the bench driver and its fleet.
 *
 * Runs a named list of figure/table views (src/bench/views.hh) in
 * this process, bundles their reports into one combined document,
 * builds a claim session's report from its done markers, and checks
 * the invariants the driver promises. Subcommands:
 *
 *   run          run views in order (src/bench/run.hh), sharing one
 *                cell memo so each distinct cell is simulated and
 *                analyzed once, and bundle their reports into one
 *                combined JSON document; with --fleet N, fan one
 *                dynamic-claiming session out to N local worker
 *                processes sharing one TSTREAM_TRACE_CACHE, wait for
 *                them, and merge the session into -o (a worker that
 *                dies loses nothing: the cell it was running is
 *                reclaimed by the survivors, and the cells it
 *                finished are committed with their records in their
 *                done markers)
 *   merge        build the report of a claim session (--session ID)
 *                from its done markers; fails unless they are an
 *                exact cover of every bench's grid — a cell recorded
 *                as *failed* covers its index and is carried into the
 *                report, a *missing* cell is an error
 *   check-equal  verify two reports are equivalent cell-for-cell
 *                (ignoring wall time and other execution details);
 *                missing cells, failed cells and metric mismatches
 *                each get their own diagnostic and none passes
 *   check-stdout verify every row of a report appears verbatim in a
 *                captured stdout file (the bit-identity guarantee)
 *   trend        tabulate the perf series of two or more reports,
 *                oldest first; with --max-regress, print
 *                computeTrend()'s verdicts and fail on a regressed or
 *                missing series — the CI perf-regression gate
 *   status       read a live claim session's claim/heartbeat/done
 *                files and render per-worker progress: cells held /
 *                done / failed, last-heartbeat age (flagging stale
 *                workers past the TTL), and, with the grid size read
 *                from the done markers' records, an ETA from their
 *                completion timestamps — works mid-run on another
 *                machine sharing TSTREAM_TRACE_CACHE
 *   print        re-render the tables of a report from its rows
 *   list         show the known bench names
 *
 * See docs/BENCHMARKING.md for recipes (claim sessions, fleet runs,
 * re-running an interrupted sweep, CI, baselines).
 */

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/run.hh"
#include "sim/bench_report.hh"
#include "util/claim_file.hh"
#include "util/logging.hh"
#include "util/parse_number.hh"

using namespace tstream;
using bench::kViews;
using bench::printSlowestCells;
using bench::writeDocs;

namespace
{

int
usage(const char *msg)
{
    if (msg)
        std::fprintf(stderr, "tstream-bench: %s\n\n", msg);
    std::fprintf(stderr,
        "usage:\n"
        "  tstream-bench run [FLAGS] BENCH...\n"
        "  tstream-bench status [--claim-dir DIR | --session ID\n"
        "                [--bench BINARY]] [--ttl MS] [--now MS]\n"
        "  tstream-bench merge --session ID -o OUT.json\n"
        "  tstream-bench check-equal [--subset] A.json B.json\n"
        "  tstream-bench check-stdout REPORT.json STDOUT.txt\n"
        "  tstream-bench trend [--max-regress R] [--series NAME]...\n"
        "                REPORT1.json REPORT2.json...\n"
        "  tstream-bench print REPORT.json\n"
        "  tstream-bench list\n"
        "\n"
        "run flags:\n");
    std::fputs(bench::kRunFlagsHelp, stderr);
    std::fprintf(stderr,
        "\n"
        "run executes each named bench (see `list`; `paper` =\n"
        "fig1-fig4 + tables, `all` adds the ablations and the\n"
        "prefetcher extension) in this process, analyzes each distinct\n"
        "cell once for all of them, and bundles their reports into one\n"
        "combined document; every bench_<view> binary is an alias of\n"
        "`run <view>`. Claiming workers (processes that share one\n"
        "--claim-session, or successive runs of it) commit each cell's\n"
        "record in its done marker; merge --session builds the report\n"
        "from those markers and fails if any grid cell is missing (a\n"
        "cell recorded as failed covers its index and is kept). With\n"
        "--fleet N, run launches N dynamic-claiming local workers\n"
        "against a shared TSTREAM_TRACE_CACHE, logs each to\n"
        "OUT.workerK.log, tolerates dead workers (their cells are\n"
        "reclaimed by the survivors after --claim-ttl), and merges the\n"
        "session into OUT.\n"
        "check-equal ignores wall time, cache hits and jobs, so a\n"
        "merged claim session or fleet run must check-equal the\n"
        "one-process run; missing cells, failed cells\n"
        "and metric mismatches are reported distinctly and none\n"
        "passes. With --subset, every cell of A must match its\n"
        "same-id cell in B (B may hold more — e.g. a --workload\n"
        "config run against the full compiled-in sweep). trend prints\n"
        "each perf series (Google Benchmark cpu_time or report\n"
        "wall_seconds) across the reports, oldest first; with\n"
        "--max-regress R, a series of the oldest report (or each\n"
        "--series) fails when newest/oldest > R or when it is absent\n"
        "from the oldest or newest report. A cell shared\n"
        "by several benches is charged to the first that runs it in\n"
        "the telemetry files (fleet workers write\n"
        "BASE.workerK.<binary>.json). status scans a claim directory —\n"
        "by default $TSTREAM_TRACE_CACHE/claims, or one session via\n"
        "--session ID (plus --bench BINARY), or any directory via\n"
        "--claim-dir — and prints per-worker held/done/failed counts\n"
        "with last-heartbeat ages (stale when older than --ttl MS,\n"
        "default 30000) and, with the grid size its done markers'\n"
        "records carry, an ETA from their completion stamps; --now MS\n"
        "pins the clock (tests). Recipes: docs/BENCHMARKING.md and\n"
        "docs/OBSERVABILITY.md.\n");
    return 2;
}

std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

// ---- run ------------------------------------------------------------------

int runFleet(const bench::BenchOptions &opts, const char *argv0);

int
cmdRun(int argc, char **argv, const char *argv0)
{
    bench::BenchOptions opts;
    const std::string err = bench::parseRunArgs(argc, argv, opts);
    if (!err.empty())
        return usage(err.c_str());
    if (opts.help) {
        usage(nullptr);
        return 0;
    }
    return opts.fleet == 0 ? bench::runBench(opts) : runFleet(opts, argv0);
}

// ---- fleet and merge -------------------------------------------------------

/**
 * Write the report of claim session @p session (bench::mergeSession)
 * to @p out, log its @p slowest cells, and summarize it: cell counts
 * and each failed cell. Returns the process exit status.
 */
int
writeSession(const std::string &session, const std::string &out,
             long slowest)
{
    std::vector<BenchDoc> merged;
    std::string err;
    if (!bench::mergeSession(session, merged, err)) {
        std::fprintf(stderr, "tstream-bench: %s\n", err.c_str());
        return 1;
    }
    if (!writeDocs(merged, out))
        return 1;
    printSlowestCells(merged, slowest);
    std::size_t cells = 0, nFailed = 0;
    std::string failed;
    for (const BenchDoc &doc : merged)
        for (const BenchCell &c : doc.cells) {
            ++cells;
            if (!c.failed)
                continue;
            ++nFailed;
            failed += "[tstream-bench]   failed: " + doc.bench + "/" +
                      c.id + " (cause=" + c.failureCause + ")\n";
        }
    std::fprintf(stderr,
                 "[tstream-bench] merged session %s into %s (%zu "
                 "benches, %zu cells, %zu failed, full cover)\n%s",
                 session.c_str(), out.c_str(), merged.size(), cells,
                 nFailed, failed.c_str());
    return 0;
}

/**
 * Fan one dynamic-claiming session out to opts.fleet local worker
 * processes, each a recursive `tstream-bench run --claim-session`
 * with stdout+stderr in OUT.workerK.log, wait for them, and write the
 * session's report (mergeSession) to -o. Dead workers are tolerated —
 * their claims go stale and the survivors reclaim the cells — and the
 * merge's exact-cover gate is what verifies nothing was lost. Once the
 * report is written the session directory is removed; when the merge
 * fails it is kept, and its path printed, so it can be finished and
 * merged by hand.
 */
int
runFleet(const bench::BenchOptions &opts, const char *argv0)
{
    const std::string session = "fleet-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(wallClockMs());
    std::string worker =
        shellQuote(argv0) + " run --claim-session " + shellQuote(session);
    for (const std::string &arg : opts.workerArgs)
        worker += " " + shellQuote(arg);

    logf(LogLevel::Info,
         "[tstream-bench] fleet: %u worker(s), session %s", opts.fleet,
         session.c_str());

    std::vector<int> rcs(opts.fleet, -1);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < opts.fleet; ++i) {
        const std::string tag = ".worker" + std::to_string(i);
        std::string cmd = worker;
        // Each worker gets its own telemetry base so the per-process
        // metric/trace files never collide.
        if (!opts.telemetryOut.empty())
            cmd += " --telemetry-out " + shellQuote(opts.telemetryOut + tag);
        if (i == 0 && opts.fleetKillAfter > 0)
            cmd = "env TSTREAM_CLAIM_DIE_AFTER=" +
                  std::to_string(opts.fleetKillAfter) + " " + cmd;
        cmd += " > " + shellQuote(opts.out + tag + ".log") + " 2>&1";

        logf(LogLevel::Info, "[tstream-bench] worker %u: %s", i,
             cmd.c_str());
        threads.emplace_back(
            [i, cmd, &rcs] { rcs[i] = std::system(cmd.c_str()); });
    }
    for (std::thread &t : threads)
        t.join();

    for (unsigned i = 0; i < opts.fleet; ++i)
        if (rcs[i] != 0)
            logf(LogLevel::Warn,
                 "[tstream-bench] worker %u exited with status %d (log: "
                 "%s.worker%u.log) — its cells were reclaimed if the "
                 "merge below covers the grid",
                 i, rcs[i], opts.out.c_str(), i);
    const std::string dir = bench::claimSessionDir(session);
    if (writeSession(session, opts.out, opts.slowest) != 0) {
        std::fprintf(stderr,
                     "tstream-bench: fleet session kept in %s; re-run its "
                     "missing cells with `run --claim-session %s`, then "
                     "`merge --session %s -o OUT.json`\n",
                     dir.c_str(), session.c_str(), session.c_str());
        return 1;
    }
    // The report is written, so the auto-named session has no further
    // use: left behind, every fleet run would add one to `status`.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    if (ec)
        logf(LogLevel::Warn,
             "[tstream-bench] cannot remove fleet session %s: %s",
             dir.c_str(), ec.message().c_str());
    return 0;
}

/** The value of flag argv[i], advancing @p i; a missing value is a
 *  usage error (exit 2). */
const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        usage(("missing value for " + std::string(argv[i])).c_str());
        std::exit(2);
    }
    return argv[++i];
}

int
cmdMerge(int argc, char **argv)
{
    std::string out, session;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "-o" || arg == "--output")
            out = flagValue(argc, argv, i);
        else if (arg == "--session")
            session = flagValue(argc, argv, i);
        else
            return usage(
                ("unknown merge argument: " + std::string(arg)).c_str());
    }
    if (out.empty() || session.empty())
        return usage("merge needs --session ID and -o OUT.json");
    return writeSession(session, out, 0);
}

std::string
fmtTime(double ns)
{
    char buf[32];
    if (ns <= 0.0)
        return "--";
    if (ns < 1e3)
        std::snprintf(buf, sizeof buf, "%.0f ns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof buf, "%.2f us", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof buf, "%.3f ms", ns / 1e6);
    else
        std::snprintf(buf, sizeof buf, "%.3f s", ns / 1e9);
    return buf;
}

// ---- trend ------------------------------------------------------------------

int
cmdTrend(int argc, char **argv)
{
    double maxRegress = 0.0; // 0 = informational, no gate
    std::vector<std::string> filter;
    std::vector<std::string> paths;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&] { return flagValue(argc, argv, i); };
        if (arg == "--max-regress") {
            const std::string err =
                parsePositiveReal(arg, value(), maxRegress);
            if (!err.empty())
                return usage(err.c_str());
        } else if (arg == "--series") {
            filter.emplace_back(value());
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(
                ("unknown trend option: " + std::string(arg)).c_str());
        } else {
            paths.emplace_back(arg);
        }
    }
    if (paths.size() < 2)
        return usage("trend takes two or more reports, oldest first");

    std::vector<std::vector<PerfSample>> series;
    for (const std::string &path : paths) {
        std::vector<PerfSample> samples;
        std::string err;
        if (!loadPerfSeries(path, samples, err)) {
            std::fprintf(stderr, "tstream-bench: %s\n", err.c_str());
            return 2;
        }
        series.push_back(std::move(samples));
    }

    const TrendTable table =
        computeTrend(paths, series, filter, maxRegress);
    for (const std::string &name : table.unknownSeries)
        std::fprintf(stderr,
                     "tstream-bench: series %s absent from every report\n",
                     name.c_str());

    std::size_t width = 6;
    for (const TrendSeries &r : table.rows)
        width = std::max(width, r.name.size());
    std::printf("%-*s", static_cast<int>(width), "series");
    for (std::size_t i = 0; i < table.labels.size(); ++i)
        std::printf("  %12s", ("[" + std::to_string(i) + "]").c_str());
    std::printf("  %10s\n", "last/first");
    for (std::size_t i = 0; i < table.labels.size(); ++i)
        std::printf("  [%zu] %s\n", i, table.labels[i].c_str());
    for (const TrendSeries &r : table.rows) {
        std::printf("%-*s", static_cast<int>(width), r.name.c_str());
        for (double t : r.timesNs)
            std::printf("  %12s", fmtTime(t).c_str());
        if (r.lastVsFirst > 0)
            std::printf("  %10.3f", r.lastVsFirst);
        else
            std::printf("  %10s", "--");
        std::printf("%s\n",
                    r.verdict == TrendSeries::Verdict::Regressed
                        ? "  REGRESSED"
                    : r.verdict == TrendSeries::Verdict::Missing
                        ? "  MISSING"
                        : "");
    }
    std::printf("trend: %zu series over %zu reports", table.rows.size(),
                table.labels.size());
    if (maxRegress > 0)
        std::printf(", %zu regressed, %zu missing (threshold %.2fx): %s",
                    table.regressed, table.missing, maxRegress,
                    table.pass ? "PASS" : "FAIL");
    std::printf("\n");
    return table.pass ? 0 : 1;
}

// ---- status -----------------------------------------------------------------

/** Aggregated per-worker progress inside one claim directory. */
struct WorkerProgress
{
    std::size_t held = 0;
    std::size_t doneOk = 0;
    std::size_t doneFailed = 0;
    std::int64_t lastBeatMs = -1; ///< newest heartbeat; -1 = none
    std::int64_t lastDoneMs = -1; ///< newest done at=; -1 = none
};

/**
 * Render the live progress of claim sessions: scan @p root for claim
 * and done files (one leaf directory per bench binary), aggregate
 * them per worker, and print held/done/failed counts, heartbeat ages
 * (STALE past the TTL — a candidate for stealing), and an ETA from
 * the done markers' `at=` completion stamps. Read-only: status never
 * writes into the claim directory, so it is safe to point at a
 * session other workers are racing over.
 */
int
cmdStatus(int argc, char **argv)
{
    namespace fs = std::filesystem;
    std::string claimDir, session, bench;
    long long ttlMs = 30'000;
    long long nowOverride = -1;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&] { return flagValue(argc, argv, i); };
        std::string err;
        if (arg == "--claim-dir") {
            claimDir = value();
        } else if (arg == "--session") {
            session = value();
        } else if (arg == "--bench") {
            bench = value();
        } else if (arg == "--ttl") {
            err = parseInt(arg, value(), ttlMs, 1);
        } else if (arg == "--now") {
            err = parseInt(arg, value(), nowOverride, 0);
        } else {
            return usage(
                ("unknown status option: " + std::string(arg))
                    .c_str());
        }
        if (!err.empty())
            return usage(err.c_str());
    }
    if (!claimDir.empty() && !session.empty())
        return usage("--claim-dir and --session are mutually "
                     "exclusive");
    if (!bench.empty() && session.empty())
        return usage("--bench needs --session");

    std::string root = claimDir;
    if (root.empty()) {
        const char *cache = std::getenv("TSTREAM_TRACE_CACHE");
        if (!cache || !*cache)
            return usage("status needs --claim-dir or "
                         "TSTREAM_TRACE_CACHE set (claim sessions "
                         "live in the shared cache)");
        root = std::string(cache) + "/claims";
        if (!session.empty()) {
            root += "/" + session;
            if (!bench.empty())
                root += "/" + bench;
        }
    }

    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
        std::fprintf(stderr,
                     "tstream-bench: no claim directory at %s\n",
                     root.c_str());
        return 1;
    }

    const std::int64_t now = nowOverride >= 0
                                 ? static_cast<std::int64_t>(
                                       nowOverride)
                                 : wallClockMs();

    // Group claim/done files by containing directory — in a fleet
    // session that is one leaf per bench binary. Paths are printed
    // relative to the scan root so output is location-independent.
    std::map<std::string, std::vector<fs::path>> leaves;
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
        std::error_code fec;
        if (!it->is_regular_file(fec))
            continue;
        const fs::path p = it->path();
        const std::string ext = p.extension().string();
        if (ext != ".claim" && ext != ".done")
            continue;
        std::string rel =
            fs::relative(p.parent_path(), root, fec).generic_string();
        if (fec || rel.empty())
            rel = ".";
        leaves[rel].push_back(p);
    }
    if (leaves.empty()) {
        std::fprintf(stderr,
                     "tstream-bench: no claim or done files under "
                     "%s\n",
                     root.c_str());
        return 1;
    }

    for (auto &[rel, files] : leaves) {
        std::sort(files.begin(), files.end());
        std::map<std::string, WorkerProgress> workers;
        std::size_t held = 0, doneOk = 0, doneFailed = 0;
        std::size_t grid = 0; // from the records; 0 = no record yet
        std::vector<std::int64_t> doneAts;
        for (const fs::path &p : files) {
            if (p.extension() == ".claim") {
                ClaimInfo info;
                // A claim released or marked done between the scan
                // and this read simply drops out of the snapshot.
                if (!ClaimDir::readClaim(p.string(), info))
                    continue;
                WorkerProgress &w = workers[info.owner];
                ++w.held;
                ++held;
                w.lastBeatMs = std::max(w.lastBeatMs, info.beatMs);
            } else {
                DoneInfo info;
                if (!ClaimDir::readDone(p.string(), info))
                    continue;
                json::Value v;
                BenchDoc record;
                std::string err;
                if (grid == 0 && json::Value::parse(info.body, v, err) &&
                    benchDocFromJson(v, record, err))
                    grid = record.gridCells;
                WorkerProgress &w = workers[info.owner];
                if (info.status.rfind("failed", 0) == 0) {
                    ++w.doneFailed;
                    ++doneFailed;
                } else {
                    ++w.doneOk;
                    ++doneOk;
                }
                if (info.atMs > 0) {
                    w.lastDoneMs = std::max(w.lastDoneMs, info.atMs);
                    doneAts.push_back(info.atMs);
                }
            }
        }

        std::printf("== %s ==\n", rel.c_str());
        const std::size_t done = doneOk + doneFailed;
        std::printf("  cells: %zu done", done);
        if (doneFailed > 0)
            std::printf(" (%zu failed)", doneFailed);
        std::printf(", %zu held", held);
        std::size_t remaining = 0;
        if (grid > 0) {
            remaining = grid > done ? grid - done : 0;
            std::printf(", grid %zu -> %zu remaining", grid, remaining);
        }
        std::printf("\n");

        for (const auto &[owner, w] : workers) {
            std::printf("  worker %s: held %zu, done %zu",
                        owner.c_str(), w.held, w.doneOk + w.doneFailed);
            if (w.doneFailed > 0)
                std::printf(" (%zu failed)", w.doneFailed);
            if (w.lastBeatMs >= 0) {
                std::printf(", last beat %.1fs ago",
                            static_cast<double>(now - w.lastBeatMs) /
                                1000.0);
                if (w.held > 0 && now - w.lastBeatMs > ttlMs)
                    std::printf(" [STALE]");
            } else if (w.lastDoneMs > 0) {
                std::printf(", last done %.1fs ago",
                            static_cast<double>(now - w.lastDoneMs) /
                                1000.0);
            } else {
                std::printf(", no heartbeat");
            }
            std::printf("\n");
        }

        if (grid > 0) {
            if (remaining == 0) {
                std::printf("  eta: complete\n");
            } else if (doneAts.size() >= 2) {
                const auto [mn, mx] = std::minmax_element(
                    doneAts.begin(), doneAts.end());
                const double spanMs =
                    static_cast<double>(*mx - *mn);
                if (spanMs > 0) {
                    const double perCellMs =
                        spanMs /
                        static_cast<double>(doneAts.size() - 1);
                    std::printf(
                        "  eta: ~%.1fs (%.2f cells/s over %zu "
                        "timestamped completions, %zu remaining)\n",
                        static_cast<double>(remaining) * perCellMs /
                            1000.0,
                        1000.0 / perCellMs, doneAts.size(),
                        remaining);
                } else {
                    std::printf("  eta: unknown (completions share "
                                "one timestamp)\n");
                }
            } else {
                std::printf("  eta: unknown (need >= 2 timestamped "
                            "completions)\n");
            }
        }
    }
    return 0;
}

// ---- check-equal / check-stdout / print ------------------------------------

int
cmdCheckEqual(const std::string &pathA, const std::string &pathB,
              bool subset)
{
    std::vector<BenchDoc> a, b;
    std::string err;
    if (!readBenchDocs(pathA, a, err) ||
        !readBenchDocs(pathB, b, err)) {
        std::fprintf(stderr, "tstream-bench: %s\n", err.c_str());
        return 1;
    }
    if (!subset && a.size() != b.size()) {
        std::fprintf(stderr,
                     "tstream-bench: bench counts differ (%zu vs "
                     "%zu)\n",
                     a.size(), b.size());
        return 1;
    }
    for (const BenchDoc &da : a) {
        const BenchDoc *db = nullptr;
        for (const BenchDoc &cand : b)
            if (cand.bench == da.bench)
                db = &cand;
        if (!db) {
            std::fprintf(stderr,
                         "tstream-bench: bench %s missing from %s\n",
                         da.bench.c_str(), pathB.c_str());
            return 1;
        }
        std::string why;
        const bool ok = subset ? benchDocIsSubset(da, *db, why)
                               : benchDocsEquivalent(da, *db, why);
        if (!ok) {
            std::fprintf(stderr, "tstream-bench: %s: %s\n",
                         da.bench.c_str(), why.c_str());
            return 1;
        }
    }
    std::printf(subset ? "report subset ok: %s <= %s\n"
                       : "reports equivalent: %s == %s\n",
                pathA.c_str(), pathB.c_str());
    return 0;
}

int
cmdCheckStdout(const std::string &reportPath,
               const std::string &stdoutPath)
{
    std::vector<BenchDoc> docs;
    std::string err;
    if (!readBenchDocs(reportPath, docs, err)) {
        std::fprintf(stderr, "tstream-bench: %s\n", err.c_str());
        return 1;
    }
    std::ifstream in(stdoutPath, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "tstream-bench: cannot open %s\n",
                     stdoutPath.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    std::size_t rows = 0;
    for (const BenchDoc &doc : docs)
        for (const BenchCell &cell : doc.cells)
            for (const BenchRow &row : cell.rows) {
                ++rows;
                if (text.find(row.text) == std::string::npos) {
                    std::fprintf(
                        stderr,
                        "tstream-bench: row not found verbatim in "
                        "%s:\n  bench %s cell %s\n  text: %s\n",
                        stdoutPath.c_str(), doc.bench.c_str(),
                        cell.id.c_str(), row.text.c_str());
                    return 1;
                }
            }
    std::printf("all %zu report rows appear verbatim in %s\n", rows,
                stdoutPath.c_str());
    return 0;
}

int
cmdPrint(const std::string &path)
{
    std::vector<BenchDoc> docs;
    std::string err;
    if (!readBenchDocs(path, docs, err)) {
        std::fprintf(stderr, "tstream-bench: %s\n", err.c_str());
        return 1;
    }
    for (const BenchDoc &doc : docs) {
        std::printf("== %s%s (%zu/%zu cells) ==\n", doc.bench.c_str(),
                    doc.quick ? " --quick" : "", doc.cells.size(),
                    doc.gridCells);
        for (const BenchCell &cell : doc.cells)
            if (cell.failed)
                std::printf("!! FAILED cell %s: %s\n", cell.id.c_str(),
                            cell.failureCause.c_str());
        // Rows grouped by table tag, cells in grid order inside each.
        std::vector<std::string> tables;
        for (const BenchCell &cell : doc.cells)
            for (const BenchRow &row : cell.rows) {
                bool seen = false;
                for (const std::string &t : tables)
                    seen = seen || t == row.table;
                if (!seen)
                    tables.push_back(row.table);
            }
        for (const std::string &table : tables) {
            std::printf("-- %s --\n", table.c_str());
            for (const BenchCell &cell : doc.cells)
                for (const BenchRow &row : cell.rows)
                    if (row.table == table)
                        std::printf("%s\n", row.text.c_str());
        }
        std::printf("\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage("missing subcommand");
    const std::string_view cmd = argv[1];

    if (cmd == "run")
        return cmdRun(argc - 2, argv + 2, argv[0]);
    if (cmd == "merge")
        return cmdMerge(argc - 2, argv + 2);
    if (cmd == "check-equal") {
        bool subset = false;
        std::vector<const char *> paths;
        for (int i = 2; i < argc; ++i) {
            if (std::string_view(argv[i]) == "--subset")
                subset = true;
            else
                paths.push_back(argv[i]);
        }
        if (paths.size() != 2)
            return usage("check-equal takes exactly two reports");
        return cmdCheckEqual(paths[0], paths[1], subset);
    }
    if (cmd == "check-stdout") {
        if (argc != 4)
            return usage(
                "check-stdout takes a report and a stdout capture");
        return cmdCheckStdout(argv[2], argv[3]);
    }
    if (cmd == "trend")
        return cmdTrend(argc - 2, argv + 2);
    if (cmd == "status")
        return cmdStatus(argc - 2, argv + 2);
    if (cmd == "print") {
        if (argc != 3)
            return usage("print takes exactly one report");
        return cmdPrint(argv[2]);
    }
    if (cmd == "list") {
        std::printf("%-12s %s\n", "alias", "binary");
        for (const bench::ViewEntry &v : kViews)
            std::printf("%-12s %s\n", v.alias, v.binary);
        std::printf("%-12s fig1-fig4 + table3-table5\n", "paper");
        std::printf("%-12s every bench above\n", "all");
        return 0;
    }
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return usage(nullptr);
    return usage(("unknown subcommand: " + std::string(cmd)).c_str());
}
