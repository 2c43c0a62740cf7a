/**
 * @file
 * `tstream-bench` — front-end for the sharded/fleet bench driver.
 *
 * Runs a named list of figure/table views (src/bench/views.hh) in
 * this process, bundles their reports into one combined document,
 * merges shard/worker outputs back into unsharded reports, and checks
 * the invariants the driver promises. Subcommands:
 *
 *   run          run views in order (src/bench/run.hh), sharing one
 *                cell memo so each distinct cell is simulated and
 *                analyzed once, and bundle their reports into one
 *                combined JSON document; with --fleet HOSTS.txt, fan one
 *                dynamic-claiming session out to N
 *                workers (local processes or ssh hosts) sharing one
 *                TSTREAM_TRACE_CACHE, collect the per-worker reports
 *                and logs, and merge them (a worker that dies loses
 *                nothing: its cells are reclaimed by the survivors)
 *   merge        merge shard/worker reports; fails unless the inputs
 *                are an exact cover of every bench's grid — a cell
 *                recorded as *failed* covers its index and is carried
 *                into the merged report, a *missing* cell is an error
 *   check-equal  verify two reports are equivalent cell-for-cell
 *                (ignoring wall time and other execution details);
 *                missing cells, failed cells and metric mismatches
 *                each get their own diagnostic and none passes
 *   check-stdout verify every row of a report appears verbatim in a
 *                captured stdout file (the bit-identity guarantee)
 *   compare      diff the perf series of two reports (Google
 *                Benchmark JSON or tstream-bench documents), print
 *                per-series ratios, and exit non-zero when any gated
 *                series regresses beyond --max-regress or went
 *                missing — the CI perf-regression gate
 *   trend        tabulate the perf series of an ordered sequence of
 *                archived reports (e.g. BENCH_perf.json artifacts
 *                across commits); informational unless --max-regress
 *                gates last-vs-first
 *   status       read a live claim session's claim/heartbeat/done
 *                files and render per-worker progress: cells held /
 *                done / failed, last-heartbeat age (flagging stale
 *                workers past the TTL), and an ETA from the done
 *                markers' completion timestamps — works mid-run on
 *                another machine sharing TSTREAM_TRACE_CACHE
 *   print        re-render the tables of a report from its rows
 *   list         show the known bench names
 *
 * See docs/BENCHMARKING.md for recipes (multi-process sharding, fleet
 * runs, CI, baselines).
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
        "                [--bench BINARY]] [--grid N] [--ttl MS]\n"
        "                [--now MS]\n"
        "  tstream-bench merge -o OUT.json IN.json...\n"
        "  tstream-bench check-equal [--subset] A.json B.json\n"
        "  tstream-bench check-stdout REPORT.json STDOUT.txt\n"
        "  tstream-bench compare [--max-regress R] [--series NAME]...\n"
        "                BASELINE.json CURRENT.json\n"
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
        "`run <view>`. Shard or fleet-worker reports from separate\n"
        "processes/machines are reassembled with merge, which fails if\n"
        "any grid cell is missing (a cell recorded as failed covers its\n"
        "index and is kept). With --fleet, run launches one\n"
        "dynamic-claiming worker per hosts line against a shared\n"
        "TSTREAM_TRACE_CACHE, writes OUT.workerK.json/.log per worker,\n"
        "tolerates dead workers (their cells are reclaimed by the\n"
        "survivors after --claim-ttl), and merges the parts.\n"
        "check-equal ignores wall time, cache hits and shard geometry,\n"
        "so `merge(shard 0/2, shard 1/2)` and a merged fleet run must\n"
        "check-equal the unsharded run; missing cells, failed cells\n"
        "and metric mismatches are reported distinctly and none\n"
        "passes. With --subset, every cell of A must match its\n"
        "same-id cell in B (B may hold more — e.g. a --workload\n"
        "config run against the full compiled-in sweep). compare reads\n"
        "Google Benchmark JSON (cpu_time per benchmark, best\n"
        "repetition) or tstream-bench reports (wall_seconds per cell)\n"
        "and fails when a gated series is slower than baseline*R or\n"
        "absent; ratio == R still passes, and current-only series are\n"
        "reported but never gated. trend aligns the same series across\n"
        "an ordered report sequence and prints each one's trajectory;\n"
        "with --max-regress it fails when last/first exceeds R or a\n"
        "--series name is absent from the newest report. A cell shared\n"
        "by several benches is charged to the first that runs it in\n"
        "the telemetry files (fleet workers write\n"
        "BASE.workerK.<binary>.json). status scans a claim directory —\n"
        "by default $TSTREAM_TRACE_CACHE/claims, or one session via\n"
        "--session ID (plus --bench BINARY), or any directory via\n"
        "--claim-dir — and prints per-worker held/done/failed counts\n"
        "with last-heartbeat ages (stale when older than --ttl MS,\n"
        "default 30000) and, given the grid size via --grid N, an ETA\n"
        "from the done markers' completion stamps; --now MS pins the\n"
        "clock (tests). Recipes: docs/BENCHMARKING.md and\n"
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

// ---- report documents -------------------------------------------------------

/** Merge shard/worker documents bench by bench, in first-seen bench
 *  order (mergeBenchDocs checks each bench's exact cover). */
bool
mergeByBench(std::vector<BenchDoc> docs, std::vector<BenchDoc> &merged,
             std::string &err)
{
    std::vector<std::vector<BenchDoc>> groups;
    for (BenchDoc &doc : docs) {
        auto g = std::find_if(groups.begin(), groups.end(),
                              [&](const std::vector<BenchDoc> &grp) {
                                  return grp.front().bench == doc.bench;
                              });
        if (g == groups.end())
            g = groups.emplace(groups.end());
        g->push_back(std::move(doc));
    }
    for (const std::vector<BenchDoc> &group : groups) {
        merged.emplace_back();
        if (!mergeBenchDocs(group, merged.back(), err))
            return false;
    }
    return true;
}

std::size_t
cellCount(const std::vector<BenchDoc> &docs)
{
    std::size_t n = 0;
    for (const BenchDoc &doc : docs)
        n += doc.cells.size();
    return n;
}

std::size_t
failedCells(const std::vector<BenchDoc> &docs)
{
    std::size_t n = 0;
    for (const BenchDoc &doc : docs)
        for (const BenchCell &c : doc.cells)
            n += c.failed ? 1 : 0;
    return n;
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
    return opts.fleetFile.empty() ? bench::runBench(opts)
                                  : runFleet(opts, argv0);
}

// ---- fleet ------------------------------------------------------------------

/** Absolute path of this binary (for ssh workers on a shared
 *  filesystem); falls back to argv0 unresolved. */
std::string
selfPath(const char *argv0)
{
    char buf[4096];
    if (::realpath(argv0, buf))
        return buf;
    return argv0;
}

/**
 * Fan one dynamic-claiming session out to the hosts of
 * opts.fleetFile: one worker per line (`local` / `localhost` = a
 * local process, anything else = `ssh HOST` assuming this binary and
 * TSTREAM_TRACE_CACHE resolve identically there),
 * each a recursive `tstream-bench run --claim-session` writing
 * OUT.workerK.json with stdout+stderr in OUT.workerK.log. Dead
 * workers are tolerated — their claims go stale and the survivors
 * reclaim the cells — and merge's exact-cover gate is what verifies
 * nothing was lost.
 */
int
runFleet(const bench::BenchOptions &opts, const char *argv0)
{
    std::ifstream in(opts.fleetFile);
    if (!in) {
        std::fprintf(stderr, "tstream-bench: cannot open fleet hosts "
                             "file %s\n",
                     opts.fleetFile.c_str());
        return 2;
    }
    std::vector<std::string> hosts;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t a = line.find_first_not_of(" \t\r");
        if (a == std::string::npos || line[a] == '#')
            continue;
        const std::size_t b = line.find_last_not_of(" \t\r");
        hosts.push_back(line.substr(a, b - a + 1));
    }
    if (hosts.empty()) {
        std::fprintf(stderr, "tstream-bench: %s names no hosts\n",
                     opts.fleetFile.c_str());
        return 2;
    }

    const std::string cache = std::getenv("TSTREAM_TRACE_CACHE");
    const std::string session = "fleet-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(wallClockMs());
    const std::string self = shellQuote(selfPath(argv0));

    std::string inner = "run --claim-session " + shellQuote(session);
    for (const std::string &arg : opts.workerArgs)
        inner += " " + shellQuote(arg);

    logf(LogLevel::Info,
         "[tstream-bench] fleet: %zu worker(s), session %s",
         hosts.size(), session.c_str());

    std::vector<int> rcs(hosts.size(), -1);
    std::vector<std::string> parts(hosts.size()), logs(hosts.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        parts[i] = opts.out + ".worker" + std::to_string(i) + ".json";
        logs[i] = opts.out + ".worker" + std::to_string(i) + ".log";
        std::remove(parts[i].c_str());

        std::string envs;
        if (i == 0 && opts.fleetKillAfter > 0)
            envs += " TSTREAM_CLAIM_DIE_AFTER=" +
                    std::to_string(opts.fleetKillAfter);

        // Each worker gets its own telemetry base so the per-process
        // metric/trace files never collide on the shared filesystem.
        std::string workerFlags;
        if (!opts.telemetryOut.empty())
            workerFlags = " --telemetry-out " +
                          shellQuote(opts.telemetryOut + ".worker" +
                                     std::to_string(i));
        const std::string worker = self + " " + inner + workerFlags +
                                   " -o " + shellQuote(parts[i]);
        std::string full;
        if (hosts[i] == "local" || hosts[i] == "localhost") {
            full = envs.empty() ? worker : "env" + envs + " " + worker;
        } else {
            // The remote shell does not inherit our environment;
            // forward the shared cache (and fault injection) there.
            full = "ssh " + shellQuote(hosts[i]) + " " +
                   shellQuote("env TSTREAM_TRACE_CACHE=" +
                              shellQuote(cache) + envs + " " + worker);
        }
        full += " > " + shellQuote(logs[i]) + " 2>&1";

        logf(LogLevel::Info, "[tstream-bench] worker %zu (%s): %s", i,
             hosts[i].c_str(), full.c_str());
        threads.emplace_back(
            [i, full, &rcs] { rcs[i] = std::system(full.c_str()); });
    }
    for (std::thread &t : threads)
        t.join();

    std::vector<BenchDoc> docs;
    std::size_t dead = 0;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        if (rcs[i] != 0) {
            ++dead;
            logf(LogLevel::Warn,
                 "[tstream-bench] worker %zu (%s) exited with status "
                 "%d (log: %s) — its cells were reclaimed if the "
                 "merge below covers the grid",
                 i, hosts[i].c_str(), rcs[i], logs[i].c_str());
        }
        std::FILE *f = std::fopen(parts[i].c_str(), "rb");
        if (!f) {
            logf(LogLevel::Warn,
                 "[tstream-bench] worker %zu left no report (%s)", i,
                 parts[i].c_str());
            continue;
        }
        std::fclose(f);
        std::string err;
        if (!readBenchDocs(parts[i], docs, err))
            logf(LogLevel::Warn,
                 "[tstream-bench] worker %zu report unreadable: %s", i,
                 err.c_str());
    }
    if (docs.empty()) {
        std::fprintf(stderr,
                     "tstream-bench: no fleet worker produced a "
                     "report; see the worker logs\n");
        return 1;
    }

    std::vector<BenchDoc> merged;
    std::string err;
    if (!mergeByBench(std::move(docs), merged, err)) {
        std::fprintf(stderr, "tstream-bench: fleet merge: %s\n",
                     err.c_str());
        return 1;
    }
    if (!writeDocs(merged, opts.out))
        return 1;

    printSlowestCells(merged, opts.slowest);
    logf(LogLevel::Info,
         "[tstream-bench] fleet wrote %s: %zu benches, %zu cells "
         "(%zu failed), %zu/%zu workers survived, full cover",
         opts.out.c_str(), merged.size(), cellCount(merged),
         failedCells(merged), hosts.size() - dead, hosts.size());
    return 0;
}

// ---- merge ------------------------------------------------------------------

int
cmdMerge(int argc, char **argv)
{
    std::string out;
    std::vector<std::string> inputs;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if ((arg == "-o" || arg == "--output") && i + 1 < argc)
            out = argv[++i];
        else if (!arg.empty() && arg[0] == '-')
            return usage(
                ("unknown merge option: " + std::string(arg)).c_str());
        else
            inputs.emplace_back(arg);
    }
    if (out.empty() || inputs.empty())
        return usage("merge needs -o OUT.json and input reports");

    std::vector<BenchDoc> docs;
    std::string err;
    for (const std::string &path : inputs)
        if (!readBenchDocs(path, docs, err)) {
            std::fprintf(stderr, "tstream-bench: %s\n", err.c_str());
            return 1;
        }

    std::vector<BenchDoc> merged;
    if (!mergeByBench(std::move(docs), merged, err)) {
        std::fprintf(stderr, "tstream-bench: %s\n", err.c_str());
        return 1;
    }
    if (!writeDocs(merged, out))
        return 1;
    std::fprintf(stderr,
                 "[tstream-bench] merged %zu input file(s) into %s "
                 "(%zu benches, %zu cells, %zu failed, full cover)\n",
                 inputs.size(), out.c_str(), merged.size(),
                 cellCount(merged), failedCells(merged));
    if (failedCells(merged) > 0)
        for (const BenchDoc &doc : merged)
            for (const BenchCell &c : doc.cells)
                if (c.failed)
                    std::fprintf(stderr,
                                 "[tstream-bench]   failed: %s/%s "
                                 "(cause=%s, attempts=%u)\n",
                                 doc.bench.c_str(), c.id.c_str(),
                                 c.failureCause.c_str(), c.attempts);
    return 0;
}

// ---- compare ----------------------------------------------------------------

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

int
cmdCompare(int argc, char **argv)
{
    PerfGateOptions opts;
    std::vector<std::string> paths;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                usage((std::string("missing value for ") + what)
                          .c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--max-regress") {
            const char *v = value("--max-regress");
            char *end = nullptr;
            opts.maxRegress = std::strtod(v, &end);
            if (!end || *end != '\0' || opts.maxRegress <= 0.0)
                return usage("--max-regress wants a positive ratio");
        } else if (arg == "--series") {
            opts.series.emplace_back(value("--series"));
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(
                ("unknown compare option: " + std::string(arg))
                    .c_str());
        } else {
            paths.emplace_back(arg);
        }
    }
    if (paths.size() != 2)
        return usage("compare takes exactly two reports "
                     "(BASELINE.json CURRENT.json)");

    std::vector<PerfSample> base, cur;
    std::string err;
    if (!loadPerfSeries(paths[0], base, err) ||
        !loadPerfSeries(paths[1], cur, err)) {
        std::fprintf(stderr, "tstream-bench: %s\n", err.c_str());
        return 2;
    }

    const PerfComparison cmp = comparePerfSeries(base, cur, opts);

    std::size_t width = 6;
    for (const PerfDelta &d : cmp.rows)
        width = std::max(width, d.name.size());
    std::printf("%-*s  %12s  %12s  %7s\n", static_cast<int>(width),
                "series", "baseline", "current", "ratio");
    for (const PerfDelta &d : cmp.rows) {
        const char *status = "";
        switch (d.status) {
          case PerfDelta::Status::Ok: status = "ok"; break;
          case PerfDelta::Status::Improved: status = "improved"; break;
          case PerfDelta::Status::Regressed:
            status = "REGRESSED";
            break;
          case PerfDelta::Status::Missing: status = "MISSING"; break;
          case PerfDelta::Status::Fresh: status = "new"; break;
        }
        char ratio[16];
        if (d.ratio > 0)
            std::snprintf(ratio, sizeof ratio, "%.3f", d.ratio);
        else
            std::snprintf(ratio, sizeof ratio, "--");
        std::printf("%-*s  %12s  %12s  %7s  %s\n",
                    static_cast<int>(width), d.name.c_str(),
                    fmtTime(d.baseNs).c_str(),
                    fmtTime(d.currentNs).c_str(), ratio, status);
    }
    std::printf("compare: %zu series, %zu regressed, %zu missing, "
                "%zu new (threshold %.2fx): %s\n",
                cmp.rows.size(), cmp.regressed, cmp.missing, cmp.fresh,
                opts.maxRegress, cmp.pass ? "PASS" : "FAIL");
    return cmp.pass ? 0 : 1;
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
        auto value = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                usage((std::string("missing value for ") + what)
                          .c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--max-regress") {
            const char *v = value("--max-regress");
            char *end = nullptr;
            maxRegress = std::strtod(v, &end);
            if (!end || *end != '\0' || maxRegress <= 0.0)
                return usage("--max-regress wants a positive ratio");
        } else if (arg == "--series") {
            filter.emplace_back(value("--series"));
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

    const TrendTable table = computeTrend(paths, series, filter);

    // A filtered name matching no report at all is a typo, not a
    // quiet empty row.
    bool pass = true;
    for (const std::string &name : filter) {
        bool found = false;
        for (const TrendSeries &r : table.rows)
            found = found || r.name == name;
        if (!found) {
            std::fprintf(stderr,
                         "tstream-bench: series %s absent from every "
                         "report\n",
                         name.c_str());
            pass = false;
        }
    }

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
        char ratio[16];
        if (r.lastVsFirst > 0)
            std::snprintf(ratio, sizeof ratio, "%.3f", r.lastVsFirst);
        else
            std::snprintf(ratio, sizeof ratio, "--");
        bool gatedFail = false;
        if (maxRegress > 0) {
            if (r.lastVsFirst > maxRegress)
                gatedFail = true;
            // A named series that vanished from the newest report is
            // a gate failure too — missing must never pass silently.
            for (const std::string &name : filter)
                if (name == r.name && r.timesNs.back() <= 0)
                    gatedFail = true;
        }
        std::printf("  %10s%s\n", ratio,
                    gatedFail ? "  REGRESSED" : "");
        pass = pass && !gatedFail;
    }
    std::printf("trend: %zu series over %zu reports%s\n",
                table.rows.size(), table.labels.size(),
                maxRegress > 0
                    ? (pass ? ": PASS" : ": FAIL")
                    : "");
    return pass ? 0 : 1;
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
    long grid = 0;
    long long ttlMs = 30'000;
    long long nowOverride = -1;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                usage((std::string("missing value for ") + what)
                          .c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        auto number = [&](const char *what, long long lo) -> long long {
            const char *v = value(what);
            char *end = nullptr;
            const long long n = std::strtoll(v, &end, 10);
            if (!end || *end != '\0' || n < lo) {
                usage((std::string(what) + " wants an integer >= " +
                       std::to_string(lo))
                          .c_str());
                std::exit(2);
            }
            return n;
        };
        if (arg == "--claim-dir") {
            claimDir = value("--claim-dir");
        } else if (arg == "--session") {
            session = value("--session");
        } else if (arg == "--bench") {
            bench = value("--bench");
        } else if (arg == "--grid") {
            grid = static_cast<long>(number("--grid", 1));
        } else if (arg == "--ttl") {
            ttlMs = number("--ttl", 1);
        } else if (arg == "--now") {
            nowOverride = number("--now", 0);
        } else {
            return usage(
                ("unknown status option: " + std::string(arg))
                    .c_str());
        }
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
            remaining = static_cast<std::size_t>(grid) > done
                            ? static_cast<std::size_t>(grid) - done
                            : 0;
            std::printf(", grid %ld -> %zu remaining", grid,
                        remaining);
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
        std::printf("== %s%s (%zu/%zu cells", doc.bench.c_str(),
                    doc.quick ? " --quick" : "", doc.cells.size(),
                    doc.gridCells);
        if (doc.shard.count > 1)
            std::printf(", shard %u/%u", doc.shard.index,
                        doc.shard.count);
        std::printf(") ==\n");
        for (const BenchCell &cell : doc.cells)
            if (cell.failed)
                std::printf("!! FAILED cell %s: %s (attempts=%u)\n",
                            cell.id.c_str(),
                            cell.failureCause.c_str(), cell.attempts);
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
    if (cmd == "compare")
        return cmdCompare(argc - 2, argv + 2);
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
