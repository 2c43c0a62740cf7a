/**
 * @file
 * Tests for the cell-level experiment driver (sim/driver.hh) and its
 * work-stealing pool (util/work_pool.hh): deterministic grid
 * enumeration, bounded pool concurrency, the strict bench command line (bench/run.hh), cell
 * execution with result ordering independent of the job count, and
 * the per-run cell memo shared by the views of one run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <stdexcept>
#include <thread>

#include "bench/run.hh"
#include "obs/telemetry.hh"
#include "sim/driver.hh"
#include "trace/trace_io.hh"
#include "util/work_pool.hh"

namespace tstream
{
namespace
{

const std::vector<WorkloadKind> kTwoWorkloads = {WorkloadKind::Oltp,
                                                 WorkloadKind::Apache};

BenchBudgets
tinyBudgets()
{
    BenchBudgets b;
    b.warmup = 100'000;
    b.measure = 300'000;
    b.scale = 0.05;
    return b;
}

/** Smaller still, for tests that only need a few misses per run. */
BenchBudgets
smallBudgets()
{
    BenchBudgets b = tinyBudgets();
    b.warmup = 50'000;
    b.measure = 150'000;
    return b;
}

TEST(DriverGridTest, EnumerationIsDeterministic)
{
    const auto a = standardGrid(kTwoWorkloads, tinyBudgets());
    const auto b = standardGrid(kTwoWorkloads, tinyBudgets());
    ASSERT_EQ(a.size(), 4u); // 2 workloads x 2 contexts
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, i);
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(configHash(a[i].cfg), configHash(b[i].cfg));
    }
    // Workload-major, multi-chip before single-chip.
    EXPECT_EQ(a[0].id, "DB2-OLTP/multi-chip");
    EXPECT_EQ(a[1].id, "DB2-OLTP/single-chip");
    EXPECT_EQ(a[2].id, "Apache/multi-chip");
    EXPECT_EQ(a[3].id, "Apache/single-chip");
}

TEST(DriverGridTest, GridCellsCarryBudgets)
{
    const BenchBudgets budgets = tinyBudgets();
    for (const Cell &c : standardGrid(kTwoWorkloads, budgets)) {
        EXPECT_EQ(c.cfg.warmupInstructions, budgets.warmup);
        EXPECT_EQ(c.cfg.measureInstructions, budgets.measure);
        EXPECT_DOUBLE_EQ(c.cfg.scale, budgets.scale);
    }
}

TEST(WorkPoolTest, RunsEverySubmittedTask)
{
    WorkPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
    // wait() after completion is a no-op, and the pool can be reused.
    pool.wait();
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(WorkPoolTest, ConcurrencyIsBoundedByJobs)
{
    constexpr unsigned kJobs = 3;
    WorkPool pool(kJobs);
    std::atomic<int> current{0};
    std::atomic<int> maxSeen{0};
    std::atomic<int> ran{0};
    for (int i = 0; i < 48; ++i)
        pool.submit([&] {
            const int now = current.fetch_add(1) + 1;
            int prev = maxSeen.load();
            while (now > prev && !maxSeen.compare_exchange_weak(prev, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            current.fetch_sub(1);
            ran.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(ran.load(), 48);
    EXPECT_LE(maxSeen.load(), static_cast<int>(kJobs));
    EXPECT_GE(maxSeen.load(), 1);
}

TEST(WorkPoolTest, StealsFromBusyNeighbours)
{
    // 2 workers, round-robin submission puts tasks 0,2,4.. on queue 0
    // and 1,3,5.. on queue 1; a long task on one queue must not stop
    // the other worker from stealing the rest.
    WorkPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ran.fetch_add(1);
    });
    for (int i = 0; i < 20; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    const auto t0 = std::chrono::steady_clock::now();
    pool.wait();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(ran.load(), 21);
    // All 20 short tasks fit comfortably inside the long task's 50 ms
    // if stealing works; give a wide margin for slow CI machines.
    EXPECT_LT(ms, 2000.0);
}

// ---- the bench command line (bench/run.hh) ---------------------------------
// parseRunArgs() reports every rejection as a returned diagnostic;
// nothing here exits.

/** parseRunArgs() over the arguments after `run`. */
std::string
parse(std::initializer_list<const char *> args, bench::BenchOptions &opts)
{
    const std::vector<const char *> argv(args);
    return bench::parseRunArgs(static_cast<int>(argv.size()), argv.data(),
                               opts);
}

/** True when @p err is a diagnostic containing @p what. */
testing::AssertionResult
rejects(const std::string &err, const std::string &what)
{
    if (err.find(what) != std::string::npos)
        return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << "diagnostic \"" << err << "\" lacks \"" << what << "\"";
}

TEST(BenchArgsTest, ParsesSupportedFlags)
{
    bench::BenchOptions opts;
    ASSERT_EQ(parse({"--quick", "--jobs", "3", "-o", "out.json", "fig2",
                     "ablation_b"},
                    opts),
              "");
    EXPECT_TRUE(opts.quick);
    EXPECT_EQ(opts.budgets.warmup, kQuickBudgets.warmupInstructions);
    EXPECT_EQ(opts.budgets.measure, kQuickBudgets.measureInstructions);
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.out, "out.json");
    ASSERT_EQ(opts.views.size(), 2u);
    EXPECT_STREQ(opts.views[0]->binary, "fig2_stream_fraction");
    EXPECT_STREQ(opts.views[1]->binary, "ablation_l2_sweep");
}

TEST(BenchArgsTest, DefaultsToPaperBudgets)
{
    bench::BenchOptions opts;
    ASSERT_EQ(parse({"fig2"}, opts), "");
    EXPECT_FALSE(opts.quick);
    EXPECT_EQ(opts.budgets.warmup, kPaperBudgets.warmupInstructions);
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_EQ(opts.out, ""); // tables only
}

TEST(BenchArgsTest, ExpandsPaperAndAll)
{
    bench::BenchOptions opts;
    ASSERT_EQ(parse({"paper"}, opts), "");
    EXPECT_EQ(opts.views.size(), 7u);
    ASSERT_EQ(parse({"all"}, opts), "");
    EXPECT_EQ(opts.views.size(), std::size(bench::kViews));
}

TEST(BenchArgsTest, EnvironmentDoesNotChangeTheGrid)
{
    // Only TSTREAM_TRACE_CACHE reaches ssh fleet workers, so no other
    // variable may change what a worker runs.
    ::setenv("TSTREAM_QUICK", "1", 1);
    ::setenv("TSTREAM_JOBS", "7", 1);
    bench::BenchOptions opts;
    const std::string err = parse({"fig2"}, opts);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned defaultJobs = WorkPool::defaultJobs();
    for (const char *var : {"TSTREAM_QUICK", "TSTREAM_JOBS"})
        ::unsetenv(var);

    ASSERT_EQ(err, "");
    EXPECT_FALSE(opts.quick);
    EXPECT_EQ(opts.budgets.warmup, kPaperBudgets.warmupInstructions);
    EXPECT_EQ(opts.budgets.measure, kPaperBudgets.measureInstructions);
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_EQ(defaultJobs, hw);
}

TEST(BenchArgsDeathTest, RejectsUnknownFlags)
{
    // A typo must not silently fall back to paper-scale budgets.
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(parse({"--qiuck", "fig2"}, opts),
                        "unknown option: --qiuck"));
    EXPECT_TRUE(rejects(parse({"fig9"}, opts), "unknown bench: fig9"));
    EXPECT_TRUE(rejects(parse({"--quick"}, opts),
                        "needs at least one bench name"));
}

// Claim sessions are the one way to split a sweep: --shard is an
// unknown option whatever its value, so no spelling of it runs a part
// of the grid.

TEST(BenchArgsDeathTest, RejectsBadShard)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(parse({"--quick", "--shard", "0/2", "fig2"}, opts),
                        "unknown option: --shard"));
    EXPECT_TRUE(rejects(parse({"--shard", "4/4", "fig2"}, opts),
                        "unknown option: --shard"));
}

TEST(BenchArgsDeathTest, RejectsMissingValue)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(parse({"fig2", "--jobs"}, opts),
                        "missing value for --jobs"));
}

// A value that overflows its field is an error, not a wrap to 0 (the
// hardware default for --jobs) or a silent saturation.

TEST(BenchArgsTest, RejectsOverflowingJobs)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(parse({"--jobs", "4294967296", "fig2"}, opts),
                        "--jobs wants a positive integer"));
    ASSERT_EQ(parse({"--jobs", "4294967295", "fig2"}, opts), "");
    EXPECT_EQ(opts.jobs, 4294967295u);
}

TEST(BenchArgsTest, RejectsOverflowingClaimTtl)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(
        parse({"--claim-ttl", "9223372036854775808", "fig2"}, opts),
        "--claim-ttl wants a positive integer"));
}

// Cells run once (sim/driver.hh), so the retry, timeout and heartbeat
// knobs are gone: each is an unknown option, so even an overflowing value
// is refused rather than silently ignored.

TEST(BenchArgsTest, RejectsOverflowingCellRetries)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(
        rejects(parse({"--cell-retries", "4294967296", "fig2"}, opts),
                "unknown option: --cell-retries"));
}

TEST(BenchArgsTest, RejectsOverflowingHeartbeat)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(
        parse({"--heartbeat", "99999999999999999999", "fig2"}, opts),
        "unknown option: --heartbeat"));
}

TEST(BenchArgsTest, RejectsOverflowingCellTimeout)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(
        parse({"--cell-timeout", "9223372036854775808", "fig2"}, opts),
        "unknown option: --cell-timeout"));
}

TEST(BenchArgsTest, ExtFlagsNeedTheExtView)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(parse({"--policy", "fixed", "fig2"}, opts),
                        "apply only to the ext view"));
    EXPECT_TRUE(rejects(parse({"--budget-sweep", "fig2"}, opts),
                        "apply only to the ext view"));
    ASSERT_EQ(parse({"--policy", "fixed,adaptive", "--replay-depth", "4",
                     "--budget-sweep", "ext"},
                    opts),
              "");
    EXPECT_EQ(opts.ext.policies,
              (std::vector<std::string>{"fixed", "adaptive"}));
    EXPECT_EQ(opts.ext.replayDepth, 4u);
    EXPECT_TRUE(opts.ext.budgetSweep);
    EXPECT_EQ(parse({"--policy", "hybrid", "all"}, opts), "");

    EXPECT_TRUE(rejects(parse({"--policy", "nosuch", "ext"}, opts),
                        "unknown policy 'nosuch'"));
    EXPECT_TRUE(rejects(
        parse({"--policy", "fixed", "--replay-depth", "0", "ext"}, opts),
        "--replay-depth wants a positive integer"));
    EXPECT_TRUE(rejects(parse({"--replay-depth", "4", "ext"}, opts),
                        "--replay-depth needs --policy"));
}

// Re-running a claim session finishes an interrupted sweep, so
// --resume is an unknown option even with a report to read.

TEST(BenchArgsTest, ResumeNeedsAReport)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(
        parse({"--quick", "--resume", "-o", "x.json", "fig2"}, opts),
        "unknown option: --resume"));
    EXPECT_TRUE(rejects(parse({"--workload", "a.conf", "--phases",
                               "kv duration=1", "fig2"},
                              opts),
                        "mutually exclusive"));
}

// ---- claiming / fleet flags -------------------------------------------------

class ClaimArgsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("TSTREAM_TRACE_CACHE");
    }

    void
    TearDown() override
    {
        SetUp(); // same scrub on the way out
    }
};

using ClaimArgsDeathTest = ClaimArgsTest;

TEST_F(ClaimArgsTest, ParsesClaimFlags)
{
    ::setenv("TSTREAM_TRACE_CACHE", "/tmp/tstream-cache", 1);
    bench::BenchOptions opts;
    ASSERT_EQ(parse({"--claim-session", "sweep1", "--claim-ttl", "5000",
                     "fig2"},
                    opts),
              "");
    EXPECT_EQ(opts.claimSession, "sweep1");
    EXPECT_EQ(opts.claimTtlMs, 5000);

    // The driver options carry the whole claiming surface.
    const DriverOptions d = opts.driver("bench_under_test");
    EXPECT_TRUE(d.claim.enabled());
    EXPECT_EQ(d.claim.session, "sweep1");
    EXPECT_EQ(d.claim.dir,
              "/tmp/tstream-cache/claims/sweep1/bench_under_test");
    EXPECT_EQ(d.claim.ttlMs, 5000);

    // A claimed cell is committed in its done marker; the session's
    // report comes from `merge --session`, never from a worker's -o.
    EXPECT_TRUE(rejects(parse({"--claim-session", "sweep1", "-o",
                               "part.json", "fig2"},
                              opts),
                        "--claim-session writes no report"));
}

TEST_F(ClaimArgsTest, ClaimingDisabledByDefault)
{
    bench::BenchOptions opts;
    ASSERT_EQ(parse({"fig2"}, opts), "");
    EXPECT_TRUE(opts.claimSession.empty());
    const DriverOptions d = opts.driver("fig2_stream_fraction");
    EXPECT_FALSE(d.claim.enabled());
    EXPECT_EQ(d.claim.dir, "");
}

TEST_F(ClaimArgsTest, FleetWorkersRepeatTheSharedFlags)
{
    ::setenv("TSTREAM_TRACE_CACHE", "/tmp/tstream-cache", 1);
    bench::BenchOptions opts;
    ASSERT_EQ(parse({"--fleet", "3", "--fleet-kill-after", "1",
                     "--quick", "--claim-ttl", "2000", "--telemetry-out",
                     "tele", "--slowest", "0", "-o", "out.json",
                     "--policy", "fixed", "ext"},
                    opts),
              "");
    EXPECT_EQ(opts.fleet, 3u);
    EXPECT_EQ(opts.fleetKillAfter, 1);
    EXPECT_EQ(opts.workerArgs,
              (std::vector<std::string>{"--quick", "--claim-ttl", "2000",
                                        "--policy", "fixed", "ext"}));

    EXPECT_TRUE(rejects(parse({"--fleet", "3", "fig2"}, opts),
                        "--fleet needs -o PATH"));
    EXPECT_TRUE(rejects(parse({"--fleet", "3", "--claim-session",
                               "s", "-o", "o.json", "fig2"},
                              opts),
                        "drop --claim-session"));
    EXPECT_TRUE(rejects(parse({"--fleet-kill-after", "1", "fig2"}, opts),
                        "--fleet-kill-after needs --fleet"));
}

TEST_F(ClaimArgsDeathTest, ClaimSessionNeedsTraceCache)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(parse({"--claim-session", "s", "fig2"}, opts),
                        "--claim-session needs TSTREAM_TRACE_CACHE"));
}

TEST_F(ClaimArgsDeathTest, RejectsNonNumericKnobs)
{
    bench::BenchOptions opts;
    EXPECT_TRUE(rejects(parse({"--claim-ttl", "0", "fig2"}, opts),
                        "--claim-ttl wants a positive integer"));
    EXPECT_TRUE(rejects(parse({"--claim-ttl", "2s", "fig2"}, opts),
                        "--claim-ttl wants a positive integer"));
}

class DriverRunTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Keep these tests hermetic from any user-level cache.
        ::unsetenv("TSTREAM_TRACE_CACHE");
    }
};

TEST_F(DriverRunTest, ExecutesCellsInGridOrder)
{
    const auto grid = standardGrid(kTwoWorkloads, tinyBudgets());
    DriverOptions opts;
    opts.jobs = 2;
    const auto results = runCells(grid, opts);
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].cell.index, grid[i].index);
        EXPECT_EQ(results[i].cell.id, grid[i].id);
        EXPECT_GT(results[i].instructions, 0u);
        EXPECT_FALSE(results[i].cacheHit);
        // Multi-chip cells yield one trace, single-chip cells two.
        const bool single = results[i].cell.cfg.context ==
                            SystemContext::SingleChip;
        ASSERT_EQ(results[i].runs().size(), single ? 2u : 1u);
        EXPECT_EQ(results[i].runs()[0].kind,
                  single ? TraceKind::SingleChip
                         : TraceKind::MultiChip);
        if (single) {
            EXPECT_EQ(results[i].runs()[1].kind, TraceKind::IntraChip);
        }
        for (const RunOutput &r : results[i].runs()) {
            EXPECT_FALSE(r.trace.misses.empty());
            EXPECT_GT(r.streams.totalMisses, 0u);
        }
    }
}

TEST_F(DriverRunTest, IntraClassCountsPrecedeTheOnChipFilter)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, smallBudgets());
    grid.erase(grid.begin()); // single-chip cell only
    DriverOptions opts;
    opts.jobs = 1;
    const auto results = runCells(grid, opts);
    ASSERT_EQ(results.size(), 1u);
    const std::vector<RunOutput> &runs = results[0].runs();
    ASSERT_EQ(runs.size(), 2u);
    auto sum = [](const RunOutput &r) {
        std::uint64_t n = 0;
        for (std::uint64_t c : r.classMisses)
            n += c;
        return n;
    };
    // Every run is analyzed.
    for (const RunOutput &r : runs) {
        EXPECT_EQ(r.streams.totalMisses, r.trace.misses.size());
        EXPECT_EQ(r.modules.total, r.trace.misses.size());
    }
    EXPECT_EQ(sum(runs[0]), runs[0].trace.misses.size());

    // The intra trace holds on-chip hits only; its Off-chip class is
    // counted before the filter.
    const RunOutput &intra = runs[1];
    const std::uint64_t offChip =
        intra.classMisses[static_cast<std::size_t>(IntraClass::OffChip)];
    EXPECT_GT(offChip, 0u);
    EXPECT_EQ(sum(intra), intra.trace.misses.size() + offChip);
    for (const MissRecord &m : intra.trace.misses)
        EXPECT_NE(static_cast<IntraClass>(m.cls), IntraClass::OffChip);
}

TEST_F(DriverRunTest, TraceCacheCreatesMissingDirectoryAndHits)
{
    // Intentionally not created: traceCacheStore must mkdir -p it.
    // (remove_all first so a rerun does not inherit stale cells)
    const std::string root =
        testing::TempDir() + "/tstream_cache_test";
    std::filesystem::remove_all(root);
    const std::string cacheDir = root + "/nested/dir";
    ::setenv("TSTREAM_TRACE_CACHE", cacheDir.c_str(), 1);

    auto grid = standardGrid({WorkloadKind::Oltp}, smallBudgets());
    DriverOptions opts;
    opts.jobs = 1;

    const auto first = runCells(grid, opts);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_FALSE(first[0].cacheHit);
    EXPECT_FALSE(first[1].cacheHit);

    const auto second = runCells(grid, opts);
    ::unsetenv("TSTREAM_TRACE_CACHE");
    ASSERT_EQ(second.size(), 2u);
    EXPECT_TRUE(second[0].cacheHit);
    EXPECT_TRUE(second[1].cacheHit);

    // A cached cell reproduces the simulated one exactly.
    for (std::size_t c = 0; c < 2; ++c) {
        ASSERT_EQ(second[c].runs().size(), first[c].runs().size());
        EXPECT_EQ(second[c].instructions, first[c].instructions);
        for (std::size_t r = 0; r < first[c].runs().size(); ++r) {
            const MissTrace &a = first[c].runs()[r].trace;
            const MissTrace &b = second[c].runs()[r].trace;
            ASSERT_EQ(a.misses.size(), b.misses.size());
            for (std::size_t i = 0; i < a.misses.size(); ++i) {
                EXPECT_EQ(a.misses[i].block, b.misses[i].block);
                EXPECT_EQ(a.misses[i].cpu, b.misses[i].cpu);
                EXPECT_EQ(a.misses[i].cls, b.misses[i].cls);
            }
        }
    }
}

TEST_F(DriverRunTest, OfflineAnalysisReproducesTheBenchRows)
{
    // A quick single-chip cell, simulated by the driver, which saves
    // its off-chip and unfiltered (intra-all) intra-chip traces to the
    // trace cache on the way.
    const std::string cacheDir =
        testing::TempDir() + "/tstream_offline_test";
    std::filesystem::remove_all(cacheDir);
    ::setenv("TSTREAM_TRACE_CACHE", cacheDir.c_str(), 1);
    BenchBudgets quick;
    quick.warmup = kQuickBudgets.warmupInstructions;
    quick.measure = kQuickBudgets.measureInstructions;
    quick.scale = kQuickBudgets.scale;
    auto grid = standardGrid({WorkloadKind::Oltp}, quick);
    grid.erase(grid.begin()); // single-chip cell only
    DriverOptions opts;
    opts.jobs = 1;
    const auto live = runCells(grid, opts);
    const std::string stem = traceCacheStem(grid[0].cfg);
    ::unsetenv("TSTREAM_TRACE_CACHE");
    ASSERT_EQ(live.size(), 1u);
    ASSERT_FALSE(live[0].failed);

    // The offline path of `tstream-trace analyze`: load each saved
    // trace with its function table and run the driver's analysis.
    auto offline = std::make_shared<CellAnalysis>();
    offline->instructions = live[0].instructions;
    for (const char *suffix : {".off.tst", ".l1.tst"}) {
        auto reader = TraceReader::open(stem + suffix);
        ASSERT_TRUE(reader) << reader.error();
        auto trace = reader->readAll();
        ASSERT_TRUE(trace) << trace.error();
        auto registry = reader->functions();
        ASSERT_TRUE(registry) << registry.error();
        RunOutput r = analyzeRun(isIntraChipKind(reader->meta().kind)
                                     ? TraceKind::IntraChip
                                     : TraceKind::SingleChip,
                                 std::move(*trace), &*registry);
        r.workload = WorkloadKind::Oltp;
        offline->runs.push_back(std::move(r));
    }
    std::filesystem::remove_all(cacheDir);
    CellResult replayed = live[0];
    replayed.analysis = offline;

    // Every figure and origins view reads the same text and metrics.
    bench::BenchOptions bopts;
    for (const char *name : {"fig1", "fig2", "fig3", "fig4", "table3",
                             "table4", "table5", "table6"}) {
        const bench::BenchView view = bench::findView(name)->make(bopts);
        const std::vector<BenchRow> want = view.rows(live[0]);
        const std::vector<BenchRow> got = view.rows(replayed);
        ASSERT_EQ(got.size(), want.size()) << name;
        ASSERT_FALSE(want.empty()) << name;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].table, want[i].table) << name;
            EXPECT_EQ(got[i].trace, want[i].trace) << name;
            EXPECT_EQ(got[i].text, want[i].text) << name;
            EXPECT_EQ(got[i].metrics, want[i].metrics) << name;
        }
    }
}

// The per-run cell memo: views over overlapping grids share one
// analysis per distinct cell, each entry is dropped after the last
// view that needs it, and a failed cell is never stored.
class CellMemoTest : public DriverRunTest
{
  protected:
    void
    SetUp() override
    {
        DriverRunTest::SetUp();
        telemetry::enable(""); // count cells, write nothing
        telemetry::reset();
    }

    void
    TearDown() override
    {
        telemetry::reset();
        telemetry::disable();
    }
};

TEST_F(CellMemoTest, OverlappingViewsSimulateEachCellOnce)
{
    // View A sweeps OLTP + KVstore, view B KVstore + Broker: the two
    // KVstore cells are shared, six configs are distinct.
    const auto a = standardGrid({WorkloadKind::Oltp, WorkloadKind::KvStore},
                                smallBudgets());
    const auto b = standardGrid(
        {WorkloadKind::KvStore, WorkloadKind::Broker}, smallBudgets());
    auto memo = std::make_shared<CellMemo>(
        std::vector<std::vector<Cell>>{a, b});
    DriverOptions opts;
    opts.jobs = 2;
    opts.memo = memo;

    const auto ra = runCells(a, opts);
    memo->finishView(0);
    EXPECT_EQ(memo->size(), 2u); // only what view B still needs
    const auto rb = runCells(b, opts);
    memo->finishView(1);
    EXPECT_EQ(memo->size(), 0u);

    EXPECT_EQ(telemetry::counterValue("driver.cache_miss_cells"), 6u);
    EXPECT_EQ(telemetry::counterValue("driver.memo_hit_cells"), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const CellResult &hit = rb[i];
        const CellResult &first = ra[2 + i];
        ASSERT_EQ(hit.cell.id, first.cell.id);
        EXPECT_FALSE(first.cacheHit);
        EXPECT_TRUE(hit.cacheHit);
        // The stored analysis itself, not a copy, with its
        // instruction count.
        EXPECT_EQ(hit.analysis, first.analysis);
        EXPECT_EQ(hit.instructions, first.instructions);
        EXPECT_GT(hit.instructions, 0u);
    }
    EXPECT_FALSE(rb[2].cacheHit);
    EXPECT_FALSE(rb[3].cacheHit);
}

TEST_F(CellMemoTest, FailedCellIsNotStoredAndRunsAgain)
{
    const auto grid = standardGrid({WorkloadKind::Oltp}, smallBudgets());
    auto memo = std::make_shared<CellMemo>(
        std::vector<std::vector<Cell>>{grid, grid});

    DriverOptions failing;
    failing.jobs = 1;
    failing.memo = memo;
    failing.testCellHook = [](const Cell &cell) {
        if (cell.index == 0)
            throw std::runtime_error("injected fault");
    };
    const auto first = runCells(grid, failing);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_TRUE(first[0].failed);
    EXPECT_FALSE(first[1].failed);
    EXPECT_EQ(memo->size(), 1u);
    memo->finishView(0);

    DriverOptions plain;
    plain.jobs = 1;
    plain.memo = memo;
    const auto second = runCells(grid, plain);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_FALSE(second[0].failed);
    EXPECT_FALSE(second[0].cacheHit); // simulated again
    EXPECT_TRUE(second[1].cacheHit);
    EXPECT_EQ(telemetry::counterValue("driver.cache_miss_cells"), 2u);
    memo->finishView(1);
    EXPECT_EQ(memo->size(), 0u);
}

} // namespace
} // namespace tstream
