/**
 * @file
 * Fault-injection tests for the dynamic-claiming driver path
 * (sim/driver.hh + util/claim_file.hh): a worker process SIGKILLed
 * mid-cell (after winning its first claim, via
 * TSTREAM_CLAIM_DIE_AFTER) leaves a stale claim that a surviving
 * worker reclaims after the TTL so the sweep still completes and
 * matches a plain run; a throwing cell hook runs once and the cell
 * becomes a structured failure row that survives makeBenchCell(); an
 * unusable claim directory, a failed commit and a
 * malformed TSTREAM_CLAIM_DIE_AFTER each stop a worker with exit 1
 * and a diagnostic, leaving no done marker behind.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/bench_report.hh"
#include "sim/driver.hh"
#include "util/claim_file.hh"

namespace tstream
{
namespace
{

BenchBudgets
tinyBudgets()
{
    BenchBudgets b;
    b.warmup = 50'000;
    b.measure = 150'000;
    b.scale = 0.05;
    return b;
}

std::string
freshClaimDir(const std::string &tag)
{
    const std::string dir = testing::TempDir() + "/tstream_fleet_" +
                            tag + "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

class FleetFaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Hermetic from user-level caches and any leaked fault knobs.
        ::unsetenv("TSTREAM_TRACE_CACHE");
        ::unsetenv("TSTREAM_CLAIM_DIE_AFTER");
    }
};

DriverOptions
claimingOptions(const std::string &dir, std::int64_t ttlMs,
                const std::string &owner)
{
    DriverOptions opts;
    opts.jobs = 1;
    opts.claim.session = "fault-test";
    opts.claim.dir = dir;
    opts.claim.ttlMs = ttlMs;
    opts.claim.owner = owner;
    return opts;
}

TEST_F(FleetFaultTest, SingleClaimingWorkerEqualsPlainRun)
{
    const auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    ASSERT_EQ(grid.size(), 2u);

    DriverOptions plain;
    plain.jobs = 1;
    const auto expect = runCells(grid, plain);

    const auto got = runCells(
        grid, claimingOptions(freshClaimDir("solo"), 30'000, "solo"));
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cell.index, expect[i].cell.index);
        EXPECT_EQ(got[i].cell.id, expect[i].cell.id);
        EXPECT_FALSE(got[i].failed);
        EXPECT_EQ(got[i].instructions, expect[i].instructions);
        ASSERT_EQ(got[i].runs().size(), expect[i].runs().size());
        for (std::size_t r = 0; r < got[i].runs().size(); ++r)
            EXPECT_EQ(got[i].runs()[r].trace.misses.size(),
                      expect[i].runs()[r].trace.misses.size());
    }
}

TEST_F(FleetFaultTest, KilledWorkerCellIsReclaimedAndSweepCompletes)
{
    const auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    const std::string dir = freshClaimDir("kill");

    // Worker A: dies by SIGKILL right after winning its first claim,
    // before running the cell — the deterministic "power cord" fault.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::setenv("TSTREAM_CLAIM_DIE_AFTER", "1", 1);
        (void)runCells(grid, claimingOptions(dir, 30'000, "worker-a"));
        ::_exit(0); // unreachable when the fault fires
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Worker B: a short TTL lets it steal the orphaned claim quickly.
    const auto got =
        runCells(grid, claimingOptions(dir, 300, "worker-b"));

    // The survivor drained the whole grid, including the dead
    // worker's cell, and the results match a plain run.
    ASSERT_EQ(got.size(), grid.size());
    DriverOptions plain;
    plain.jobs = 1;
    const auto expect = runCells(grid, plain);
    std::set<std::size_t> covered;
    for (std::size_t i = 0; i < got.size(); ++i) {
        covered.insert(got[i].cell.index);
        EXPECT_FALSE(got[i].failed) << got[i].failureCause;
        EXPECT_EQ(got[i].cell.id, expect[i].cell.id);
        EXPECT_EQ(got[i].instructions, expect[i].instructions);
    }
    EXPECT_EQ(covered.size(), grid.size());
}

TEST_F(FleetFaultTest, UnusableClaimDirStopsTheWorker)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);
    // A regular file where the claim directory should be.
    const std::string file = freshClaimDir("unusable");
    std::ofstream(file) << "not a directory\n";

    EXPECT_EXIT((void)runCells(grid, claimingOptions(file + "/claims",
                                                     30'000, "w")),
                ::testing::ExitedWithCode(1),
                "cannot claim cell DB2-OLTP/multi-chip: .*Not a "
                "directory");
    std::filesystem::remove(file);
}

TEST_F(FleetFaultTest, FailedCommitReleasesTheClaimAndStops)
{
    namespace fs = std::filesystem;
    const auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    const std::string dir = freshClaimDir("nocommit");

    // A directory in the claimed cell's marker place: its commit fails.
    DriverOptions opts = claimingOptions(dir, 30'000, "w");
    opts.cellDone = [&](const CellResult &) {
        for (const auto &e : fs::directory_iterator(dir))
            if (e.path().extension() == ".claim")
                fs::create_directory(
                    fs::path(e.path()).replace_extension(".done"));
        return std::string("record");
    };
    EXPECT_EXIT((void)runCells(grid, opts), ::testing::ExitedWithCode(1),
                "cannot commit cell DB2-OLTP/multi-chip: cannot rename");

    // No claim is left to go stale and no cell reads as done, so a
    // re-run of the session runs both cells.
    for (const auto &e : fs::directory_iterator(dir)) {
        DoneInfo info;
        EXPECT_NE(e.path().extension(), ".claim") << e.path();
        EXPECT_FALSE(ClaimDir::readDone(e.path().string(), info));
    }
}

TEST_F(FleetFaultTest, ThrowingCellBecomesFailureRowOnFirstAttempt)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);

    DriverOptions opts;
    opts.jobs = 1;
    int calls = 0;
    opts.testCellHook = [&calls](const Cell &) {
        ++calls;
        throw std::runtime_error("persistent fault");
    };

    const auto results = runCells(grid, opts);
    // A cell is deterministic, so it is never run a second time.
    EXPECT_EQ(calls, 1);
    ASSERT_EQ(results.size(), 1u);
    const CellResult &res = results[0];
    EXPECT_TRUE(res.failed);
    EXPECT_EQ(res.failureCause, "exception: persistent fault");
    EXPECT_TRUE(res.runs().empty());
    EXPECT_GE(res.wallSeconds, 0.0);

    // The failure travels into the report cell unchanged, with no
    // table rows attached.
    const BenchCell cell = makeBenchCell(res, {});
    EXPECT_TRUE(cell.failed);
    EXPECT_EQ(cell.failureCause, "exception: persistent fault");
    EXPECT_TRUE(cell.rows.empty());
    EXPECT_EQ(cell.id, res.cell.id);
}

TEST_F(FleetFaultTest, FailureUnderClaimingIsMarkedDoneNotRetriedForever)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);
    const std::string dir = freshClaimDir("claimfail");

    int calls = 0;
    auto doomed = [&calls](const Cell &) {
        ++calls;
        throw std::runtime_error("doomed cell");
    };
    DriverOptions opts = claimingOptions(dir, 30'000, "worker-a");
    opts.testCellHook = doomed;
    const auto first = runCells(grid, opts);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_TRUE(first[0].failed);
    EXPECT_EQ(calls, 1);

    // A second worker joining the same session sees the done marker
    // and does not re-run (or hang on) the failed cell.
    DriverOptions again = claimingOptions(dir, 30'000, "worker-b");
    again.testCellHook = doomed;
    const auto second = runCells(grid, again);
    EXPECT_TRUE(second.empty());
    EXPECT_EQ(calls, 1);
}

TEST_F(FleetFaultTest, MalformedDieAfterIsADiagnosticNotNoFault)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);
    const std::string dir = freshClaimDir("baddie");

    // A lenient parse would read "2x" as 2 and "x" as 0 (never die);
    // a malformed value must stop the worker before it touches the
    // claim directory.
    for (const char *bad : {"x", "2x", "-1"}) {
        ::setenv("TSTREAM_CLAIM_DIE_AFTER", bad, 1);
        EXPECT_EXIT(
            (void)runCells(grid, claimingOptions(dir, 30'000, "bad")),
            ::testing::ExitedWithCode(1),
            "TSTREAM_CLAIM_DIE_AFTER wants a non-negative integer")
            << bad;
    }
    ::unsetenv("TSTREAM_CLAIM_DIE_AFTER");
    EXPECT_FALSE(std::filesystem::exists(dir));
}

} // namespace
} // namespace tstream
