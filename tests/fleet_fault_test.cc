/**
 * @file
 * Fault-injection tests for the dynamic-claiming driver path
 * (sim/driver.hh + util/claim_file.hh): a worker process SIGKILLed
 * mid-cell (after winning its first claim, via
 * TSTREAM_CLAIM_DIE_AFTER) leaves a stale claim that a surviving
 * worker reclaims after the TTL so the sweep still completes and
 * matches an unsharded run; a throwing cell hook exercises
 * retry-then-success; exhausted retries become a structured failure
 * row that survives makeBenchCell().
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/bench_report.hh"
#include "sim/driver.hh"

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
    // worker's cell, and the results match an unsharded run.
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

TEST_F(FleetFaultTest, ThrowingHookRetriesThenSucceeds)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1); // multi-chip cell only

    DriverOptions opts;
    opts.jobs = 1;
    opts.retry.maxAttempts = 3;
    opts.retry.backoffBaseMs = 1; // keep the retry sleep negligible
    opts.testCellHook = [](const Cell &, unsigned attempt) {
        if (attempt == 1)
            throw std::runtime_error("injected transient fault");
    };

    const auto results = runCells(grid, opts);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_FALSE(results[0].runs().empty());
}

TEST_F(FleetFaultTest, ExhaustedRetriesBecomeFailureRow)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);

    DriverOptions opts;
    opts.jobs = 1;
    opts.retry.maxAttempts = 2;
    opts.retry.backoffBaseMs = 1;
    opts.testCellHook = [](const Cell &, unsigned) {
        throw std::runtime_error("persistent fault");
    };

    const auto results = runCells(grid, opts);
    ASSERT_EQ(results.size(), 1u);
    const CellResult &res = results[0];
    EXPECT_TRUE(res.failed);
    EXPECT_EQ(res.attempts, 2u);
    EXPECT_EQ(res.failureCause, "exception: persistent fault");
    EXPECT_TRUE(res.runs().empty());
    EXPECT_GE(res.wallSeconds, 0.0);

    // The failure travels into the report cell unchanged, with no
    // table rows attached.
    const BenchCell cell = makeBenchCell(res, {});
    EXPECT_TRUE(cell.failed);
    EXPECT_EQ(cell.failureCause, "exception: persistent fault");
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_TRUE(cell.rows.empty());
    EXPECT_EQ(cell.id, res.cell.id);
}

TEST_F(FleetFaultTest, FailureUnderClaimingIsMarkedDoneNotRetriedForever)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);
    const std::string dir = freshClaimDir("claimfail");

    DriverOptions opts = claimingOptions(dir, 30'000, "worker-a");
    opts.retry.maxAttempts = 1;
    opts.testCellHook = [](const Cell &, unsigned) {
        throw std::runtime_error("doomed cell");
    };
    const auto first = runCells(grid, opts);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_TRUE(first[0].failed);

    // A second worker joining the same session sees the done marker
    // and does not re-run (or hang on) the failed cell.
    DriverOptions again = claimingOptions(dir, 30'000, "worker-b");
    const auto second = runCells(grid, again);
    EXPECT_TRUE(second.empty());
}

} // namespace
} // namespace tstream
