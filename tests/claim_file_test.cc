/**
 * @file
 * Tests for the atomic claim-file protocol (util/claim_file.hh) — the
 * work-distribution primitive behind `tstream-bench run --fleet`.
 *
 * Two filesystem assumptions are load-bearing and get dedicated
 * coverage ON THE FILESYSTEM THE TESTS RUN ON (locally and in CI):
 *
 *  - `link(2)` refuses an existing target atomically, so of N racers
 *    creating one claim exactly one wins (LinkIsExclusive, the race
 *    tests);
 *  - `rename(2)` of a single source by N racers succeeds for exactly
 *    one (the others get ENOENT), so a stale claim is stolen
 *    exactly-once (RenameStealIsExclusive).
 *
 * The exact-cover stress (threads inside one process and forked
 * processes racing on one claim directory, fixed-seed shuffled key
 * orders, >= 1000 claim attempts) asserts the protocol's core
 * guarantee: every cell claimed exactly once, no double execution.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hh"
#include "util/claim_file.hh"

namespace tstream
{
namespace
{

std::string
freshDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "/tstream_claim_" + tag +
                      "_" + std::to_string(::getpid());
    std::string cmd = "rm -rf '" + dir + "'";
    std::system(cmd.c_str());
    return dir;
}

// ---- the filesystem assumptions --------------------------------------------

TEST(ClaimAtomicity, LinkIsExclusive)
{
    const std::string dir = freshDir("link");
    ::mkdir(dir.c_str(), 0755);
    const std::string src1 = dir + "/a", src2 = dir + "/b";
    const std::string target = dir + "/claim";
    for (const std::string &p : {src1, src2}) {
        std::FILE *f = std::fopen(p.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fclose(f);
    }
    ASSERT_EQ(::link(src1.c_str(), target.c_str()), 0);
    // The second link onto the same name must fail with EEXIST — this
    // is what makes a claim a claim. rename() would NOT fail here
    // (it silently replaces), which is why claims never use rename.
    errno = 0;
    EXPECT_NE(::link(src2.c_str(), target.c_str()), 0);
    EXPECT_EQ(errno, EEXIST);
}

TEST(ClaimAtomicity, RenameStealIsExclusive)
{
    // N threads race to rename ONE source to distinct tombs; the
    // steal path relies on exactly one winning.
    const std::string dir = freshDir("rename");
    ::mkdir(dir.c_str(), 0755);
    const std::string src = dir + "/stale.claim";
    std::FILE *f = std::fopen(src.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);

    constexpr int kRacers = 8;
    std::atomic<int> wins{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < kRacers; ++i)
        threads.emplace_back([&, i] {
            const std::string tomb =
                dir + "/tomb." + std::to_string(i);
            while (!go.load())
                std::this_thread::yield();
            if (::rename(src.c_str(), tomb.c_str()) == 0)
                wins.fetch_add(1);
        });
    go.store(true);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(wins.load(), 1);
}

// ---- basic protocol ---------------------------------------------------------

TEST(ClaimDirTest, ClaimHeldDoneLifecycle)
{
    ClaimDir::Options a;
    a.dir = freshDir("lifecycle");
    a.owner = "worker-a";
    ClaimDir da(a);
    ClaimDir::Options b = a;
    b.owner = "worker-b";
    ClaimDir db(b);

    EXPECT_EQ(da.tryClaim("cell-0"), ClaimDir::Outcome::Claimed);
    EXPECT_EQ(db.tryClaim("cell-0"), ClaimDir::Outcome::Held);
    // Re-claiming one's own live claim is Held, not Claimed: the
    // caller must not run the cell twice.
    EXPECT_EQ(da.tryClaim("cell-0"), ClaimDir::Outcome::Held);

    EXPECT_TRUE(da.markDone("cell-0", "ok"));
    std::string status;
    EXPECT_TRUE(db.done("cell-0", &status));
    EXPECT_EQ(status, "ok");
    EXPECT_EQ(db.tryClaim("cell-0"), ClaimDir::Outcome::Done);
    EXPECT_EQ(da.tryClaim("cell-0"), ClaimDir::Outcome::Done);
}

TEST(ClaimDirTest, FailedStatusRoundTrips)
{
    ClaimDir::Options o;
    o.dir = freshDir("failed");
    o.owner = "worker-a";
    ClaimDir d(o);
    ASSERT_EQ(d.tryClaim("k"), ClaimDir::Outcome::Claimed);
    ASSERT_TRUE(d.markDone("k", "failed:timeout after 500ms"));
    std::string status;
    ASSERT_TRUE(d.done("k", &status));
    EXPECT_EQ(status, "failed:timeout after 500ms");
}

TEST(ClaimDirTest, ReleaseMakesClaimableAgain)
{
    ClaimDir::Options a;
    a.dir = freshDir("release");
    a.owner = "worker-a";
    ClaimDir da(a);
    ClaimDir::Options b = a;
    b.owner = "worker-b";
    ClaimDir db(b);

    ASSERT_EQ(da.tryClaim("k"), ClaimDir::Outcome::Claimed);
    EXPECT_FALSE(db.release("k")); // not the owner
    EXPECT_TRUE(da.release("k"));
    EXPECT_EQ(db.tryClaim("k"), ClaimDir::Outcome::Claimed);
}

TEST(ClaimDirTest, SanitizeKey)
{
    EXPECT_EQ(ClaimDir::sanitizeKey("oltp/single-chip"),
              "oltp-single-chip");
    EXPECT_EQ(ClaimDir::sanitizeKey("a b\tc"), "a-b-c");
    EXPECT_EQ(ClaimDir::sanitizeKey("ok_1.2-x"), "ok_1.2-x");
}

// ---- staleness / steal (fake clock, no sleeps) -----------------------------

TEST(ClaimDirTest, StaleClaimIsStolenAfterTtl)
{
    const std::string dir = freshDir("stale");
    std::int64_t now = 1'000'000;
    auto clock = [&now] { return now; };

    ClaimDir::Options a;
    a.dir = dir;
    a.owner = "dead-worker";
    a.ttlMs = 1000;
    a.now = clock;
    ClaimDir da(a);
    ClaimDir::Options b = a;
    b.owner = "live-worker";
    ClaimDir db(b);

    ASSERT_EQ(da.tryClaim("cell-3"), ClaimDir::Outcome::Claimed);
    // Within the TTL the claim is respected...
    now += 999;
    EXPECT_EQ(db.tryClaim("cell-3"), ClaimDir::Outcome::Held);
    // ...heartbeats extend it...
    ASSERT_TRUE(da.heartbeat("cell-3"));
    now += 999;
    EXPECT_EQ(db.tryClaim("cell-3"), ClaimDir::Outcome::Held);
    // ...and once the last beat ages past the TTL it is stolen.
    now += 2;
    EXPECT_EQ(db.tryClaim("cell-3"), ClaimDir::Outcome::Claimed);
    // The previous owner notices the loss on its next heartbeat.
    EXPECT_FALSE(da.heartbeat("cell-3"));
    EXPECT_TRUE(db.markDone("cell-3", "ok"));
}

TEST(ClaimDirTest, OnlyOneStealerWinsAStaleClaim)
{
    const std::string dir = freshDir("stealrace");
    std::int64_t now = 0;
    auto clock = [&now] { return now; };

    ClaimDir::Options dead;
    dead.dir = dir;
    dead.owner = "dead";
    dead.ttlMs = 10;
    dead.now = clock;
    ClaimDir dd(dead);
    ASSERT_EQ(dd.tryClaim("k"), ClaimDir::Outcome::Claimed);
    now = 1'000; // well past the TTL

    constexpr int kStealers = 8;
    std::vector<std::unique_ptr<ClaimDir>> stealers;
    for (int i = 0; i < kStealers; ++i) {
        ClaimDir::Options o;
        o.dir = dir;
        o.owner = "stealer-" + std::to_string(i);
        o.ttlMs = 10;
        o.now = clock;
        stealers.push_back(std::make_unique<ClaimDir>(o));
    }
    std::atomic<int> claimed{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < kStealers; ++i)
        threads.emplace_back([&, i] {
            while (!go.load())
                std::this_thread::yield();
            if (stealers[i]->tryClaim("k") ==
                ClaimDir::Outcome::Claimed)
                claimed.fetch_add(1);
        });
    go.store(true);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(claimed.load(), 1);
}

// ---- exact-cover races ------------------------------------------------------

/** Claim every key of @p keys in a fixed-seed shuffled order, mark
 *  each win done, and return the number of wins + attempts made. */
std::pair<int, int>
drainKeys(ClaimDir &d, std::vector<std::string> keys, unsigned seed)
{
    std::mt19937 rng(seed);
    std::shuffle(keys.begin(), keys.end(), rng);
    int wins = 0, attempts = 0;
    for (const std::string &k : keys) {
        ++attempts;
        if (d.tryClaim(k) == ClaimDir::Outcome::Claimed) {
            ++wins;
            EXPECT_TRUE(d.markDone(k, "ok"));
        }
    }
    return {wins, attempts};
}

TEST(ClaimRaceTest, ThreadsCoverEveryKeyExactlyOnce)
{
    const std::string dir = freshDir("threads");
    constexpr int kThreads = 4;
    constexpr int kKeys = 300; // 4 threads x 300 keys = 1200 attempts
    std::vector<std::string> keys;
    for (int i = 0; i < kKeys; ++i)
        keys.push_back("cell-" + std::to_string(i));

    std::vector<std::unique_ptr<ClaimDir>> dirs;
    for (int t = 0; t < kThreads; ++t) {
        ClaimDir::Options o;
        o.dir = dir;
        o.owner = "thread-" + std::to_string(t);
        dirs.push_back(std::make_unique<ClaimDir>(o));
    }
    std::vector<int> wins(kThreads, 0);
    std::atomic<int> attempts{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            auto [w, a] = drainKeys(*dirs[t], keys, 1234 + t);
            wins[t] = w;
            attempts.fetch_add(a);
        });
    for (std::thread &t : threads)
        t.join();

    int total = 0;
    for (int w : wins)
        total += w;
    EXPECT_EQ(total, kKeys); // exact cover: no loss, no double-claim
    EXPECT_GE(attempts.load(), 1000);
    ClaimDir::Options o;
    o.dir = dir;
    o.owner = "checker";
    ClaimDir checker(o);
    for (const std::string &k : keys)
        EXPECT_TRUE(checker.done(k)) << k;
}

TEST(ClaimRaceTest, ProcessesCoverEveryKeyExactlyOnce)
{
    const std::string dir = freshDir("procs");
    constexpr int kProcs = 4;
    constexpr int kKeys = 300;
    std::vector<std::string> keys;
    for (int i = 0; i < kKeys; ++i)
        keys.push_back("cell-" + std::to_string(i));

    // Each forked child drains the key set in its own shuffled order
    // and writes its win count to its pipe; exact cover means the
    // counts sum to kKeys across the processes (the claim directory
    // is the only shared state). A pipe, not the exit status: one
    // child may win nearly every key before the others start, and an
    // exit status stops at 255. A child exits nonzero when one of its
    // own checks failed.
    std::vector<pid_t> pids;
    std::vector<int> counts;
    for (int p = 0; p < kProcs; ++p) {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(fds[0]);
            ClaimDir::Options o;
            o.dir = dir;
            o.owner = "proc-" + std::to_string(::getpid());
            ClaimDir d(o);
            auto [w, a] = drainKeys(d, keys, 99 + p);
            (void)a;
            const bool sent = ::write(fds[1], &w, sizeof w) == sizeof w;
            ::_exit(sent && !::testing::Test::HasFailure() ? 0 : 1);
        }
        ::close(fds[1]);
        pids.push_back(pid);
        counts.push_back(fds[0]);
    }
    int total = 0;
    for (int p = 0; p < kProcs; ++p) {
        int w = 0;
        EXPECT_EQ(::read(counts[p], &w, sizeof w),
                  static_cast<ssize_t>(sizeof w));
        ::close(counts[p]);
        int status = 0;
        ASSERT_EQ(::waitpid(pids[p], &status, 0), pids[p]);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "child " << p;
        total += w;
    }
    EXPECT_EQ(total, kKeys);
    ClaimDir::Options o;
    o.dir = dir;
    o.owner = "checker";
    ClaimDir checker(o);
    for (const std::string &k : keys)
        EXPECT_TRUE(checker.done(k)) << k;
}

// ---- the resurrection hole, made visible -----------------------------------
// An owner that stalls past the TTL and then heartbeats collides with
// the thief. The protocol tolerates the double execution (merge
// accepts bit-identical duplicates); telemetry must make it count.

TEST(ClaimDirTest, ResurrectionRaceIsCountedNotSilent)
{
    telemetry::enable(""); // in-memory
    telemetry::reset();

    const std::string dir = freshDir("resurrect");
    std::int64_t now = 0;
    auto clock = [&now] { return now; };

    ClaimDir::Options a;
    a.dir = dir;
    a.owner = "stalled-owner";
    a.ttlMs = 1000;
    a.now = clock;
    ClaimDir da(a);
    ClaimDir::Options b = a;
    b.owner = "thief";
    ClaimDir db(b);

    ASSERT_EQ(da.tryClaim("cell-9"), ClaimDir::Outcome::Claimed);
    EXPECT_EQ(telemetry::counterValue("claim.wins"), 1u);

    // The owner stalls past the TTL; the thief steals the claim.
    now += 1001;
    ASSERT_EQ(db.tryClaim("cell-9"), ClaimDir::Outcome::Claimed);
    EXPECT_EQ(telemetry::counterValue("claim.steals"), 1u);

    // The stalled owner wakes and heartbeats: it must observe the
    // loss (return false) and count the resurrection race.
    EXPECT_FALSE(da.heartbeat("cell-9"));
    EXPECT_EQ(telemetry::counterValue("claim.resurrections"), 1u);

    // The thief's heartbeat still works — its ownership is intact.
    EXPECT_TRUE(db.heartbeat("cell-9"));
    EXPECT_GE(telemetry::counterValue("claim.heartbeats"), 1u);

    telemetry::disable();
}

TEST(ClaimDirTest, DoubleDoneIsCounted)
{
    telemetry::enable("");
    telemetry::reset();

    const std::string dir = freshDir("doubledone");
    std::int64_t now = 0;
    auto clock = [&now] { return now; };

    ClaimDir::Options a;
    a.dir = dir;
    a.owner = "stalled-owner";
    a.ttlMs = 1000;
    a.now = clock;
    ClaimDir da(a);
    ClaimDir::Options b = a;
    b.owner = "thief";
    ClaimDir db(b);

    ASSERT_EQ(da.tryClaim("cell-2"), ClaimDir::Outcome::Claimed);
    now += 1001;
    ASSERT_EQ(db.tryClaim("cell-2"), ClaimDir::Outcome::Claimed);

    // Both finish the cell: the thief first, then the resurrected
    // owner overwrites the marker — the downstream symptom of the
    // hole, counted as claim.double_done.
    ASSERT_TRUE(db.markDone("cell-2", "ok"));
    EXPECT_EQ(telemetry::counterValue("claim.double_done"), 0u);
    ASSERT_TRUE(da.markDone("cell-2", "ok"));
    EXPECT_EQ(telemetry::counterValue("claim.double_done"), 1u);

    telemetry::disable();
}

TEST(ClaimDirTest, DoneMarkerCarriesCompletionStamp)
{
    const std::string dir = freshDir("doneat");
    std::int64_t now = 123'456;
    auto clock = [&now] { return now; };

    ClaimDir::Options o;
    o.dir = dir;
    o.owner = "worker-a";
    o.now = clock;
    ClaimDir d(o);
    ASSERT_EQ(d.tryClaim("k"), ClaimDir::Outcome::Claimed);
    now = 130'000;
    ASSERT_TRUE(d.markDone("k", "ok"));

    DoneInfo info;
    ASSERT_TRUE(ClaimDir::readDone(
        dir + "/" + ClaimDir::sanitizeKey("k") + ".done", info));
    EXPECT_EQ(info.owner, "worker-a");
    EXPECT_EQ(info.status, "ok");
    EXPECT_EQ(info.atMs, 130'000); // `tstream-bench status` ETA input
}

} // namespace
} // namespace tstream
