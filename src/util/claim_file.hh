/**
 * @file
 * Atomic claim files — the work-distribution primitive behind the
 * fleet experiment fabric (sim/driver.hh, `tstream-bench run
 * --fleet`).
 *
 * A *claim directory* holds one small file per unit of work (a grid
 * cell). Heterogeneous workers — threads inside one process, and
 * processes on any machine sharing the directory — race to claim
 * units; the protocol guarantees every unit is claimed by exactly one
 * live owner:
 *
 *  - **Claim** = `link(2)` of a fully written temp file onto
 *    `<key>.claim`. POSIX `link` fails with EEXIST when the target
 *    exists, so of N racers exactly one wins; the losers see Held.
 *    (This is the classic lock-file protocol; `rename(2)` is NOT used
 *    to create claims because rename silently replaces an existing
 *    target.)
 *  - **Heartbeat** = the owner periodically rewrites its claim file
 *    (temp + rename, atomic replace) with a fresh `beat` timestamp.
 *  - **Steal** = when a claim's `beat` is older than the TTL, any
 *    worker may reclaim it. The steal is made exactly-once by first
 *    renaming the stale claim file to a worker-unique tomb name —
 *    `rename` with a vanished source fails with ENOENT, so of N
 *    simultaneous stealers exactly one wins — and only the winner
 *    then re-runs the normal link-claim. Stealers of one key first
 *    take a non-blocking `flock(2)` on `<key>.claim.steal` and judge
 *    staleness again under it, so a late stealer cannot rename away
 *    the fresh claim an earlier stealer linked in the stale one's
 *    place. The lock file stays behind; the lock itself is dropped
 *    with its descriptor, even when the stealer dies.
 *  - **Done** = the owner publishes completion by writing
 *    `<key>.done` (temp + rename) carrying an `ok` or
 *    `failed:<cause>` status; other workers drop the unit instead of
 *    waiting on the claim. The marker is published strictly BEFORE
 *    the claim file is unlinked, and a claim win re-checks the marker
 *    after linking — a racer that wins the name of a
 *    just-released-as-done unit therefore always observes Done
 *    instead of re-executing the cell.
 *
 * Two assumptions are load-bearing and covered by tests
 * (tests/claim_file_test.cc): `link` refuses an existing target
 * atomically, and `rename` of one source by many racers succeeds for
 * exactly one. Both hold on local POSIX filesystems (ext4, tmpfs,
 * xfs, apfs) — the CI filesystem is exercised by the same tests. On
 * NFS, `link` is atomic but close-to-open caching can delay another
 * client's view of `done` markers; the protocol stays correct (a
 * stale view only causes a redundant claim attempt, which `link`
 * rejects), and Linux clients carry the steal `flock` as a
 * whole-file lock the server arbitrates.
 *
 * The one unavoidable hole: an owner that stalls longer than the TTL
 * and then heartbeats can resurrect a claim another worker already
 * stole, so one cell may execute twice. The experiment fabric is safe
 * against that by construction — cells are deterministic and report
 * merging (sim/bench_report.hh) accepts duplicate cells only when
 * they are bit-identical — so the TTL bounds wasted work, not
 * correctness. The hole is no longer silent, though: heartbeat()
 * detecting a foreign owner bumps the `claim.resurrections` telemetry
 * counter and WARN-logs the collision, and markDone() over an
 * existing marker (the downstream symptom — the cell really did run
 * twice) bumps `claim.double_done` (docs/OBSERVABILITY.md).
 *
 * The clock is injectable so staleness/steal logic is unit-testable
 * without real sleeps.
 */

#ifndef TSTREAM_UTIL_CLAIM_FILE_HH
#define TSTREAM_UTIL_CLAIM_FILE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace tstream
{

/** Parsed contents of a claim file. */
struct ClaimInfo
{
    std::string owner;
    std::int64_t bornMs = 0; ///< claim creation (owner's clock)
    std::int64_t beatMs = 0; ///< last heartbeat (owner's clock)
    long pid = 0;
};

/** Parsed contents of a done marker. */
struct DoneInfo
{
    std::string owner;
    std::string status;     ///< "ok" or "failed:<cause>"
    std::int64_t atMs = 0;  ///< completion time (owner's clock);
                            ///< 0 in markers from older writers
};

/** Milliseconds on the system wall clock (the default claim clock). */
std::int64_t wallClockMs();

class ClaimDir
{
  public:
    struct Options
    {
        std::string dir;   ///< claim directory; created if missing
        std::string owner; ///< unique owner id; "" = defaultOwner()
        /** A claim whose last beat is older than this is stale and
         *  may be stolen. */
        std::int64_t ttlMs = 30'000;
        /** Injectable millisecond clock (tests); null = wallClockMs. */
        std::function<std::int64_t()> now;
    };

    /** Outcome of one claim attempt. */
    enum class Outcome
    {
        Claimed, ///< this worker now owns the unit — run it
        Held,    ///< a live owner holds it — skip, maybe revisit
        Done,    ///< already completed (ok or failed) — drop it
        Error,   ///< filesystem error (claim dir unusable)
    };

    explicit ClaimDir(Options opts);

    /**
     * Try to claim @p key. Steals the claim first when it is stale
     * (heartbeat older than ttlMs). On Error @p why (if non-null)
     * describes the failure.
     */
    Outcome tryClaim(const std::string &key, std::string *why = nullptr);

    /**
     * Refresh the beat timestamp of a claim this worker owns.
     * Returns false when the claim no longer exists or is owned by
     * someone else (it was stolen) — the caller keeps running (see
     * the double-execution note above) but can log the loss.
     */
    bool heartbeat(const std::string &key);

    /**
     * Publish completion of @p key with @p status ("ok" or
     * "failed:<cause>") and remove the claim file. Atomic: a reader
     * either sees no done marker or the full one.
     */
    bool markDone(const std::string &key, const std::string &status);

    /** True when a done marker exists; @p status receives its body. */
    bool done(const std::string &key,
              std::string *status = nullptr) const;

    /** Drop this worker's claim without a done marker (the unit
     *  becomes immediately claimable by anyone). */
    bool release(const std::string &key);

    const std::string &
    owner() const
    {
        return owner_;
    }

    const std::string &
    dir() const
    {
        return dir_;
    }

    /** "<hostname>-<pid>-<boot ms>": unique across the fleet for any
     *  realistic pid-reuse window. */
    static std::string defaultOwner();

    /** Replace filesystem-hostile characters ('/', spaces, ...) so a
     *  cell id can serve as a claim key. */
    static std::string sanitizeKey(std::string_view key);

    /** Parse a claim file; false when absent or malformed. */
    static bool readClaim(const std::string &path, ClaimInfo &out);

    /** Parse a done marker; false when absent or malformed. Used by
     *  `tstream-bench status` to render completions with timestamps. */
    static bool readDone(const std::string &path, DoneInfo &out);

  private:
    Outcome tryClaimImpl(const std::string &key, std::string *why);
    std::string claimPath(const std::string &key) const;
    std::string donePath(const std::string &key) const;
    std::string tempPath(const std::string &key);
    bool writeClaimFile(const std::string &tmp, std::int64_t bornMs,
                        std::int64_t beatMs) const;

    std::string dir_;
    std::string owner_;
    std::int64_t ttlMs_;
    std::function<std::int64_t()> now_;
    std::atomic<std::uint64_t> seq_{0}; ///< temp-name uniquifier
};

} // namespace tstream

#endif // TSTREAM_UTIL_CLAIM_FILE_HH
