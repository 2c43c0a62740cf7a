#include "util/claim_file.hh"

#include <errno.h>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace tstream
{

std::int64_t
wallClockMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

ClaimDir::ClaimDir(Options opts)
    : dir_(std::move(opts.dir)), owner_(std::move(opts.owner)),
      ttlMs_(opts.ttlMs), now_(std::move(opts.now))
{
    if (owner_.empty())
        owner_ = defaultOwner();
    if (!now_)
        now_ = wallClockMs;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
}

std::string
ClaimDir::defaultOwner()
{
    char host[256] = "unknown-host";
    ::gethostname(host, sizeof host - 1);
    host[sizeof host - 1] = '\0';
    char buf[384];
    std::snprintf(buf, sizeof buf, "%s-%ld-%lld", host,
                  static_cast<long>(::getpid()),
                  static_cast<long long>(wallClockMs()));
    return buf;
}

std::string
ClaimDir::sanitizeKey(std::string_view key)
{
    std::string out;
    out.reserve(key.size());
    for (char c : key) {
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' ||
                          c == '_' || c == '.';
        out += safe ? c : '-';
    }
    return out;
}

std::string
ClaimDir::claimPath(const std::string &key) const
{
    return dir_ + "/" + key + ".claim";
}

std::string
ClaimDir::donePath(const std::string &key) const
{
    return dir_ + "/" + key + ".done";
}

std::string
ClaimDir::tempPath(const std::string &key)
{
    // Unique per (process, thread, call): concurrent threads share one
    // ClaimDir, so the owner id alone is not enough, and forked
    // processes start with the same thread id and a fresh counter.
    const std::uint64_t seq =
        seq_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0xffffff;
    char suffix[80];
    std::snprintf(suffix, sizeof suffix, ".tmp.%lx.%llx.%llx",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(tid),
                  static_cast<unsigned long long>(seq));
    return dir_ + "/" + key + suffix;
}

bool
ClaimDir::writeClaimFile(const std::string &tmp, std::int64_t bornMs,
                         std::int64_t beatMs) const
{
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "owner=%s\nborn=%lld\nbeat=%lld\npid=%ld\n",
                 owner_.c_str(), static_cast<long long>(bornMs),
                 static_cast<long long>(beatMs),
                 static_cast<long>(::getpid()));
    const bool ok = std::fflush(f) == 0;
    std::fclose(f);
    return ok;
}

bool
ClaimDir::readClaim(const std::string &path, ClaimInfo &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out = ClaimInfo{};
    char line[512];
    bool sawOwner = false, sawBeat = false;
    while (std::fgets(line, sizeof line, f)) {
        char *nl = std::strchr(line, '\n');
        if (nl)
            *nl = '\0';
        if (std::strncmp(line, "owner=", 6) == 0) {
            out.owner = line + 6;
            sawOwner = true;
        } else if (std::strncmp(line, "born=", 5) == 0) {
            out.bornMs = std::strtoll(line + 5, nullptr, 10);
        } else if (std::strncmp(line, "beat=", 5) == 0) {
            out.beatMs = std::strtoll(line + 5, nullptr, 10);
            sawBeat = true;
        } else if (std::strncmp(line, "pid=", 4) == 0) {
            out.pid = std::strtol(line + 4, nullptr, 10);
        }
    }
    std::fclose(f);
    return sawOwner && sawBeat;
}

ClaimDir::Outcome
ClaimDir::tryClaim(const std::string &key, std::string *why)
{
    const Outcome out = tryClaimImpl(key, why);
    switch (out) {
    case Outcome::Claimed:
        telemetry::count("claim.wins");
        break;
    case Outcome::Held:
        telemetry::count("claim.held");
        break;
    case Outcome::Done:
        telemetry::count("claim.done_seen");
        break;
    case Outcome::Error:
        telemetry::count("claim.errors");
        break;
    }
    return out;
}

ClaimDir::Outcome
ClaimDir::tryClaimImpl(const std::string &key, std::string *why)
{
    const std::string claim = claimPath(key);
    if (done(key))
        return Outcome::Done;

    // One claim attempt: write a fully formed temp file, then link it
    // onto the claim name — link(2) refuses an existing target, so of
    // N racers exactly one succeeds.
    auto attempt = [&]() -> Outcome {
        const std::int64_t now = now_();
        const std::string tmp = tempPath(key);
        if (!writeClaimFile(tmp, now, now)) {
            if (why)
                *why = "cannot write " + tmp + ": " +
                       std::strerror(errno);
            return Outcome::Error;
        }
        const int rc = ::link(tmp.c_str(), claim.c_str());
        const int linkErrno = errno;
        ::unlink(tmp.c_str());
        if (rc == 0) {
            // Re-check the done marker AFTER winning: markDone()
            // publishes the marker before unlinking the claim, so a
            // win against a name another worker just released-as-done
            // always sees the marker here — without this, a racer
            // whose pre-check ran before the marker appeared would
            // re-execute a finished cell.
            if (done(key)) {
                ::unlink(claim.c_str());
                telemetry::count("claim.done_recheck_races");
                return Outcome::Done;
            }
            return Outcome::Claimed;
        }
        if (linkErrno == EEXIST)
            return Outcome::Held;
        if (why)
            *why = "cannot link " + claim + ": " +
                   std::strerror(linkErrno);
        return Outcome::Error;
    };

    Outcome out = attempt();
    if (out != Outcome::Held)
        return out;

    // Someone holds it. Stale (no heartbeat within the TTL)? Steal it
    // exactly-once: rename the stale file to a worker-unique tomb —
    // only one of N simultaneous stealers finds the source present —
    // then re-run the normal claim. A fresh claim racing in between
    // is fine: our link attempt just loses again.
    ClaimInfo info;
    auto stale = [&] {
        if (!readClaim(claim, info))
            return false; // vanished (owner finished/released)
        if (info.owner == owner_)
            return false; // our own live claim (double tryClaim)
        return now_() - info.beatMs > ttlMs_;
    };
    if (!stale())
        return Outcome::Held;

    // The rename moves whatever file holds the claim name, so a
    // stealer that judged the old claim stale must not rename after
    // another stealer has already linked its fresh claim there.
    // Stealers of one key therefore take an advisory lock and judge
    // staleness again under it. flock() is dropped with the
    // descriptor, so a stealer that dies mid-steal cannot wedge the
    // key; a busy lock means another stealer is already at it.
    const std::string lockPath = claim + ".steal";
    const int lock =
        ::open(lockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (lock < 0) {
        if (why)
            *why = "cannot open " + lockPath + ": " +
                   std::strerror(errno);
        return Outcome::Error;
    }
    if (::flock(lock, LOCK_EX | LOCK_NB) != 0 || !stale()) {
        ::close(lock);
        return Outcome::Held;
    }
    const std::int64_t beatAge = now_() - info.beatMs;

    const std::string tomb = tempPath(key) + ".tomb";
    if (::rename(claim.c_str(), tomb.c_str()) != 0) {
        ::close(lock);
        return Outcome::Held; // the owner finished meanwhile
    }
    ::unlink(tomb.c_str());
    telemetry::count("claim.steals");
    logf(LogLevel::Info,
         "claim %s: stole stale claim from %s (beat age %lldms > "
         "ttl %lldms)",
         key.c_str(), info.owner.c_str(),
         static_cast<long long>(beatAge),
         static_cast<long long>(ttlMs_));
    out = attempt();
    ::close(lock);
    return out;
}

bool
ClaimDir::heartbeat(const std::string &key)
{
    const std::string claim = claimPath(key);
    ClaimInfo info;
    if (!readClaim(claim, info)) {
        telemetry::count("claim.heartbeats_lost");
        return false; // released, or done and unlinked
    }
    if (info.owner != owner_) {
        // The documented resurrection hole, caught in the act: this
        // worker held the claim, stalled past the TTL, and someone
        // stole it — or our own earlier heartbeat resurrected a claim
        // the new owner had stolen and they have since re-beaten it.
        // Either way the cell is now (or was) running twice; merging
        // stays correct because duplicate cells must be bit-identical.
        telemetry::count("claim.resurrections");
        logf(LogLevel::Warn,
             "claim %s: owner changed to %s under us (our beat was "
             "%lldms ago) — stale-owner resurrection race; this cell "
             "may execute twice",
             key.c_str(), info.owner.c_str(),
             static_cast<long long>(now_() - info.beatMs));
        return false;
    }
    const std::string tmp = tempPath(key);
    if (!writeClaimFile(tmp, info.bornMs, now_()))
        return false;
    if (::rename(tmp.c_str(), claim.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    telemetry::count("claim.heartbeats");
    return true;
}

bool
ClaimDir::markDone(const std::string &key, const std::string &status)
{
    const std::string dest = donePath(key);
    DoneInfo prev;
    if (readDone(dest, prev) && prev.owner != owner_) {
        // Downstream symptom of the resurrection hole: two owners
        // finished the same cell. Harmless for results (merge accepts
        // only bit-identical duplicates) but worth counting — it is
        // pure wasted work.
        telemetry::count("claim.double_done");
        logf(LogLevel::Warn,
             "claim %s: done marker by %s already present when %s "
             "finished — cell executed twice",
             key.c_str(), prev.owner.c_str(), owner_.c_str());
    }
    const std::string tmp = tempPath(key);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "owner=%s\nstatus=%s\nat=%lld\n", owner_.c_str(),
                 status.c_str(),
                 static_cast<long long>(now_()));
    std::fclose(f);
    if (::rename(tmp.c_str(), dest.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    ::unlink(claimPath(key).c_str());
    telemetry::count("claim.done_marks");
    return true;
}

bool
ClaimDir::readDone(const std::string &path, DoneInfo &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out = DoneInfo{};
    char line[512];
    bool sawStatus = false;
    while (std::fgets(line, sizeof line, f)) {
        char *nl = std::strchr(line, '\n');
        if (nl)
            *nl = '\0';
        if (std::strncmp(line, "owner=", 6) == 0) {
            out.owner = line + 6;
        } else if (std::strncmp(line, "status=", 7) == 0) {
            out.status = line + 7;
            sawStatus = true;
        } else if (std::strncmp(line, "at=", 3) == 0) {
            out.atMs = std::strtoll(line + 3, nullptr, 10);
        }
    }
    std::fclose(f);
    return sawStatus;
}

bool
ClaimDir::done(const std::string &key, std::string *status) const
{
    std::FILE *f = std::fopen(donePath(key).c_str(), "rb");
    if (!f)
        return false;
    if (status) {
        status->clear();
        char line[512];
        while (std::fgets(line, sizeof line, f)) {
            char *nl = std::strchr(line, '\n');
            if (nl)
                *nl = '\0';
            if (std::strncmp(line, "status=", 7) == 0)
                *status = line + 7;
        }
    }
    std::fclose(f);
    return true;
}

bool
ClaimDir::release(const std::string &key)
{
    const std::string claim = claimPath(key);
    ClaimInfo info;
    if (!readClaim(claim, info) || info.owner != owner_)
        return false;
    return ::unlink(claim.c_str()) == 0;
}

} // namespace tstream
