#include "util/claim_file.hh"

#include <errno.h>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
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

namespace
{

/** Read the file at @p path whole; false when it cannot be read. */
bool
readWhole(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

/**
 * Hand each `key=value` line of @p text to @p field, up to the first
 * empty line. Returns the offset just past that empty line, or npos
 * when the text has none.
 */
template <typename Field>
std::size_t
forEachField(const std::string &text, Field field)
{
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t nl = text.find('\n', pos);
        const std::string line = text.substr(pos, nl - pos);
        if (line.empty())
            return nl + 1;
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos)
            field(line.substr(0, eq), line.substr(eq + 1));
        if (nl == std::string::npos)
            break;
        pos = nl + 1;
    }
    return std::string::npos;
}

/** FNV-1a: any one changed byte changes the hash, so the `body=`
 *  seal catches every bit flip in a record. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

std::string
bodySeal(const std::string &body)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu %016llx", body.size(),
                  static_cast<unsigned long long>(fnv1a(body)));
    return buf;
}

} // namespace

bool
ClaimDir::readClaim(const std::string &path, ClaimInfo &out)
{
    std::string text;
    if (!readWhole(path, text))
        return false;
    out = ClaimInfo{};
    bool sawOwner = false, sawBeat = false;
    forEachField(text, [&](const std::string &key, const std::string &v) {
        if (key == "owner") {
            out.owner = v;
            sawOwner = true;
        } else if (key == "born") {
            out.bornMs = std::strtoll(v.c_str(), nullptr, 10);
        } else if (key == "beat") {
            out.beatMs = std::strtoll(v.c_str(), nullptr, 10);
            sawBeat = true;
        } else if (key == "pid") {
            out.pid = std::strtol(v.c_str(), nullptr, 10);
        }
    });
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
ClaimDir::markDone(const std::string &key, const std::string &status,
                   const std::string &body, std::string *why)
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
    // A newline in the status would end the header early.
    std::string oneLine = status;
    std::replace(oneLine.begin(), oneLine.end(), '\n', ' ');
    const std::string header = "owner=" + owner_ + "\nstatus=" + oneLine +
                               "\nat=" + std::to_string(now_()) +
                               "\nbody=" + bodySeal(body) + "\n\n";

    const std::string tmp = tempPath(key);
    auto fail = [&](const std::string &what) {
        if (why)
            *why = what + ": " + std::strerror(errno);
        ::unlink(tmp.c_str());
        return false;
    };
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return fail("cannot create " + tmp);
    const bool written =
        std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
        std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
        std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    if (std::fclose(f) != 0 || !written)
        return fail("cannot write " + tmp);
    if (::rename(tmp.c_str(), dest.c_str()) != 0)
        return fail("cannot rename " + tmp + " to " + dest);
    ::unlink(claimPath(key).c_str());
    telemetry::count("claim.done_marks");
    return true;
}

bool
ClaimDir::readDone(const std::string &path, DoneInfo &out)
{
    std::string text;
    if (!readWhole(path, text))
        return false;
    out = DoneInfo{};
    bool sawStatus = false;
    std::string seal;
    const std::size_t body =
        forEachField(text, [&](const std::string &key, const std::string &v) {
            if (key == "owner") {
                out.owner = v;
            } else if (key == "status") {
                out.status = v;
                sawStatus = true;
            } else if (key == "at") {
                out.atMs = std::strtoll(v.c_str(), nullptr, 10);
            } else if (key == "body") {
                seal = v;
            }
        });
    if (body == std::string::npos)
        return false; // the header never ended: truncated
    out.body = text.substr(body);
    return sawStatus && seal == bodySeal(out.body);
}

bool
ClaimDir::done(const std::string &key, std::string *status) const
{
    DoneInfo info;
    if (!readDone(donePath(key), info))
        return false;
    if (status)
        *status = info.status;
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
