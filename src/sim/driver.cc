#include "sim/driver.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/telemetry.hh"
#include "trace/trace_io.hh"
#include "util/claim_file.hh"
#include "util/logging.hh"
#include "util/work_pool.hh"

namespace tstream
{

std::string_view
traceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::MultiChip: return "multi-chip";
      case TraceKind::SingleChip: return "single-chip";
      case TraceKind::IntraChip: return "intra-chip";
    }
    return "?";
}

bool
parseShardSpec(std::string_view text, ShardSpec &out)
{
    // Both numbers must fill all of their text and fit an unsigned.
    const char *end = text.data() + text.size();
    unsigned k = 0;
    unsigned n = 0;
    const auto kr = std::from_chars(text.data(), end, k);
    if (kr.ec != std::errc() || kr.ptr == end || *kr.ptr != '/')
        return false;
    const auto nr = std::from_chars(kr.ptr + 1, end, n);
    if (nr.ec != std::errc() || nr.ptr != end || n == 0 || k >= n)
        return false;
    out.index = k;
    out.count = n;
    return true;
}

std::vector<Cell>
standardGrid(const std::vector<WorkloadKind> &workloads,
             const BenchBudgets &budgets)
{
    std::vector<Cell> grid;
    grid.reserve(workloads.size() * 2);
    for (WorkloadKind w : workloads) {
        for (SystemContext ctx :
             {SystemContext::MultiChip, SystemContext::SingleChip}) {
            Cell c;
            c.index = grid.size();
            c.cfg.workload = w;
            c.cfg.context = ctx;
            c.cfg.warmupInstructions = budgets.warmup;
            c.cfg.measureInstructions = budgets.measure;
            c.cfg.scale = budgets.scale;
            c.id = std::string(workloadName(w)) + "/" +
                   std::string(contextName(ctx));
            grid.push_back(std::move(c));
        }
    }
    return grid;
}

std::vector<Cell>
shardCells(const std::vector<Cell> &grid, const ShardSpec &shard)
{
    std::vector<Cell> mine;
    for (const Cell &c : grid)
        if (shard.owns(c.index))
            mine.push_back(c);
    return mine;
}

const std::vector<RunOutput> &
CellResult::runs() const
{
    static const std::vector<RunOutput> kNone;
    return analysis ? analysis->runs : kNone;
}

CellMemo::CellMemo(const std::vector<std::vector<Cell>> &grids)
{
    for (std::size_t v = 0; v < grids.size(); ++v)
        for (const Cell &c : grids[v])
            lastView_[configHash(c.cfg)] = v;
}

std::shared_ptr<const CellAnalysis>
CellMemo::find(const ExperimentConfig &cfg) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = cells_.find(configHash(cfg));
    return it == cells_.end() ? nullptr : it->second;
}

void
CellMemo::store(const ExperimentConfig &cfg,
                std::shared_ptr<const CellAnalysis> analysis)
{
    const std::uint64_t key = configHash(cfg);
    std::lock_guard<std::mutex> lk(mu_);
    if (lastView_.count(key))
        cells_[key] = std::move(analysis);
}

void
CellMemo::finishView(std::size_t view)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = cells_.begin(); it != cells_.end();)
        it = lastView_.at(it->first) <= view ? cells_.erase(it)
                                             : std::next(it);
}

std::size_t
CellMemo::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cells_.size();
}

namespace
{

CellResult
runCell(const Cell &cell, const DriverOptions &opts)
{
    const auto t0 = std::chrono::steady_clock::now();

    CellResult out;
    out.cell = cell;
    auto finish = [&] {
        out.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        telemetry::count("driver.cells");
        telemetry::count(out.cacheHit ? "driver.cache_hit_cells"
                                      : "driver.cache_miss_cells");
        telemetry::observe("driver.cell_wall_ms", out.wallSeconds * 1e3);
        return out;
    };

    if (opts.memo) {
        if (auto hit = opts.memo->find(cell.cfg)) {
            out.analysis = std::move(hit);
            out.instructions = out.analysis->instructions;
            out.cacheHit = true;
            telemetry::count("driver.memo_hit_cells");
            return finish();
        }
    }

    ExperimentResult res;
    if (auto cached = traceCacheLoad(cell.cfg)) {
        res = std::move(*cached);
        out.cacheHit = true;
    } else {
        telemetry::Span sim("simulate", "sim");
        if (sim.active())
            sim.arg("id", cell.id);
        res = runExperiment(cell.cfg);
        telemetry::count("mem.block_state_bytes", res.blockStateBytes);
        telemetry::count("mem.block_state_entries", res.blockStateEntries);
        telemetry::count("mem.cache_bytes", res.cacheBytes);
        traceCacheStore(cell.cfg, res);
    }
    auto analysis = std::make_shared<CellAnalysis>();
    analysis->instructions = out.instructions = res.instructions;

    auto analyze = [&](std::array<std::uint64_t, kNumMissClasses> classes,
                       MissTrace &&trace, TraceKind kind) {
        telemetry::Span span("analyze", "analysis");
        if (span.active()) {
            span.arg("id", cell.id);
            span.arg("kind", traceKindName(kind));
        }
        RunOutput r;
        r.workload = cell.cfg.workload;
        r.kind = kind;
        r.classMisses = classes;
        r.trace = std::move(trace);
        r.streams = analyzeStreams(r.trace);
        r.modules = profileModules(r.trace, r.streams, res.registry);
        analysis->runs.push_back(std::move(r));
    };
    auto classCounts = [](const MissTrace &t) {
        std::array<std::uint64_t, kNumMissClasses> n{};
        for (const MissRecord &m : t.misses)
            n[m.cls]++;
        return n;
    };

    // Filter the intra-chip trace before any analysis runs and free
    // the unfiltered one: no view reads it beyond its class counts.
    const bool multi = cell.cfg.context == SystemContext::MultiChip;
    std::array<std::uint64_t, kNumMissClasses> intraClasses{};
    MissTrace onChip;
    if (!multi) {
        intraClasses = classCounts(res.intraChip);
        onChip = res.intraChipOnChip();
        res.intraChip = MissTrace{};
    }
    analyze(classCounts(res.offChip), std::move(res.offChip),
            multi ? TraceKind::MultiChip : TraceKind::SingleChip);
    if (!multi)
        analyze(intraClasses, std::move(onChip), TraceKind::IntraChip);
    out.analysis = std::move(analysis);
    return finish();
}

/** What one bounded attempt produced. */
struct AttemptOutcome
{
    bool ok = false;
    std::string error;
    CellResult result;
};

/** Shared between the driver and a timed attempt thread: the thread
 *  may be abandoned on timeout, so it publishes into shared_ptr state
 *  instead of the driver's stack. */
struct AttemptShared
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    AttemptOutcome out;
};

AttemptOutcome
attemptCell(const Cell &cell, const DriverOptions &opts,
            unsigned attempt)
{
    // One trace span per attempt: the whole cell — cache probe,
    // simulation, analysis — with enough args to find it from the
    // report row. Inner "simulate"/"analyze" spans nest under it.
    telemetry::Span span("cell", "driver");
    if (span.active()) {
        span.arg("id", cell.id);
        span.arg("workload", workloadName(cell.cfg.workload));
        span.arg("context", contextName(cell.cfg.context));
        span.arg("warmup", static_cast<std::int64_t>(
                               cell.cfg.warmupInstructions));
        span.arg("measure", static_cast<std::int64_t>(
                                cell.cfg.measureInstructions));
        span.arg("attempt", static_cast<std::int64_t>(attempt));
    }
    AttemptOutcome out;
    try {
        if (opts.testCellHook)
            opts.testCellHook(cell, attempt);
        out.result = runCell(cell, opts);
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = std::string("exception: ") + e.what();
    } catch (...) {
        out.error = "exception: unknown";
    }
    if (span.active()) {
        span.arg("ok", static_cast<std::int64_t>(out.ok));
        if (out.ok)
            span.arg("cache_hit", static_cast<std::int64_t>(
                                      out.result.cacheHit));
    }
    return out;
}

/**
 * Run one cell under the options' RetryPolicy: each attempt is bounded
 * by retry.timeoutMs (enforced by running it on a dedicated thread and
 * abandoning the thread past the deadline — the simulator has no
 * cancellation points, so a stuck attempt keeps running detached and
 * publishes into shared state nobody reads); failures back off and
 * retry up to maxAttempts, then surface as a failure result.
 */
CellResult
runCellWithRetry(const Cell &cell, const DriverOptions &opts)
{
    const auto t0 = std::chrono::steady_clock::now();
    RetryState retry(opts.retry);

    for (;;) {
        const unsigned attempt = retry.beginAttempt(wallClockMs());

        AttemptOutcome out;
        if (opts.retry.timeoutMs <= 0) {
            out = attemptCell(cell, opts, attempt);
        } else {
            auto shared = std::make_shared<AttemptShared>();
            // Copy cell + opts: on timeout the thread outlives this
            // frame (and possibly the whole runCells call).
            std::thread worker(
                [shared, cell, opts, attempt] {
                    AttemptOutcome r = attemptCell(cell, opts, attempt);
                    std::lock_guard<std::mutex> lk(shared->mu);
                    shared->out = std::move(r);
                    shared->done = true;
                    shared->cv.notify_all();
                });
            std::unique_lock<std::mutex> lk(shared->mu);
            const bool finished = shared->cv.wait_for(
                lk, std::chrono::milliseconds(opts.retry.timeoutMs),
                [&] { return shared->done; });
            if (finished) {
                out = std::move(shared->out);
                lk.unlock();
                worker.join();
            } else {
                lk.unlock();
                worker.detach();
            }
        }

        const std::int64_t now = wallClockMs();
        RetryState::Decision d;
        if (out.ok) {
            d = retry.onSuccess(now);
        } else if (!out.error.empty()) {
            d = retry.onFailure(std::move(out.error), now);
        } else {
            d = retry.onTimeout(now);
            if (d.kind == RetryState::Decision::Kind::None)
                // Clock granularity: the wait expired but the ms clock
                // has not visibly passed the deadline yet.
                d = retry.onFailure(
                    "timeout after " +
                        std::to_string(opts.retry.timeoutMs) + "ms",
                    now);
        }

        switch (d.kind) {
          case RetryState::Decision::Kind::Done:
            out.result.attempts = retry.attempts();
            if (opts.memo)
                opts.memo->store(cell.cfg, out.result.analysis);
            return out.result;
          case RetryState::Decision::Kind::RetryAt: {
            logf(LogLevel::Warn,
                 "driver: cell %s attempt %u failed (%s); retrying",
                 cell.id.c_str(), attempt,
                 retry.failureCause().c_str());
            const std::int64_t delay = d.retryAtMs - wallClockMs();
            if (delay > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
            break;
          }
          case RetryState::Decision::Kind::Failed: {
            CellResult fail;
            fail.cell = cell;
            fail.failed = true;
            fail.failureCause = retry.failureCause();
            fail.attempts = retry.attempts();
            fail.wallSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            telemetry::count("driver.cell_failures");
            logf(LogLevel::Error,
                 "driver: cell %s FAILED after %u attempts: %s",
                 cell.id.c_str(), fail.attempts,
                 fail.failureCause.c_str());
            return fail;
          }
          case RetryState::Decision::Kind::None:
            break; // unreachable; loop again defensively
        }
    }
}

/** Claim key for a cell: grid index + config hash, so a stale claim
 *  directory from a different grid/budget never aliases. */
std::string
claimKeyFor(const Cell &cell)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%zu-%016" PRIx64, cell.index,
                  configHash(cell.cfg));
    return buf;
}

/**
 * Dynamic-claiming executor: opts.jobs worker threads race (with every
 * other process sharing the claim directory) to claim cells, run each
 * claimed cell under retry/timeout, and publish done markers. A
 * background thread heartbeats all actively running claims. Returns
 * only the cells this worker executed, in grid order.
 */
std::vector<CellResult>
runCellsClaiming(const std::vector<Cell> &grid,
                 const DriverOptions &opts)
{
    ClaimDir::Options copts;
    copts.dir = opts.claim.dir;
    copts.owner = opts.claim.owner;
    copts.ttlMs = opts.claim.ttlMs;
    ClaimDir claims(copts);

    const std::int64_t beatMs =
        opts.claim.heartbeatMs > 0
            ? opts.claim.heartbeatMs
            : std::max<std::int64_t>(1, opts.claim.ttlMs / 3);
    const std::int64_t pollMs =
        std::clamp<std::int64_t>(opts.claim.ttlMs / 4, 50, 500);

    long dieAfter = 0;
    if (const char *env = std::getenv("TSTREAM_CLAIM_DIE_AFTER"))
        dieAfter = std::strtol(env, nullptr, 10);
    std::atomic<long> claimsWon{0};

    std::mutex resMu;
    std::vector<CellResult> results;

    // Heartbeat thread: beats every actively running claim so a slow
    // cell is not stolen mid-run. Workers register keys under hbMu.
    std::mutex hbMu;
    std::condition_variable hbCv;
    bool stop = false;
    std::vector<std::string> active;
    std::thread beater([&] {
        std::unique_lock<std::mutex> lk(hbMu);
        while (!stop) {
            hbCv.wait_for(lk, std::chrono::milliseconds(beatMs),
                          [&] { return stop; });
            if (stop)
                break;
            std::vector<std::string> keys = active;
            lk.unlock();
            for (const std::string &k : keys)
                claims.heartbeat(k);
            lk.lock();
        }
    });

    auto workerLoop = [&] {
        std::vector<std::size_t> pending(grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i)
            pending[i] = i;

        while (!pending.empty()) {
            bool progress = false;
            std::vector<std::size_t> still;
            still.reserve(pending.size());
            for (std::size_t idx : pending) {
                const Cell &cell = grid[idx];
                const std::string key = claimKeyFor(cell);
                if (claims.done(key)) {
                    progress = true;
                    continue; // another worker finished it
                }
                std::string why;
                const ClaimDir::Outcome got = claims.tryClaim(key, &why);
                if (got == ClaimDir::Outcome::Done) {
                    progress = true;
                    continue;
                }
                if (got == ClaimDir::Outcome::Held) {
                    still.push_back(idx); // revisit next sweep
                    continue;
                }
                if (got == ClaimDir::Outcome::Error) {
                    // Claim directory unusable: record a failure row
                    // rather than spinning forever. merge() keeps the
                    // first copy if several workers hit this.
                    CellResult fail;
                    fail.cell = cell;
                    fail.failed = true;
                    fail.failureCause = "claim error: " + why;
                    fail.attempts = 0;
                    std::lock_guard<std::mutex> lk(resMu);
                    results.push_back(std::move(fail));
                    progress = true;
                    continue;
                }

                // Claimed. Fault injection first: die after the N-th
                // win, before the cell runs — the claim file is left
                // behind with no done marker, exactly the "worker died
                // mid-cell" shape the fleet tests need.
                const long won =
                    claimsWon.fetch_add(1, std::memory_order_relaxed) +
                    1;
                if (dieAfter > 0 && won >= dieAfter)
                    std::raise(SIGKILL);

                {
                    std::lock_guard<std::mutex> lk(hbMu);
                    active.push_back(key);
                }
                CellResult res = runCellWithRetry(cell, opts);
                {
                    std::lock_guard<std::mutex> lk(hbMu);
                    active.erase(std::remove(active.begin(),
                                             active.end(), key),
                                 active.end());
                }
                claims.markDone(key, res.failed
                                         ? "failed:" + res.failureCause
                                         : "ok");
                {
                    std::lock_guard<std::mutex> lk(resMu);
                    results.push_back(std::move(res));
                }
                progress = true;
            }
            pending = std::move(still);
            if (!pending.empty() && !progress)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(pollMs));
        }
    };

    unsigned jobs = opts.jobs ? opts.jobs : WorkPool::defaultJobs();
    jobs = static_cast<unsigned>(std::min<std::size_t>(
        std::max<std::size_t>(1, grid.size()), jobs));
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers.emplace_back(workerLoop);
    for (std::thread &w : workers)
        w.join();

    {
        std::lock_guard<std::mutex> lk(hbMu);
        stop = true;
    }
    hbCv.notify_all();
    beater.join();

    std::sort(results.begin(), results.end(),
              [](const CellResult &a, const CellResult &b) {
                  return a.cell.index < b.cell.index;
              });
    return results;
}

} // namespace

std::vector<CellResult>
runCells(const std::vector<Cell> &grid, const DriverOptions &opts)
{
    if (opts.claim.enabled())
        return runCellsClaiming(grid, opts);

    std::vector<CellResult> out(grid.size());
    WorkPool pool(opts.jobs);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::int64_t submitUs =
            telemetry::enabled() ? telemetry::nowMicros() : 0;
        pool.submit([&, i, submitUs] {
            if (telemetry::enabled()) {
                // Queue wait vs run time: the dead time between
                // submit and dispatch, on the timeline and as a
                // histogram.
                const std::int64_t startUs = telemetry::nowMicros();
                telemetry::recordSpan("cell-queue-wait", "driver",
                                      submitUs, startUs, "id",
                                      grid[i].id);
                telemetry::observe(
                    "driver.queue_wait_ms",
                    static_cast<double>(startUs - submitUs) / 1e3);
            }
            out[i] = runCellWithRetry(grid[i], opts);
        });
    }
    pool.wait();
    return out;
}

// ---- trace cache ------------------------------------------------------------

std::string
traceCacheStem(const ExperimentConfig &cfg)
{
    const char *dir = std::getenv("TSTREAM_TRACE_CACHE");
    if (!dir || !*dir)
        return {};
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, configHash(cfg));
    return std::string(dir) + "/" +
           std::string(workloadName(cfg.workload)) + "-" +
           std::string(contextName(cfg.context)) + "-" + hash;
}

std::optional<ExperimentResult>
traceCacheLoad(const ExperimentConfig &cfg)
{
    const std::string stem = traceCacheStem(cfg);
    if (stem.empty())
        return std::nullopt;

    auto reader = TraceReader::open(stem + ".off.tst");
    if (!reader) {
        telemetry::count("trace_cache.misses");
        return std::nullopt;
    }
    auto offChip = reader->readAll();
    auto registry = reader->functions();
    if (!offChip || !registry) {
        telemetry::count("trace_cache.misses");
        return std::nullopt;
    }

    ExperimentResult res;
    res.offChip = std::move(*offChip);
    res.registry = std::move(*registry);
    res.instructions = res.offChip.instructions;
    if (cfg.context == SystemContext::SingleChip) {
        auto intra = loadTrace(stem + ".l1.tst");
        if (!intra) {
            telemetry::count("trace_cache.misses");
            return std::nullopt;
        }
        res.intraChip = std::move(*intra);
    }
    telemetry::count("trace_cache.hits");
    if (telemetry::enabled()) {
        std::error_code ec;
        std::uint64_t bytes = 0;
        for (const char *suffix : {".off.tst", ".l1.tst"}) {
            const auto sz =
                std::filesystem::file_size(stem + suffix, ec);
            if (!ec)
                bytes += sz;
        }
        telemetry::count("trace_cache.bytes_read", bytes);
    }
    logDebug("trace-cache: hit " + stem + " (skipping simulation)");
    return res;
}

namespace
{

/** Write via a writer-unique temp name, then rename into place. The
 *  pid + thread id makes the name unique across the concurrent
 *  processes that may race on one shared cache cell. */
bool
saveTraceAtomic(const MissTrace &trace, const std::string &path,
                const TraceWriteOptions &opts)
{
    char suffix[64];
    std::snprintf(suffix, sizeof suffix, ".tmp.%ld.%ld",
                  static_cast<long>(::getpid()),
                  static_cast<long>(
                      std::hash<std::thread::id>{}(
                          std::this_thread::get_id()) &
                      0x7fffffff));
    const std::string tmp = path + suffix;
    if (!saveTrace(trace, tmp, opts))
        return false;
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace

void
traceCacheStore(const ExperimentConfig &cfg,
                const ExperimentResult &res)
{
    const std::string stem = traceCacheStem(cfg);
    if (stem.empty())
        return;

    // Create the cache directory (and any shard-specific parents the
    // operator baked into TSTREAM_TRACE_CACHE) on first use instead of
    // failing every cell store against a missing directory.
    const std::filesystem::path dir =
        std::filesystem::path(stem).parent_path();
    std::error_code ec;
    if (!dir.empty() && !std::filesystem::exists(dir, ec)) {
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            logWarn("trace-cache: cannot create " + dir.string() +
                    ": " + ec.message());
            return;
        }
    }

    TraceWriteOptions opts;
    opts.configHash = configHash(cfg);
    opts.registry = &res.registry;
    opts.kind = TraceContentKind::OffChip;
    bool ok = saveTraceAtomic(res.offChip, stem + ".off.tst", opts);
    if (ok && cfg.context == SystemContext::SingleChip) {
        opts.kind = TraceContentKind::IntraChip;
        ok = saveTraceAtomic(res.intraChip, stem + ".l1.tst", opts);
    }
    if (ok) {
        telemetry::count("trace_cache.stores");
        if (telemetry::enabled()) {
            std::error_code sec;
            std::uint64_t bytes = 0;
            for (const char *suffix : {".off.tst", ".l1.tst"}) {
                const auto sz =
                    std::filesystem::file_size(stem + suffix, sec);
                if (!sec)
                    bytes += sz;
            }
            telemetry::count("trace_cache.bytes_written", bytes);
        }
        logDebug("trace-cache: saved " + stem);
    } else {
        telemetry::count("trace_cache.store_failures");
        logWarn("trace-cache: failed to save " + stem);
    }
}

} // namespace tstream
