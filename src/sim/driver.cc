#include "sim/driver.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
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
#include "util/parse_number.hh"
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

const std::vector<RunOutput> &
CellResult::runs() const
{
    static const std::vector<RunOutput> kNone;
    return analysis ? analysis->runs : kNone;
}

const MissTrace &
CellResult::trace(std::size_t run) const
{
    if (!traces || run >= traces->size())
        panic("CellResult::trace: cell " + cell.id +
              " kept no trace (no view in the plan walks its misses)");
    return (*traces)[run];
}

std::uint64_t
CellAnalysis::footprintBytes() const
{
    std::uint64_t n = sizeof(CellAnalysis);
    for (const RunOutput &r : runs)
        n += sizeof(RunOutput) + (r.streams.lengthWeighted.capacity() +
                                  r.streams.reuseWeighted.capacity()) *
                                     sizeof(r.streams.lengthWeighted[0]);
    return n;
}

std::uint64_t
footprintBytes(const CellTraces &traces)
{
    std::uint64_t n = 0;
    for (const MissTrace &t : traces)
        n += sizeof(MissTrace) + t.misses.capacity() * sizeof(MissRecord);
    return n;
}

CellMemo::CellMemo(const std::vector<PlannedView> &views)
{
    for (std::size_t v = 0; v < views.size(); ++v)
        for (const Cell &c : views[v].grid) {
            const std::uint64_t key = configHash(c.cfg);
            lastView_[key] = v;
            if (views[v].walksMisses)
                lastWalk_[key] = v;
        }
}

bool
CellMemo::walkAhead(std::uint64_t key) const
{
    const auto it = lastWalk_.find(key);
    return it != lastWalk_.end() && it->second >= finished_;
}

bool
CellMemo::keepsTraces(const ExperimentConfig &cfg) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return walkAhead(configHash(cfg));
}

std::shared_ptr<const CellAnalysis>
CellMemo::find(const ExperimentConfig &cfg,
               std::shared_ptr<const CellTraces> &traces) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = cells_.find(configHash(cfg));
    if (it == cells_.end())
        return nullptr;
    traces = it->second.traces;
    return it->second.analysis;
}

void
CellMemo::store(const ExperimentConfig &cfg,
                std::shared_ptr<const CellAnalysis> analysis,
                std::shared_ptr<const CellTraces> traces)
{
    const std::uint64_t key = configHash(cfg);
    Entry e;
    e.summaryBytes = analysis->footprintBytes();
    e.analysis = std::move(analysis);
    std::lock_guard<std::mutex> lk(mu_);
    if (!lastView_.count(key))
        return;
    if (traces && walkAhead(key)) {
        e.traceBytes = footprintBytes(*traces);
        e.traces = std::move(traces);
    }
    Entry &slot = cells_[key];
    bytes_ -= slot.summaryBytes + slot.traceBytes;
    slot = std::move(e);
    bytes_ += slot.summaryBytes + slot.traceBytes;
    telemetry::gaugeSet("driver.memo_bytes",
                        static_cast<std::int64_t>(bytes_));
}

void
CellMemo::finishView(std::size_t view)
{
    std::lock_guard<std::mutex> lk(mu_);
    finished_ = std::max(finished_, view + 1);
    for (auto it = cells_.begin(); it != cells_.end();) {
        Entry &e = it->second;
        if (lastView_.at(it->first) <= view) {
            bytes_ -= e.summaryBytes + e.traceBytes;
            it = cells_.erase(it);
            continue;
        }
        if (e.traces && !walkAhead(it->first)) {
            bytes_ -= e.traceBytes;
            e.traceBytes = 0;
            e.traces.reset();
        }
        ++it;
    }
    telemetry::gaugeSet("driver.memo_bytes",
                        static_cast<std::int64_t>(bytes_));
}

std::size_t
CellMemo::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cells_.size();
}

MissTrace
onChipMisses(MissTrace intra)
{
    auto &m = intra.misses;
    m.erase(std::remove_if(m.begin(), m.end(),
                           [](const MissRecord &r) {
                               return static_cast<IntraClass>(r.cls) ==
                                      IntraClass::OffChip;
                           }),
            m.end());
    m.shrink_to_fit();
    return intra;
}

RunOutput
analyzeRun(TraceKind kind, MissTrace trace,
           const FunctionRegistry *registry, MissTrace *keep)
{
    telemetry::Span span("analyze", "analysis");
    if (span.active())
        span.arg("kind", traceKindName(kind));
    RunOutput r;
    r.kind = kind;
    for (const MissRecord &m : trace.misses)
        if (m.cls < kNumMissClasses)
            r.classMisses[m.cls]++;
    if (kind == TraceKind::IntraChip)
        trace = onChipMisses(std::move(trace));
    r.instructions = trace.instructions;
    r.misses = trace.misses.size();
    r.numCpus = trace.numCpus;
    MissLabels labels;
    r.streams = analyzeStreams(trace, &labels);
    if (registry)
        r.modules = profileModules(trace, labels.rep, *registry);
    if (keep)
        *keep = std::move(trace);
    return r;
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
        if (auto hit = opts.memo->find(cell.cfg, out.traces)) {
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
        telemetry::count("mem.warmup_offchip_misses",
                         res.warmupOffChipMisses);
        telemetry::count("mem.warmup_intra_misses",
                         res.warmupIntraChipMisses);
        telemetry::count("mem.trace_regrowths", res.traceRegrowths);
        traceCacheStore(cell.cfg, res);
    }
    // The plan decides whether this cell's traces outlive analysis.
    std::shared_ptr<CellTraces> traces;
    if (opts.memo && opts.memo->keepsTraces(cell.cfg))
        traces = std::make_shared<CellTraces>();
    auto analysis = std::make_shared<CellAnalysis>();
    analysis->instructions = out.instructions = res.instructions;
    auto analyze = [&](TraceKind kind, MissTrace &&trace) {
        MissTrace *keep =
            traces ? &traces->emplace_back() : nullptr;
        RunOutput r =
            analyzeRun(kind, std::move(trace), &res.registry, keep);
        r.workload = cell.cfg.workload;
        return r;
    };
    if (cell.cfg.context == SystemContext::MultiChip) {
        analysis->runs.push_back(
            analyze(TraceKind::MultiChip, std::move(res.offChip)));
    } else {
        // The intra-chip run goes first: its on-chip filter frees the
        // unfiltered trace before the off-chip analysis runs.
        RunOutput intra =
            analyze(TraceKind::IntraChip, std::move(res.intraChip));
        analysis->runs.push_back(
            analyze(TraceKind::SingleChip, std::move(res.offChip)));
        analysis->runs.push_back(std::move(intra));
        if (traces) // aligned with runs: {single, intra}
            std::swap((*traces)[0], (*traces)[1]);
    }
    out.traces = std::move(traces);
    out.analysis = std::move(analysis);
    return finish();
}

/**
 * Run @p cell once inside a "cell" trace span. A throwing cell becomes
 * a failure result instead of aborting the sweep; it is not run again,
 * because a cell is a deterministic function of its configHash() and
 * would throw again. A successful cell is stored in the run's memo.
 */
CellResult
runCellOnce(const Cell &cell, const DriverOptions &opts)
{
    const auto t0 = std::chrono::steady_clock::now();
    // The whole cell — cache probe, simulation, analysis — with enough
    // args to find it from the report row. Inner "simulate"/"analyze"
    // spans nest under it.
    telemetry::Span span("cell", "driver");
    if (span.active()) {
        span.arg("id", cell.id);
        span.arg("workload", workloadName(cell.cfg.workload));
        span.arg("context", contextName(cell.cfg.context));
        span.arg("warmup", static_cast<std::int64_t>(
                               cell.cfg.warmupInstructions));
        span.arg("measure", static_cast<std::int64_t>(
                                cell.cfg.measureInstructions));
    }
    CellResult out;
    try {
        if (opts.testCellHook)
            opts.testCellHook(cell);
        out = runCell(cell, opts);
    } catch (const std::exception &e) {
        out.failed = true;
        out.failureCause = std::string("exception: ") + e.what();
    } catch (...) {
        out.failed = true;
        out.failureCause = "exception: unknown";
    }
    if (span.active()) {
        span.arg("ok", static_cast<std::int64_t>(!out.failed));
        if (!out.failed)
            span.arg("cache_hit", static_cast<std::int64_t>(out.cacheHit));
    }
    if (!out.failed) {
        if (opts.memo)
            opts.memo->store(cell.cfg, out.analysis, out.traces);
        return out;
    }

    out.cell = cell;
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    telemetry::count("driver.cell_failures");
    logf(LogLevel::Error, "driver: cell %s FAILED: %s", cell.id.c_str(),
         out.failureCause.c_str());
    return out;
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
 * Dynamic-claiming executor: opts.jobs sweep loops on a WorkPool race
 * (with every other process sharing the claim directory) to claim
 * cells, run each claimed cell once, and commit it: the record
 * opts.cellDone returns goes into the cell's done marker. A
 * background thread heartbeats all actively running claims every
 * ttlMs / 3. Returns only the cells this worker executed, in grid
 * order; a claim or commit error stops every loop and exits 1.
 */
std::vector<CellResult>
runCellsClaiming(const std::vector<Cell> &grid,
                 const DriverOptions &opts)
{
    // A malformed value must not quietly mean "never die": a fault
    // test would then pass without its fault. Checked before the
    // claim directory is touched.
    long dieAfter = 0;
    if (const char *env = std::getenv("TSTREAM_CLAIM_DIE_AFTER");
        env && *env)
        if (std::string err =
                parseInt("TSTREAM_CLAIM_DIE_AFTER", env, dieAfter, 0);
            !err.empty())
            fatal(err);

    ClaimDir::Options copts;
    copts.dir = opts.claim.dir;
    copts.owner = opts.claim.owner;
    copts.ttlMs = opts.claim.ttlMs;
    ClaimDir claims(copts);

    const std::int64_t beatMs = std::max<std::int64_t>(1, opts.claim.ttlMs / 3);
    const std::int64_t pollMs =
        std::clamp<std::int64_t>(opts.claim.ttlMs / 4, 50, 500);

    std::atomic<long> claimsWon{0};
    std::atomic<bool> halted{false};

    std::mutex resMu;
    std::vector<CellResult> results;
    std::string haltWhy; // the first claim or commit error

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

    auto halt = [&](const std::string &why) {
        std::lock_guard<std::mutex> lk(resMu);
        if (!halted.exchange(true))
            haltWhy = why;
    };

    auto workerLoop = [&] {
        std::vector<std::size_t> pending(grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i)
            pending[i] = i;

        while (!pending.empty()) {
            bool progress = false;
            std::vector<std::size_t> still;
            still.reserve(pending.size());
            for (std::size_t idx : pending) {
                if (halted.load(std::memory_order_relaxed))
                    return;
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
                    halt("cannot claim cell " + cell.id + ": " + why);
                    return;
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
                CellResult res = runCellOnce(cell, opts);
                const std::string record =
                    opts.cellDone ? opts.cellDone(res) : std::string();
                {
                    std::lock_guard<std::mutex> lk(hbMu);
                    active.erase(std::remove(active.begin(),
                                             active.end(), key),
                                 active.end());
                }
                if (!claims.markDone(key,
                                     res.failed
                                         ? "failed:" + res.failureCause
                                         : "ok",
                                     record, &why)) {
                    // No done marker, so this or a later run of the
                    // session re-runs the cell.
                    claims.release(key);
                    halt("cannot commit cell " + cell.id + ": " + why);
                    return;
                }
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
    WorkPool pool(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        pool.submit(workerLoop);
    pool.wait();

    {
        std::lock_guard<std::mutex> lk(hbMu);
        stop = true;
    }
    hbCv.notify_all();
    beater.join();
    if (halted)
        fatal(haltWhy);

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
            out[i] = runCellOnce(grid[i], opts);
            if (opts.cellDone)
                opts.cellDone(out[i]);
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

    // Create the cache directory (and any missing parents the
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
