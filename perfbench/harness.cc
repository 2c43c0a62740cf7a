/**
 * @file
 * perfbench harness: drives the tstream library through its public
 * entry points for one benchmark workload and prints one JSON document
 * of raw per-operation measurements on stdout. run.py turns those into
 * the benchmark's metrics; see perfbench/README.md.
 *
 *   perfbench setup --workload W --seed N --dir D
 *   perfbench run --workload W --seed N --seconds S --dir D [--trace 0|1]
 *   perfbench nonperturb --workload paper-quick --seed N --dir D
 *
 * Workload sim-dss simulates and encodes each cell, as `tstream-trace
 * record` does. paper-quick drives the tstream-bench CLI from run.py;
 * its traced run uses `nonperturb`.
 *
 * With --trace 1 every operation is executed twice: once untraced
 * through the unchanged entry points, and once with spans recorded
 * around each layer call from outside the library. The two must agree
 * bit for bit. Spans are written at exit as a Chrome trace-event file
 * (D/trace.json) that Perfetto opens.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernel/kernel.hh"
#include "sim/driver.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "trace/trace_io.hh"
#include "util/json.hh"

using namespace tstream;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/** Host seconds since the process started. */
double
wallNow()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/** User + system CPU seconds of this process. */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/**
 * Pin this process to the @p k-th of @p cpus, modulo their count. A
 * single-threaded process otherwise stays on one vCPU for its whole
 * life, and on a shared host each vCPU's speed drifts partly on its
 * own; rotating operations over the CPUs makes one run sample all.
 */
void
pinTo(const std::vector<int> &cpus, std::size_t k)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[k % cpus.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
}

// ---- digests ----------------------------------------------------------------

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t h = 14695981039346656037ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ULL;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

std::string
traceDigest(const MissTrace &t)
{
    Digest d;
    d.add(t.numCpus);
    d.add(t.instructions);
    d.add(t.misses.size());
    for (const MissRecord &m : t.misses) {
        d.add(m.seq);
        d.add(m.block);
        d.add(static_cast<std::uint64_t>(m.cpu) << 8 | m.cls);
        d.add(m.fn);
    }
    return d.hex();
}

std::string
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    Digest d;
    d.add(bytes.size());
    for (unsigned char c : bytes)
        d.add(c);
    return d.hex();
}

// ---- spans ------------------------------------------------------------------

/**
 * In-memory span log. Each span has a name, start, end, parent and the
 * cell it belongs to; the whole log is written once at exit.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string cell;
        int parent = -1;
        double start = 0.0;
        double end = 0.0;
    };

    int
    open(std::string name, int parent, std::string cell)
    {
        spans_.push_back(
            {std::move(name), std::move(cell), parent, wallNow(), 0.0});
        return static_cast<int>(spans_.size() - 1);
    }

    void close(int id) { spans_[id].end = wallNow(); }

    /**
     * Record a child interval of @p parent that was timed as many
     * short calls: it is laid out as one span at the parent's start
     * with the summed duration, so Perfetto shows its share.
     */
    void
    aggregate(std::string name, int parent, double seconds)
    {
        Span s{std::move(name), spans_[parent].cell, parent,
               spans_[parent].start, spans_[parent].start + seconds};
        spans_.push_back(std::move(s));
    }

    double duration(int id) const { return spans_[id].end - spans_[id].start; }

    /** Self time (duration minus children) summed per span name. */
    json::Value
    selfTimes() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        std::vector<std::pair<std::string, double>> sums;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double self = spans_[i].end - spans_[i].start - child[i];
            auto it = std::find_if(sums.begin(), sums.end(), [&](auto &p) {
                return p.first == spans_[i].name;
            });
            if (it == sums.end())
                sums.emplace_back(spans_[i].name, self);
            else
                it->second += self;
        }
        json::Value out = json::Value::object();
        for (const auto &[name, v] : sums)
            out[name] = v;
        return out;
    }

    /** Chrome trace-event document ("ph": "X" complete events). */
    json::Value
    chromeTrace() const
    {
        json::Value events = json::Value::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            json::Value e = json::Value::object();
            e["name"] = s.name;
            e["cat"] = s.name.substr(0, s.name.find('.'));
            e["ph"] = "X";
            e["ts"] = s.start * 1e6;
            e["dur"] = (s.end - s.start) * 1e6;
            e["pid"] = 1;
            e["tid"] = 1;
            json::Value args = json::Value::object();
            args["id"] = static_cast<std::uint64_t>(i);
            args["parent"] = static_cast<std::int64_t>(s.parent);
            args["cell"] = s.cell;
            e["args"] = std::move(args);
            events.push(std::move(e));
        }
        json::Value doc = json::Value::object();
        doc["traceEvents"] = std::move(events);
        doc["displayTimeUnit"] = "ms";
        return doc;
    }

  private:
    std::vector<Span> spans_;
};

// ---- the measuring memory system -------------------------------------------

/**
 * Forwarding MemorySystem handed to Engine in traced runs: every
 * accessBlockRun() is timed and forwarded to the real model, which
 * keeps its own traces. MemorySystem::setTracing() is not virtual, so
 * the wrapper mirrors its tracing flag into the inner model before each
 * forwarded run; Engine flushes before every setTracing(), so the inner
 * model sees the flag change at exactly the same access.
 */
class TimedMemory final : public MemorySystem
{
  public:
    explicit TimedMemory(std::unique_ptr<MemorySystem> inner)
        : inner_(std::move(inner))
    {
    }

    void
    accessBlock(const Access &acc) override
    {
        accessBlockRun(&acc, 1);
    }

    void
    accessBlockRun(const Access *accs, std::size_t n) override
    {
        if (inner_->tracing() != tracing())
            inner_->setTracing(tracing());
        const Clock::time_point t0 = Clock::now();
        inner_->accessBlockRun(accs, n);
        busy_ += Clock::now() - t0;
        ++runs_;
        blocks_ += n;
    }

    unsigned numCpus() const override { return inner_->numCpus(); }

    MemorySystem &inner() { return *inner_; }
    double busySeconds() const { return busy_.count(); }
    std::uint64_t runs() const { return runs_; }
    std::uint64_t blocks() const { return blocks_; }

  private:
    std::unique_ptr<MemorySystem> inner_;
    std::chrono::duration<double> busy_{0.0};
    std::uint64_t runs_ = 0;
    std::uint64_t blocks_ = 0;
};

// ---- workloads --------------------------------------------------------------

struct CellSpec
{
    const char *id;
    WorkloadKind workload;
    SystemContext context;
};

std::vector<CellSpec>
cellsFor(const std::string &workload)
{
    using W = WorkloadKind;
    using C = SystemContext;
    if (workload == "sim-dss")
        return {{"dss-q17/multi-chip", W::DssQ17, C::MultiChip},
                {"dss-q17/single-chip", W::DssQ17, C::SingleChip}};
    throw std::runtime_error("unknown workload: " + workload);
}

ExperimentConfig
paperConfig(const CellSpec &c, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.workload = c.workload;
    cfg.context = c.context;
    cfg.warmupInstructions = kPaperBudgets.warmupInstructions;
    cfg.measureInstructions = kPaperBudgets.measureInstructions;
    cfg.scale = kPaperBudgets.scale;
    cfg.seed = seed;
    return cfg;
}

std::string
fileStem(const std::string &dir, const CellSpec &c)
{
    std::string id = c.id;
    std::replace(id.begin(), id.end(), '/', '_');
    return dir + "/" + id;
}

/** Write options of `tstream-trace record` for an off-chip trace. */
TraceWriteOptions
recordOptions(const ExperimentConfig &cfg, const FunctionRegistry &reg)
{
    TraceWriteOptions opts;
    opts.kind = TraceContentKind::OffChip;
    opts.configHash = configHash(cfg);
    opts.registry = &reg;
    return opts;
}

json::Value
classCounts(const MissTrace &t)
{
    std::uint64_t n[kNumMissClasses] = {};
    for (const MissRecord &m : t.misses)
        if (m.cls < kNumMissClasses)
            ++n[m.cls];
    json::Value out = json::Value::object();
    out["compulsory"] = n[static_cast<int>(MissClass::Compulsory)];
    out["replacement"] = n[static_cast<int>(MissClass::Replacement)];
    out["coherence"] = n[static_cast<int>(MissClass::Coherence)];
    out["io_coherence"] = n[static_cast<int>(MissClass::IoCoherence)];
    return out;
}

bool
sameRecords(const MissTrace &a, const MissTrace &b)
{
    if (a.misses.size() != b.misses.size() || a.numCpus != b.numCpus ||
        a.instructions != b.instructions)
        return false;
    for (std::size_t i = 0; i < a.misses.size(); ++i) {
        const MissRecord &x = a.misses[i], &y = b.misses[i];
        if (x.seq != y.seq || x.block != y.block || x.cpu != y.cpu ||
            x.cls != y.cls || x.fn != y.fn)
            return false;
    }
    return true;
}

/** The exact outputs of one simulate + encode cell. */
json::Value
simOutputs(const ExperimentResult &res, const std::string &path)
{
    json::Value out = json::Value::object();
    out["instructions"] = res.instructions;
    out["offchip_misses"] =
        static_cast<std::uint64_t>(res.offChip.misses.size());
    out["intra_misses"] =
        static_cast<std::uint64_t>(res.intraChip.misses.size());
    out["classes"] = classCounts(res.offChip);
    out["trace_digest"] = traceDigest(res.offChip);
    out["intra_digest"] = traceDigest(res.intraChip);
    out["encoded_digest"] = fileDigest(path);
    return out;
}

/**
 * Decode @p path and compare with the in-memory trace; returns decode
 * seconds. Throws on a decode failure or a record mismatch.
 */
double
decodeAndCompare(const std::string &path, const MissTrace &encoded)
{
    const double t0 = wallNow();
    TraceResult<MissTrace> back = loadTrace(path);
    const double t1 = wallNow();
    if (!back)
        throw std::runtime_error("decode failed: " + back.error());
    if (!sameRecords(*back, encoded))
        throw std::runtime_error("decoded trace differs from encoded");
    return t1 - t0;
}

/** One untraced simulate + encode operation (the `record` path). */
json::Value
simUntraced(const CellSpec &c, const ExperimentConfig &cfg,
            const std::string &dir)
{
    const std::string path = fileStem(dir, c) + ".tst";
    const double t0 = wallNow(), c0 = cpuNow();
    ExperimentResult res = runExperiment(cfg);
    const double t1 = wallNow();
    if (!saveTrace(res.offChip, path, recordOptions(cfg, res.registry)))
        throw std::runtime_error("cannot write " + path);
    const double t2 = wallNow(), c2 = cpuNow();

    json::Value op = json::Value::object();
    op["wall_s"] = t2 - t0;
    op["cpu_s"] = c2 - c0;
    op["sim_s"] = t1 - t0;
    op["encode_s"] = t2 - t1;
    op["decode_s"] = decodeAndCompare(path, res.offChip);
    op["misses"] = static_cast<std::uint64_t>(res.offChip.misses.size());
    op["outputs"] = simOutputs(res, path);
    return op;
}

/** Layer timings of one traced simulation. */
struct SimLayers
{
    double setupS = 0.0;
    double kernelS = 0.0; ///< Kernel::run, mem included
    double memS = 0.0;
    double teardownS = 0.0;
    std::uint64_t runs = 0;
    std::uint64_t blocks = 0;
};

/**
 * runExperiment()'s body replayed with a TimedMemory between Engine
 * and the model, with a span under @p cell around each layer.
 */
ExperimentResult
simulateTraced(const ExperimentConfig &cfg, const std::string &id,
               SpanLog &log, int cell, SimLayers &out)
{
    int s = log.open("sim.setup", cell, id);
    std::unique_ptr<MemorySystem> model;
    if (cfg.context == SystemContext::MultiChip)
        model = std::make_unique<MultiChipSystem>(cfg.multiChip);
    else
        model = std::make_unique<SingleChipSystem>(cfg.singleChip);
    auto timedOwner = std::make_unique<TimedMemory>(std::move(model));
    TimedMemory &timed = *timedOwner;
    auto eng = std::make_unique<Engine>(std::move(timedOwner), cfg.seed);
    auto kern = std::make_unique<Kernel>(*eng);
    WorkloadSpec spec;
    spec.kind = cfg.workload;
    spec.scale = cfg.scale;
    spec.seed = cfg.seed;
    spec.phases = cfg.phases;
    auto workload = makeWorkload(spec);
    workload->setup(*kern);
    log.close(s);
    out.setupS = log.duration(s);

    const int k = log.open("kernel.run", cell, id);
    eng->setTracing(false);
    kern->run(cfg.warmupInstructions);
    eng->setTracing(true);
    kern->run(cfg.measureInstructions);
    eng->finalizeTraces();
    log.close(k);
    log.aggregate("mem.accessBlockRun", k, timed.busySeconds());
    out.kernelS = log.duration(k);
    out.memS = timed.busySeconds();
    out.runs = timed.runs();
    out.blocks = timed.blocks();

    ExperimentResult res;
    res.offChip = std::move(timed.inner().offChipTrace());
    res.intraChip = std::move(timed.inner().intraChipTrace());
    res.offChip.instructions = eng->totalInstructions();
    res.intraChip.instructions = eng->totalInstructions();
    res.registry = eng->registry();
    res.instructions = eng->totalInstructions();

    // Destruction order of runExperiment(): workload, kernel, engine.
    s = log.open("sim.teardown", cell, id);
    workload.reset();
    kern.reset();
    eng.reset();
    log.close(s);
    out.teardownS = log.duration(s);
    return res;
}

/** The simulate + encode operation with spans around each layer. */
json::Value
simTraced(const CellSpec &c, const ExperimentConfig &cfg,
          const std::string &dir, SpanLog &log)
{
    const std::string path = fileStem(dir, c) + ".traced.tst";
    const int cell = log.open("cell", -1, c.id);
    SimLayers sl;
    const ExperimentResult res = simulateTraced(cfg, c.id, log, cell, sl);

    int s = log.open("trace.encode", cell, c.id);
    if (!saveTrace(res.offChip, path, recordOptions(cfg, res.registry)))
        throw std::runtime_error("cannot write " + path);
    log.close(s);
    const double encodeS = log.duration(s);
    log.close(cell);

    // The output check, outside the cell as in the untraced operation.
    s = log.open("trace.decode", -1, c.id);
    decodeAndCompare(path, res.offChip);
    log.close(s);
    const double decodeS = log.duration(s);

    json::Value op = json::Value::object();
    op["wall_s"] = log.duration(cell);
    op["misses"] = static_cast<std::uint64_t>(res.offChip.misses.size());
    op["outputs"] = simOutputs(res, path);
    json::Value l = json::Value::object();
    l["sim.setup_s"] = sl.setupS;
    l["sim.teardown_s"] = sl.teardownS;
    l["kernel.self_s"] = sl.kernelS - sl.memS;
    l["mem.busy_s"] = sl.memS;
    l["mem.runs"] = sl.runs;
    l["mem.blocks"] = sl.blocks;
    l["trace.encode_s"] = encodeS;
    l["trace.decode_s"] = decodeS;
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    l["trace.bytes"] = static_cast<std::uint64_t>(f.tellg());
    op["layers"] = std::move(l);
    return op;
}

// ---- commands ---------------------------------------------------------------

struct Args
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    std::string dir;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench setup|run|nonperturb --workload W "
                 "--seed N "
                 "--dir D [--seconds S] [--trace 0|1]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    Args a;
    a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const char *v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (arg == "--dir")
            a.dir = v;
        else if (arg == "--trace")
            a.trace = std::string(v) == "1";
        else
            usage("unknown option " + arg);
    }
    if (a.workload.empty() || a.dir.empty())
        usage("--workload and --dir are required");
    if (a.command != "setup" && a.command != "run" &&
        a.command != "nonperturb")
        usage("unknown command " + a.command);
    return a;
}

json::Value
errorOp(const std::string &id, unsigned pass, const std::exception &e)
{
    json::Value op = json::Value::object();
    op["id"] = id;
    op["pass"] = pass;
    op["error"] = e.what();
    return op;
}

/**
 * Set-up before the measured run: only build the cells' configs, so the
 * set-up is process start plus config.
 */
json::Value
cmdSetup(const Args &a)
{
    json::Value hashes = json::Value::array();
    for (const CellSpec &c : cellsFor(a.workload))
        hashes.push(configHash(paperConfig(c, a.seed)));
    json::Value doc = json::Value::object();
    doc["config_hashes"] = std::move(hashes);
    return doc;
}

/**
 * Non-perturbation sweep over the cells `tstream-bench run --quick
 * paper` simulates: runExperiment() and the traced replay must yield
 * identical traces and instruction counts for every one.
 */
json::Value
cmdNonPerturb(const Args &a)
{
    const BenchBudgets quick{kQuickBudgets.warmupInstructions,
                             kQuickBudgets.measureInstructions,
                             kQuickBudgets.scale};
    std::vector<WorkloadKind> kinds;
    for (int k = 0; k <= static_cast<int>(WorkloadKind::PhasedMix); ++k)
        kinds.push_back(static_cast<WorkloadKind>(k));
    SpanLog log;
    json::Value cells = json::Value::array();
    for (Cell cell : standardGrid(kinds, quick)) {
        cell.cfg.seed = a.seed;
        json::Value r = json::Value::object();
        r["id"] = cell.id;
        try {
            const ExperimentResult ref = runExperiment(cell.cfg);
            SimLayers sl;
            const ExperimentResult got =
                simulateTraced(cell.cfg, cell.id, log, -1, sl);
            r["identical"] = sameRecords(ref.offChip, got.offChip) &&
                             sameRecords(ref.intraChip, got.intraChip) &&
                             ref.instructions == got.instructions;
        } catch (const std::exception &e) {
            r["error"] = e.what();
            r["identical"] = false;
        }
        cells.push(std::move(r));
    }
    json::Value doc = json::Value::object();
    doc["cells"] = std::move(cells);
    return doc;
}

json::Value
cmdRun(const Args &a)
{
    const std::vector<CellSpec> cells = cellsFor(a.workload);
    const std::vector<int> cpus = allowedCpus();
    json::Value doc = json::Value::object();
    SpanLog log;

    json::Value ops = json::Value::array();
    // Passes repeat while the next one is expected to end within
    // --seconds; the first always runs.
    const double start = wallNow();
    double lastPass = 0.0;
    for (unsigned pass = 0;
         pass == 0 || wallNow() - start + lastPass <= a.seconds; ++pass) {
        const double passStart = wallNow();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellSpec &c = cells[i];
            // Each cell visits every CPU in turn across passes.
            pinTo(cpus, pass + i);
            const ExperimentConfig cfg = paperConfig(c, a.seed);
            try {
                json::Value op = simUntraced(c, cfg, a.dir);
                if (a.trace)
                    op["traced"] = simTraced(c, cfg, a.dir, log);
                op["id"] = c.id;
                op["pass"] = pass;
                op["cpu"] = static_cast<std::int64_t>(sched_getcpu());
                ops.push(std::move(op));
            } catch (const std::exception &e) {
                ops.push(errorOp(c.id, pass, e));
            }
        }
        lastPass = wallNow() - passStart;
    }
    doc["ops"] = std::move(ops);
    if (a.trace) {
        doc["self_s"] = log.selfTimes();
        std::string err;
        if (!json::writeFile(log.chromeTrace(), a.dir + "/trace.json", err))
            throw std::runtime_error(err);
    }
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        json::Value doc = a.command == "setup"        ? cmdSetup(a)
                          : a.command == "nonperturb" ? cmdNonPerturb(a)
                                                      : cmdRun(a);
        std::printf("%s\n", doc.dump(0).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
