/**
 * @file
 * `tstream-trace` — record, inspect and analyze saved miss traces.
 *
 * The collect-once / analyze-many entry point: `record` captures one
 * (workload, context, budget) cell to a trace file, and the read-side
 * subcommands re-run the paper's figure analyses offline, so a trace
 * collected at paper scale can be projected into Figures 1-4 and the
 * Table 3-5 module attribution without re-simulating. `analyze` runs
 * the driver's own cell analysis (analyzeRun in sim/driver.hh) and
 * prints the figure views' own columns (core/figure_columns.hh), so
 * its numbers are the bench row's numbers; an `intra-all` trace
 * reproduces the intra-chip rows (classes over all misses, streams
 * over the on-chip hits).
 *
 * Subcommands:
 *   record         run one experiment and save the trace
 *   info           print header, tables and chunk index
 *   dump           print records as text, streamed chunk-at-a-time
 *   analyze        the fig1-fig4 columns (+ module table) offline
 *   query          filtered/windowed temporal queries (trace/query.hh):
 *                  cpu/class/module/category/block/seq-window filters
 *                  with summary/select/counts/streams/lengths
 *                  aggregates, human-readable and --json output
 *
 * `record --quick` uses exactly the bench harness's --quick budgets
 * (2 M warm-up, 4 M measured, 0.15x footprints, seed 42), so the
 * offline numbers from `analyze` reproduce a `--quick` figure bench
 * row bit-for-bit; the defaults match the benches' paper-scale
 * budgets the same way.
 */

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/figure_columns.hh"
#include "core/prefetch_policy.hh"
#include "gen/workload_config.hh"
#include "sim/bench_report.hh"
#include "sim/driver.hh"
#include "trace/query.hh"
#include "trace/trace_io.hh"
#include "util/parse_number.hh"

using namespace tstream;

namespace
{

int
usage(const char *msg)
{
    if (msg)
        std::fprintf(stderr, "tstream-trace: %s\n\n", msg);
    std::fprintf(stderr,
        "usage:\n"
        "  tstream-trace record --workload W --context C -o FILE [opts]\n"
        "  tstream-trace info FILE\n"
        "  tstream-trace dump FILE [--limit N] [--chunk I]\n"
        "  tstream-trace analyze FILE [--section S]...\n"
        "  tstream-trace query FILE [filters] [--agg LIST] [opts]\n"
        "\n"
        "record options:\n"
        "  --workload W       apache|zeus|oltp|dss-q1|dss-q2|dss-q17|\n"
        "                     kv|broker|phased-mix, or the path of a\n"
        "                     workload config file (grammar in\n"
        "                     docs/BENCHMARKING.md)\n"
        "  --phases S         inline phase records for phased-mix,\n"
        "                     e.g. \"kv mix=0.9 dist=zipfian theta=0.99\n"
        "                     duration=1500000; broker ...\"\n"
        "  --context C        multi-chip|single-chip\n"
        "  --trace T          off-chip (default) | intra-chip (on-chip-\n"
        "                     satisfied L1 misses) | intra-all\n"
        "  --quick            bench --quick budgets (2M/4M, 0.15x)\n"
        "  --warmup N         warm-up instructions (default 25000000)\n"
        "  --measure N        measured instructions (default 30000000)\n"
        "  --scale F          footprint scale (default 1.0)\n"
        "  --seed N           RNG seed (default 42)\n"
        "  --codec NAME       lz4 (default) | none\n"
        "  --chunk-records N  records per chunk (default 65536)\n"
        "  --prefetch-policy NAME\n"
        "                     run with an in-the-loop prefetcher\n"
        "                     (fixed|adaptive|stride|hybrid); covered\n"
        "                     misses vanish from the recorded trace\n"
        "  --prefetch-depth N replay depth for --prefetch-policy\n"
        "                     (default 8)\n"
        "  -o FILE            output path (required)\n"
        "\n"
        "analyze sections (default: all that apply):\n"
        "  classes   miss-class mix (fig1-style)\n"
        "  streams   stream fractions (fig2-style)\n"
        "  strides   strided x repetitive joint breakdown (fig3-style)\n"
        "  lengths   length CDF and reuse-distance PDF (fig4-style)\n"
        "  modules   per-module origin table (tables 3-5 style;\n"
        "            needs an embedded function table)\n"
        "\n"
        "query filters (AND-ed; all optional):\n"
        "  --cpu N            requesting cpu / node\n"
        "  --class NAME       miss class (\"Compulsory\", ...; intra\n"
        "                     traces take \"Coherence:L2\", ...)\n"
        "  --module NAME      exact function name (needs fn table)\n"
        "  --category NAME    Table 2 category (\"System calls\", ...)\n"
        "  --block LO:HI      half-open block range (0x.. accepted)\n"
        "  --window T0:T1     half-open seq window; only overlapping\n"
        "                     chunks are decoded (binary search)\n"
        "\n"
        "query options:\n"
        "  --agg LIST         comma list of summary|select|counts|\n"
        "                     streams|lengths (default summary,select)\n"
        "  --intervals N      intervals for counts/lengths (default 8)\n"
        "  --limit N          max select rows, 0 = all (default 32)\n"
        "  --json PATH        also write a tstream-query/v1 document\n"
        "  --no-mmap          force the streaming (stdio) read path\n");
    return 2;
}

bool
parseWorkload(std::string_view s, WorkloadKind &out)
{
    struct Alias { std::string_view name; WorkloadKind kind; };
    static const Alias kAliases[] = {
        {"apache", WorkloadKind::Apache},
        {"zeus", WorkloadKind::Zeus},
        {"oltp", WorkloadKind::Oltp},
        {"dss-q1", WorkloadKind::DssQ1},
        {"dss-q2", WorkloadKind::DssQ2},
        {"dss-q17", WorkloadKind::DssQ17},
        {"kv", WorkloadKind::KvStore},
        {"kvstore", WorkloadKind::KvStore},
        {"broker", WorkloadKind::Broker},
        {"mq", WorkloadKind::Broker},
        {"phased-mix", WorkloadKind::PhasedMix},
        {"phased", WorkloadKind::PhasedMix},
    };
    for (const Alias &a : kAliases)
        if (s == a.name || s == workloadName(a.kind)) {
            out = a.kind;
            return true;
        }
    return false;
}

bool
parseContext(std::string_view s, SystemContext &out)
{
    if (s == "multi-chip" || s == "multi") {
        out = SystemContext::MultiChip;
        return true;
    }
    if (s == "single-chip" || s == "single") {
        out = SystemContext::SingleChip;
        return true;
    }
    return false;
}

// ---- record -----------------------------------------------------------------

int
cmdRecord(int argc, char **argv)
{
    ExperimentConfig cfg;
    cfg.warmupInstructions = kPaperBudgets.warmupInstructions;
    cfg.measureInstructions = kPaperBudgets.measureInstructions;
    cfg.scale = kPaperBudgets.scale;
    bool haveWorkload = false, haveContext = false;
    bool workloadFromFile = false;
    std::string out;
    std::string traceSel = "off-chip";
    std::string phasesSpec;
    bool prefetchDepthSet = false;
    TraceWriteOptions opts;

    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // A number flag without a value fails its parse like a bad one.
        auto number = [&] {
            return std::string_view(i + 1 < argc ? argv[++i] : "");
        };
        const char *v;
        std::string err;
        if (arg == "--workload") {
            if (!(v = value()))
                return usage("missing --workload value");
            if (parseWorkload(v, cfg.workload)) {
                haveWorkload = true;
            } else {
                // Not a workload name: treat it as a workload config
                // file (gen/workload_config.hh).
                WorkloadConfig config;
                std::string err;
                if (!config.loadFromFile(v, err))
                    return usage(("--workload: '" + std::string(v) +
                                  "' is neither a workload name nor "
                                  "a valid config file (" +
                                  err + ")")
                                     .c_str());
                cfg.workload = config.kind;
                cfg.phases = config.schedule;
                haveWorkload = true;
                workloadFromFile = true;
            }
        } else if (arg == "--phases") {
            if (!(v = value()))
                return usage("missing --phases value");
            phasesSpec = v;
        } else if (arg == "--context") {
            if (!(v = value()) || !parseContext(v, cfg.context))
                return usage("bad or missing --context");
            haveContext = true;
        } else if (arg == "--trace") {
            if (!(v = value()))
                return usage("missing --trace value");
            traceSel = v;
            if (traceSel != "off-chip" && traceSel != "intra-chip" &&
                traceSel != "intra-all")
                return usage("bad --trace value");
        } else if (arg == "--quick") {
            // Same preset as bench --quick, so offline analysis
            // reproduces the --quick bench rows bit-for-bit.
            cfg.warmupInstructions = kQuickBudgets.warmupInstructions;
            cfg.measureInstructions = kQuickBudgets.measureInstructions;
            cfg.scale = kQuickBudgets.scale;
        } else if (arg == "--warmup") {
            err = parseInt(arg, number(), cfg.warmupInstructions, 0);
        } else if (arg == "--measure") {
            err = parseInt(arg, number(), cfg.measureInstructions, 1);
        } else if (arg == "--scale") {
            err = parsePositiveReal(arg, number(), cfg.scale);
        } else if (arg == "--seed") {
            err = parseInt(arg, number(), cfg.seed, 0);
        } else if (arg == "--codec") {
            if (!(v = value()) || !codecByName(v))
                return usage("unknown --codec (try lz4 or none)");
            opts.codec = codecByName(v)->id();
        } else if (arg == "--chunk-records") {
            err = parseInt(arg, number(), opts.chunkRecords, 1);
        } else if (arg == "--prefetch-policy") {
            if (!(v = value()))
                return usage("missing --prefetch-policy value");
            err = unknownPolicyError(arg, v);
            cfg.prefetchLoop.enabled = true;
            cfg.prefetchLoop.policy = v;
        } else if (arg == "--prefetch-depth") {
            err = parseInt(arg, number(), cfg.prefetchLoop.ts.replayDepth,
                           1, 1024);
            prefetchDepthSet = true;
        } else if (arg == "-o" || arg == "--output") {
            if (!(v = value()))
                return usage("missing -o value");
            out = v;
        } else {
            return usage(("unknown record option: " + std::string(arg))
                             .c_str());
        }
        if (!err.empty())
            return usage(err.c_str());
    }
    if (!haveWorkload || !haveContext || out.empty())
        return usage("record needs --workload, --context and -o");
    if (prefetchDepthSet && !cfg.prefetchLoop.enabled)
        return usage("--prefetch-depth needs --prefetch-policy");
    if (traceSel != "off-chip" &&
        cfg.context != SystemContext::SingleChip)
        return usage("intra-chip traces exist only in the single-chip "
                     "context");
    if (!phasesSpec.empty()) {
        // Reject silently-ineffective combinations: a schedule only
        // means something for phased-mix, and a config file already
        // carries its own.
        if (workloadFromFile)
            return usage("--phases cannot be combined with a workload "
                         "config file (the file already carries its "
                         "schedule)");
        if (cfg.workload != WorkloadKind::PhasedMix)
            return usage("--phases applies only to --workload "
                         "phased-mix");
        std::string err;
        if (!parsePhasesSpec(phasesSpec, cfg.phases, err))
            return usage(("--phases: " + err).c_str());
    }

    std::fprintf(stderr,
                 "recording %s / %s (%" PRIu64 " warm-up + %" PRIu64
                 " measured instructions, scale %.2f)...\n",
                 std::string(workloadName(cfg.workload)).c_str(),
                 std::string(contextName(cfg.context)).c_str(),
                 cfg.warmupInstructions, cfg.measureInstructions,
                 cfg.scale);
    ExperimentResult res = runExperiment(cfg);
    if (res.prefetchEnabled)
        std::fprintf(stderr,
                     "prefetch loop (%s): %" PRIu64 " issued, %.1f%% "
                     "coverage, %.1f%% accuracy; %" PRIu64
                     " covered misses removed from the trace\n",
                     cfg.prefetchLoop.policy.c_str(),
                     res.prefetch.issued, 100.0 * res.prefetch.coverage(),
                     100.0 * res.prefetch.accuracy(),
                     res.prefetchCoveredTraced);

    MissTrace trace;
    if (traceSel == "off-chip") {
        trace = std::move(res.offChip);
        opts.kind = TraceContentKind::OffChip;
    } else if (traceSel == "intra-chip") {
        trace = onChipMisses(std::move(res.intraChip));
        opts.kind = TraceContentKind::IntraChipOnChip;
    } else {
        trace = std::move(res.intraChip);
        opts.kind = TraceContentKind::IntraChip;
    }
    opts.configHash = configHash(cfg);
    opts.registry = &res.registry;

    if (!saveTrace(trace, out, opts)) {
        std::fprintf(stderr, "tstream-trace: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::printf("wrote %s: %zu misses over %" PRIu64
                " instructions (%.2f MPKI), %s trace, config %016" PRIx64
                "\n",
                out.c_str(), trace.misses.size(), trace.instructions,
                trace.mpki(),
                std::string(traceContentKindName(opts.kind)).c_str(),
                opts.configHash);
    return 0;
}

// ---- info -------------------------------------------------------------------

int
cmdInfo(const std::string &path)
{
    auto reader = TraceReader::open(path);
    if (!reader) {
        std::fprintf(stderr, "tstream-trace: %s\n",
                     reader.error().c_str());
        return 1;
    }
    const TraceMeta &m = reader->meta();
    const Codec *codec = codecById(m.codec);

    std::printf("%s:\n", path.c_str());
    std::printf("  version       %u\n", m.version);
    std::printf("  content       %s\n",
                std::string(traceContentKindName(m.kind)).c_str());
    std::printf("  cpus          %u\n", m.numCpus);
    std::printf("  instructions  %" PRIu64 "\n", m.instructions);
    std::printf("  records       %" PRIu64 " (%.2f MPKI)\n",
                m.recordCount,
                m.instructions == 0
                    ? 0.0
                    : 1000.0 * static_cast<double>(m.recordCount) /
                          static_cast<double>(m.instructions));
    std::printf("  config hash   %016" PRIx64 "%s\n", m.configHash,
                m.configHash == 0 ? " (not recorded)" : "");
    std::printf("  codec         %s (id %u)\n",
                codec ? std::string(codec->name()).c_str() : "?",
                m.codec);
    std::printf("  functions     %zu%s\n", m.functions.size(),
                m.functions.empty() ? " (no module attribution)" : "");

    std::printf("  fields        ");
    for (const TraceField &fld : m.fields)
        std::printf("id%u/enc%u/%ub ", fld.id, fld.encoding,
                    fld.widthBits);
    std::printf("\n");

    std::uint64_t stored = 0;
    for (const TraceChunk &c : m.chunks)
        stored += c.storedBytes;
    std::printf("  chunks        %zu (<= %u records each, %" PRIu64
                " payload bytes",
                m.chunks.size(), m.chunkRecords, stored);
    if (m.recordCount > 0)
        std::printf(", %.2f B/miss", static_cast<double>(stored) /
                                         static_cast<double>(
                                             m.recordCount));
    std::printf(")\n");

    const std::size_t show = std::min<std::size_t>(m.chunks.size(), 8);
    for (std::size_t i = 0; i < show; ++i) {
        const TraceChunk &c = m.chunks[i];
        std::printf("    chunk %-4zu offset %-10" PRIu64
                    " firstSeq %-10" PRIu64 " records %-8u bytes %u\n",
                    i, c.offset, c.firstSeq, c.records, c.storedBytes);
    }
    if (show < m.chunks.size())
        std::printf("    ... %zu more chunks\n", m.chunks.size() - show);
    return 0;
}

// ---- dump -------------------------------------------------------------------

int
cmdDump(const std::string &path, std::uint64_t limit, long onlyChunk)
{
    auto reader = TraceReader::open(path);
    if (!reader) {
        std::fprintf(stderr, "tstream-trace: %s\n",
                     reader.error().c_str());
        return 1;
    }
    const TraceMeta &m = reader->meta();
    auto registry = reader->hasFunctions()
                        ? reader->functions()
                        : TraceResult<FunctionRegistry>::failure("");

    std::printf("%-12s %-16s %4s %-28s %s\n", "seq", "block", "cpu",
                "class", "function");
    std::uint64_t printed = 0;
    for (std::size_t i = 0; i < m.chunks.size(); ++i) {
        if (onlyChunk >= 0 && i != static_cast<std::size_t>(onlyChunk))
            continue;
        auto records = reader->readChunk(i);
        if (!records) {
            std::fprintf(stderr, "tstream-trace: %s\n",
                         records.error().c_str());
            return 1;
        }
        for (const MissRecord &r : *records) {
            if (limit > 0 && printed >= limit) {
                std::printf("... (limit %" PRIu64
                            " reached; --limit 0 for all)\n",
                            limit);
                return 0;
            }
            const std::string fn =
                registry && r.fn < registry->size()
                    ? registry->name(r.fn)
                    : std::to_string(r.fn);
            std::printf("%-12" PRIu64 " %016" PRIx64 " %4u %-28s %s\n",
                        r.seq, static_cast<std::uint64_t>(r.block),
                        r.cpu,
                        std::string(missClassNameFor(m.kind, r.cls)).c_str(),
                        fn.c_str());
            ++printed;
        }
    }
    return 0;
}

// ---- query ------------------------------------------------------------------

bool
parseU64(const char *s, std::uint64_t &v)
{
    // strtoull would take a sign (wrapping "-1") or leading blanks.
    if (!std::isdigit(static_cast<unsigned char>(*s)))
        return false;
    char *end = nullptr;
    v = std::strtoull(s, &end, 0);
    return end != nullptr && end != s && *end == '\0';
}

/** Parse "LO:HI" (base-0 integers, 0x.. accepted) into a pair. */
bool
parseRange(const char *s, std::uint64_t &lo, std::uint64_t &hi)
{
    const char *colon = std::strchr(s, ':');
    if (!colon || colon == s || colon[1] == '\0')
        return false;
    const std::string a(s, colon), b(colon + 1);
    return parseU64(a.c_str(), lo) && parseU64(b.c_str(), hi);
}

int
cmdQuery(int argc, char **argv)
{
    std::string path, jsonPath;
    QuerySpec spec;
    TraceOpenOptions oopts;

    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v;
        std::uint64_t n, m;
        if (arg == "--cpu") {
            if (!(v = value()) || !parseU64(v, n) || n > 0xFFFFFFFFu)
                return usage("bad or missing --cpu value");
            spec.cpu = static_cast<std::uint32_t>(n);
        } else if (arg == "--class") {
            if (!(v = value()))
                return usage("missing --class value");
            spec.cls = v;
        } else if (arg == "--module") {
            if (!(v = value()))
                return usage("missing --module value");
            spec.module = v;
        } else if (arg == "--category") {
            if (!(v = value()))
                return usage("missing --category value");
            spec.category = v;
        } else if (arg == "--block") {
            if (!(v = value()) || !parseRange(v, n, m))
                return usage("--block needs LO:HI");
            if (m <= n)
                return usage("--block: empty or inverted range");
            spec.blockLo = n;
            spec.blockHi = m;
        } else if (arg == "--window") {
            if (!(v = value()) || !parseRange(v, n, m))
                return usage("--window needs T0:T1");
            if (m <= n)
                return usage("--window: empty or inverted range");
            spec.seqLo = n;
            spec.seqHi = m;
        } else if (arg == "--agg") {
            if (!(v = value()))
                return usage("missing --agg value");
            std::string_view rest = v;
            while (!rest.empty()) {
                const std::size_t comma = rest.find(',');
                const std::string_view one = rest.substr(0, comma);
                if (!one.empty())
                    spec.aggregates.emplace_back(one);
                if (comma == std::string_view::npos)
                    break;
                rest.remove_prefix(comma + 1);
            }
        } else if (arg == "--intervals") {
            if (!(v = value()) || !parseU64(v, n) || n == 0 ||
                n > 4096)
                return usage("--intervals needs 1..4096");
            spec.intervals = static_cast<std::uint32_t>(n);
        } else if (arg == "--limit") {
            if (!(v = value()) || !parseU64(v, n))
                return usage("bad or missing --limit value");
            spec.limit = n;
        } else if (arg == "--json") {
            if (!(v = value()))
                return usage("missing --json value");
            jsonPath = v;
        } else if (arg == "--no-mmap") {
            oopts.allowMmap = false;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(
                ("unknown query option: " + std::string(arg)).c_str());
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage("query takes exactly one trace file");
        }
    }
    if (path.empty())
        return usage("query needs a trace file");

    auto reader = TraceReader::open(path, oopts);
    if (!reader) {
        std::fprintf(stderr, "tstream-trace: %s\n",
                     reader.error().c_str());
        return 1;
    }

    auto result = runQuery(*reader, spec);
    if (!result) {
        std::fprintf(stderr, "tstream-trace: %s: %s\n", path.c_str(),
                     result.error().c_str());
        return 1;
    }

    const TraceMeta &meta = reader->meta();
    std::printf("%s: %s trace, %" PRIu64 " records, %zu chunks\n",
                path.c_str(),
                std::string(traceContentKindName(meta.kind)).c_str(),
                meta.recordCount, meta.chunks.size());
    std::string table;
    for (const QueryRow &row : result->rows) {
        if (row.table != table) {
            table = row.table;
            std::printf("%s:\n", table.c_str());
        }
        std::printf("  %s\n", row.text.c_str());
    }

    if (!jsonPath.empty()) {
        QueryDoc doc;
        doc.source = path;
        doc.kind = meta.kind;
        doc.configHash = meta.configHash;
        doc.spec = spec;
        doc.output = std::move(*result);
        std::string err;
        if (!writeQueryDoc(doc, jsonPath, err)) {
            std::fprintf(stderr, "tstream-trace: %s\n", err.c_str());
            return 1;
        }
    }
    return 0;
}

// ---- analyze ----------------------------------------------------------------

bool
wantSection(const std::vector<std::string> &sections, const char *name)
{
    if (sections.empty())
        return true;
    return std::find(sections.begin(), sections.end(), name) !=
           sections.end();
}

int
cmdAnalyze(const std::string &path,
           const std::vector<std::string> &sections)
{
    auto reader = TraceReader::open(path);
    if (!reader) {
        std::fprintf(stderr, "tstream-trace: %s\n",
                     reader.error().c_str());
        return 1;
    }
    auto loaded = reader->readAll();
    if (!loaded) {
        std::fprintf(stderr, "tstream-trace: %s: %s\n", path.c_str(),
                     loaded.error().c_str());
        return 1;
    }
    const TraceMeta &m = reader->meta();
    std::optional<FunctionRegistry> registry;
    if (reader->hasFunctions()) {
        auto functions = reader->functions();
        if (!functions) {
            std::fprintf(stderr, "tstream-trace: %s\n",
                         functions.error().c_str());
            return 1;
        }
        registry = std::move(*functions);
    }

    std::printf("%s: %zu misses, %u cpus, %" PRIu64
                " instructions (%.2f MPKI), %s trace\n\n",
                path.c_str(), loaded->misses.size(), loaded->numCpus,
                loaded->instructions, loaded->mpki(),
                std::string(traceContentKindName(m.kind)).c_str());

    // The bench's own cell analysis and figure columns: an intra-chip
    // trace is classified over all of its misses and analyzed over its
    // on-chip hits, exactly like the bench's intra-chip rows. An
    // off-chip trace's columns do not depend on its context.
    const bool intra = isIntraChipKind(m.kind);
    const RunOutput r =
        analyzeRun(intra ? TraceKind::IntraChip : TraceKind::MultiChip,
                   std::move(*loaded), registry ? &*registry : nullptr);

    if (wantSection(sections, "classes")) {
        std::printf("miss classes (fig1):\n");
        if (intra)
            std::printf("  %8s %9s %8s %8s %8s %8s\n", "MPKI", "Peer-L1",
                        "Coh:L2", "Repl:L2", "Off-chip", "coh-shr");
        else
            std::printf("  %8s %10s %6s %8s %10s %10s\n", "MPKI",
                        "Compulsory", "I/O", "Repl", "Coherence",
                        "misses");
        std::printf(
            " %s\n\n",
            missClassColumns(r.classMisses, r.instructions, intra)
                .text.c_str());
    }

    if (wantSection(sections, "streams")) {
        std::printf("stream fractions (fig2):\n");
        std::printf("  %10s %10s %12s %10s\n", "non-rep", "new",
                    "recurring", "in-streams");
        std::printf(" %s\n\n", streamColumns(r.streams).text.c_str());
    }

    if (wantSection(sections, "strides")) {
        std::printf("strides x streams (fig3):\n");
        std::printf("  %10s %10s %10s %10s %8s\n", "rep+str",
                    "rep+nonstr", "nonrep+str", "nonrep+ns", "strided");
        std::printf(" %s\n\n", strideColumns(r.streams).text.c_str());
    }

    if (wantSection(sections, "lengths")) {
        std::printf("stream length CDF (fig4 left):\n ");
        for (auto p : kStreamLengthPoints)
            std::printf(" <=%-5llu", static_cast<unsigned long long>(p));
        std::printf(" median\n %s\n",
                    lengthCdfColumns(r.streams).text.c_str());
        std::printf("reuse distance per decade (fig4 right):\n ");
        for (int d = 0; d < kReuseDecades; ++d)
            std::printf("  1e%d-1e%d", d, d + 1);
        std::printf("\n %s\n\n", reuseColumns(r.streams).text.c_str());
    }

    if (wantSection(sections, "modules")) {
        if (!registry)
            std::printf("modules: trace has no function table; record "
                        "with the default v2 writer to enable\n");
        else
            std::printf("module origins (tables 3-5 + scenarios):\n%s",
                        renderModuleTable(r.modules, /*web_rows=*/true,
                                          /*db_rows=*/true,
                                          /*scenario_rows=*/true)
                            .c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage("missing subcommand");
    const std::string_view cmd = argv[1];

    if (cmd == "record")
        return cmdRecord(argc - 2, argv + 2);

    if (cmd == "info") {
        // Strict parsing, as in the benches: an unknown flag exits
        // with usage instead of being silently ignored.
        std::string path;
        for (int i = 2; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (!arg.empty() && arg[0] == '-')
                return usage(
                    ("unknown info option: " + std::string(arg))
                        .c_str());
            if (!path.empty())
                return usage("info takes exactly one trace file");
            path = arg;
        }
        if (path.empty())
            return usage("info needs a trace file");
        return cmdInfo(path);
    }

    if (cmd == "query")
        return cmdQuery(argc - 2, argv + 2);

    if (cmd == "dump") {
        std::string path;
        std::uint64_t limit = 32;
        long chunk = -1;
        for (int i = 2; i < argc; ++i) {
            const std::string_view arg = argv[i];
            auto number = [&] {
                return std::string_view(i + 1 < argc ? argv[++i] : "");
            };
            std::string err;
            if (arg == "--limit") {
                err = parseInt(arg, number(), limit, 0);
            } else if (arg == "--chunk") {
                err = parseInt(arg, number(), chunk, 0);
            } else if (!arg.empty() && arg[0] == '-') {
                // Reject anything unrecognized (same contract as the
                // bench binaries since the strict-args change).
                return usage(
                    ("unknown dump option: " + std::string(arg))
                        .c_str());
            } else if (path.empty()) {
                path = arg;
            } else {
                return usage("dump takes exactly one trace file");
            }
            if (!err.empty())
                return usage(err.c_str());
        }
        if (path.empty())
            return usage("dump needs a trace file");
        return cmdDump(path, limit, chunk);
    }

    if (cmd == "analyze") {
        std::string path;
        std::vector<std::string> sections;
        for (int i = 2; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (arg == "--section") {
                if (i + 1 >= argc)
                    return usage("missing value for --section");
                sections.emplace_back(argv[++i]);
            } else if (!arg.empty() && arg[0] == '-') {
                return usage(
                    ("unknown analyze option: " + std::string(arg))
                        .c_str());
            } else if (path.empty()) {
                path = arg;
            } else {
                return usage("analyze takes exactly one trace file");
            }
        }
        if (path.empty())
            return usage("analyze needs a trace file");
        return cmdAnalyze(path, sections);
    }

    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return usage(nullptr);
    return usage(("unknown subcommand: " + std::string(cmd)).c_str());
}
