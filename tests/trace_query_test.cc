/**
 * @file
 * Differential and fuzz tests for the queryable trace store
 * (trace/query.hh + the mmap/stdio TraceReader).
 *
 * The core correctness argument is differential: a naive reference
 * scanner (decode *everything*, filter in a loop, no index use) is
 * compared bit-for-bit against the indexed query engine on a fixed-
 * seed randomized suite of filter/window combinations. On top of that
 * sit decode-counter checks (window queries decode only overlapping
 * chunks), mmap-vs-stdio equivalence, and corruption/truncation
 * fuzz enforcing the "diagnostic failure, never a crash" contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <vector>

#include "core/stream_analysis.hh"
#include "trace/query.hh"
#include "trace/trace_io.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<unsigned char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * A synthetic trace with enough structure for every filter to bite:
 * several cpus, all four miss classes, a smallish function id pool
 * (so --module matches many records), clustered blocks, and seq gaps
 * (so window boundaries land between records, not only on them).
 */
MissTrace
makeTrace(std::uint64_t count, std::uint64_t seed, unsigned numCpus,
          std::uint16_t fnPool)
{
    Rng rng(seed);
    MissTrace t;
    t.numCpus = numCpus;
    t.instructions = 40'000'000;
    std::uint64_t seq = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        seq += 1 + rng.below(5); // gaps: windows can split records
        MissRecord m;
        m.seq = seq;
        m.block = 0x1000 + rng.below(2048); // clustered: ranges match
        m.cpu = static_cast<CpuId>(rng.below(numCpus));
        m.cls = static_cast<std::uint8_t>(rng.below(4));
        m.fn = static_cast<FnId>(rng.below(fnPool));
        t.misses.push_back(m);
    }
    return t;
}

/** A registry whose ids cover makeTrace()'s fn pool. */
FunctionRegistry
makeRegistry(std::uint16_t fnPool)
{
    FunctionRegistry reg; // id 0 is the reserved unknown entry
    for (std::uint16_t i = 1; i < fnPool; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "fn_%03u", i);
        reg.intern(name,
                   static_cast<Category>(i % kNumCategories));
    }
    return reg;
}

// ---------------------------------------------------------------------------
// The naive reference scanner: decode everything, filter in a loop.
// Deliberately index-free and structured differently from the engine.
// ---------------------------------------------------------------------------

struct NaiveResult
{
    bool ok = false;
    std::string error;
    std::vector<MissRecord> records;
};

NaiveResult
naiveScan(const std::string &path, const QuerySpec &spec)
{
    NaiveResult out;
    auto reader = TraceReader::open(path);
    if (!reader) {
        out.error = reader.error();
        return out;
    }
    const TraceMeta &meta = reader->meta();

    const bool intra = meta.kind == TraceContentKind::IntraChip ||
                       meta.kind == TraceContentKind::IntraChipOnChip;

    std::optional<std::uint8_t> wantCls;
    if (!spec.cls.empty()) {
        const std::size_t n =
            intra ? kNumIntraClasses : kNumMissClasses;
        for (std::size_t c = 0; c < n; ++c) {
            const std::string_view name =
                intra ? intraClassName(static_cast<IntraClass>(c))
                      : missClassName(static_cast<MissClass>(c));
            if (name == spec.cls)
                wantCls = static_cast<std::uint8_t>(c);
        }
        if (!wantCls) {
            out.error = "naive: unknown class";
            return out;
        }
    }

    std::optional<FnId> wantFn;
    if (!spec.module.empty()) {
        for (std::size_t i = 0; i < meta.functions.size(); ++i)
            if (meta.functions[i].name == spec.module)
                wantFn = static_cast<FnId>(i);
        if (!wantFn) {
            out.error = "naive: unknown module";
            return out;
        }
    }

    std::optional<Category> wantCat;
    if (!spec.category.empty()) {
        for (std::size_t c = 0; c < kNumCategories; ++c)
            if (categoryName(static_cast<Category>(c)) ==
                spec.category)
                wantCat = static_cast<Category>(c);
        if (!wantCat) {
            out.error = "naive: unknown category";
            return out;
        }
        if (meta.functions.empty()) {
            out.error = "naive: no function table";
            return out;
        }
    }

    auto all = reader->readAll();
    if (!all) {
        out.error = all.error();
        return out;
    }
    for (const MissRecord &m : all->misses) {
        if (spec.seqLo && m.seq < *spec.seqLo)
            continue;
        if (spec.seqHi && m.seq >= *spec.seqHi)
            continue;
        if (spec.cpu && m.cpu != *spec.cpu)
            continue;
        if (wantCls && m.cls != *wantCls)
            continue;
        if (spec.blockLo && m.block < *spec.blockLo)
            continue;
        if (spec.blockHi && m.block >= *spec.blockHi)
            continue;
        if (wantFn && m.fn != *wantFn)
            continue;
        if (wantCat) {
            const Category c =
                m.fn < meta.functions.size()
                    ? meta.functions[m.fn].category
                    : Category::Uncategorized;
            if (c != *wantCat)
                continue;
        }
        out.records.push_back(m);
    }
    out.ok = true;
    return out;
}

void
expectSameRecords(const std::vector<MissRecord> &a,
                  const std::vector<MissRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seq, b[i].seq) << "record " << i;
        EXPECT_EQ(a[i].block, b[i].block) << "record " << i;
        EXPECT_EQ(a[i].cpu, b[i].cpu) << "record " << i;
        EXPECT_EQ(a[i].cls, b[i].cls) << "record " << i;
        EXPECT_EQ(a[i].fn, b[i].fn) << "record " << i;
    }
}

/** Save makeTrace() output with a small chunk size (many chunks). */
std::string
saveFixture(const char *name, const MissTrace &t,
            const FunctionRegistry *reg, std::uint32_t chunkRecords,
            TraceContentKind kind = TraceContentKind::OffChip)
{
    const std::string path = tmpPath(name);
    TraceWriteOptions w;
    w.chunkRecords = chunkRecords;
    w.kind = kind;
    w.registry = reg;
    w.configHash = 0xfeedface12345678ull;
    EXPECT_TRUE(saveTrace(t, path, w));
    return path;
}

// ---------------------------------------------------------------------------
// chunkRangeForSeq unit cases
// ---------------------------------------------------------------------------

TEST(TraceQuery, ChunkRangeForSeqBounds)
{
    const MissTrace t = makeTrace(4000, 7, 8, 64);
    const std::string path =
        saveFixture("range_unit.tst", t, nullptr, 256);
    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader) << reader.error();
    const std::vector<TraceChunk> &chunks = reader->meta().chunks;
    ASSERT_GT(chunks.size(), 4u);

    // Degenerate windows select nothing.
    EXPECT_EQ(reader->chunkRangeForSeq(10, 10).second,
              reader->chunkRangeForSeq(10, 10).first);
    EXPECT_EQ(reader->chunkRangeForSeq(20, 10).second,
              reader->chunkRangeForSeq(20, 10).first);

    // The full seq span selects every chunk.
    const auto full = reader->chunkRangeForSeq(0, ~0ull);
    EXPECT_EQ(full.first, 0u);
    EXPECT_EQ(full.second, chunks.size());

    // A window past the end selects at most the last chunk (the
    // conservative lo-1 step keeps one candidate).
    const std::uint64_t lastSeq = t.misses.back().seq;
    const auto past = reader->chunkRangeForSeq(lastSeq + 10'000,
                                               lastSeq + 20'000);
    EXPECT_LE(past.second - past.first, 1u);

    // Exhaustive agreement with a linear overlap scan, on every
    // chunk-boundary seed plus offsets around it.
    const auto lastOf = [&](std::size_t i) {
        return i + 1 < chunks.size() ? chunks[i + 1].firstSeq - 1
                                     : lastSeq;
    };
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        for (const std::int64_t d0 : {-2, -1, 0, 1, 2}) {
            const std::uint64_t t0 =
                chunks[i].firstSeq +
                static_cast<std::uint64_t>(d0 + 2) -
                2; // may wrap for chunk 0; harmless, still a window
            const std::uint64_t t1 = t0 + 700;
            const auto r = reader->chunkRangeForSeq(t0, t1);
            for (std::size_t c = 0; c < chunks.size(); ++c) {
                const bool overlaps = chunks[c].firstSeq < t1 &&
                                      lastOf(c) >= t0;
                if (overlaps) {
                    EXPECT_GE(c, r.first) << "t0=" << t0;
                    EXPECT_LT(c, r.second) << "t0=" << t0;
                }
            }
            // And at most one non-overlapping chunk is included.
            std::size_t extra = 0;
            for (std::size_t c = r.first; c < r.second; ++c)
                if (!(chunks[c].firstSeq < t1 && lastOf(c) >= t0))
                    ++extra;
            EXPECT_LE(extra, 1u) << "t0=" << t0;
        }
    }
}

// ---------------------------------------------------------------------------
// The differential suite: ~100 fixed-seed random filter/window combos
// on two recorded-trace-shaped fixtures, indexed engine vs naive scan.
// ---------------------------------------------------------------------------

QuerySpec
randomSpec(Rng &rng, const MissTrace &t, const TraceMeta &meta)
{
    QuerySpec spec;
    const std::uint64_t lastSeq = t.misses.back().seq;

    if (rng.below(2) == 0) { // temporal window (half get one)
        const std::uint64_t a = rng.below(lastSeq + 200);
        const std::uint64_t b = rng.below(lastSeq + 200);
        spec.seqLo = std::min(a, b);
        spec.seqHi = std::max(a, b) + 1;
    }
    if (rng.below(3) == 0)
        spec.cpu = static_cast<std::uint32_t>(
            rng.below(meta.numCpus + 1)); // sometimes matches nothing
    if (rng.below(3) == 0)
        spec.cls = std::string(missClassName(
            static_cast<MissClass>(rng.below(kNumMissClasses))));
    if (rng.below(4) == 0) {
        const std::uint64_t lo = 0x1000 + rng.below(2048);
        spec.blockLo = lo;
        spec.blockHi = lo + 1 + rng.below(512);
    }
    if (!meta.functions.empty()) {
        if (rng.below(4) == 0)
            spec.module =
                meta.functions[rng.below(meta.functions.size())]
                    .name;
        else if (rng.below(4) == 0)
            spec.category = std::string(categoryName(
                static_cast<Category>(rng.below(kNumCategories))));
    }
    return spec;
}

TEST(TraceQuery, DifferentialRandomizedVsNaiveScan)
{
    const std::uint16_t fnPool = 48;
    const FunctionRegistry reg = makeRegistry(fnPool);
    const MissTrace big = makeTrace(20'000, 11, 16, fnPool);
    const MissTrace small = makeTrace(900, 12, 4, fnPool);

    struct Fixture
    {
        std::string path;
        const MissTrace *trace;
    };
    const Fixture fixtures[] = {
        {saveFixture("diff_big.tst", big, &reg, 512), &big},
        {saveFixture("diff_small.tst", small, nullptr, 128), &small},
    };

    Rng rng(20260808);
    int ran = 0;
    for (int iter = 0; iter < 50; ++iter) {
        for (const Fixture &fx : fixtures) {
            auto reader = TraceReader::open(fx.path);
            ASSERT_TRUE(reader) << reader.error();
            const QuerySpec spec =
                randomSpec(rng, *fx.trace, reader->meta());

            const NaiveResult ref = naiveScan(fx.path, spec);
            auto got = queryRecords(*reader, spec);
            if (!ref.ok) {
                // Both sides must agree a filter doesn't resolve
                // (e.g. category filter on the table-free fixture).
                EXPECT_FALSE(static_cast<bool>(got))
                    << "engine matched where naive failed: "
                    << ref.error;
                continue;
            }
            ASSERT_TRUE(got) << got.error();
            expectSameRecords(ref.records, *got);
            ++ran;
        }
    }
    // The suite must actually exercise the comparison, not skip it.
    EXPECT_GE(ran, 80);
}

TEST(TraceQuery, WindowDecodesOnlyOverlappingChunks)
{
    const MissTrace t = makeTrace(20'000, 31, 8, 32);
    const std::string path =
        saveFixture("window_decode.tst", t, nullptr, 512);

    Rng rng(99);
    for (int iter = 0; iter < 25; ++iter) {
        const std::uint64_t lastSeq = t.misses.back().seq;
        const std::uint64_t a = rng.below(lastSeq);
        const std::uint64_t b = a + 1 + rng.below(lastSeq / 4);

        // Fresh reader per query: chunksDecoded() accumulates.
        auto reader = TraceReader::open(path);
        ASSERT_TRUE(reader) << reader.error();
        QuerySpec spec;
        spec.seqLo = a;
        spec.seqHi = b;
        const auto range = reader->chunkRangeForSeq(a, b);
        auto got = queryRecords(*reader, spec);
        ASSERT_TRUE(got) << got.error();
        EXPECT_EQ(reader->chunksDecoded(),
                  range.second - range.first);
        // Tight upper bound: chunks whose seq span intersects the
        // window, plus at most one conservative extra.
        std::size_t overlapping = 0;
        const std::vector<TraceChunk> &chunks =
            reader->meta().chunks;
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            const std::uint64_t first = chunks[c].firstSeq;
            const std::uint64_t last =
                c + 1 < chunks.size() ? chunks[c + 1].firstSeq - 1
                                      : lastSeq;
            if (first < b && last >= a)
                ++overlapping;
        }
        EXPECT_LE(reader->chunksDecoded(), overlapping + 1);
        EXPECT_GE(reader->chunksDecoded(), overlapping);
    }
}

TEST(TraceQuery, MmapAndStdioPathsAgree)
{
    const std::uint16_t fnPool = 40;
    const FunctionRegistry reg = makeRegistry(fnPool);
    const MissTrace t = makeTrace(8'000, 17, 8, fnPool);
    const std::string path =
        saveFixture("mmap_vs_stdio.tst", t, &reg, 1024);

    TraceOpenOptions mm, io;
    io.allowMmap = false;

    auto a = TraceReader::open(path, mm);
    auto b = TraceReader::open(path, io);
    ASSERT_TRUE(a) << a.error();
    ASSERT_TRUE(b) << b.error();
    EXPECT_FALSE(b->usingMmap());
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(a->usingMmap());
#endif

    QuerySpec spec;
    spec.seqLo = 1'000;
    spec.seqHi = 9'000;
    spec.cls = std::string(missClassName(MissClass::Replacement));
    auto ra = queryRecords(*a, spec);
    auto rb = queryRecords(*b, spec);
    ASSERT_TRUE(ra) << ra.error();
    ASSERT_TRUE(rb) << rb.error();
    expectSameRecords(*ra, *rb);

    auto fa = a->readAll();
    auto fb = b->readAll();
    ASSERT_TRUE(fa) << fa.error();
    ASSERT_TRUE(fb) << fb.error();
    expectSameRecords(fa->misses, fb->misses);
}

// ---------------------------------------------------------------------------
// Aggregates: recomputed naively from the reference matched set.
// ---------------------------------------------------------------------------

TEST(TraceQuery, CountsAggregateMatchesNaiveRecount)
{
    const MissTrace t = makeTrace(6'000, 23, 8, 32);
    const std::string path =
        saveFixture("counts.tst", t, nullptr, 512);

    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader) << reader.error();
    QuerySpec spec;
    spec.seqLo = 500;
    spec.seqHi = 9'500;
    spec.aggregates = {"counts"};
    spec.intervals = 6;
    auto out = runQuery(*reader, spec);
    ASSERT_TRUE(out) << out.error();

    const NaiveResult ref = naiveScan(path, spec);
    ASSERT_TRUE(ref.ok) << ref.error;
    EXPECT_EQ(out->matched, ref.records.size());

    ASSERT_EQ(out->rows.size(), 6u);
    std::uint64_t total = 0;
    for (const QueryRow &row : out->rows) {
        ASSERT_EQ(row.table, "counts");
        std::uint64_t lo = 0, hi = 0, misses = 0;
        double perClass[kNumMissClasses] = {};
        for (const auto &[name, value] : row.metrics) {
            if (name == "seq_lo")
                lo = static_cast<std::uint64_t>(value);
            else if (name == "seq_hi")
                hi = static_cast<std::uint64_t>(value);
            else if (name == "misses")
                misses = static_cast<std::uint64_t>(value);
            else
                for (std::size_t c = 0; c < kNumMissClasses; ++c)
                    if (name == missClassName(
                                    static_cast<MissClass>(c)))
                        perClass[c] = value;
        }
        std::uint64_t want = 0;
        double wantClass[kNumMissClasses] = {};
        for (const MissRecord &m : ref.records)
            if (m.seq >= lo && m.seq < hi) {
                ++want;
                wantClass[m.cls] += 1.0;
            }
        EXPECT_EQ(misses, want) << row.trace;
        for (std::size_t c = 0; c < kNumMissClasses; ++c)
            EXPECT_EQ(perClass[c], wantClass[c]) << row.trace;
        total += misses;
    }
    EXPECT_EQ(total, out->matched); // intervals partition the window
}

TEST(TraceQuery, StreamsAggregateMatchesDirectAnalysis)
{
    const MissTrace t = makeTrace(6'000, 29, 8, 32);
    const std::string path =
        saveFixture("streams.tst", t, nullptr, 1024);

    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader) << reader.error();
    QuerySpec spec;
    spec.cpu = 3;
    spec.aggregates = {"streams"};
    auto out = runQuery(*reader, spec);
    ASSERT_TRUE(out) << out.error();
    ASSERT_EQ(out->rows.size(), 1u);

    const NaiveResult ref = naiveScan(path, spec);
    ASSERT_TRUE(ref.ok);
    MissTrace sub;
    sub.misses = ref.records;
    sub.instructions = reader->meta().instructions;
    sub.numCpus = reader->meta().numCpus;
    const StreamStats s = analyzeStreams(sub);
    const double tot =
        std::max<double>(1.0, static_cast<double>(s.totalMisses));

    const auto metric = [&](const char *name) {
        for (const auto &[k, v] : out->rows[0].metrics)
            if (k == name)
                return v;
        ADD_FAILURE() << "missing metric " << name;
        return 0.0;
    };
    EXPECT_EQ(metric("non_repetitive_pct"),
              100.0 * static_cast<double>(s.nonRepetitive) / tot);
    EXPECT_EQ(metric("in_streams_pct"),
              100.0 * s.inStreamFraction());
}

TEST(TraceQuery, StreamsAggregateRejectsOutOfRangeCpu)
{
    // A decodable-but-inconsistent trace: header says 2 cpus, records
    // carry cpu 5. analyzeStreams() would panic on this; the query
    // layer must fail with a diagnostic instead (fuzz contract).
    MissTrace t = makeTrace(200, 41, 2, 16);
    for (MissRecord &m : t.misses)
        m.cpu = 5;
    const std::string path =
        saveFixture("bad_cpu.tst", t, nullptr, 64);

    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader) << reader.error();
    QuerySpec spec;
    spec.aggregates = {"streams"};
    auto out = runQuery(*reader, spec);
    ASSERT_FALSE(static_cast<bool>(out));
    EXPECT_NE(out.error().find("cpu out of range"),
              std::string::npos)
        << out.error();
}

TEST(TraceQuery, RunQueryRejectsUnknownAggregate)
{
    const MissTrace t = makeTrace(100, 43, 4, 16);
    const std::string path =
        saveFixture("bad_agg.tst", t, nullptr, 64);
    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader) << reader.error();
    QuerySpec spec;
    spec.aggregates = {"sumary"};
    auto out = runQuery(*reader, spec);
    ASSERT_FALSE(static_cast<bool>(out));
    EXPECT_NE(out.error().find("unknown aggregate"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Corruption/truncation fuzz: diagnostic failure, never a crash, and
// the differential rule — whenever the naive scan succeeds on the
// mutated file, the indexed engine succeeds with identical rows.
// ---------------------------------------------------------------------------

/** Run both engines on @p path; enforce the crash-free contract. */
void
fuzzOne(const std::string &path, const QuerySpec &spec)
{
    const NaiveResult ref = naiveScan(path, spec);
    auto reader = TraceReader::open(path);
    if (!reader) {
        EXPECT_FALSE(reader.error().empty());
        // open() failing means readAll() could not have run either.
        EXPECT_FALSE(ref.ok);
        return;
    }
    auto got = queryRecords(*reader, spec);
    if (ref.ok) {
        ASSERT_TRUE(got) << got.error();
        expectSameRecords(ref.records, *got);
    } else if (!got) {
        EXPECT_FALSE(got.error().empty());
    }
    // ref failed but the windowed query succeeded: legal — the naive
    // scan decodes chunks the window never touches.
}

TEST(TraceQuery, FuzzBitFlipsNeverCrash)
{
    const std::uint16_t fnPool = 24;
    const FunctionRegistry reg = makeRegistry(fnPool);
    const MissTrace t = makeTrace(3'000, 71, 8, fnPool);
    const std::string clean =
        saveFixture("fuzz_src.tst", t, &reg, 256);
    const std::vector<unsigned char> bytes = readFile(clean);
    ASSERT_FALSE(bytes.empty());

    QuerySpec window;
    window.seqLo = 100;
    window.seqHi = 4'000;
    const QuerySpec everything;

    const std::string mutant = tmpPath("fuzz_mut.tst");
    Rng rng(424242);
    for (int iter = 0; iter < 160; ++iter) {
        std::vector<unsigned char> mut = bytes;
        // Bias half the flips into the header + chunk index (the
        // trust-critical regions); spray the rest over the payload.
        std::size_t off;
        if (iter % 2 == 0 && bytes.size() > 96)
            off = rng.below(2) == 0
                      ? rng.below(96)
                      : bytes.size() - 1 - rng.below(192);
        else
            off = rng.below(bytes.size());
        mut[off] ^= static_cast<unsigned char>(
            1u << rng.below(8));
        writeFileBytes(mutant, mut);
        fuzzOne(mutant, everything);
        fuzzOne(mutant, window);
    }
}

TEST(TraceQuery, FuzzTruncationsNeverCrash)
{
    const MissTrace t = makeTrace(2'000, 73, 8, 16);
    const std::string clean =
        saveFixture("trunc_src.tst", t, nullptr, 256);
    const std::vector<unsigned char> bytes = readFile(clean);

    const std::string mutant = tmpPath("trunc_mut.tst");
    Rng rng(515151);
    std::vector<std::size_t> cuts = {0,  1,  4,  27, 71, 72,
                                     73, bytes.size() - 1};
    for (int i = 0; i < 24; ++i)
        cuts.push_back(rng.below(bytes.size()));
    for (const std::size_t cut : cuts) {
        std::vector<unsigned char> mut(bytes.begin(),
                                       bytes.begin() +
                                           static_cast<long>(cut));
        writeFileBytes(mutant, mut);
        fuzzOne(mutant, QuerySpec{});
    }
}

} // namespace
} // namespace tstream
