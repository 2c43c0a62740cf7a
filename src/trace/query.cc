#include "trace/query.hh"

#include <algorithm>
#include <cinttypes>

#include "core/figure_columns.hh"
#include "util/strprintf.hh"

namespace tstream
{

namespace
{

std::size_t
numClassesFor(TraceContentKind kind)
{
    return isIntraChipKind(kind) ? kNumIntraClasses : kNumMissClasses;
}

/** The spec's filters resolved against one trace's metadata. */
struct ResolvedFilters
{
    std::optional<std::uint8_t> cls;
    std::optional<FnId> fn;
    std::optional<Category> category;
    std::uint64_t seqLo = 0;
    std::uint64_t seqHi = ~std::uint64_t(0);
};

bool
resolveFilters(const TraceMeta &meta, const QuerySpec &spec,
               ResolvedFilters &out, std::string &err)
{
    if (!spec.cls.empty()) {
        const std::size_t n = numClassesFor(meta.kind);
        bool found = false;
        for (std::size_t c = 0; c < n; ++c)
            if (spec.cls == missClassNameFor(
                                meta.kind,
                                static_cast<std::uint8_t>(c))) {
                out.cls = static_cast<std::uint8_t>(c);
                found = true;
                break;
            }
        if (!found) {
            err = "unknown miss class '" + spec.cls + "' for a " +
                  std::string(traceContentKindName(meta.kind)) +
                  " trace";
            return false;
        }
    }
    if (!spec.module.empty() || !spec.category.empty()) {
        if (meta.functions.empty()) {
            err = "trace has no function table (module/category "
                  "filters need one; record with the v2 writer)";
            return false;
        }
    }
    if (!spec.module.empty()) {
        bool found = false;
        for (std::size_t id = 0; id < meta.functions.size(); ++id)
            if (meta.functions[id].name == spec.module) {
                out.fn = static_cast<FnId>(id);
                found = true;
                break;
            }
        if (!found) {
            err = "unknown module '" + spec.module +
                  "' (not in the trace's function table)";
            return false;
        }
    }
    if (!spec.category.empty()) {
        bool found = false;
        for (std::size_t c = 0; c < kNumCategories; ++c)
            if (spec.category ==
                categoryName(static_cast<Category>(c))) {
                out.category = static_cast<Category>(c);
                found = true;
                break;
            }
        if (!found) {
            err = "unknown category '" + spec.category + "'";
            return false;
        }
    }
    if (spec.seqLo)
        out.seqLo = *spec.seqLo;
    if (spec.seqHi)
        out.seqHi = *spec.seqHi;
    return true;
}

bool
matches(const MissRecord &m, const TraceMeta &meta,
        const QuerySpec &spec, const ResolvedFilters &f)
{
    if (m.seq < f.seqLo || m.seq >= f.seqHi)
        return false;
    if (spec.cpu && m.cpu != *spec.cpu)
        return false;
    if (f.cls && m.cls != *f.cls)
        return false;
    if (spec.blockLo && m.block < *spec.blockLo)
        return false;
    if (spec.blockHi && m.block >= *spec.blockHi)
        return false;
    if (f.fn && m.fn != *f.fn)
        return false;
    if (f.category) {
        const Category c =
            m.fn < meta.functions.size()
                ? meta.functions[m.fn].category
                : Category::Uncategorized;
        if (c != *f.category)
            return false;
    }
    return true;
}

/**
 * The effective aggregation window: the spec's bounds where given,
 * else the matched records' extent. Empty (lo >= hi) when nothing
 * pins it down.
 */
std::pair<std::uint64_t, std::uint64_t>
effectiveWindow(const QuerySpec &spec,
                const std::vector<MissRecord> &matched)
{
    std::uint64_t lo = 0, hi = 0;
    if (spec.seqLo)
        lo = *spec.seqLo;
    else if (!matched.empty())
        lo = matched.front().seq;
    if (spec.seqHi)
        hi = *spec.seqHi;
    else if (!matched.empty())
        hi = matched.back().seq + 1;
    return {lo, hi};
}

/** Split [lo, hi) into <= n equal-width intervals (last may be short). */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
splitIntervals(std::uint64_t lo, std::uint64_t hi, std::uint32_t n)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    if (hi <= lo)
        return out;
    const std::uint64_t span = hi - lo;
    const std::uint64_t width = (span + n - 1) / n;
    for (std::uint64_t start = lo; start < hi; start += width)
        out.emplace_back(start, std::min(hi, start + width));
    return out;
}

/**
 * analyzeStreams() panics on cpu >= numCpus; a trace that decodes
 * cleanly can still carry such records (the cpu column is raw bytes),
 * so the stream aggregates check first and fail with a diagnostic.
 */
bool
cpusInRange(const std::vector<MissRecord> &recs, std::uint32_t numCpus)
{
    const std::uint32_t ncpu = std::max(1u, numCpus);
    for (const MissRecord &m : recs)
        if (m.cpu >= ncpu)
            return false;
    return true;
}

void
buildSummaryRows(const QueryOutput &out, std::vector<QueryRow> &rows)
{
    QueryRow row;
    row.table = "summary";
    row.text = strprintf("matched %" PRIu64 " of %" PRIu64
                   " records (decoded %" PRIu64 " of %" PRIu64
                   " chunks)",
                   out.matched, out.scanned, out.chunksDecoded,
                   out.chunksTotal);
    row.metrics = {
        {"matched", static_cast<double>(out.matched)},
        {"scanned", static_cast<double>(out.scanned)},
        {"chunks_decoded", static_cast<double>(out.chunksDecoded)},
        {"chunks_total", static_cast<double>(out.chunksTotal)},
    };
    rows.push_back(std::move(row));
}

void
buildSelectRows(const TraceMeta &meta,
                const std::vector<MissRecord> &matched,
                std::uint64_t limit, std::vector<QueryRow> &rows)
{
    std::uint64_t n = 0;
    for (const MissRecord &m : matched) {
        if (limit > 0 && n >= limit)
            break;
        QueryRow row;
        row.table = "select";
        row.trace = std::to_string(m.seq);
        const std::string fn =
            m.fn < meta.functions.size() && !meta.functions.empty()
                ? meta.functions[m.fn].name
                : std::to_string(m.fn);
        row.label = fn;
        row.text = strprintf("%-12" PRIu64 " %016" PRIx64 " %4u %-28s %s",
                       m.seq, static_cast<std::uint64_t>(m.block),
                       m.cpu,
                       std::string(missClassNameFor(meta.kind, m.cls))
                           .c_str(),
                       fn.c_str());
        row.metrics = {
            {"seq", static_cast<double>(m.seq)},
            {"block", static_cast<double>(m.block)},
            {"cpu", static_cast<double>(m.cpu)},
            {"cls", static_cast<double>(m.cls)},
            {"fn", static_cast<double>(m.fn)},
        };
        rows.push_back(std::move(row));
        ++n;
    }
}

void
buildCountRows(const TraceMeta &meta, const QuerySpec &spec,
               const std::vector<MissRecord> &matched,
               std::uint32_t intervals, std::vector<QueryRow> &rows)
{
    const auto [lo, hi] = effectiveWindow(spec, matched);
    const auto ivs = splitIntervals(lo, hi, intervals);
    const std::size_t nCls = numClassesFor(meta.kind);
    std::size_t next = 0; // matched is sorted by seq
    for (const auto &[a, b] : ivs) {
        std::uint64_t total = 0;
        std::vector<std::uint64_t> byCls(nCls, 0);
        while (next < matched.size() && matched[next].seq < b) {
            const MissRecord &m = matched[next++];
            if (m.seq < a)
                continue; // before the first interval
            ++total;
            if (m.cls < nCls)
                ++byCls[m.cls];
        }
        QueryRow row;
        row.table = "counts";
        row.trace = strprintf("[%" PRIu64 ",%" PRIu64 ")", a, b);
        std::string text =
            strprintf("%-28s %10" PRIu64, row.trace.c_str(), total);
        row.metrics = {
            {"seq_lo", static_cast<double>(a)},
            {"seq_hi", static_cast<double>(b)},
            {"misses", static_cast<double>(total)},
        };
        for (std::size_t c = 0; c < nCls; ++c) {
            const std::string name(missClassNameFor(
                meta.kind, static_cast<std::uint8_t>(c)));
            row.metrics.emplace_back(
                name, static_cast<double>(byCls[c]));
            text += strprintf("  %s %" PRIu64, name.c_str(), byCls[c]);
        }
        row.text = std::move(text);
        rows.push_back(std::move(row));
    }
}

bool
buildStreamRows(const TraceMeta &meta,
                const std::vector<MissRecord> &matched,
                std::vector<QueryRow> &rows, std::string &err)
{
    if (!cpusInRange(matched, meta.numCpus)) {
        err = "stream aggregate: record cpu out of range for a " +
              std::to_string(meta.numCpus) + "-cpu trace";
        return false;
    }
    MissTrace t;
    t.misses = matched;
    t.instructions = meta.instructions;
    t.numCpus = meta.numCpus;
    // Figure 2's columns over the matches: an offline query over a
    // cell's records reproduces the live bench row's metrics exactly
    // (the tools e2e chain asserts it through the JSON layer).
    FigureColumns cols = streamColumns(analyzeStreams(t));
    QueryRow row;
    row.table = "streams";
    row.text = cols.text.substr(1); // less the bench's column separator
    row.metrics = std::move(cols.metrics);
    rows.push_back(std::move(row));
    return true;
}

bool
buildLengthRows(const TraceMeta &meta, const QuerySpec &spec,
                const std::vector<MissRecord> &matched,
                std::uint32_t intervals, std::vector<QueryRow> &rows,
                std::string &err)
{
    if (!cpusInRange(matched, meta.numCpus)) {
        err = "lengths aggregate: record cpu out of range for a " +
              std::to_string(meta.numCpus) + "-cpu trace";
        return false;
    }
    const auto [lo, hi] = effectiveWindow(spec, matched);
    const auto ivs = splitIntervals(lo, hi, intervals);
    static constexpr std::uint64_t kLenPoints[] = {
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};

    std::size_t next = 0;
    for (const auto &[a, b] : ivs) {
        MissTrace t;
        t.instructions = meta.instructions;
        t.numCpus = meta.numCpus;
        while (next < matched.size() && matched[next].seq < b) {
            if (matched[next].seq >= a)
                t.misses.push_back(matched[next]);
            ++next;
        }
        const StreamStats s = analyzeStreams(t);

        // Weighted stream-length histogram: misses contributed by
        // streams of length in (point/2, point], plus an overflow
        // bucket — the per-interval view of Figure 4 (left).
        std::vector<std::uint64_t> buckets(
            std::size(kLenPoints) + 1, 0);
        for (const auto &[len, w] : s.lengthWeighted) {
            std::size_t slot = std::size(kLenPoints);
            for (std::size_t i = 0; i < std::size(kLenPoints); ++i)
                if (len <= kLenPoints[i]) {
                    slot = i;
                    break;
                }
            buckets[slot] += w;
        }

        QueryRow row;
        row.table = "lengths";
        row.trace = strprintf("[%" PRIu64 ",%" PRIu64 ")", a, b);
        row.metrics = {
            {"seq_lo", static_cast<double>(a)},
            {"seq_hi", static_cast<double>(b)},
            {"misses", static_cast<double>(t.misses.size())},
            {"median_len", s.medianStreamLength()},
        };
        std::string text = strprintf("%-28s median %6.0f |",
                               row.trace.c_str(),
                               s.medianStreamLength());
        for (std::size_t i = 0; i < std::size(kLenPoints); ++i) {
            row.metrics.emplace_back(
                strprintf("len_le_%" PRIu64, kLenPoints[i]),
                static_cast<double>(buckets[i]));
            if (buckets[i] > 0)
                text += strprintf(" <=%" PRIu64 ":%" PRIu64, kLenPoints[i],
                            buckets[i]);
        }
        row.metrics.emplace_back(
            "len_gt_4096",
            static_cast<double>(buckets[std::size(kLenPoints)]));
        if (buckets[std::size(kLenPoints)] > 0)
            text += strprintf(" >4096:%" PRIu64,
                        buckets[std::size(kLenPoints)]);
        row.text = std::move(text);
        rows.push_back(std::move(row));
    }
    return true;
}

} // namespace

TraceResult<std::vector<MissRecord>>
queryRecords(TraceReader &reader, const QuerySpec &spec)
{
    using Result = TraceResult<std::vector<MissRecord>>;

    const TraceMeta &meta = reader.meta();
    ResolvedFilters f;
    std::string err;
    if (!resolveFilters(meta, spec, f, err))
        return Result::failure(err);

    // Index-driven chunk selection: only chunks that can overlap the
    // seq window are decoded (all of them when no window is set).
    const auto [lo, hi] = reader.chunkRangeForSeq(f.seqLo, f.seqHi);
    std::vector<MissRecord> out;
    for (std::size_t i = lo; i < hi; ++i) {
        auto chunk = reader.readChunk(i);
        if (!chunk)
            return Result::failure("chunk " + std::to_string(i) +
                                   ": " + chunk.error());
        for (const MissRecord &m : *chunk)
            if (matches(m, meta, spec, f))
                out.push_back(m);
    }
    return Result(std::move(out));
}

TraceResult<QueryOutput>
runQuery(TraceReader &reader, const QuerySpec &spec)
{
    using Result = TraceResult<QueryOutput>;

    std::vector<std::string> aggs = spec.aggregates;
    if (aggs.empty())
        aggs = {"summary", "select"};
    for (const std::string &a : aggs)
        if (a != "summary" && a != "select" && a != "counts" &&
            a != "streams" && a != "lengths")
            return Result::failure("unknown aggregate '" + a +
                                   "' (summary, select, counts, "
                                   "streams, lengths)");
    const std::uint32_t intervals =
        std::min<std::uint32_t>(4096,
                                std::max<std::uint32_t>(
                                    1, spec.intervals));

    auto matched = queryRecords(reader, spec);
    if (!matched)
        return Result::failure(matched.error());

    const TraceMeta &meta = reader.meta();
    QueryOutput out;
    out.matched = matched->size();
    out.chunksDecoded = reader.chunksDecoded();
    out.chunksTotal = meta.chunks.size();
    {
        ResolvedFilters f;
        std::string err;
        resolveFilters(meta, spec, f, err); // validated above
        const auto [lo, hi] =
            reader.chunkRangeForSeq(f.seqLo, f.seqHi);
        for (std::size_t i = lo; i < hi; ++i)
            out.scanned += meta.chunks[i].records;
    }

    std::string err;
    for (const std::string &a : aggs) {
        if (a == "summary") {
            buildSummaryRows(out, out.rows);
        } else if (a == "select") {
            buildSelectRows(meta, *matched, spec.limit, out.rows);
        } else if (a == "counts") {
            buildCountRows(meta, spec, *matched, intervals, out.rows);
        } else if (a == "streams") {
            if (!buildStreamRows(meta, *matched, out.rows, err))
                return Result::failure(err);
        } else if (a == "lengths") {
            if (!buildLengthRows(meta, spec, *matched, intervals,
                                 out.rows, err))
                return Result::failure(err);
        }
    }
    return Result(std::move(out));
}

} // namespace tstream
