#include "sim/bench_report.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

namespace tstream
{

namespace
{

std::string
hashToHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

/** Exactly 16 hex digits; no sign, prefix or space. */
bool
hexToHash(const std::string &s, std::uint64_t &out)
{
    if (s.size() != 16)
        return false;
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data(), end, out, 16);
    return ec == std::errc() && p == end;
}

} // namespace

BenchCell
makeBenchCell(const CellResult &res, std::vector<BenchRow> rows)
{
    BenchCell c;
    c.index = res.cell.index;
    c.id = res.cell.id;
    c.workload = std::string(workloadName(res.cell.cfg.workload));
    c.context = std::string(contextName(res.cell.cfg.context));
    c.configHash = configHash(res.cell.cfg);
    c.cacheHit = res.cacheHit;
    c.wallSeconds = res.wallSeconds;
    c.instructions = res.instructions;
    c.failed = res.failed;
    c.failureCause = res.failureCause;
    c.rows = std::move(rows);
    return c;
}

json::Value
benchDocToJson(const BenchDoc &doc)
{
    json::Value v = json::Value::object();
    v["schema"] = json::Value(kBenchDocSchema);
    v["bench"] = json::Value(doc.bench);
    v["quick"] = json::Value(doc.quick);

    json::Value budgets = json::Value::object();
    budgets["warmup"] = json::Value(doc.budgets.warmup);
    budgets["measure"] = json::Value(doc.budgets.measure);
    budgets["scale"] = json::Value(doc.budgets.scale);
    v["budgets"] = std::move(budgets);

    v["grid_cells"] = json::Value(
        static_cast<std::uint64_t>(doc.gridCells));

    v["jobs"] = json::Value(doc.jobs);

    json::Value cells = json::Value::array();
    for (const BenchCell &c : doc.cells) {
        json::Value jc = json::Value::object();
        jc["index"] = json::Value(static_cast<std::uint64_t>(c.index));
        jc["id"] = json::Value(c.id);
        jc["workload"] = json::Value(c.workload);
        jc["context"] = json::Value(c.context);
        jc["config_hash"] = json::Value(hashToHex(c.configHash));
        jc["cache_hit"] = json::Value(c.cacheHit);
        jc["wall_seconds"] = json::Value(c.wallSeconds);
        jc["instructions"] = json::Value(c.instructions);
        if (c.failed) {
            json::Value failed = json::Value::object();
            failed["cause"] = json::Value(c.failureCause);
            jc["failed"] = std::move(failed);
        }

        json::Value rows = json::Value::array();
        for (const BenchRow &r : c.rows) {
            json::Value jr = json::Value::object();
            jr["table"] = json::Value(r.table);
            jr["trace"] = json::Value(r.trace);
            if (!r.label.empty())
                jr["label"] = json::Value(r.label);
            if (!r.policy.empty())
                jr["policy"] = json::Value(r.policy);
            jr["text"] = json::Value(r.text);
            json::Value metrics = json::Value::object();
            for (const auto &[name, value] : r.metrics)
                metrics[name] = json::Value(value);
            jr["metrics"] = std::move(metrics);
            rows.push(std::move(jr));
        }
        jc["rows"] = std::move(rows);
        cells.push(std::move(jc));
    }
    v["cells"] = std::move(cells);
    return v;
}

namespace
{

const json::Value *
need(const json::Value &v, const char *key, std::string &err)
{
    const json::Value *f = v.find(key);
    if (!f)
        err = std::string("missing field: ") + key;
    return f;
}

/**
 * Read @p f, a count or index, into @p out: a JSON integer in
 * [0, max of T]. A negative number, a fraction, an exponent-form
 * double or a string is a load error naming @p key, not a value cast
 * into range.
 */
template <typename T>
bool
readCount(const json::Value &f, const char *key, T &out,
          std::string &err)
{
    const std::uint64_t max = std::min<std::uint64_t>(
        std::numeric_limits<T>::max(),
        std::numeric_limits<std::int64_t>::max());
    if (f.isInt() && f.asInt() >= 0 &&
        static_cast<std::uint64_t>(f.asInt()) <= max) {
        out = static_cast<T>(f.asInt());
        return true;
    }
    err = std::string(key) +
          " is not a non-negative integer no larger than " +
          std::to_string(max);
    return false;
}

} // namespace

bool
benchDocFromJson(const json::Value &v, BenchDoc &out, std::string &err)
{
    if (!v.isObject()) {
        err = "bench document is not an object";
        return false;
    }
    const json::Value *schema = need(v, "schema", err);
    if (!schema)
        return false;
    if (schema->asString() != kBenchDocSchema) {
        err = "unsupported schema: " + schema->asString();
        return false;
    }

    const json::Value *bench = need(v, "bench", err);
    const json::Value *budgets = need(v, "budgets", err);
    const json::Value *grid = need(v, "grid_cells", err);
    const json::Value *cells = need(v, "cells", err);
    if (!bench || !budgets || !grid || !cells)
        return false;
    if (!budgets->isObject() || !cells->isArray()) {
        err = "malformed budgets/cells";
        return false;
    }

    out = BenchDoc{};
    out.bench = bench->asString();
    if (const json::Value *q = v.find("quick"))
        out.quick = q->asBool();
    const json::Value *warm = need(*budgets, "warmup", err);
    const json::Value *meas = need(*budgets, "measure", err);
    const json::Value *scale = need(*budgets, "scale", err);
    if (!warm || !meas || !scale)
        return false;
    if (!readCount(*warm, "budgets.warmup", out.budgets.warmup, err) ||
        !readCount(*meas, "budgets.measure", out.budgets.measure, err) ||
        !readCount(*grid, "grid_cells", out.gridCells, err))
        return false;
    out.budgets.scale = scale->asDouble();
    const json::Value *jobs = v.find("jobs");
    if (jobs && !readCount(*jobs, "jobs", out.jobs, err))
        return false;

    std::set<std::size_t> indexes;
    for (const json::Value &jc : cells->items()) {
        BenchCell c;
        const json::Value *index = need(jc, "index", err);
        const json::Value *id = need(jc, "id", err);
        const json::Value *hash = need(jc, "config_hash", err);
        const json::Value *rows = need(jc, "rows", err);
        if (!index || !id || !hash || !rows)
            return false;
        c.id = id->asString();
        if (!readCount(*index, "index", c.index, err)) {
            err = "cell " + c.id + ": " + err;
            return false;
        }
        const std::string where =
            "cell " + c.id + ": index " + std::to_string(c.index);
        if (c.index >= out.gridCells) {
            err = where + " is out of range (grid_cells " +
                  std::to_string(out.gridCells) + ")";
            return false;
        }
        if (!indexes.insert(c.index).second) {
            err = where + " is repeated";
            return false;
        }
        if (const json::Value *w = jc.find("workload"))
            c.workload = w->asString();
        if (const json::Value *ctx = jc.find("context"))
            c.context = ctx->asString();
        if (!hexToHash(hash->asString(), c.configHash)) {
            err = "cell " + c.id + ": bad config_hash";
            return false;
        }
        if (const json::Value *f = jc.find("cache_hit"))
            c.cacheHit = f->asBool();
        if (const json::Value *f = jc.find("wall_seconds"))
            c.wallSeconds = f->asDouble();
        if (const json::Value *f = jc.find("instructions");
            f && !readCount(*f, "instructions", c.instructions, err)) {
            err = "cell " + c.id + ": " + err;
            return false;
        }
        if (const json::Value *f = jc.find("failed")) {
            c.failed = true;
            if (const json::Value *cause = f->find("cause"))
                c.failureCause = cause->asString();
        }
        if (!rows->isArray()) {
            err = "cell " + c.id + ": rows is not an array";
            return false;
        }
        for (const json::Value &jr : rows->items()) {
            BenchRow r;
            if (const json::Value *f = jr.find("table"))
                r.table = f->asString();
            if (const json::Value *f = jr.find("trace"))
                r.trace = f->asString();
            if (const json::Value *f = jr.find("label"))
                r.label = f->asString();
            if (const json::Value *f = jr.find("policy"))
                r.policy = f->asString();
            const json::Value *text = need(jr, "text", err);
            if (!text)
                return false;
            r.text = text->asString();
            if (const json::Value *metrics = jr.find("metrics"))
                for (const auto &[name, value] : metrics->members())
                    r.metrics.emplace_back(name, value.asDouble());
            c.rows.push_back(std::move(r));
        }
        out.cells.push_back(std::move(c));
    }
    return true;
}

bool
writeBenchDoc(const BenchDoc &doc, const std::string &path,
              std::string &err)
{
    return json::writeFile(benchDocToJson(doc), path, err);
}

json::Value
queryDocToJson(const QueryDoc &doc)
{
    json::Value v = json::Value::object();
    v["schema"] = json::Value(kQueryDocSchema);
    v["source"] = json::Value(doc.source);
    v["kind"] = json::Value(traceContentKindName(doc.kind));
    v["config_hash"] = json::Value(hashToHex(doc.configHash));

    // Echo the resolved filters so a stored document says exactly
    // what it answered (only the filters that were set).
    const QuerySpec &s = doc.spec;
    json::Value filters = json::Value::object();
    if (s.cpu)
        filters["cpu"] = json::Value(*s.cpu);
    if (!s.cls.empty())
        filters["class"] = json::Value(s.cls);
    if (!s.module.empty())
        filters["module"] = json::Value(s.module);
    if (!s.category.empty())
        filters["category"] = json::Value(s.category);
    if (s.blockLo)
        filters["block_lo"] = json::Value(*s.blockLo);
    if (s.blockHi)
        filters["block_hi"] = json::Value(*s.blockHi);
    if (s.seqLo)
        filters["window_lo"] = json::Value(*s.seqLo);
    if (s.seqHi)
        filters["window_hi"] = json::Value(*s.seqHi);
    v["filters"] = std::move(filters);

    json::Value aggs = json::Value::array();
    for (const std::string &a : s.aggregates)
        aggs.push(json::Value(a));
    v["aggregates"] = std::move(aggs);
    v["intervals"] = json::Value(s.intervals);
    v["limit"] = json::Value(s.limit);

    const QueryOutput &o = doc.output;
    v["matched"] = json::Value(o.matched);
    v["records_scanned"] = json::Value(o.scanned);
    v["chunks_decoded"] = json::Value(o.chunksDecoded);
    v["chunks_total"] = json::Value(o.chunksTotal);

    // Same row shape as a bench cell's rows, so the two documents
    // compare metric-for-metric through the same serializer.
    json::Value rows = json::Value::array();
    for (const QueryRow &r : o.rows) {
        json::Value jr = json::Value::object();
        jr["table"] = json::Value(r.table);
        jr["trace"] = json::Value(r.trace);
        if (!r.label.empty())
            jr["label"] = json::Value(r.label);
        jr["text"] = json::Value(r.text);
        json::Value metrics = json::Value::object();
        for (const auto &[name, value] : r.metrics)
            metrics[name] = json::Value(value);
        jr["metrics"] = std::move(metrics);
        rows.push(std::move(jr));
    }
    v["rows"] = std::move(rows);
    return v;
}

bool
writeQueryDoc(const QueryDoc &doc, const std::string &path,
              std::string &err)
{
    return json::writeFile(queryDocToJson(doc), path, err);
}

json::Value
combinedReportToJson(const std::vector<BenchDoc> &docs)
{
    json::Value v = json::Value::object();
    v["schema"] = json::Value(kBenchReportSchema);
    json::Value benches = json::Value::array();
    for (const BenchDoc &doc : docs)
        benches.push(benchDocToJson(doc));
    v["benches"] = std::move(benches);
    return v;
}

bool
readBenchDocs(const std::string &path, std::vector<BenchDoc> &out,
              std::string &err)
{
    json::Value v;
    if (!json::parseFile(path, v, err))
        return false;
    const json::Value *schema = v.find("schema");
    if (!schema) {
        err = path + ": not a bench report (no schema field)";
        return false;
    }
    if (schema->asString() == kBenchDocSchema) {
        BenchDoc doc;
        if (!benchDocFromJson(v, doc, err)) {
            err = path + ": " + err;
            return false;
        }
        out.push_back(std::move(doc));
        return true;
    }
    if (schema->asString() == kBenchReportSchema) {
        const json::Value *benches = v.find("benches");
        if (!benches || !benches->isArray()) {
            err = path + ": combined report without benches array";
            return false;
        }
        for (const json::Value &jb : benches->items()) {
            BenchDoc doc;
            if (!benchDocFromJson(jb, doc, err)) {
                err = path + ": " + err;
                return false;
            }
            out.push_back(std::move(doc));
        }
        return true;
    }
    err = path + ": unsupported schema " + schema->asString();
    return false;
}

namespace
{

bool
rowsEqual(const BenchRow &a, const BenchRow &b, std::string &why)
{
    if (a.table != b.table || a.trace != b.trace ||
        a.label != b.label || a.policy != b.policy) {
        why = "row keys differ (" + a.table + "/" + a.trace + " vs " +
              b.table + "/" + b.trace + ")";
        return false;
    }
    if (a.text != b.text) {
        why = "row text differs:\n  a: " + a.text + "\n  b: " + b.text;
        return false;
    }
    if (a.metrics.size() != b.metrics.size()) {
        why = "row metric counts differ for " + a.table + "/" + a.trace;
        return false;
    }
    for (std::size_t i = 0; i < a.metrics.size(); ++i) {
        if (a.metrics[i].first != b.metrics[i].first ||
            a.metrics[i].second != b.metrics[i].second) {
            char buf[64];
            std::snprintf(buf, sizeof buf, " (%.17g vs %.17g)",
                          a.metrics[i].second, b.metrics[i].second);
            why = "metric " + a.metrics[i].first + " differs in row " +
                  a.table + "/" + a.trace + buf;
            return false;
        }
    }
    return true;
}

bool
cellsEqual(const BenchCell &a, const BenchCell &b, std::string &why)
{
    if (a.index != b.index || a.id != b.id ||
        a.workload != b.workload || a.context != b.context) {
        why = "cell identity differs (" + a.id + " vs " + b.id + ")";
        return false;
    }
    if (a.configHash != b.configHash) {
        why = "cell " + a.id + ": config hashes differ (" +
              hashToHex(a.configHash) + " vs " +
              hashToHex(b.configHash) + ")";
        return false;
    }
    if (a.failed != b.failed) {
        const BenchCell &f = a.failed ? a : b;
        why = "cell " + a.id + " (index " + std::to_string(a.index) +
              ") failed in the " + (a.failed ? "first" : "second") +
              " report (cause=" + f.failureCause +
              ") but succeeded in the other";
        return false;
    }
    // Both failed: causes may legitimately differ between workers, so
    // only the identity above is compared.
    if (a.instructions != b.instructions) {
        why = "cell " + a.id + ": simulated instructions differ";
        return false;
    }
    if (a.rows.size() != b.rows.size()) {
        why = "cell " + a.id + ": row counts differ";
        return false;
    }
    for (std::size_t i = 0; i < a.rows.size(); ++i)
        if (!rowsEqual(a.rows[i], b.rows[i], why)) {
            why = "cell " + a.id + " row " + std::to_string(i) + ": " +
                  why;
            return false;
        }
    return true;
}

bool
headersCompatible(const BenchDoc &a, const BenchDoc &b,
                  std::string &why)
{
    if (a.bench != b.bench) {
        why = "bench names differ (" + a.bench + " vs " + b.bench + ")";
        return false;
    }
    if (a.quick != b.quick || a.budgets.warmup != b.budgets.warmup ||
        a.budgets.measure != b.budgets.measure ||
        a.budgets.scale != b.budgets.scale) {
        why = "budgets differ for bench " + a.bench;
        return false;
    }
    if (a.gridCells != b.gridCells) {
        why = "grid sizes differ for bench " + a.bench;
        return false;
    }
    return true;
}

} // namespace

bool
mergeBenchDocs(const std::vector<BenchDoc> &docs, BenchDoc &out,
               std::string &err)
{
    if (docs.empty()) {
        err = "nothing to merge";
        return false;
    }
    out = BenchDoc{};
    out.bench = docs[0].bench;
    out.quick = docs[0].quick;
    out.budgets = docs[0].budgets;
    out.gridCells = docs[0].gridCells;
    for (const BenchDoc &doc : docs) {
        if (!headersCompatible(docs[0], doc, err))
            return false;
        out.jobs = std::max(out.jobs, doc.jobs);
    }

    for (const BenchDoc &doc : docs)
        for (const BenchCell &cell : doc.cells) {
            auto dup = std::find_if(
                out.cells.begin(), out.cells.end(),
                [&](const BenchCell &c) {
                    return c.index == cell.index;
                });
            if (dup != out.cells.end()) {
                // Duplicate cell. A success beats a failure — another
                // worker recovered the cell after the first attempt's
                // owner failed/died; of two failures the first is
                // kept (causes may differ between workers); two
                // successes must agree bit-for-bit.
                if (dup->failed && !cell.failed) {
                    *dup = cell;
                    continue;
                }
                if (cell.failed)
                    continue;
                std::string why;
                if (!cellsEqual(*dup, cell, why)) {
                    err = "conflicting duplicates of cell " + cell.id +
                          ": " + why;
                    return false;
                }
                continue;
            }
            out.cells.push_back(cell);
        }

    std::sort(out.cells.begin(), out.cells.end(),
              [](const BenchCell &a, const BenchCell &b) {
                  return a.index < b.index;
              });

    if (!out.cells.empty() && out.cells.back().index >= out.gridCells) {
        err = "bench " + out.bench + ": cell " + out.cells.back().id +
              ": index " + std::to_string(out.cells.back().index) +
              " is out of range";
        return false;
    }

    // Name the first kNamed absent indexes and count the rest, so the
    // diagnostic stays short however large grid_cells is.
    constexpr std::size_t kNamed = 16;
    std::string missing;
    std::size_t nMissing = 0;
    std::size_t next = 0;
    auto skipTo = [&](std::size_t end) {
        for (; next < end && nMissing < kNamed; ++next, ++nMissing)
            missing += (missing.empty() ? "" : ", ") + std::to_string(next);
        nMissing += end - next;
        next = end;
    };
    for (const BenchCell &c : out.cells) {
        skipTo(c.index);
        next = c.index + 1;
    }
    skipTo(out.gridCells);
    if (nMissing > 0) {
        err = "bench " + out.bench +
              ": merged reports do not cover the grid; missing cell "
              "indexes: " +
              missing;
        if (nMissing > kNamed)
            err += ", ... (" + std::to_string(nMissing) + " missing)";
        return false;
    }
    return true;
}

bool
benchDocsEquivalent(const BenchDoc &a, const BenchDoc &b,
                    std::string &why)
{
    if (!headersCompatible(a, b, why))
        return false;

    // Walk the union of the cell indexes both documents hold, so
    // "missing" names the exact cell rather than collapsing into a
    // bare count mismatch, and so a failure row on either side gets
    // its own diagnostic.
    std::map<std::size_t, std::pair<const BenchCell *, const BenchCell *>>
        cells;
    for (const BenchCell &c : a.cells)
        cells[c.index].first = &c;
    for (const BenchCell &c : b.cells)
        cells[c.index].second = &c;

    for (const auto &[i, pair] : cells) {
        const auto [ca, cb] = pair;
        if (!ca || !cb) {
            const BenchCell &have = ca ? *ca : *cb;
            why = "cell " + have.id + " (index " + std::to_string(i) +
                  ") missing from the " +
                  (ca ? "second" : "first") + " report";
            return false;
        }
        if (ca->failed && cb->failed) {
            why = "cell " + ca->id + " (index " + std::to_string(i) +
                  ") failed in both reports (first: " +
                  ca->failureCause + "; second: " + cb->failureCause +
                  ")";
            return false;
        }
        if (!cellsEqual(*ca, *cb, why))
            return false;
    }
    return true;
}

bool
benchDocIsSubset(const BenchDoc &sub, const BenchDoc &full,
                 std::string &why)
{
    if (sub.bench != full.bench) {
        why = "bench names differ (" + sub.bench + " vs " +
              full.bench + ")";
        return false;
    }
    if (sub.quick != full.quick ||
        sub.budgets.warmup != full.budgets.warmup ||
        sub.budgets.measure != full.budgets.measure ||
        sub.budgets.scale != full.budgets.scale) {
        why = "budgets differ for bench " + sub.bench;
        return false;
    }
    // Grid sizes deliberately uncompared: a --workload run covers a
    // restricted grid, so its indexes are its own. Cells match by id.
    for (const BenchCell &cell : sub.cells) {
        auto match = std::find_if(full.cells.begin(), full.cells.end(),
                                  [&](const BenchCell &c) {
                                      return c.id == cell.id;
                                  });
        if (match == full.cells.end()) {
            why = "bench " + sub.bench + ": cell " + cell.id +
                  " has no counterpart in the full report";
            return false;
        }
        if (cell.failed && match->failed) {
            why = "bench " + sub.bench + ": cell " + cell.id +
                  " failed in both reports (subset: " +
                  cell.failureCause + "; full: " + match->failureCause +
                  ")";
            return false;
        }
        BenchCell reindexed = cell;
        reindexed.index = match->index;
        if (!cellsEqual(reindexed, *match, why))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Perf series and trend
// ---------------------------------------------------------------------------

bool
loadPerfSeries(const std::string &path, std::vector<PerfSample> &out,
               std::string &err)
{
    out.clear();
    json::Value v;
    if (!json::parseFile(path, v, err))
        return false;
    if (!v.isObject()) {
        err = path + ": not a JSON object";
        return false;
    }

    if (v.find("schema")) {
        // A tstream-bench document or combined report: one series per
        // cell, named "<bench>/<cell id>", valued by wall_seconds.
        std::vector<BenchDoc> docs;
        if (!readBenchDocs(path, docs, err))
            return false;
        for (const BenchDoc &doc : docs)
            for (const BenchCell &cell : doc.cells) {
                if (cell.failed)
                    continue; // a failure's wall time is not a perf point
                out.push_back(PerfSample{doc.bench + "/" + cell.id,
                                         cell.wallSeconds * 1e9});
            }
        if (out.empty()) {
            err = path + ": report holds no cells";
            return false;
        }
        return true;
    }

    const json::Value *benches = v.find("benchmarks");
    if (!benches || !benches->isArray()) {
        err = path + ": neither a Google Benchmark report (no "
                     "\"benchmarks\" array) nor a tstream-bench "
                     "report (no \"schema\")";
        return false;
    }
    for (const json::Value &jb : benches->items()) {
        const json::Value *name = jb.find("name");
        const json::Value *cpu = jb.find("cpu_time");
        if (!name || !cpu) {
            err = path + ": benchmark entry without name/cpu_time";
            return false;
        }
        // Aggregate rows (mean/median/stddev of repetitions) would
        // double-count; only raw iterations enter the series.
        if (const json::Value *rt = jb.find("run_type");
            rt && rt->asString() != "iteration")
            continue;
        double ns = cpu->asDouble();
        if (const json::Value *u = jb.find("time_unit")) {
            const std::string &unit = u->asString();
            if (unit == "us")
                ns *= 1e3;
            else if (unit == "ms")
                ns *= 1e6;
            else if (unit == "s")
                ns *= 1e9;
            else if (unit != "ns") {
                err = path + ": unknown time_unit " + unit;
                return false;
            }
        }
        PerfSample *dup = nullptr;
        for (PerfSample &s : out)
            if (s.name == name->asString())
                dup = &s;
        if (dup)
            dup->timeNs = std::min(dup->timeNs, ns); // best repetition
        else
            out.push_back(PerfSample{name->asString(), ns});
    }
    if (out.empty()) {
        err = path + ": no benchmark iterations in report";
        return false;
    }
    return true;
}

TrendTable
computeTrend(const std::vector<std::string> &labels,
             const std::vector<std::vector<PerfSample>> &series,
             const std::vector<std::string> &filter, double maxRegress)
{
    TrendTable table;
    table.labels = labels;

    auto wanted = [&](const std::string &name) {
        return filter.empty() || std::find(filter.begin(), filter.end(),
                                           name) != filter.end();
    };
    auto rowFor = [&](const std::string &name) -> TrendSeries & {
        for (TrendSeries &r : table.rows)
            if (r.name == name)
                return r;
        table.rows.push_back(TrendSeries{});
        table.rows.back().name = name;
        table.rows.back().timesNs.assign(labels.size(), 0.0);
        return table.rows.back();
    };

    const std::size_t n = std::min(labels.size(), series.size());
    for (std::size_t i = 0; i < n; ++i)
        for (const PerfSample &s : series[i])
            if (wanted(s.name))
                rowFor(s.name).timesNs[i] = s.timeNs;

    for (TrendSeries &r : table.rows) {
        double first = 0.0, last = 0.0;
        std::size_t points = 0;
        for (double t : r.timesNs) {
            if (t <= 0)
                continue;
            if (points == 0)
                first = t;
            last = t;
            ++points;
        }
        r.lastVsFirst = points >= 2 && first > 0 ? last / first : 0.0;

        if (maxRegress <= 0)
            continue;
        const bool inOldest = r.timesNs.front() > 0;
        r.gated = !filter.empty() || inOldest;
        if (!r.gated)
            continue;
        if (!inOldest || r.timesNs.back() <= 0) {
            r.verdict = TrendSeries::Verdict::Missing;
            ++table.missing;
        } else if (r.lastVsFirst > maxRegress) {
            r.verdict = TrendSeries::Verdict::Regressed;
            ++table.regressed;
        }
    }

    for (const std::string &name : filter)
        if (std::none_of(table.rows.begin(), table.rows.end(),
                         [&](const TrendSeries &r) {
                             return r.name == name;
                         }))
            table.unknownSeries.push_back(name);
    table.pass = table.unknownSeries.empty() && table.regressed == 0 &&
                 table.missing == 0;
    return table;
}

} // namespace tstream
