/**
 * @file
 * The two ablation views.
 *
 * Ablation A, why arbitrary-length stream detection matters: the
 * SEQUITUR analysis against a fixed-depth pair/window correlation
 * detector (the design point of several prior prefetchers the paper
 * discusses). For each fixed window size W, a miss is "covered" if the
 * W-long sequence starting at it recurs. SEQUITUR's arbitrary-length
 * rules capture both the short and the very long streams; fixed
 * windows miss the length diversity the paper documents (median ~8 but
 * tails into the thousands, Section 4.4).
 *
 * Ablation B, L2 capacity vs reuse distance (the Section 4.5 "soft
 * lower bound" argument): a replacement miss implies the block was
 * evicted, so blocks re-referenced more often than roughly one
 * L2-capacity's worth of misses cannot miss again, and the
 * replacement-miss reuse-distance distribution should shift right as
 * the L2 grows. Coherence misses have no such bound. The sweep is a
 * custom cell grid (one cell per L2 size, same workload/context/
 * budgets); configHash() covers the cache geometry, so each L2 point
 * is its own cell everywhere (claims, trace cache, memo).
 */

#include <algorithm>
#include <unordered_map>

#include "bench/common.hh"
#include "core/figure_columns.hh"

namespace tstream::bench
{
namespace
{

/** Fraction of misses covered by recurring fixed-length windows. */
double
fixedWindowCoverage(const MissTrace &trace, unsigned w)
{
    // Group misses per CPU, then hash every W-window; windows seen
    // more than once cover their misses.
    std::vector<std::vector<BlockId>> percpu;
    for (const MissRecord &m : trace.misses) {
        if (percpu.size() <= m.cpu)
            percpu.resize(m.cpu + 1);
        percpu[m.cpu].push_back(m.block);
    }

    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    auto hashWindow = [&](const std::vector<BlockId> &seq,
                          std::size_t i) {
        std::uint64_t h = 0x9e3779b97f4a7c15ull;
        for (unsigned k = 0; k < w; ++k)
            h = (h ^ seq[i + k]) * 0x100000001b3ull;
        return h;
    };

    for (const auto &seq : percpu)
        for (std::size_t i = 0; i + w <= seq.size(); ++i)
            counts[hashWindow(seq, i)]++;

    std::uint64_t covered = 0, total = 0;
    for (const auto &seq : percpu) {
        std::vector<bool> cov(seq.size(), false);
        for (std::size_t i = 0; i + w <= seq.size(); ++i) {
            if (counts[hashWindow(seq, i)] >= 2)
                for (unsigned k = 0; k < w; ++k)
                    cov[i + k] = true;
        }
        for (bool c : cov)
            covered += c ? 1 : 0;
        total += seq.size();
    }
    return total == 0 ? 0.0
                      : static_cast<double>(covered) /
                            static_cast<double>(total);
}

std::vector<BenchRow>
detectorRows(const CellResult &res)
{
    std::vector<BenchRow> rows;
    for (std::size_t i = 0; i < res.runs().size(); ++i) {
        const RunOutput &r = res.runs()[i];
        if (r.kind == TraceKind::IntraChip)
            continue;
        BenchRow row = runRow(r, "coverage");
        row.text +=
            strprintf(" %8.1f%%", 100.0 * r.streams.inStreamFraction());
        row.metrics = {
            {"sequitur_pct", 100.0 * r.streams.inStreamFraction()},
        };
        for (unsigned w : {2u, 4u, 8u, 16u}) {
            const double cov =
                100.0 * fixedWindowCoverage(res.trace(i), w);
            row.text += strprintf(" %6.1f%%", cov);
            row.metrics.emplace_back(strprintf("window_%u_pct", w),
                                     cov);
        }
        row.text +=
            strprintf(" %7.0f", r.streams.medianStreamLength());
        row.metrics.emplace_back("median_length",
                                 r.streams.medianStreamLength());
        rows.push_back(std::move(row));
    }
    return rows;
}

void
detectorPrint(const std::vector<BenchCell> &cells)
{
    std::printf("Ablation A: SEQUITUR vs fixed-window stream "
                "detection (coverage of misses)\n");
    rule();
    std::printf("%-10s %-12s %9s %7s %7s %7s %7s %8s\n", "app",
                "context", "sequitur", "W=2", "W=4", "W=8", "W=16",
                "med-len");
    rule();
    printTable(cells, "coverage");

    std::printf("\nReading: small windows over-fragment long streams "
                "(repetition is found but\nsplit into pieces a "
                "prefetcher must re-look-up); large windows lose the\n"
                "short streams entirely. SEQUITUR's variable-length "
                "rules adapt, motivating\nthe paper's argument against "
                "fixed-depth fetch policies.\n");
}

constexpr std::uint64_t kL2SizesMb[] = {1, 2, 4, 8, 16};

/** Swept workloads: the paper's OLTP plus the scenario KV store
 *  (whose LRU churn makes the capacity argument visible too). */
constexpr WorkloadKind kSweepWorkloads[] = {WorkloadKind::Oltp,
                                            WorkloadKind::KvStore};

std::vector<Cell>
l2SweepGrid(const BenchOptions &opts, std::string &err)
{
    if (!opts.workloadFile.empty() || !opts.phasesSpec.empty()) {
        err = "this bench runs a fixed grid; --workload/--phases do "
              "not apply";
        return {};
    }
    std::vector<Cell> grid;
    for (const WorkloadKind w : kSweepWorkloads) {
        for (const std::uint64_t mb : kL2SizesMb) {
            Cell c;
            c.index = grid.size();
            c.cfg.workload = w;
            c.cfg.context = SystemContext::MultiChip;
            c.cfg.warmupInstructions = opts.budgets.warmup;
            c.cfg.measureInstructions = opts.budgets.measure;
            c.cfg.scale = opts.budgets.scale;
            c.cfg.multiChip.l2 = CacheConfig{mb * 1024 * 1024, 16};
            c.id = strprintf("%s/multi-chip/l2=%lluMB",
                             std::string(workloadName(w)).c_str(),
                             static_cast<unsigned long long>(mb));
            grid.push_back(std::move(c));
        }
    }
    return grid;
}

std::vector<BenchRow>
l2SweepRows(const CellResult &res)
{
    // The swept size comes from the cell's own config, not from grid
    // index arithmetic, so reordering the sweep loops cannot mislabel
    // rows.
    const std::uint64_t mb =
        res.cell.cfg.multiChip.l2.sizeBytes / (1024 * 1024);
    const RunOutput &r = res.runs().front();

    const std::uint64_t *cls = r.classMisses.data();
    const double tot = std::max<double>(
        1.0, static_cast<double>(r.misses));

    BenchRow row;
    row.table = "l2_sweep";
    row.trace = strprintf("%lluMB",
                          static_cast<unsigned long long>(mb));
    row.label = std::string(workloadName(r.workload));
    row.text = strprintf("%-10s %3lluMB %9.2f %7.1f%% %7.1f%%",
                         std::string(workloadName(r.workload)).c_str(),
                         static_cast<unsigned long long>(mb),
                         r.mpki(), 100.0 * cls[3] / tot,
                         100.0 * cls[1] / tot);
    row.metrics = {
        {"l2_mb", static_cast<double>(mb)},
        {"mpki", r.mpki()},
        {"replacement_pct", 100.0 * cls[3] / tot},
        {"coherence_pct", 100.0 * cls[1] / tot},
    };
    // The reuse-distance decades of Figure 4 (right).
    FigureColumns reuse = reuseColumns(r.streams);
    row.text += reuse.text;
    row.metrics.insert(row.metrics.end(), reuse.metrics.begin(),
                       reuse.metrics.end());
    return {std::move(row)};
}

void
l2SweepPrint(const std::vector<BenchCell> &cells)
{
    std::printf("Ablation B: L2 size sweep (OLTP + KVstore, "
                "multi-chip)\n");
    rule();
    std::printf("%-10s %-5s %8s %8s %8s", "app", "L2", "mpki", "repl",
                "coh");
    for (int d = 0; d < kReuseDecades; ++d)
        std::printf("  1e%d-1e%d", d, d + 1);
    std::printf("\n");
    rule();
    printTable(cells, "l2_sweep");

    std::printf("\nReading: larger L2s suppress short-reuse replacement "
                "misses, pushing the\nreplacement reuse-distance mass "
                "right, while coherence reuse distances are\ncapacity-"
                "independent — the paper's storage-sizing argument.\n");
}

} // namespace

BenchView
ablationAView(const BenchOptions &)
{
    // OLTP and Apache, plus the KV store so the detector comparison
    // covers a scenario workload too.
    return {[](const BenchOptions &opts, std::string &err) {
                return benchGrid({WorkloadKind::Oltp,
                                  WorkloadKind::Apache,
                                  WorkloadKind::KvStore},
                                 opts, err);
            },
            detectorRows, detectorPrint, /*walksMisses=*/true};
}

BenchView
ablationBView(const BenchOptions &)
{
    return {l2SweepGrid, l2SweepRows, l2SweepPrint};
}

} // namespace tstream::bench
