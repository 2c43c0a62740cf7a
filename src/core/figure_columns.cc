#include "core/figure_columns.hh"

#include <algorithm>
#include <numeric>

#include "stats/histogram.hh"
#include "util/strprintf.hh"

namespace tstream
{

FigureColumns
missClassColumns(const std::array<std::uint64_t, kNumMissClasses> &classMisses,
                 std::uint64_t instructions, bool intraChip)
{
    const std::uint64_t *cls = classMisses.data();
    const std::uint64_t misses = std::accumulate(
        classMisses.begin(), classMisses.end(), std::uint64_t{0});
    const double tot = std::max<double>(1.0, static_cast<double>(misses));
    const double mpki = instructions == 0
                            ? 0.0
                            : 1000.0 * static_cast<double>(misses) /
                                  static_cast<double>(instructions);
    double pct[kNumMissClasses];
    for (std::size_t c = 0; c < kNumMissClasses; ++c)
        pct[c] = 100.0 * cls[c] / tot;
    FigureColumns out;
    if (!intraChip) {
        out.text = strprintf(" %8.2f %9.1f%% %5.1f%% %7.1f%% %9.1f%% %10zu",
                             mpki, pct[0], pct[2], pct[3], pct[1],
                             static_cast<std::size_t>(misses));
        out.metrics = {{"mpki", mpki},
                       {"compulsory_pct", pct[0]},
                       {"io_coherence_pct", pct[2]},
                       {"replacement_pct", pct[3]},
                       {"coherence_pct", pct[1]},
                       {"misses", static_cast<double>(misses)}};
        return out;
    }
    // Coherence share of on-chip-satisfied traffic (the paper's "one
    // third to one half of all L2 and peer-L1 accesses").
    const double onchip = std::max<double>(
        1.0, static_cast<double>(cls[0] + cls[1] + cls[2]));
    const double cohShare = 100.0 * (cls[0] + cls[1]) / onchip;
    out.text = strprintf(" %8.2f %8.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%",
                         mpki, pct[0], pct[1], pct[2], pct[3], cohShare);
    out.metrics = {{"mpki", mpki},
                   {"peer_l1_pct", pct[0]},
                   {"coherence_l2_pct", pct[1]},
                   {"replacement_l2_pct", pct[2]},
                   {"offchip_pct", pct[3]},
                   {"coherence_share_pct", cohShare}};
    return out;
}

FigureColumns
streamColumns(const StreamStats &s)
{
    const double tot =
        std::max<double>(1.0, static_cast<double>(s.totalMisses));
    const double nonRep = 100.0 * s.nonRepetitive / tot;
    const double fresh = 100.0 * s.newStream / tot;
    const double recurring = 100.0 * s.recurringStream / tot;
    const double inStreams = 100.0 * s.inStreamFraction();
    FigureColumns out;
    out.text = strprintf(" %9.1f%% %9.1f%% %11.1f%% %9.1f%%", nonRep,
                         fresh, recurring, inStreams);
    out.metrics = {{"non_repetitive_pct", nonRep},
                   {"new_stream_pct", fresh},
                   {"recurring_stream_pct", recurring},
                   {"in_streams_pct", inStreams}};
    return out;
}

FigureColumns
strideColumns(const StreamStats &s)
{
    const double tot =
        std::max<double>(1.0, static_cast<double>(s.totalMisses));
    const double strided =
        100.0 * (s.stridedRepetitive + s.stridedNonRepetitive) / tot;
    const double repStr = 100.0 * s.stridedRepetitive / tot;
    const double repNonStr = 100.0 * s.nonStridedRepetitive / tot;
    const double nonRepStr = 100.0 * s.stridedNonRepetitive / tot;
    const double nonRepNonStr = 100.0 * s.nonStridedNonRepetitive / tot;
    FigureColumns out;
    out.text = strprintf(" %9.1f%% %9.1f%% %9.1f%% %9.1f%% %7.1f%%",
                         repStr, repNonStr, nonRepStr, nonRepNonStr,
                         strided);
    out.metrics = {{"strided_repetitive_pct", repStr},
                   {"non_strided_repetitive_pct", repNonStr},
                   {"strided_non_repetitive_pct", nonRepStr},
                   {"non_strided_non_repetitive_pct", nonRepNonStr},
                   {"strided_pct", strided}};
    return out;
}

FigureColumns
lengthCdfColumns(const StreamStats &s)
{
    WeightedCdf cdf;
    for (const auto &[len, w] : s.lengthWeighted)
        cdf.add(len, w);
    FigureColumns out;
    for (auto p : kStreamLengthPoints) {
        out.text += strprintf(" %6.1f%%", 100.0 * cdf.cumulativeAt(p));
        out.metrics.emplace_back(
            strprintf("cdf_le_%llu", static_cast<unsigned long long>(p)),
            100.0 * cdf.cumulativeAt(p));
    }
    out.text += strprintf(" %6.0f", s.medianStreamLength());
    out.metrics.emplace_back("median_length", s.medianStreamLength());
    return out;
}

FigureColumns
reuseColumns(const StreamStats &s)
{
    LogHistogram h(kReuseDecades, 1);
    for (const auto &[dist, w] : s.reuseWeighted)
        h.add(dist == 0 ? 1 : dist, w);
    FigureColumns out;
    for (int d = 0; d < kReuseDecades; ++d) {
        const double frac = 100.0 * h.fraction(static_cast<std::size_t>(d));
        out.text += strprintf("  %6.1f%%", frac);
        out.metrics.emplace_back(
            strprintf("decade_1e%d_1e%d_pct", d, d + 1), frac);
    }
    return out;
}

} // namespace tstream
