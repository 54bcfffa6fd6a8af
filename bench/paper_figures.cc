/**
 * @file
 * Figs. 9-15 reproduction: seven views of one set of runs, the 28
 * paper benchmarks under MESI, Protozoa-SW, Protozoa-SW+MR and
 * Protozoa-MW on the 16-core machine. The grid runs once; the figures
 * print in order, Figs. 11 and 12 from its Protozoa-MW column.
 *
 *   Fig. 9   L1 traffic: control / unused data / used data
 *   Fig. 10  control bytes by message class
 *   Fig. 11  directory Owned-state census under Protozoa-MW
 *   Fig. 12  L1 block-size distribution under Protozoa-MW
 *   Fig. 13  miss rate (MPKI)
 *   Fig. 14  execution time normalized to MESI
 *   Fig. 15  flit-hops (network dynamic energy proxy)
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace protozoa;
using namespace protozoa::bench;

namespace {

/** grid[b][col(kind)]: the grid's configs are allProtocols(). */
using GridStats = std::vector<std::vector<RunStats>>;

unsigned
col(ProtocolKind kind)
{
    return static_cast<unsigned>(kind);
}

/** Abbreviate a benchmark name to the paper's axis style. */
std::string
axisName(const std::string &name)
{
    if (name.size() <= 6)
        return name;
    return name.substr(0, 6) + ".";
}

/**
 * Fig. 9: bytes sent/received at the L1s, split into Control /
 * Unused-data / Used-data, normalized to each application's MESI
 * total (=100%).
 */
void
fig9(const std::vector<std::string> &benches, const GridStats &grid,
     double scale)
{
    std::printf("Fig. 9: L1 traffic breakdown, %% of MESI total "
                "(scale=%.2f)\n\n", scale);

    TextTable table({"app", "proto", "ctrl%", "unused%", "used%",
                     "total%"});
    std::vector<double> totals[4];

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const double base =
            trafficBreakdown(grid[b][col(ProtocolKind::MESI)]).total();
        for (ProtocolKind kind : allProtocols()) {
            const TrafficBreakdown tb =
                trafficBreakdown(grid[b][col(kind)]);
            table.addRow({axisName(benches[b]), shortName(kind),
                          TextTable::fmt(100 * tb.control / base, 1),
                          TextTable::fmt(100 * tb.unusedData / base, 1),
                          TextTable::fmt(100 * tb.usedData / base, 1),
                          TextTable::fmt(100 * tb.total() / base, 1)});
            totals[col(kind)].push_back(tb.total() / base);
        }
    }
    table.print(std::cout);

    std::printf("\nGeomean total traffic vs MESI:");
    for (ProtocolKind kind : allProtocols())
        std::printf("  %s=%.0f%%", shortName(kind),
                    100 * geomean(totals[col(kind)]));
    std::printf("\nPaper reference: SW 74%%, SW+MR 66%%, MW 63%% "
                "(reductions of 26%%/34%%/37%%).\n");
}

/**
 * Fig. 10: control bytes sent/received at the L1s by message class
 * (REQ / FWD / INV / ACK / NACK, plus the data-message headers the
 * paper folds into "message and data identifiers"), normalized to
 * each application's MESI *total* traffic.
 */
void
fig10(const std::vector<std::string> &benches, const GridStats &grid,
      double scale)
{
    std::printf("Fig. 10: control traffic by class, %% of MESI total "
                "(scale=%.2f)\n\n", scale);

    TextTable table({"app", "proto", "REQ", "FWD", "INV", "ACK", "NACK",
                     "DHDR", "ctrl-total"});
    std::vector<double> ctrlBytes[4];

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const double base =
            trafficBreakdown(grid[b][col(ProtocolKind::MESI)]).total();
        for (ProtocolKind kind : allProtocols()) {
            const L1Stats &l1 = grid[b][col(kind)].l1;
            std::vector<std::string> cells = {axisName(benches[b]),
                                              shortName(kind)};
            for (unsigned c = 0; c < kNumCtrlClasses; ++c) {
                cells.push_back(TextTable::fmt(
                    100.0 * static_cast<double>(l1.ctrlBytes[c]) / base,
                    2));
            }
            cells.push_back(TextTable::fmt(
                100.0 * static_cast<double>(l1.ctrlBytesTotal()) / base,
                2));
            table.addRow(std::move(cells));
            ctrlBytes[col(kind)].push_back(
                static_cast<double>(l1.ctrlBytesTotal()));
        }
    }
    table.print(std::cout);

    // Paper summary: control traffic of SW / SW+MR / MW relative to
    // MESI's control traffic (90% / 86% / 82%).
    std::printf("\nMean control bytes vs MESI control:");
    const auto &mesi = ctrlBytes[col(ProtocolKind::MESI)];
    for (ProtocolKind kind : allProtocols()) {
        const auto &v = ctrlBytes[col(kind)];
        std::vector<double> ratios;
        for (std::size_t i = 0; i < v.size(); ++i)
            ratios.push_back(mesi[i] > 0 ? v[i] / mesi[i] : 1.0);
        std::printf("  %s=%.0f%%", shortName(kind), 100 * mean(ratios));
    }
    std::printf("\nPaper reference: SW 90%%, SW+MR 86%%, MW 82%%.\n");
}

/**
 * Fig. 11: for Protozoa-MW, the share of directory accesses that found
 * the region in Owned state with {exactly one owner}, {one owner plus
 * sharers}, {more than one owner} — the sharing-behaviour census of
 * the multiple-owner directory.
 */
void
fig11(const std::vector<std::string> &benches, const GridStats &grid,
      double scale)
{
    std::printf("Fig. 11: directory Owned-state census under "
                "Protozoa-MW (scale=%.2f)\n\n", scale);

    TextTable table({"app", "1owner", "1owner+sharers", ">1owner",
                     "owned-accesses"});

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const DirStats &dir = grid[b][col(ProtocolKind::ProtozoaMW)].dir;
        const double total = static_cast<double>(
            dir.ownedOneOwnerOnly + dir.ownedOneOwnerPlusSharers +
            dir.ownedMultiOwner);
        auto pct = [&](std::uint64_t v) {
            return total > 0
                ? TextTable::pct(static_cast<double>(v) / total)
                : std::string("-");
        };
        table.addRow({benches[b], pct(dir.ownedOneOwnerOnly),
                      pct(dir.ownedOneOwnerPlusSharers),
                      pct(dir.ownedMultiOwner),
                      std::to_string(static_cast<std::uint64_t>(total))});
    }

    table.print(std::cout);
    std::printf("\nPaper reference: mat-mul/word-count/linear-"
                "regression have (almost) no Owned-state lookups; "
                "raytrace is single-owner; string-match finds >1 "
                "owner in over 90%% of lookups.\n");
}

/**
 * Fig. 12: distribution of cache-block granularities fetched into the
 * L1s under Protozoa-MW, bucketed as in the paper (1-2 / 3-4 / 5-6 /
 * 7-8 words).
 */
void
fig12(const std::vector<std::string> &benches, const GridStats &grid,
      double scale)
{
    std::printf("Fig. 12: L1 block-size distribution under Protozoa-MW "
                "(scale=%.2f)\n\n", scale);

    TextTable table({"app", "1-2 words", "3-4 words", "5-6 words",
                     "7-8 words", "blocks"});

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const L1Stats &l1 = grid[b][col(ProtocolKind::ProtozoaMW)].l1;
        double bucket[4] = {0, 0, 0, 0};
        double total = 0;
        for (unsigned w = 1; w <= 8; ++w) {
            bucket[(w - 1) / 2] +=
                static_cast<double>(l1.blockSizeHist[w]);
            total += static_cast<double>(l1.blockSizeHist[w]);
        }
        auto pct = [&](double v) {
            return total > 0 ? TextTable::pct(v / total)
                             : std::string("-");
        };
        table.addRow({benches[b], pct(bucket[0]), pct(bucket[1]),
                      pct(bucket[2]), pct(bucket[3]),
                      std::to_string(static_cast<std::uint64_t>(total))});
    }

    table.print(std::cout);
    std::printf("\nPaper reference: blackscholes/bodytrack/canneal "
                "mostly 1-2 word blocks; linear-regression, mat-mul "
                "and kmeans mostly 8-word blocks.\n");
}

/** Fig. 13: miss rate (MPKI) for the four protocols. */
void
fig13(const std::vector<std::string> &benches, const GridStats &grid,
      double scale)
{
    std::printf("Fig. 13: miss rate in MPKI (scale=%.2f)\n\n", scale);

    TextTable table({"app", "MESI", "SW", "SW+MR", "MW", "MW vs MESI"});
    std::vector<double> reduction_sw, reduction_mw, reduction_mr;
    std::vector<double> hot_sw, hot_mw, hot_mr;   // MPKI >= 6 subset

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const auto &row = grid[b];
        const double mesi = row[col(ProtocolKind::MESI)].mpki();
        const double sw = row[col(ProtocolKind::ProtozoaSW)].mpki();
        const double mr = row[col(ProtocolKind::ProtozoaSWMR)].mpki();
        const double mw = row[col(ProtocolKind::ProtozoaMW)].mpki();
        table.addRow({benches[b], TextTable::fmt(mesi),
                      TextTable::fmt(sw), TextTable::fmt(mr),
                      TextTable::fmt(mw),
                      TextTable::pct(mesi > 0 ? (mesi - mw) / mesi : 0,
                                     1)});
        if (mesi > 0) {
            reduction_sw.push_back(sw / mesi);
            reduction_mr.push_back(mr / mesi);
            reduction_mw.push_back(mw / mesi);
            if (mesi >= 6.0) {
                hot_sw.push_back(sw / mesi);
                hot_mr.push_back(mr / mesi);
                hot_mw.push_back(mw / mesi);
            }
        }
    }
    table.print(std::cout);

    std::printf("\nMean miss-rate vs MESI: SW=%.0f%%  SW+MR=%.0f%%  "
                "MW=%.0f%%\n",
                100 * mean(reduction_sw), 100 * mean(reduction_mr),
                100 * mean(reduction_mw));
    std::printf("Miss-heavy subset (MESI MPKI >= 6, %zu apps): "
                "SW=%.0f%%  SW+MR=%.0f%%  MW=%.0f%%  (paper: SW 65%%, "
                "SW+MR/MW 40%% on its 10-app subset)\n",
                hot_sw.size(), 100 * mean(hot_sw), 100 * mean(hot_mr),
                100 * mean(hot_mw));
    std::printf("Paper reference: SW reduces misses 19%% on average; "
                "SW+MR and MW reduce them 36%% on average; "
                "linear-regression falls by 99%% and histogram by 71%% "
                "under MW.\n");
}

/**
 * Each adaptive protocol's @p metric over MESI's for one benchmark:
 * {SW, SW+MR, MW}.
 */
template <typename Metric>
std::array<double, 3>
vsMesi(const std::vector<RunStats> &row, Metric metric)
{
    const double mesi =
        static_cast<double>(metric(row[col(ProtocolKind::MESI)]));
    return {static_cast<double>(
                metric(row[col(ProtocolKind::ProtozoaSW)])) / mesi,
            static_cast<double>(
                metric(row[col(ProtocolKind::ProtozoaSWMR)])) / mesi,
            static_cast<double>(
                metric(row[col(ProtocolKind::ProtozoaMW)])) / mesi};
}

/**
 * Fig. 14: execution time relative to MESI. The paper plots only
 * applications with more than a 3% change; this prints the full set
 * and marks the >3% ones.
 */
void
fig14(const std::vector<std::string> &benches, const GridStats &grid,
      double scale)
{
    std::printf("Fig. 14: execution time normalized to MESI "
                "(scale=%.2f)\n\n", scale);

    TextTable table({"app", "SW", "SW+MR", "MW", ">3%?"});
    std::vector<double> ratio_sw, ratio_mr, ratio_mw;

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const auto [sw, mr, mw] = vsMesi(
            grid[b], [](const RunStats &s) { return s.cycles; });
        const bool notable = std::abs(sw - 1) > 0.03 ||
            std::abs(mr - 1) > 0.03 || std::abs(mw - 1) > 0.03;
        table.addRow({benches[b], TextTable::fmt(sw),
                      TextTable::fmt(mr), TextTable::fmt(mw),
                      notable ? "*" : ""});
        ratio_sw.push_back(sw);
        ratio_mr.push_back(mr);
        ratio_mw.push_back(mw);
    }
    table.print(std::cout);

    std::printf("\nMean execution time vs MESI: SW=%.2f  SW+MR=%.2f  "
                "MW=%.2f\n",
                mean(ratio_sw), mean(ratio_mr), mean(ratio_mw));
    std::printf("Paper reference: ~4%% average improvement; "
                "linear-regression speeds up 2.2x under MW while SW "
                "slows it 17%%; apache slows ~7%% under MW.\n");
}

/**
 * Fig. 15: interconnect dynamic energy proxy — traffic in flit-hops
 * across the 4x4 mesh, normalized to MESI.
 */
void
fig15(const std::vector<std::string> &benches, const GridStats &grid,
      double scale)
{
    std::printf("Fig. 15: flit-hops (network dynamic energy proxy) "
                "relative to MESI (scale=%.2f)\n\n", scale);

    TextTable table({"app", "SW", "SW+MR", "MW"});
    std::vector<double> r_sw, r_mr, r_mw;

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const auto [sw, mr, mw] = vsMesi(
            grid[b], [](const RunStats &s) { return s.net.flitHops; });
        table.addRow({benches[b], TextTable::fmt(sw),
                      TextTable::fmt(mr), TextTable::fmt(mw)});
        r_sw.push_back(sw);
        r_mr.push_back(mr);
        r_mw.push_back(mw);
    }
    table.print(std::cout);

    std::printf("\nMean flit-hops vs MESI: SW=%.0f%%  SW+MR=%.0f%%  "
                "MW=%.0f%%\n",
                100 * mean(r_sw), 100 * mean(r_mr), 100 * mean(r_mw));
    std::printf("Paper reference: SW eliminates 33%%, SW+MR 38%%, and "
                "MW 49%% of flit-hops on average.\n");
}

} // namespace

int
main()
{
    const double scale = envScale();

    const auto benches = paperBenchmarkNames();
    std::vector<SystemConfig> configs;
    for (ProtocolKind kind : allProtocols()) {
        SystemConfig cfg;
        cfg.protocol = kind;
        configs.push_back(cfg);
    }
    const GridStats grid = runGrid(benches, configs, scale);

    for (auto figure : {fig9, fig10, fig11, fig12, fig13, fig14, fig15})
        figure(benches, grid, scale);
    return 0;
}
