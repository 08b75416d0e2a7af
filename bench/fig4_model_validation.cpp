// fig4_model_validation — reproduces paper Figure 4 (§4): validation of the
// analytical model via open-system statistical simulation (1000 experiments
// per point, lock-step transactions placing random table entries).
//
//   (a) conflict likelihood vs write footprint for N ∈ {512..4096}, C=2,
//       against the Eq. 4 model line;
//   (b) the <concurrency, table size> clusters showing the asymptotically
//       quadratic concurrency dependence (Eq. 8);
//   plus the §4 text claim: intra-transaction aliasing < 3 % whenever the
//   conflict rate is < 50 % (model assumption 5).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/conflict_model.hpp"
#include "sim/open_system.hpp"
#include "util/table_printer.hpp"

namespace {

using tmb::bench::scaled;
using tmb::core::ModelParams;
using tmb::sim::OpenSystemConfig;
using tmb::sim::OpenSystemResult;
using tmb::sim::run_open_system;
using tmb::util::TablePrinter;

OpenSystemResult point(std::uint32_t c, std::uint64_t w, std::uint64_t n) {
    return run_open_system({.concurrency = c,
                            .write_footprint = w,
                            .alpha = 2.0,
                            .table_entries = n,
                            .experiments = scaled(1000),
                            .seed = 0xf16'4000 ^ (c * 977ULL) ^ (w << 24) ^ n});
}

}  // namespace

int bench_main(int argc, char** argv) {
    tmb::bench::Runner runner("fig4_model_validation", argc, argv);
    const bool check = runner.cfg().get_bool("check", false);
    runner.header("Fig. 4 — model validation by statistical simulation",
                       "Zilles & Rajwar, SPAA 2007, Figure 4");
    std::vector<std::string> failures;

    // --- Fig. 4(a) --------------------------------------------------------
    std::cout << "Fig. 4(a): conflict likelihood (%) vs W, C=2, alpha=2\n"
              << "  (sim = open-system simulation; model = per-step product "
                 "form, which equals\n   Eq. 4's (1+2a)W^2/N in the sparse "
                 "regime the paper analyzes)\n";
    {
        TablePrinter t({"W", "sim 512", "model 512", "sim 1024", "model 1024",
                        "sim 2048", "model 2048", "sim 4096", "model 4096",
                        "maxDelta_pp"});
        for (std::uint64_t w = 5; w <= 50; w += 5) {
            std::vector<std::string> row{std::to_string(w)};
            double max_delta = 0.0;
            for (const std::uint64_t n : {512u, 1024u, 2048u, 4096u}) {
                const auto r = point(2, w, n);
                const ModelParams p{.alpha = 2.0, .table_entries = n};
                const double model =
                    1.0 - tmb::core::commit_probability_product(p, 2, w);
                const double sim = r.conflict_rate();
                const double delta = sim > model ? sim - model : model - sim;
                max_delta = std::max(max_delta, delta);
                // Machine-checkable agreement: the product-form model and
                // the Monte Carlo must stay within sampling noise of each
                // other everywhere Fig. 4(a) plots them.
                if (delta > std::max(0.03, 0.15 * model)) {
                    failures.push_back(
                        "fig4a W=" + std::to_string(w) + " N=" +
                        std::to_string(n) + ": sim " +
                        TablePrinter::fmt(100.0 * sim, 1) + "% vs model " +
                        TablePrinter::fmt(100.0 * model, 1) +
                        "% exceeds max(3pp, 15% of model)");
                }
                row.push_back(TablePrinter::fmt(100.0 * sim, 1));
                row.push_back(TablePrinter::fmt(100.0 * model, 1));
            }
            row.push_back(TablePrinter::fmt(100.0 * max_delta, 1));
            t.add_row(std::move(row));
        }
        runner.emit("fig4a_model_vs_sim", t);
        std::cout << "paper shape: quadratic growth in W; inverse scaling in N;"
                     "\n  e.g. at W=8 the paper quotes 48% / 27% / 14% / 7.7%.\n\n";
    }

    // --- Fig. 4(b) --------------------------------------------------------
    std::cout << "Fig. 4(b): conflict likelihood (%) clusters "
                 "<concurrency-tableSize>\n";
    {
        struct Pair {
            std::uint32_t c;
            std::uint64_t n;
        };
        const std::vector<std::vector<Pair>> clusters{
            {{2, 256}, {4, 1024}, {8, 4096}},
            {{2, 1024}, {4, 4096}, {8, 16384}},
            {{2, 4096}, {4, 16384}, {8, 65536}},
        };
        TablePrinter t({"W", "2-256", "4-1k", "8-4k", "2-1k", "4-4k", "8-16k",
                        "2-4k", "4-16k", "8-64k"});
        for (std::uint64_t w = 5; w <= 50; w += 5) {
            std::vector<std::string> row{std::to_string(w)};
            for (const auto& cluster : clusters) {
                for (const auto& [c, n] : cluster) {
                    row.push_back(
                        TablePrinter::fmt(100.0 * point(c, w, n).conflict_rate(), 1));
                }
            }
            t.add_row(std::move(row));
        }
        runner.emit("fig4b_clusters", t);
        std::cout << "paper shape: three clusters (4x table per 2x concurrency);"
                     "\n  within a cluster the C=2 line sits lower because "
                     "conflicts grow as C(C-1), not C^2.\n\n";
    }

    // --- §4 text: intra-transaction aliasing ------------------------------
    std::cout << "Assumption-5 validation: intra-transaction aliasing rate\n";
    {
        TablePrinter t({"C", "W", "N", "conflict%", "intraAlias%"});
        for (const std::uint64_t n : {1024u, 4096u, 16384u}) {
            for (const std::uint64_t w : {10u, 20u, 40u}) {
                const auto r = point(2, w, n);
                t.add_row({"2", std::to_string(w), std::to_string(n),
                           TablePrinter::fmt(100.0 * r.conflict_rate(), 1),
                           TablePrinter::fmt(100.0 * r.intra_alias_block_rate, 2)});
            }
        }
        runner.emit("fig4_intra_alias", t);
        std::cout << "paper claim: aliasing rate < 3% whenever conflict rate < 50%.\n";
        // The claim itself, machine-checked.
        for (const std::uint64_t n : {1024u, 4096u, 16384u}) {
            for (const std::uint64_t w : {10u, 20u, 40u}) {
                const auto r = point(2, w, n);
                if (r.conflict_rate() < 0.5 &&
                    r.intra_alias_block_rate >= 0.03) {
                    failures.push_back(
                        "assumption 5: intra-alias rate " +
                        TablePrinter::fmt(100.0 * r.intra_alias_block_rate,
                                          2) +
                        "% at W=" + std::to_string(w) + " N=" +
                        std::to_string(n) + " despite conflict rate " +
                        TablePrinter::fmt(100.0 * r.conflict_rate(), 1) +
                        "% < 50%");
                }
            }
        }
    }

    for (const std::string& f : failures) {
        std::cout << "CHECK FAIL: " << f << '\n';
    }
    const int rc = runner.done();
    if (!check) return rc;
    std::cout << (failures.empty() ? "fig4_model_validation: checks passed\n"
                                   : "fig4_model_validation: CHECK FAILURES "
                                     "above\n");
    return failures.empty() ? rc : 1;
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
