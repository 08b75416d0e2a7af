// fig5_closed_system — reproduces paper Figure 5 (§4): closed-system
// simulations where C threads run fixed-size transactions back-to-back
// (650 transactions complete when conflict-free; staggered starts; aborted
// transactions restart). Both panels plot the number of conflicts on a
// log-log scale, so power laws appear as straight lines with the expected
// slopes and constant separation.
//
//   (a) conflicts vs write footprint for <concurrency, table size> pairs
//   (b) conflicts vs table size for <concurrency, write footprint> pairs
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/conflict_model.hpp"
#include "sim/closed_system.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

namespace {

using tmb::bench::scaled;
using tmb::sim::ClosedSystemConfig;
using tmb::sim::run_closed_system_averaged;
using tmb::util::TablePrinter;

double conflicts(std::uint32_t c, std::uint64_t w, std::uint64_t n) {
    const ClosedSystemConfig config{
        .concurrency = c,
        .write_footprint = w,
        .alpha = 2.0,
        .table_entries = n,
        .target_transactions = 650,
        .seed = 0xf15'0000 ^ (c * 31ULL) ^ (w << 16) ^ n,
    };
    // The paper plots single runs; we average a few for smoother series.
    return run_closed_system_averaged(config, 8).conflicts;
}

}  // namespace

int bench_main(int argc, char** argv) {
    tmb::bench::Runner runner("fig5_closed_system", argc, argv);
    runner.header("Fig. 5 — closed-system conflict counts",
                       "Zilles & Rajwar, SPAA 2007, Figure 5");

    // --- Fig. 5(a): conflicts vs write footprint --------------------------
    std::cout << "Fig. 5(a): number of conflicts vs W "
                 "(650-transaction budget), series <C-N>\n";
    {
        TablePrinter t({"W", "8-1k", "8-4k", "8-16k", "4-1k", "4-4k", "4-16k",
                        "2-1k", "2-4k", "2-16k"});
        for (const std::uint64_t w : {5u, 8u, 11u, 16u, 20u}) {
            std::vector<std::string> row{std::to_string(w)};
            for (const std::uint32_t c : {8u, 4u, 2u}) {
                for (const std::uint64_t n : {1024u, 4096u, 16384u}) {
                    row.push_back(TablePrinter::fmt(conflicts(c, w, n), 1));
                }
            }
            t.add_row(std::move(row));
        }
        runner.emit("fig5a_conflicts_vs_W", t);
        std::cout << "paper shape: straight lines on log-log axes (power law in "
                     "W),\n  constant separation between N series.\n\n";
    }

    // --- Fig. 5(b): conflicts vs table size -------------------------------
    std::cout << "Fig. 5(b): number of conflicts vs N, series <C-W>\n";
    {
        TablePrinter t({"N", "8-20", "8-10", "8-5", "4-20", "4-10", "4-5",
                        "2-20", "2-10", "2-5"});
        for (const std::uint64_t n : {1024u, 2048u, 4096u, 8192u, 16384u}) {
            std::vector<std::string> row{std::to_string(n)};
            for (const std::uint32_t c : {8u, 4u, 2u}) {
                for (const std::uint64_t w : {20u, 10u, 5u}) {
                    row.push_back(TablePrinter::fmt(conflicts(c, w, n), 1));
                }
            }
            t.add_row(std::move(row));
        }
        runner.emit("fig5b_conflicts_vs_N", t);
        std::cout << "paper shape: inverse-linear decay in N (slope -1 on "
                     "log-log axes) in the modest-conflict regime.\n";
    }

    // --- model overlay (extension: first-order closed-system estimate) ----
    std::cout << "\nmodel overlay (sim vs core::closed_system_conflicts_estimate,"
                 " C=4):\n";
    {
        TablePrinter t({"N", "W", "sim", "model est"});
        for (const std::uint64_t n : {4096u, 16384u}) {
            for (const std::uint64_t w : {5u, 10u, 20u}) {
                const tmb::core::ModelParams p{.alpha = 2.0, .table_entries = n};
                t.add_row({std::to_string(n), std::to_string(w),
                           TablePrinter::fmt(conflicts(4, w, n), 1),
                           TablePrinter::fmt(
                               tmb::core::closed_system_conflicts_estimate(p, 4, w, 650),
                               0)});
            }
        }
        runner.emit("fig5_model_overlay", t);
        std::cout << "the estimate is first-order (attempts shorter than W "
                     "after mid-transaction aborts are\nnot modelled); "
                     "expected agreement is the scaling, within ~2x absolute.\n";
    }
    return runner.done();
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
