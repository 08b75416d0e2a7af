// ext_alpha_sensitivity — ablation of the model's read/write-mix term.
//
// Equations 4/8 predict conflict likelihood ∝ (1+2α): reads contribute both
// as targets (a transaction's read entries can be hit by others' writes) and
// as probes (each read can hit others' write entries). We sweep α in the
// open-system simulation at fixed W and N and compare against the predicted
// (1+2α) scaling — an ablation of the model term that the paper fixes at
// α = 2 throughout.
#include <iostream>

#include "bench_common.hpp"
#include "core/conflict_model.hpp"
#include "sim/open_system.hpp"
#include "util/table_printer.hpp"

namespace {
using tmb::bench::scaled;
using tmb::util::TablePrinter;
}  // namespace

int bench_main(int argc, char** argv) {
    tmb::bench::Runner runner("ext_alpha_sensitivity", argc, argv);
    runner.header("model ablation — conflict likelihood vs alpha (1+2a law)",
                       "Zilles & Rajwar, SPAA 2007, Eq. 4/8 read-mix term");

    const std::uint64_t kTable = runner.cfg().get_u64("entries", 65536);
    constexpr std::uint64_t kW = 10;

    std::cout << "open-system simulation, C=2, W=" << kW << ", N=" << kTable
              << "; the model predicts rate ∝ (1+2a).\n\n";

    TablePrinter t({"alpha", "sim %", "model %", "sim/sim(a=0)",
                    "predicted (1+2a)"});
    double base_rate = 0.0;
    for (const double alpha : {0.0, 0.5, 1.0, 2.0, 4.0}) {
        const auto r = tmb::sim::run_open_system(
            {.concurrency = 2,
             .write_footprint = kW,
             .alpha = alpha,
             .table_entries = kTable,
             .experiments = scaled(20000),
             .seed = 0xa1f4 ^ static_cast<std::uint64_t>(alpha * 8)});
        const tmb::core::ModelParams p{.alpha = alpha, .table_entries = kTable};
        const double model = tmb::core::conflict_likelihood_c2(p, kW);
        if (alpha == 0.0) base_rate = r.conflict_rate();
        t.add_row({TablePrinter::fmt(alpha, 1),
                   TablePrinter::fmt(100.0 * r.conflict_rate(), 2),
                   TablePrinter::fmt(100.0 * model, 2),
                   TablePrinter::fmt(r.conflict_rate() / base_rate, 2),
                   TablePrinter::fmt(1.0 + 2.0 * alpha, 2)});
    }
    runner.emit("ext_alpha_sensitivity", t);

    std::cout << "\nreading: the measured ratio column should track (1+2a) — "
                 "doubling the read mix\nnearly doubles the false-conflict "
                 "rate even though reads alone never conflict with\neach "
                 "other. Read sets are not free in a tagless table.\n";
    return runner.done();
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
