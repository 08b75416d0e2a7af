// birthday_calc — command-line calculator for the paper's analytical model.
//
// Usage:
//   ./build/examples/birthday_calc                  # paper defaults (W=71, a=2)
//   ./build/examples/birthday_calc W alpha C N      # custom design point
//   ./build/examples/birthday_calc --w=71 --alpha=2 --c=2 --n=65536
//
// Given a transaction write footprint W, read/write ratio alpha, concurrency
// C and a tagless-ownership-table size N, prints the predicted conflict
// likelihood (Eq. 8), commit probability, and the table sizes required for
// common commit-rate targets — the calculation an STM designer would run
// before choosing a metadata organization.
#include <iostream>

#include "config/config.hpp"
#include "core/birthday.hpp"
#include "core/conflict_model.hpp"
#include "util/table_printer.hpp"

int example_main(int argc, char** argv) {
    using tmb::util::TablePrinter;

    const auto cli = tmb::config::Config::from_args(argc, argv);
    const std::uint64_t w = tmb::config::opt_u64(cli, "w", 0, 71);
    const double alpha = tmb::config::opt_f64(cli, "alpha", 1, 2.0);
    const std::uint32_t c = tmb::config::opt_u32(cli, "c", 2, 2);
    const std::uint64_t n = tmb::config::opt_u64(cli, "n", 3, 65536);
    tmb::config::reject_unknown(cli);

    if (w == 0 || c < 2 || n == 0 || alpha < 0.0) {
        std::cerr << "usage: birthday_calc [W>=1] [alpha>=0] [C>=2] [N>=1]\n";
        return 1;
    }

    const tmb::core::ModelParams params{.alpha = alpha, .table_entries = n};

    std::cout << "design point: W=" << w << " written blocks, alpha=" << alpha
              << " (footprint ~" << static_cast<std::uint64_t>((1 + alpha) * static_cast<double>(w))
              << " blocks), C=" << c << ", N=" << n << " entries\n\n";

    const double likelihood = tmb::core::conflict_likelihood(params, c, w);
    std::cout << "conflict likelihood (Eq. 8, sum form):  "
              << TablePrinter::fmt(100.0 * likelihood, 2) << "%"
              << (likelihood > 1.0 ? "  (saturated: > 100% means certain)" : "")
              << '\n';
    std::cout << "commit probability (linear, clamped):   "
              << TablePrinter::fmt(
                     100.0 * tmb::core::commit_probability_linear(params, c, w), 2)
              << "%\n";
    std::cout << "commit probability (exact product):     "
              << TablePrinter::fmt(
                     100.0 * tmb::core::commit_probability_product(params, c, w), 2)
              << "%\n";
    std::cout << "intra-transaction alias probability:    "
              << TablePrinter::fmt(
                     100.0 * tmb::core::intra_transaction_alias_probability(params, w),
                     2)
              << "%\n\n";

    std::cout << "required tagless-table sizes at this (W, alpha, C):\n";
    TablePrinter req({"commit target", "required N", "vs your N"});
    for (const double target : {0.50, 0.90, 0.95, 0.99}) {
        const auto needed = tmb::core::required_table_entries(alpha, c, w, target);
        req.add_row({TablePrinter::fmt(target, 2), std::to_string(needed),
                     needed <= n ? "ok" : "too small"});
    }
    req.render(std::cout);

    std::cout << "\nfor intuition, the classic birthday paradox: "
              << tmb::core::birthday_min_people(0.5, 365)
              << " people suffice for a >50% shared-birthday chance among 365 "
                 "days.\n"
              << "a tagged table (paper Fig. 7 / this library's "
                 "kTaggedTable) avoids this entirely.\n";
    return 0;
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(example_main, argc, argv);
}
