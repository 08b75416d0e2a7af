// vacation — a travel-reservation workload in the style of the classic TM
// benchmarks (the kind of multi-object critical section the paper's intro
// motivates TM for).
//
// Build & run:   ./build/examples/vacation [threads] [ops-per-thread]
//
// This is a thin driver over the workload `vacation`
// (exec::make_workload): three resource classes with availability and
// booking hash maps, where reservations and cancellations insert and erase
// map nodes through the runtime's tx_alloc/tx_free — every session is one
// serializable transaction across multiple maps, and erased nodes are
// epoch-reclaimed only when no optimistic reader can still touch them.
// The engine (exec::ParallelRunner) verifies the conservation invariant
// (available + booked == capacity, per class) after the run; a violation
// throws.
#include <iostream>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "exec/parallel_runner.hpp"
#include "util/table_printer.hpp"

int example_main(int argc, char** argv) {
    const auto cli = tmb::config::Config::from_args(argc, argv);
    const auto& pos = cli.positional();
    const auto threads =
        cli.get_u64("threads", pos.size() > 0 ? std::stoul(pos[0]) : 4);
    const auto ops =
        cli.get_u64("ops", pos.size() > 1 ? std::stoul(pos[1]) : 2000);
    const auto rows = cli.get_u64("rows", 128);
    const auto customers = cli.get_u64("customers", 64);
    const auto queries = cli.get_u64("queries", 2);
    const auto seed = cli.get_u64("seed", 0x5eedULL);
    std::vector<std::string> backends;
    if (const auto pinned = cli.get_optional("backend")) {
        backends.push_back(*pinned);
    } else {
        backends = {"tagless", "tagged", "tl2", "adaptive"};
    }
    tmb::config::reject_unknown(cli);

    std::cout << "vacation: " << threads << " threads x " << ops
              << " sessions, " << rows << " resources/class, itinerary size "
              << queries << "\n\n";

    tmb::util::TablePrinter t({"backend", "commits", "aborts", "tx allocs",
                               "tx frees", "reclaimed", "commits/s"});
    for (const std::string& backend : backends) {
        const auto cfg = tmb::config::Config::from_string(
            "workload=vacation backend=" + backend +
            " entries=16384 threads=" + std::to_string(threads) +
            " ops=" + std::to_string(ops) + " rows=" + std::to_string(rows) +
            " customers=" + std::to_string(customers) +
            " queries=" + std::to_string(queries) +
            " seed=" + std::to_string(seed));
        tmb::exec::ParallelRunner runner(cfg);
        const auto r = runner.run();  // throws if the invariant is violated
        const auto reclaim = runner.stm().reclaim_stats();
        t.add_row({backend, std::to_string(r.stats.commits),
                   std::to_string(r.stats.aborts),
                   std::to_string(reclaim.tx_allocs),
                   std::to_string(reclaim.tx_frees),
                   std::to_string(reclaim.reclaimed),
                   tmb::util::TablePrinter::fmt(r.commits_per_second(), 0)});
    }
    t.render(std::cout);
    std::cout << "\neach session is one transaction over several hash maps — "
                 "booking rows are created\nwith tx_alloc and erased with "
                 "tx_free, so aborts leak nothing and frees are\n"
                 "epoch-reclaimed (no reader ever touches freed memory).\n";
    return 0;
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(example_main, argc, argv);
}
