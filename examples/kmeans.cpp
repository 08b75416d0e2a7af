// kmeans — parallel k-means clustering with transactional accumulators.
//
// Build & run:   ./build/examples/kmeans [threads] [ops-per-thread]
//
// This is a thin driver over the workload `kmeans`
// (exec::make_workload): worker threads assign points to the nearest
// centroid, accumulating per-cluster counts and coordinate sums in
// transactional hash maps; periodic recenter transactions fold the
// accumulators into the centroids and erase the rows. The accumulator maps
// are therefore rebuilt continuously through tx_alloc/tx_free — the
// allocation-churn pattern the runtime's epoch reclamation exists for. The
// engine (exec::ParallelRunner) verifies the conservation invariant (live +
// absorbed assignments == assign ops) after the run; a violation throws.
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
        cli.get_u64("ops", pos.size() > 1 ? std::stoul(pos[1]) : 4000);
    const auto clusters = cli.get_u64("clusters", 8);
    const auto recenter_every = cli.get_u64("recenter_every", 64);
    const auto space = cli.get_u64("space", 1024);
    const auto seed = cli.get_u64("seed", 0x5eedULL);
    std::vector<std::string> backends;
    if (const auto pinned = cli.get_optional("backend")) {
        backends.push_back(*pinned);
    } else {
        backends = {"tagless", "tagged", "tl2", "adaptive"};
    }
    tmb::config::reject_unknown(cli);

    std::cout << "kmeans: " << threads << " threads x " << ops
              << " ops, k=" << clusters << ", recenter every ~"
              << recenter_every << " ops\n\n";

    tmb::util::TablePrinter t({"backend", "commits", "aborts", "tx allocs",
                               "tx frees", "reclaimed", "commits/s"});
    for (const std::string& backend : backends) {
        const auto cfg = tmb::config::Config::from_string(
            "workload=kmeans backend=" + backend +
            " entries=16384 threads=" + std::to_string(threads) +
            " ops=" + std::to_string(ops) +
            " clusters=" + std::to_string(clusters) +
            " recenter_every=" + std::to_string(recenter_every) +
            " space=" + std::to_string(space) +
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
    std::cout << "\nhot per-cluster accumulator rows are the contended case; "
                 "recenter transactions\nerase them (tx_free) and assignments "
                 "re-insert them (tx_alloc), so the maps are\nrebuilt "
                 "continuously without leaking or freeing under a reader.\n";
    return 0;
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(example_main, argc, argv);
}
