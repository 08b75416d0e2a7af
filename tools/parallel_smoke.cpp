// parallel_smoke — fast end-to-end health check of the execution engine:
// every STM backend × every registered workload, driven by real threads,
// with the workload invariant and table quiescence verified after each run.
// Exit 0 = all PASS; any lost update, lost release or crash is a nonzero
// exit. CI runs this under ThreadSanitizer.
//
//   parallel_smoke [--threads=4] [--ops=2000] [--seed=1]
#include <iostream>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "exec/parallel_runner.hpp"
#include "exec/workload.hpp"
#include "stm/stm.hpp"
#include "util/table_printer.hpp"

namespace {

int smoke_main(int argc, char** argv) {
    const auto cli = tmb::config::Config::from_args(argc, argv);
    const std::uint32_t threads = cli.get_u32("threads", 4);
    const std::uint64_t ops = cli.get_u64("ops", 2000);
    const std::uint64_t seed = cli.get_u64("seed", 1);
    tmb::config::reject_unknown(cli);

    // The table rows cover both organizations under both acquisition
    // disciplines; the lazy commit's acquire loop is real-thread code too.
    const struct {
        std::string backend;
        std::string table;
        bool lazy;
    } rows[] = {{"tl2", "", false},
                {"table", "tagless", false},
                {"table", "tagless", true},
                {"table", "tagged", false},
                {"table", "tagged", true},
                {"adaptive", "", false}};
    bool all_ok = true;

    for (const auto& [backend, table, lazy] : rows) {
        const std::string label = backend + (table.empty() ? "" : "/" + table) +
                                  (lazy ? "/lazy" : "");
        for (const std::string& workload : tmb::exec::workload_names()) {
            tmb::config::Config cfg;
            cfg.set("backend", backend);
            if (!table.empty()) cfg.set("table", table);
            if (lazy) cfg.set("commit_time_locks", "1");
            if (backend == "adaptive") {
                // Start the wrapper on a deliberately small tagless table
                // with short epochs: the smoke then exercises live swaps
                // (resize or tagged bail-out) under every workload.
                cfg.set("engine", "table");
                cfg.set("policy", "auto");
                cfg.set("epoch", "256");
                cfg.set("max_entries", "65536");
            }
            cfg.set("workload", workload);
            cfg.set("threads", std::to_string(threads));
            cfg.set("ops", std::to_string(ops));
            cfg.set("seed", std::to_string(seed));
            // Small shared state so the run actually contends.
            cfg.set("slots", "1024");
            cfg.set("accounts", "256");
            cfg.set("entries", "4096");
            // Lazy commits upgrade read-shared blocks, and under a plain
            // yield that livelocks once every thread's transaction overlaps
            // (8 threads under TSan); randomized backoff breaks the symmetry.
            cfg.set("contention", lazy ? "backoff" : "yield");
            try {
                tmb::exec::ParallelRunner engine(cfg);
                const auto r = engine.run();
                std::cout << "PASS " << label << "/" << workload << ": "
                          << r.stats.commits << " commits, "
                          << r.stats.aborts << " aborts, "
                          << tmb::util::TablePrinter::fmt(
                                 r.commits_per_second(), 0)
                          << " commits/s\n";
            } catch (const std::exception& e) {
                all_ok = false;
                std::cout << "FAIL " << label << "/" << workload << ": "
                          << e.what() << '\n';
            }
        }
    }
    std::cout << (all_ok ? "smoke: all engine combinations PASS\n"
                         : "smoke: FAILURES above\n");
    return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    return tmb::config::guarded_main(smoke_main, argc, argv);
}
