// ext_parallel_throughput — measured (not simulated) concurrency: the
// execution engine drives a workload against an STM backend, both selected
// by name, with real std::threads, reporting
// commits/sec and abort rate vs thread count. This is the scaling
// counterpart to fig5/fig6's statistical simulations: the same ownership
// metadata, contended by actual hardware threads.
//
// Flags (on top of the shared Runner set):
//   --backend=   tl2 | table | adaptive (default table)
//   --table=     tagless (default, lock-free) | tagged for --backend=table
//   --workload=  counters | zipf | bank (default counters, low contention)
//   --threads=   max thread count; the sweep doubles 1,2,4,... up to it
//                (default 8; must respect the backend's capacity)
//   --ops=       operations per thread per point (default 20000, scaled)
//   --duration_ms= wall-clock bound per point instead of an op budget
//   plus the workload/STM shape keys (slots, tx_size, skew, entries, ...).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/parallel_runner.hpp"
#include "util/table_printer.hpp"

namespace {

using tmb::util::TablePrinter;

}  // namespace

int bench_main(int argc, char** argv) {
    tmb::bench::Runner runner("ext_parallel_throughput", argc, argv);
    runner.header("Execution engine — throughput vs thread count",
                  "extension; real-thread measurement of the paper's "
                  "contended-metadata setting");

    // The engine consumes its keys straight from the runner's config (so
    // done() still catches typos); only `threads` is rewritten per point.
    tmb::config::Config& cfg = runner.cfg();
    if (!cfg.has("backend")) cfg.set("backend", "table");
    const std::uint32_t max_threads = cfg.get_u32("threads", 8);
    if (!cfg.has("ops")) {
        cfg.set("ops", std::to_string(tmb::bench::scaled(20000)));
    }

    std::vector<std::uint32_t> points;
    for (std::uint32_t t = 1; t < max_threads; t *= 2) points.push_back(t);
    points.push_back(max_threads);
    points.erase(std::unique(points.begin(), points.end()), points.end());

    std::cout << "backend=" << cfg.get("backend", "table")
              << " workload=" << cfg.get("workload", "counters")
              << " ops/thread=" << cfg.get("ops", "") << "\n\n";

    TablePrinter t({"threads", "ops", "commits/s", "abort rate",
                    "mean attempts", "false conflicts", "clock cas fails",
                    "policy switches", "elapsed s"});
    for (const std::uint32_t threads : points) {
        cfg.set("threads", std::to_string(threads));
        tmb::exec::ParallelRunner engine(cfg);
        const auto r = engine.run();
        t.add_row({std::to_string(threads), std::to_string(r.ops),
                   TablePrinter::fmt(r.commits_per_second(), 0),
                   TablePrinter::fmt(r.stats.abort_rate(), 4),
                   TablePrinter::fmt(r.stats.mean_attempts(), 3),
                   std::to_string(r.stats.false_conflicts),
                   std::to_string(r.stats.clock_cas_failures),
                   std::to_string(r.stats.policy_switches),
                   TablePrinter::fmt(r.elapsed_seconds, 3)});
    }
    runner.emit("parallel_throughput", t);
    std::cout << "expected shape: commits/s grows with threads on the "
                 "low-contention default\n(slots >> threads · tx_size); "
                 "abort rate grows with --workload=zipf skew or small "
                 "--slots.\n";
    return runner.done();
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
