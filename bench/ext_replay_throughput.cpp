// ext_replay_throughput — trace replay through the real-thread engine:
// accesses/s and abort rate vs thread count for any trace source against
// any STM backend, both selected by name. This closes the loop between the
// paper's trace-driven experiments (simulated, §2.2) and the execution
// engine: the same address streams that drive the alias simulator here
// contend on real ownership metadata from real std::threads.
//
// Flags (on top of the shared Runner set):
//   --backend=   tl2 | table | adaptive (default table)
//   --table=     tagless (default, lock-free) | tagged for --backend=table
//   --source=    jbb | zipf | spec:<profile> | file:<path> (default jbb;
//                generator stream count follows --threads, so each engine
//                thread replays its own stream)
//   --threads=   max thread count; the sweep doubles 1,2,4,... up to it
//   --ops=       transactions per thread per point (default 20000, scaled)
//   --tx_size=   consecutive trace accesses per transaction (default 16)
//   --accesses=  per-stream source length (wraps when exhausted)
//   plus the STM shape keys (entries, slots, contention, ...).
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
    tmb::bench::Runner runner("ext_replay_throughput", argc, argv);
    runner.header("Trace replay — accesses/s vs thread count",
                  "extension; the paper's trace streams driven through real "
                  "threads");

    tmb::config::Config& cfg = runner.cfg();
    cfg.set("workload", "replay");
    if (!cfg.has("backend")) cfg.set("backend", "table");
    const std::uint32_t max_threads = cfg.get_u32("threads", 8);
    const std::uint32_t tx_size = cfg.get_u32("tx_size", 16);
    cfg.set("tx_size", std::to_string(tx_size));
    if (!cfg.has("ops")) {
        cfg.set("ops", std::to_string(tmb::bench::scaled(20000)));
    }

    std::vector<std::uint32_t> points;
    for (std::uint32_t t = 1; t < max_threads; t *= 2) points.push_back(t);
    points.push_back(max_threads);
    points.erase(std::unique(points.begin(), points.end()), points.end());

    std::cout << "backend=" << cfg.get("backend", "table")
              << " source=" << cfg.get("source", "jbb")
              << " tx_size=" << tx_size
              << " ops/thread=" << cfg.get("ops", "") << "\n\n";

    TablePrinter t({"threads", "txs", "accesses/s", "commits/s", "abort rate",
                    "false conflicts", "elapsed s"});
    for (const std::uint32_t threads : points) {
        cfg.set("threads", std::to_string(threads));
        tmb::exec::ParallelRunner engine(cfg);
        const auto r = engine.run();
        // Every replay transaction executes exactly tx_size trace accesses.
        const double accesses_per_second =
            r.commits_per_second() * static_cast<double>(tx_size);
        t.add_row({std::to_string(threads), std::to_string(r.ops),
                   TablePrinter::fmt(accesses_per_second, 0),
                   TablePrinter::fmt(r.commits_per_second(), 0),
                   TablePrinter::fmt(r.stats.abort_rate(), 4),
                   std::to_string(r.stats.false_conflicts),
                   TablePrinter::fmt(r.elapsed_seconds, 3)});
    }
    runner.emit("replay_throughput", t);
    std::cout << "expected shape: accesses/s grows with threads (streams are "
                 "mostly disjoint);\nabort rate tracks the table's false-"
                 "conflict rate — shrink --entries or replay\n--source=zipf "
                 "to raise contention.\n";
    return runner.done();
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
