// ext_parallel_throughput — measured (not simulated) concurrency: the
// execution engine drives a workload against an STM backend, both selected
// by name, with real std::threads, reporting commits/sec, abort rate and
// the transactional allocator's ledger vs thread count. This is the scaling
// counterpart to fig5/fig6's statistical simulations: the same ownership
// metadata, contended by actual hardware threads. It is the one real-thread
// sweep for every registry workload:
//
//   --workload=replay     the paper's §2.2 trace streams (tx_size defaults
//                         to 16; accesses/s = commits/s × tx_size)
//   --workload=vacation   STAMP-class workloads that insert and erase
//   --workload=kmeans     container nodes with tx_alloc/tx_free, so the
//   --workload=pipeline   allocator columns show speculative-allocation
//                         rollback and epoch reclamation at work
//
// The allocator columns: tx allocs, tx frees and reclaimed are the point's
// whole ledger (the workload's prepare() included, after the runner's
// quiescent drain, so reclaimed == tx frees); cache hit is the share of
// allocations the per-context free-block caches served, and mtx/commit the
// domain-mutex acquires per commit (rerun with --cache_blocks=0 for the
// uncached baseline). All read 0 on workloads that never allocate.
//
// Flags (on top of the shared Runner set):
//   --backend=   tl2 | table | tagless | tagged | adaptive (default table)
//   --table=     tagless (default, lock-free) | tagged for --backend=table
//   --workload=  counters | zipf | bank | replay | vacation | kmeans |
//                pipeline (default counters, low contention)
//   --threads=   max thread count; the sweep doubles 1,2,4,... up to it
//                (default 8; must respect the backend's capacity)
//   --ops=       operations per thread per point (default 20000, scaled)
//   plus the workload/STM shape keys (slots, tx_size, skew, entries,
//   source, rows, clusters, ...).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/parallel_runner.hpp"
#include "stm/txalloc.hpp"
#include "util/table_printer.hpp"

namespace {

using tmb::util::TablePrinter;

[[nodiscard]] double ratio(std::uint64_t num, std::uint64_t den) {
    return den != 0 ? static_cast<double>(num) / static_cast<double>(den)
                    : 0.0;
}

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
                    "policy switches", "tx allocs", "tx frees", "reclaimed",
                    "cache hit", "mtx/commit", "elapsed s"});
    for (const std::uint32_t threads : points) {
        cfg.set("threads", std::to_string(threads));
        tmb::exec::ParallelRunner engine(cfg);
        const auto r = engine.run();
        const tmb::stm::ReclaimStats ledger = engine.stm().reclaim_stats();
        t.add_row({std::to_string(threads), std::to_string(r.ops),
                   TablePrinter::fmt(r.commits_per_second(), 0),
                   TablePrinter::fmt(r.stats.abort_rate(), 4),
                   TablePrinter::fmt(r.stats.mean_attempts(), 3),
                   std::to_string(r.stats.false_conflicts),
                   std::to_string(r.stats.clock_cas_failures),
                   std::to_string(r.stats.policy_switches),
                   std::to_string(ledger.tx_allocs),
                   std::to_string(ledger.tx_frees),
                   std::to_string(ledger.reclaimed),
                   TablePrinter::fmt(
                       ratio(r.stats.alloc_cache_hits,
                             r.stats.alloc_cache_hits +
                                 r.stats.alloc_cache_misses),
                       3),
                   TablePrinter::fmt(
                       ratio(r.stats.domain_mutex_acquires, r.stats.commits),
                       3),
                   TablePrinter::fmt(r.elapsed_seconds, 3)});
    }
    runner.emit("parallel_throughput", t);
    std::cout << "expected shape: commits/s grows with threads on the "
                 "low-contention default\n(slots >> threads · tx_size); "
                 "abort rate grows with --workload=zipf skew, small\n"
                 "--slots, or small --entries under --workload=replay. On "
                 "vacation, kmeans and\npipeline, cache hit approaches 1 "
                 "and mtx/commit stays well below 1 once the\nmagazines "
                 "warm up.\n";
    return runner.done();
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
