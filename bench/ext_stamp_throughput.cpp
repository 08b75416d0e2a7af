// ext_stamp_throughput — STAMP-class workloads on the transactional
// allocator: vacation, kmeans and pipeline insert and erase container nodes
// with tx_alloc/tx_free on every operation, so this bench measures the
// price of speculative-allocation rollback and epoch-based reclamation
// under real thread contention (commits/sec and abort rate vs thread
// count), not just the metadata-organization cost the fig benches isolate.
// The cache hit rate and domain-mutex-acquires-per-commit columns report
// the per-context free-block caches directly: with the defaults, steady
// state should show a hit rate near 1 and mutexes/commit near 0; rerun
// with --cache_blocks=0 for the uncached baseline.
//
// Flags (on top of the shared Runner set):
//   --backend=   tl2 | table | adaptive (default tl2)
//   --table=     tagless | tagged for --backend=table
//   --threads=   max thread count; the sweep doubles 1,2,4,... up to it
//                (default 8)
//   --ops=       operations per thread per point (default 20000, scaled)
//   plus the workload shape keys (rows, customers, queries for vacation;
//   clusters, recenter_every, space for kmeans) and the STM shape keys.
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

}  // namespace

int bench_main(int argc, char** argv) {
    tmb::bench::Runner runner("ext_stamp_throughput", argc, argv);
    runner.header("Transactional memory management — STAMP-class throughput",
                  "extension; vacation/kmeans/pipeline exercise "
                  "tx_alloc/tx_free and epoch reclamation under real "
                  "threads");

    tmb::config::Config& cfg = runner.cfg();
    if (!cfg.has("backend")) cfg.set("backend", "tl2");
    if (!cfg.has("entries")) cfg.set("entries", "65536");
    const std::uint32_t max_threads = cfg.get_u32("threads", 8);
    if (!cfg.has("ops")) {
        cfg.set("ops", std::to_string(tmb::bench::scaled(20000)));
    }

    std::vector<std::uint32_t> points;
    for (std::uint32_t t = 1; t < max_threads; t *= 2) points.push_back(t);
    points.push_back(max_threads);
    points.erase(std::unique(points.begin(), points.end()), points.end());

    std::cout << "backend=" << cfg.get("backend", "tl2")
              << " ops/thread=" << cfg.get("ops", "") << "\n\n";

    TablePrinter t({"workload", "threads", "ops", "commits/s", "abort rate",
                    "mean attempts", "tx allocs", "tx frees", "reclaimed",
                    "pending", "cache hit", "mtx/commit", "elapsed s"});
    for (const char* workload : {"vacation", "kmeans", "pipeline"}) {
        cfg.set("workload", workload);
        for (const std::uint32_t threads : points) {
            cfg.set("threads", std::to_string(threads));
            tmb::exec::ParallelRunner engine(cfg);
            const auto r = engine.run();
            const tmb::stm::ReclaimStats reclaim =
                engine.stm().reclaim_stats();
            const std::uint64_t cache_ops =
                r.stats.alloc_cache_hits + r.stats.alloc_cache_misses;
            t.add_row({workload, std::to_string(threads),
                       std::to_string(r.ops),
                       TablePrinter::fmt(r.commits_per_second(), 0),
                       TablePrinter::fmt(r.stats.abort_rate(), 4),
                       TablePrinter::fmt(r.stats.mean_attempts(), 3),
                       std::to_string(reclaim.tx_allocs),
                       std::to_string(reclaim.tx_frees),
                       std::to_string(reclaim.reclaimed),
                       std::to_string(reclaim.pending_blocks()),
                       TablePrinter::fmt(cache_ops != 0
                                             ? static_cast<double>(
                                                   r.stats.alloc_cache_hits) /
                                                   static_cast<double>(
                                                       cache_ops)
                                             : 0.0,
                                         3),
                       TablePrinter::fmt(
                           static_cast<double>(
                               r.stats.domain_mutex_acquires) /
                               static_cast<double>(
                                   std::max<std::uint64_t>(r.stats.commits,
                                                           1)),
                           3),
                       TablePrinter::fmt(r.elapsed_seconds, 3)});
        }
    }
    runner.emit("stamp_throughput", t);
    std::cout << "expected shape: pending is 0 at every point (the runner "
                 "drains reclamation\nat quiescence); abort rate and the "
                 "allocator's rollback share both grow with\nthreads — "
                 "vacation contends on hot booking rows, kmeans on "
                 "centroid sums,\npipeline on queue cursors. cache hit "
                 "approaches 1 and mtx/commit stays well\nbelow 1 once "
                 "the magazines warm up (--cache_blocks=0 for the uncached "
                 "baseline).\n";
    return runner.done();
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
