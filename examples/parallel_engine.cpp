// parallel_engine — minimal use of the execution engine: run a workload on
// real threads against any backend, then print the merged statistics.
//
//   ./parallel_engine --backend=table --workload=bank --threads=8 --ops=20000
//
// The second half shows the underlying primitive: per-thread stm::Executor
// handles whose private stat shards merge into one StmStats.
#include <iostream>
#include <thread>
#include <vector>

#include "config/config.hpp"
#include "exec/parallel_runner.hpp"
#include "stm/stm.hpp"

namespace {

int example_main(int argc, char** argv) {
    auto cli = tmb::config::Config::from_args(argc, argv);
    if (!cli.has("backend")) cli.set("backend", "table");
    if (!cli.has("workload")) cli.set("workload", "bank");

    // --- the engine: one call spawns, drives, joins and verifies ----------
    tmb::exec::ParallelRunner engine(cli);
    const auto r = engine.run();
    std::cout << "engine: " << engine.config().threads << " threads, "
              << r.ops << " ops in " << r.elapsed_seconds << " s → "
              << static_cast<std::uint64_t>(r.commits_per_second())
              << " commits/s, abort rate " << r.stats.abort_rate()
              << ", mean attempts " << r.stats.mean_attempts() << '\n';
    for (std::size_t t = 0; t < r.per_thread.size(); ++t) {
        std::cout << "  thread " << t << ": " << r.per_thread[t].commits
                  << " commits, " << r.per_thread[t].aborts << " aborts\n";
    }

    // --- the primitive: executors by hand ---------------------------------
    auto tm = tmb::stm::Stm::create(
        tmb::config::Config::from_string("backend=tl2"));
    tmb::stm::TVar<long> counter{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&tm, &counter] {
            const auto exec = tm->make_executor();  // one slot per thread
            for (int i = 0; i < 10000; ++i) {
                exec->atomically([&](tmb::stm::Transaction& tx) {
                    counter.write(tx, counter.read(tx) + 1);
                });
            }
        });
    }
    for (auto& th : threads) th.join();
    std::cout << "executors by hand: counter = " << counter.unsafe_read()
              << " (expected 40000)\n";
    return counter.unsafe_read() == 40000 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    return tmb::config::guarded_main(example_main, argc, argv);
}
