// tagged_vs_tagless — the paper's false-conflict pathology in a live STM.
//
// Build & run:   ./build/examples/tagged_vs_tagless
// (takes no flags; any flag exits 2)
//
// Two threads repeatedly update completely disjoint data structures. With a
// small TAGLESS ownership table their blocks alias, so the STM reports
// conflicts between transactions that share nothing (paper §2.1). The same
// workload on the TAGGED table (paper §5, Fig. 7) runs conflict-free. Table
// sizes sweep downward so you can watch false conflicts appear as aliasing
// pressure rises.
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "config/config.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace tmb::stm;

struct alignas(64) Cell {
    TVar<long> value;
};

StmStats run(const std::string& org, std::uint64_t table_entries) {
    const auto tm_owner = Stm::create(tmb::config::Config::from_string(
        "table=" + org + " entries=" + std::to_string(table_entries)));
    Stm& tm = *tm_owner;

    constexpr int kThreads = 2;
    constexpr int kCellsPerThread = 64;
    constexpr int kUpdates = 3000;
    std::vector<Cell> cells(kThreads * kCellsPerThread);

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            tmb::util::Xoshiro256 rng{static_cast<std::uint64_t>(t) + 1};
            for (int i = 0; i < kUpdates; ++i) {
                const auto idx = static_cast<std::size_t>(t) * kCellsPerThread +
                                 rng.below(kCellsPerThread);
                tm.atomically([&](Transaction& tx) {
                    const long v = cells[idx].value.read(tx);
                    // Widen the conflict window so transactions overlap even
                    // on one hardware thread.
                    std::this_thread::yield();
                    cells[idx].value.write(tx, v + 1);
                });
            }
        });
    }
    for (auto& w : workers) w.join();

    long total = 0;
    for (auto& c : cells) total += c.value.unsafe_read();
    if (total != kThreads * kUpdates) {
        std::cerr << "INVARIANT VIOLATION: " << total << '\n';
        std::exit(1);
    }
    return tm.stats();
}

}  // namespace

int example_main(int argc, char** argv) {
    tmb::config::reject_unknown(tmb::config::Config::from_args(argc, argv));
    std::cout << "two threads, fully disjoint data, 3000 updates each —\n"
                 "every conflict below is the metadata's fault, not the "
                 "workload's:\n\n";
    tmb::util::TablePrinter t(
        {"table entries", "backend", "aborts", "false conflicts", "true conflicts"});
    for (const std::uint64_t entries : {16384u, 1024u, 64u, 8u}) {
        for (const std::string org : {"tagless", "tagged"}) {
            const auto stats = run(org, entries);
            t.add_row({std::to_string(entries), org,
                       std::to_string(stats.aborts),
                       std::to_string(stats.false_conflicts),
                       std::to_string(stats.true_conflicts)});
        }
    }
    t.render(std::cout);
    std::cout << "\nthe tagged table's conflicts stay at zero regardless of "
                 "size; the tagless table's false\nconflicts grow as the table "
                 "shrinks — the birthday paradox at work (paper §3).\n";
    return 0;
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(example_main, argc, argv);
}
