// stm_containers — the transactional containers in action.
//
// Build & run:   ./build/examples/stm_containers
//
// A tiny order-matching pipeline built entirely from this library's
// transactional containers: producers push order ids through a TQueue,
// workers move them into a THashMap ledger and index them in a TList —
// with every step a composable transaction. The final consistency checks
// hold on any backend; pass --backend=NAME to compare.
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "config/config.hpp"
#include "stm/stm.hpp"
#include "stm/thashmap.hpp"
#include "stm/tlist.hpp"
#include "stm/tqueue.hpp"

namespace {
constexpr long kOrders = 400;
constexpr int kProducers = 2;
constexpr int kWorkers = 2;
}  // namespace

int example_main(int argc, char** argv) {
    using namespace tmb::stm;

    // Backend by name (default tagged, the paper's recommendation).
    const auto cli = tmb::config::Config::from_args(argc, argv);
    const auto tm_owner = Stm::create(cli);
    tmb::config::reject_unknown(cli);
    Stm& tm = *tm_owner;
    TQueue<long> incoming(tm, 32);
    THashMap<long, long> ledger(tm, 128);  // order id -> amount
    TList<long> index(tm);                 // sorted ids of settled orders
    TVar<long> settled_total{0};

    std::vector<std::thread> threads;

    // Producers: enqueue order ids; the amount is derived from the id so
    // consistency is checkable at the end.
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (long id = p; id < kOrders; id += kProducers) {
                while (!incoming.try_push(id)) {
                    std::this_thread::yield();
                }
            }
        });
    }

    // Workers: drain the queue; each settlement is ONE transaction spanning
    // queue, map, list and a scalar — all-or-nothing on every backend.
    std::atomic<long> settled_count{0};
    for (int w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&] {
            while (settled_count.load() < kOrders) {
                const auto id = incoming.try_pop();
                if (!id) {
                    std::this_thread::yield();
                    continue;
                }
                const long amount = *id * 10 + 1;
                tm.atomically([&](Transaction& tx) {
                    settled_total.write(tx, settled_total.read(tx) + amount);
                });
                ledger.put(*id, amount);
                index.insert(*id);
                ++settled_count;
            }
        });
    }
    for (auto& t : threads) t.join();

    // Consistency checks.
    long expected_total = 0;
    for (long id = 0; id < kOrders; ++id) expected_total += id * 10 + 1;

    const auto ledger_size = ledger.size();
    const auto index_size = index.size();
    const long total = settled_total.unsafe_read();

    std::cout << "settled orders: " << ledger_size << " (expected " << kOrders
              << ")\n"
              << "index entries:  " << index_size << '\n'
              << "settled total:  " << total << " (expected " << expected_total
              << ")\n";

    bool ok = ledger_size == kOrders && index_size == kOrders &&
              total == expected_total;
    for (long id = 0; id < kOrders && ok; id += 37) {
        ok = ledger.get(id) == id * 10 + 1 && index.contains(id);
    }
    std::cout << (ok ? "CONSISTENT\n" : "INCONSISTENT!\n");

    const auto stats = tm.stats();
    std::cout << "backend " << to_string(tm.config().backend) << ": " << stats.commits
              << " commits, " << stats.aborts << " aborts, "
              << stats.false_conflicts << " false conflicts\n";
    return ok ? 0 : 1;
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(example_main, argc, argv);
}
