// bank — a concurrent bank built on the STM, run once per backend.
//
// Build & run:   ./build/examples/bank [threads] [transfers-per-thread]
//
// Multiple threads perform random transfers between accounts; the invariant
// (total balance is conserved) is checked at the end, and per-backend
// statistics show how the metadata organization behaves under the exact
// same workload. With the deliberately small ownership table used here, the
// tagless backend may abort transactions that touch completely unrelated
// accounts — the paper's false conflicts, observable in a real program.
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

struct RunResult {
    long total = 0;
    StmStats stats;
    double millis = 0.0;
};

RunResult run_bank(const std::string& backend, std::uint32_t threads,
                   std::uint32_t transfers_per_thread) {
    // Backend by name; the table is small on purpose so aliasing
    // pressure is visible.
    const auto tm_owner = Stm::create(tmb::config::Config::from_string(
        "backend=" + backend + " entries=512"));
    Stm& tm = *tm_owner;

    constexpr int kAccounts = 128;
    constexpr long kInitial = 1000;
    // One account per cache block so accounts never truly conflict unless
    // the same account is picked by two transfers.
    struct alignas(64) Account {
        TVar<long> balance;
    };
    std::vector<Account> accounts(kAccounts);
    for (auto& a : accounts) {
        tm.atomically([&](Transaction& tx) { a.balance.write(tx, kInitial); });
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            tmb::util::Xoshiro256 rng{std::uint64_t{t} * 31 + 7};
            for (std::uint32_t i = 0; i < transfers_per_thread; ++i) {
                const auto from = static_cast<std::size_t>(rng.below(kAccounts));
                auto to = static_cast<std::size_t>(rng.below(kAccounts));
                if (to == from) to = (to + 1) % kAccounts;
                const long amount = static_cast<long>(rng.below(100));
                tm.atomically([&](Transaction& tx) {
                    const long have = accounts[from].balance.read(tx);
                    accounts[from].balance.write(tx, have - amount);
                    accounts[to].balance.write(
                        tx, accounts[to].balance.read(tx) + amount);
                });
            }
        });
    }
    for (auto& w : workers) w.join();
    const auto elapsed = std::chrono::steady_clock::now() - start;

    RunResult result;
    result.total = tm.atomically([&](Transaction& tx) {
        long sum = 0;
        for (auto& a : accounts) sum += a.balance.read(tx);
        return sum;
    });
    result.stats = tm.stats();
    result.millis =
        std::chrono::duration<double, std::milli>(elapsed).count();
    return result;
}

}  // namespace

int example_main(int argc, char** argv) {
    const auto cli = tmb::config::Config::from_args(argc, argv);
    const std::uint32_t threads = tmb::config::opt_u32(cli, "threads", 0, 4);
    const std::uint32_t transfers =
        tmb::config::opt_u32(cli, "transfers", 1, 2000);
    // One row per backend; `--backend=NAME` pins a single one.
    std::vector<std::string> backends;
    if (const auto pinned = cli.get_optional("backend")) {
        backends.push_back(*pinned);
    } else {
        backends = {"tagless", "tagged", "tl2"};
    }
    tmb::config::reject_unknown(cli);

    std::cout << "bank: " << threads << " threads x " << transfers
              << " random transfers, 128 accounts, 512-entry tables\n\n";

    tmb::util::TablePrinter t({"backend", "total OK", "commits", "aborts",
                               "false confl", "true confl", "ms"});
    for (const std::string& backend : backends) {
        const auto r = run_bank(backend, threads, transfers);
        const bool ok = r.total == 128 * 1000;
        t.add_row({backend, ok ? "yes" : "NO!",
                   std::to_string(r.stats.commits), std::to_string(r.stats.aborts),
                   std::to_string(r.stats.false_conflicts),
                   std::to_string(r.stats.true_conflicts),
                   tmb::util::TablePrinter::fmt(r.millis, 1)});
    }
    t.render(std::cout);
    std::cout << "\nfalse conflicts can appear only for the tagless backend: "
                 "distinct accounts whose\nblocks alias in the 512-entry table "
                 "are indistinguishable to it (paper Fig. 1).\n";
    return 0;
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(example_main, argc, argv);
}
