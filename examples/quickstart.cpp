// quickstart — the smallest complete program using the STM public API.
//
// Build & run:   ./build/examples/quickstart
//
// Creates an STM from the command line (default: the tagged ownership-table
// backend, the organization the paper recommends), runs a few transactions,
// and prints the runtime statistics.
#include <iostream>

#include "config/config.hpp"
#include "stm/stm.hpp"

int example_main(int argc, char** argv) {
    using namespace tmb::stm;

    // 1. Create a runtime. The backend is chosen *by name* from string
    //    keys and is the paper's subject: "tagged" never suffers
    //    false conflicts; "tagless" (Fig. 1) conflates all addresses that
    //    hash to one entry; "tl2" is the classic versioned-lock design.
    //    Try: ./quickstart --backend=tagless --entries=64
    const auto cli = tmb::config::Config::from_args(argc, argv);
    const auto tm_owner = Stm::create(cli);
    tmb::config::reject_unknown(cli);  // typo'd flags fail, not default
    Stm& tm = *tm_owner;

    // 2. Declare transactional variables (any trivially copyable type up to
    //    8 bytes).
    TVar<long> checking{900};
    TVar<long> savings{100};

    // 3. Run atomic transactions. The lambda may be re-executed on conflict,
    //    so it must not have irrevocable side effects.
    tm.atomically([&](Transaction& tx) {
        const long amount = 250;
        savings.write(tx, savings.read(tx) - amount);
        checking.write(tx, checking.read(tx) + amount);
    });

    // 4. Transactions can return values.
    const long total = tm.atomically([&](Transaction& tx) {
        return checking.read(tx) + savings.read(tx);
    });

    std::cout << "checking = " << checking.unsafe_read()
              << ", savings = " << savings.unsafe_read()
              << ", total = " << total << '\n';

    const StmStats stats = tm.stats();
    std::cout << "commits = " << stats.commits << ", aborts = " << stats.aborts
              << ", false conflicts = " << stats.false_conflicts << '\n';
    return 0;
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(example_main, argc, argv);
}
