// ext_hybrid_tm — the paper's conclusion, end to end: a hybrid TM whose STM
// fallback uses a tagless vs tagged ownership table.
//
//   "in the context of a hybrid TM, where the transactions that access the
//    ownership table will be large (those that overflow the cache), a
//    tagless organization will almost guarantee a maximum concurrency of 1
//    for overflowed transactions." (§6)
//
// We sweep the thread count with an all-overflow workload (W ≈ 256-block
// footprints, the §2.3 regime) and report the overflowed transactions'
// throughput and effective concurrency under each fallback organization.
#include <iostream>

#include "bench_common.hpp"
#include "hybrid/hybrid_tm.hpp"
#include "util/table_printer.hpp"

namespace {
using tmb::hybrid::HybridConfig;
using tmb::hybrid::HybridResult;
using tmb::hybrid::run_hybrid_tm;
using tmb::util::TablePrinter;
}  // namespace

int bench_main(int argc, char** argv) {
    tmb::bench::Runner runner("ext_hybrid_tm", argc, argv);
    // Ablate the organizations named on the command line (`--table=NAME`) or
    // the paper's pair by default; any registered organization works.
    std::vector<std::string> orgs;
    if (const auto pinned = runner.cfg().get_optional("table")) {
        orgs.push_back(*pinned);
    } else {
        orgs = {"tagless", "tagged"};
    }
    runner.header(
        "§6 conclusion — hybrid TM with tagless vs tagged STM fallback",
        "Zilles & Rajwar, SPAA 2007, §2.3/§6 (conclusion, quantified)");

    std::cout << "all-overflow workload: every transaction touches 256 blocks "
                 "(> the 32KB HTM cache's\nsustainable footprint), 64k-entry "
                 "fallback table, 50k ticks, disjoint footprints\n(zero true "
                 "conflicts — every abort is alias-induced).\n\n";

    TablePrinter t({"threads", "table", "stm commits/kTick", "abort ratio",
                    "effective concurrency"});
    for (const std::uint32_t threads : {1u, 2u, 4u, 8u, 16u}) {
        for (const std::string& org : orgs) {
            HybridConfig c;
            c.threads = threads;
            c.mix.large_fraction = 1.0;
            c.mix.large_blocks = 256;
            c.stm_table = org;
            c.stm_table_entries = 1u << 16;
            c.ticks = 50'000;
            c.seed = 77;
            const HybridResult r = run_hybrid_tm(c);
            t.add_row({std::to_string(threads), org,
                       TablePrinter::fmt(r.stm_throughput(c), 2),
                       TablePrinter::fmt(r.stm_abort_ratio(), 3),
                       TablePrinter::fmt(r.stm_effective_concurrency, 2)});
        }
    }
    runner.emit("ext_hybrid_allover", t);

    std::cout << "\npaper prediction: tagless fallback concurrency collapses "
                 "toward 1 as threads grow\n(Eq. 8 at W=85 written blocks is "
                 "far past saturation for any reasonable N); the tagged\n"
                 "fallback's effective concurrency tracks the thread count "
                 "with zero aborts.\n\nmixed workload (10% large), 4 threads, "
                 "for context:\n";

    TablePrinter m({"table", "htm commits/kTick", "stm commits/kTick",
                    "stm abort ratio"});
    for (const std::string& org : orgs) {
        HybridConfig c;
        c.threads = 4;
        c.mix.large_fraction = 0.1;
        c.stm_table = org;
        c.stm_table_entries = 1u << 16;
        c.ticks = 50'000;
        c.seed = 78;
        const HybridResult r = run_hybrid_tm(c);
        m.add_row({org,
                   TablePrinter::fmt(r.htm_throughput(c), 2),
                   TablePrinter::fmt(r.stm_throughput(c), 2),
                   TablePrinter::fmt(r.stm_abort_ratio(), 3)});
    }
    runner.emit("ext_hybrid_mixed", m);
    return runner.done();
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
