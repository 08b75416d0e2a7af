// svc_load — drive the live service front-end (svc/service.hpp) with real
// threads and a wall clock, print the drained report, and exit nonzero if
// the request-conservation ledger does not balance.
//
//   svc_load --backend=tl2 --clients=8 --dispatchers=4 --requests=5000
//   svc_load --arrival=open:200000 --deadline_us=5000 --retry=backoff:3
//   svc_load --backend=adaptive --policy=auto --svc_fault=stall_dispatcher:20
//
// Keys: the STM vocabulary (backend, table, entries, ...) plus the service
// shape (clients, dispatchers, shards, queue_depth, batch, arrival,
// deadline_us, retry, backoff_cap_us, requests, ops, slots, rmw, seed,
// svc_fault) — see svc::svc_config_from. CI runs this as the service smoke:
// every backend, open arrival, and a fault-injected drain, all gated on the
// ledger via the exit code.
#include <iostream>

#include "config/config.hpp"
#include "stm/stm.hpp"
#include "svc/service.hpp"
#include "util/table_printer.hpp"

namespace {

int svc_load_main(int argc, char** argv) {
    const auto cli = tmb::config::Config::from_args(argc, argv);
    // Parse both vocabularies up front so a typo is a clean exit 2 before
    // any thread spawns (the getters mark keys used; run_service re-reads
    // the same keys).
    const auto svc_cfg = tmb::svc::svc_config_from(cli);
    (void)tmb::stm::stm_config_from(cli);
    tmb::config::reject_unknown(cli);

    std::cout << "svc_load " << tmb::svc::svc_repro_flags(svc_cfg) << '\n';
    const tmb::svc::ServiceReport rep = tmb::svc::run_service(cli);
    const auto& c = rep.counters;

    using tmb::util::TablePrinter;
    const double thru = rep.elapsed_seconds > 0.0
                            ? static_cast<double>(c.completed) /
                                  rep.elapsed_seconds
                            : 0.0;
    std::cout << "requests: " << c.submitted << " submitted, " << c.accepted
              << " accepted, " << c.completed << " completed, "
              << c.rejected_queue << " rejected(queue), " << c.rejected_retry
              << " rejected(retry), " << c.timed_out << " timed out\n"
              << "responses: " << c.responded << " delivered, "
              << c.dropped_responses << " dropped; retries " << c.retries
              << ", batches " << c.batches << ", first-try conflicts "
              << c.first_try_conflicts << ", stalls " << c.stalls
              << ", parks " << c.parks << " (" << c.sleeps << " slept, "
              << c.park_timeouts << " timed out)\n"
              << "stm: " << rep.stm.commits << " commits, " << rep.stm.aborts
              << " aborts, " << rep.stm.false_conflicts
              << " false conflicts\n"
              << "latency: " << rep.latency.summary() << '\n'
              << "throughput: " << TablePrinter::fmt(thru, 0)
              << " completions/s over "
              << TablePrinter::fmt(rep.elapsed_seconds, 3) << " s\n";

    if (!rep.ledger_ok) {
        std::cout << "svc_load: LEDGER IMBALANCE: " << rep.ledger_note
                  << '\n';
        return 1;
    }
    std::cout << "svc_load: ledger balanced\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return tmb::config::guarded_main(svc_load_main, argc, argv);
}
