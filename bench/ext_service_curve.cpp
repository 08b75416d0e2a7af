// ext_service_curve — extension: the live service front-end's saturation
// curve, and its conflict behavior validated against the paper's open-system
// model (§4).
//
// Section 1 (real threads, wall clock): probe closed-loop capacity, then
// sweep an open arrival process across multiples of it. The robustness
// claims under test: pre-knee the service completes what is offered;
// past the knee it *sheds* load through explicit rejections and deadline
// timeouts while the completion rate plateaus and the tail latency of
// delivered responses stays bounded (the deadline triages stale work out
// instead of queueing it).
//
// Section 2 (deterministic, scheduled): the same Service under the
// turnstile (svc/sched_service.hpp) with single-attempt transactions and
// blind writes, so the measured first-try conflict fraction is directly
// comparable to sim/open_system's conflict likelihood at the same
// <C, W, N>: slots == table entries (shift-mask hash, one block per slot)
// reproduces the paper's "blocks are entry indices" abstraction. Stated
// tolerance (generous — the service staggers transactions instead of the
// sim's lock-step rounds): |measured - model| <= max(0.08, 0.75 * model),
// and measured must be monotone in W up to 3pp of sampling noise.
//
// --check turns both sections' assertions into the exit code (CI gate).
//
//   ext_service_curve [--backend=tl2] [--check] [--clients=4]
//                     [--dispatchers=2] [--deadline_us=20000] [--json=F]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "config/config.hpp"
#include "sched/schedule.hpp"
#include "sim/open_system.hpp"
#include "svc/sched_service.hpp"
#include "svc/service.hpp"
#include "util/hash.hpp"
#include "util/table_printer.hpp"

namespace {

using tmb::util::TablePrinter;

struct CurvePoint {
    double offered = 0.0;
    tmb::svc::ServiceReport rep;
};

int bench_main(int argc, char** argv) {
    tmb::bench::Runner runner("ext_service_curve", argc, argv);
    const bool check = runner.cfg().get_bool("check", false);
    const std::string backend = runner.cfg().get("backend", "tl2");
    const std::string table = runner.cfg().get("table", "tagless");
    const std::uint32_t clients = runner.cfg().get_u32("clients", 4);
    const std::uint32_t dispatchers = runner.cfg().get_u32("dispatchers", 2);
    const std::uint64_t deadline_us =
        runner.cfg().get_u64("deadline_us", 20000);
    runner.header("Service saturation curve + open-system model validation",
                  "Zilles & Rajwar, SPAA 2007, §4 model, extended to a "
                  "live service");
    std::vector<std::string> failures;

    const auto base_svc = [&](tmb::config::Config& cfg) {
        cfg.set("backend", backend);
        if (backend == "table" || backend == "adaptive") {
            cfg.set("table", table);
        }
        cfg.set("entries", "1024");
        cfg.set("clients", std::to_string(clients));
        cfg.set("dispatchers", std::to_string(dispatchers));
        cfg.set("queue_depth", "64");
        cfg.set("batch", "8");
        cfg.set("ops", "4");
        cfg.set("slots", "1024");
        cfg.set("retry", "backoff:3");
        cfg.set("seed", "42");
    };

    // --- Section 1: capacity probe ---------------------------------------
    std::cout << "\nSection 1: saturation curve (" << backend << ", "
              << clients << " clients, " << dispatchers << " dispatchers)\n";
    double capacity = 0.0;
    {
        tmb::config::Config cfg;
        base_svc(cfg);
        cfg.set("arrival", "closed");
        cfg.set("requests", "4000");
        const auto rep = tmb::svc::run_service(cfg);
        if (!rep.ledger_ok) {
            failures.push_back("capacity probe ledger: " + rep.ledger_note);
        }
        capacity = rep.elapsed_seconds > 0.0
                       ? static_cast<double>(rep.counters.completed) /
                             rep.elapsed_seconds
                       : 0.0;
        std::cout << "closed-loop capacity: "
                  << TablePrinter::fmt(capacity, 0) << " completions/s ("
                  << rep.latency.summary() << ")\n";
    }
    {
        // The closed loop is latency-bound (each client waits for its
        // response), so it understates what the dispatchers can actually
        // drain. Saturate with far-overload open arrival and take the
        // measured completion rate as the true capacity the sweep is
        // expressed in — at that rate the knee is real by construction.
        const double sat_rate = std::max(8.0 * capacity, 100000.0);
        tmb::config::Config cfg;
        base_svc(cfg);
        cfg.set("arrival",
                "open:" + std::to_string(static_cast<std::uint64_t>(sat_rate)));
        cfg.set("deadline_us", std::to_string(deadline_us));
        cfg.set("requests",
                std::to_string(std::max<std::uint64_t>(
                    1000, static_cast<std::uint64_t>(sat_rate * 0.3 /
                                                     clients))));
        const auto rep = tmb::svc::run_service(cfg);
        if (!rep.ledger_ok) {
            failures.push_back("saturation probe ledger: " + rep.ledger_note);
        }
        const double sat = rep.elapsed_seconds > 0.0
                               ? static_cast<double>(rep.counters.completed) /
                                     rep.elapsed_seconds
                               : 0.0;
        capacity = std::max(capacity, sat);
        std::cout << "saturated capacity:   " << TablePrinter::fmt(capacity, 0)
                  << " completions/s (probed at "
                  << TablePrinter::fmt(sat_rate, 0) << "/s offered)\n";
    }

    // --- Section 1: open-arrival sweep ------------------------------------
    const std::vector<double> multipliers{0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
    std::vector<CurvePoint> curve;
    {
        TablePrinter t({"offered/s", "completed/s", "p50us", "p99us",
                        "p999us", "rejected", "timedout", "ledger"});
        for (const double m : multipliers) {
            const double rate = std::max(1000.0, m * capacity);
            // Size each point to ~0.6 s of offered traffic so slow points
            // stay fast and fast points still collect a tail.
            const std::uint64_t requests = std::max<std::uint64_t>(
                250, static_cast<std::uint64_t>(rate * 0.6 / clients));
            tmb::config::Config cfg;
            base_svc(cfg);
            cfg.set("arrival",
                    "open:" +
                        std::to_string(static_cast<std::uint64_t>(rate)));
            cfg.set("deadline_us", std::to_string(deadline_us));
            cfg.set("requests", std::to_string(requests));
            CurvePoint pt;
            pt.offered = rate;
            pt.rep = tmb::svc::run_service(cfg);
            const auto& c = pt.rep.counters;
            const double done =
                pt.rep.elapsed_seconds > 0.0
                    ? static_cast<double>(c.completed) /
                          pt.rep.elapsed_seconds
                    : 0.0;
            t.add_row({TablePrinter::fmt(rate, 0), TablePrinter::fmt(done, 0),
                       TablePrinter::fmt(
                           double(pt.rep.latency.percentile(0.50)), 0),
                       TablePrinter::fmt(
                           double(pt.rep.latency.percentile(0.99)), 0),
                       TablePrinter::fmt(
                           double(pt.rep.latency.percentile(0.999)), 0),
                       std::to_string(c.rejected_queue + c.rejected_retry),
                       std::to_string(c.timed_out),
                       pt.rep.ledger_ok ? "ok" : "IMBALANCE"});
            if (!pt.rep.ledger_ok) {
                failures.push_back(
                    "open sweep ledger at " + TablePrinter::fmt(m, 2) +
                    "x: " + pt.rep.ledger_note);
            }
            curve.push_back(std::move(pt));
        }
        runner.emit("service_curve", t);
    }

    // Gates: pre-knee completion, post-knee shedding, bounded tail, plateau.
    {
        double peak = 0.0;
        for (std::size_t i = 0; i < curve.size(); ++i) {
            const auto& c = curve[i].rep.counters;
            const double done =
                curve[i].rep.elapsed_seconds > 0.0
                    ? static_cast<double>(c.completed) /
                          curve[i].rep.elapsed_seconds
                    : 0.0;
            peak = std::max(peak, done);
            if (multipliers[i] <= 0.5 &&
                c.completed * 10 < c.submitted * 7) {
                failures.push_back(
                    "pre-knee (" + TablePrinter::fmt(multipliers[i], 2) +
                    "x): completed " + std::to_string(c.completed) + " of " +
                    std::to_string(c.submitted) +
                    " submitted (< 70%) — the curve should track the "
                    "offered rate before saturation");
            }
            if (multipliers[i] >= 1.5) {
                if (c.rejected_queue + c.rejected_retry + c.timed_out == 0) {
                    failures.push_back(
                        "overload (" + TablePrinter::fmt(multipliers[i], 2) +
                        "x): no rejections or timeouts — admission control "
                        "never engaged at " +
                        TablePrinter::fmt(curve[i].offered, 0) + "/s");
                }
                const std::uint64_t p999 =
                    curve[i].rep.latency.percentile(0.999);
                if (p999 > deadline_us + 200000) {
                    failures.push_back(
                        "overload (" + TablePrinter::fmt(multipliers[i], 2) +
                        "x): p999 " + std::to_string(p999) +
                        "us exceeds deadline+200ms — tail latency is not "
                        "bounded past the knee");
                }
            }
        }
        const auto& last = curve.back();
        const double last_done =
            last.rep.elapsed_seconds > 0.0
                ? static_cast<double>(last.rep.counters.completed) /
                      last.rep.elapsed_seconds
                : 0.0;
        if (last_done < 0.4 * peak) {
            failures.push_back(
                "plateau: completion rate at 2.0x (" +
                TablePrinter::fmt(last_done, 0) + "/s) collapsed below 40% "
                "of peak (" + TablePrinter::fmt(peak, 0) +
                "/s) — graceful degradation failed");
        }
    }

    // --- Section 2: deterministic conflict curve vs the §4 model ----------
    std::cout << "\nSection 2: first-try conflict fraction vs open-system "
                 "model (C=2, N=512,\n  blind writes, single-attempt "
                 "transactions, scheduled runs)\n";
    {
        constexpr std::uint64_t kEntries = 512;
        constexpr std::uint64_t kSchedules = 10;
        const std::vector<std::uint32_t> footprints{4, 8, 16, 24};
        TablePrinter t({"W", "measured%", "model%", "delta_pp"});
        double prev_measured = -1.0;
        for (const std::uint32_t w : footprints) {
            tmb::svc::SvcHarnessConfig cfg;
            cfg.backend = "table";
            cfg.table = "tagless";
            cfg.entries = kEntries;
            cfg.max_attempts = 1;  // every conflict surfaces on try one
            cfg.svc.clients = 2;
            cfg.svc.dispatchers = 2;
            cfg.svc.shards = 1;
            cfg.svc.queue_depth = 4;
            cfg.svc.batch = 1;
            cfg.svc.requests_per_client = 20;
            cfg.svc.ops_per_request = w;
            cfg.svc.slots = kEntries;  // 1:1 slot->entry: no false aliasing
            cfg.svc.rmw = false;       // blind writes == alpha 0
            cfg.svc.retry_budget = 64;
            std::uint64_t conflicts = 0;
            std::uint64_t batches = 0;
            for (std::uint64_t s = 0; s < kSchedules; ++s) {
                cfg.svc.seed = 0x5e1f'ca11 + s;
                tmb::config::Config sc;
                sc.set("sched", "random");
                const auto sched = tmb::sched::make_schedule(
                    sc, tmb::util::mix64(0xcafe ^ (s + 1)) );
                const auto run = tmb::svc::run_service_schedule(cfg, *sched);
                if (!run.ledger_ok) {
                    failures.push_back("sched run ledger (W=" +
                                       std::to_string(w) +
                                       "): " + run.ledger_note);
                }
                conflicts += run.counters.first_try_conflicts;
                batches += run.counters.batches;
            }
            const double measured =
                batches ? static_cast<double>(conflicts) /
                              static_cast<double>(batches)
                        : 0.0;
            const auto model =
                tmb::sim::run_open_system({.concurrency = 2,
                                           .write_footprint = w,
                                           .alpha = 0.0,
                                           .table_entries = kEntries,
                                           .experiments =
                                               tmb::bench::scaled(2000),
                                           .seed = 0x0de1'90de + w});
            const double m = model.conflict_rate();
            t.add_row({std::to_string(w),
                       TablePrinter::fmt(100.0 * measured, 1),
                       TablePrinter::fmt(100.0 * m, 1),
                       TablePrinter::fmt(100.0 * (measured - m), 1)});
            const double delta = measured > m ? measured - m : m - measured;
            if (delta > std::max(0.08, 0.75 * m)) {
                failures.push_back(
                    "model divergence at W=" + std::to_string(w) +
                    ": measured " + TablePrinter::fmt(100.0 * measured, 1) +
                    "% vs model " + TablePrinter::fmt(100.0 * m, 1) +
                    "% exceeds max(8pp, 75% of model)");
            }
            if (prev_measured >= 0.0 && measured + 0.03 < prev_measured) {
                failures.push_back(
                    "monotonicity: measured conflict fraction fell from " +
                    TablePrinter::fmt(100.0 * prev_measured, 1) + "% to " +
                    TablePrinter::fmt(100.0 * measured, 1) + "% at W=" +
                    std::to_string(w));
            }
            prev_measured = measured;
        }
        runner.emit("service_conflict_vs_model", t);
    }

    for (const std::string& f : failures) {
        std::cout << "CHECK FAIL: " << f << '\n';
    }
    const int rc = runner.done();
    if (!check) return rc;
    std::cout << (failures.empty()
                      ? "ext_service_curve: all checks passed\n"
                      : "ext_service_curve: CHECK FAILURES above\n");
    return failures.empty() ? rc : 1;
}

}  // namespace

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
