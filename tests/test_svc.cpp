// Tests for the live service front-end (src/svc/): admission-control
// queues and their spin-then-park eventcount, config and fault-spec
// parsing and the repro-flag round trip, deterministic deadline and
// retry-budget behavior under the scheduled harness, kill-point request
// conservation, replay determinism across backends, decision-site
// reachability of the service yield sites, and the real-thread production
// driver.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/config.hpp"
#include "sched/corpus.hpp"
#include "sched/schedule.hpp"
#include "stm/sched_hook.hpp"
#include "svc/queue.hpp"
#include "svc/sched_service.hpp"
#include "svc/service.hpp"
#include "util/hash.hpp"

namespace tmb::svc {
namespace {

using stm::detail::YieldSite;

constexpr std::uint32_t site_bit(YieldSite s) {
    return std::uint32_t{1} << static_cast<std::uint32_t>(s);
}

ServiceRunResult replay_service(const SvcHarnessConfig& cfg,
                                const std::string& picks) {
    config::Config rc;
    rc.set("sched", "replay");
    rc.set("schedule", picks);
    const auto sch = sched::make_schedule(rc, 0);
    return run_service_schedule(cfg, *sch);
}

ServiceRunResult random_service(const SvcHarnessConfig& cfg,
                                std::uint64_t seed) {
    config::Config rc;
    rc.set("sched", "random");
    const auto sch = sched::make_schedule(rc, seed);
    return run_service_schedule(cfg, *sch);
}

/// Small single-dispatcher shape for the deterministic deadline/retry tests.
SvcHarnessConfig tiny_config() {
    SvcHarnessConfig cfg;
    cfg.svc.clients = 1;
    cfg.svc.dispatchers = 1;
    cfg.svc.shards = 1;
    cfg.svc.queue_depth = 2;
    cfg.svc.batch = 1;
    cfg.svc.requests_per_client = 1;
    cfg.svc.ops_per_request = 2;
    cfg.svc.slots = 8;
    return cfg;
}

// ---------------------------------------------------------------------------
// Submission queues (admission control)
// ---------------------------------------------------------------------------

TEST(SvcQueue, BoundedFifoWithExplicitRejection) {
    SubmitQueues q(2, 3);
    EXPECT_EQ(q.shards(), 2u);
    EXPECT_EQ(q.depth(), 3u);
    EXPECT_EQ(q.capacity(), 6u);
    EXPECT_TRUE(q.all_empty());

    for (std::uint64_t i = 0; i < 3; ++i) {
        Request r;
        r.id = i;
        EXPECT_TRUE(q.try_push(0, r)) << i;
    }
    Request overflow;
    overflow.id = 99;
    EXPECT_FALSE(q.try_push(0, overflow)) << "full shard must reject";
    EXPECT_TRUE(q.try_push(1, overflow)) << "other shard has room";
    EXPECT_FALSE(q.all_empty());

    Request out;
    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.try_pop(0, out));
        EXPECT_EQ(out.id, i) << "FIFO order per shard";
    }
    EXPECT_FALSE(q.try_pop(0, out));

    // close() stops intake but drains what is queued.
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.try_push(1, overflow));
    ASSERT_TRUE(q.try_pop(1, out));
    EXPECT_EQ(out.id, 99u);
    EXPECT_TRUE(q.all_empty());
}

// Parks that nothing wakes last their full timeout, far past kHangBound.
// A body still running at kHangBound gets a close(), which sets the work
// hint (ending any spin) and wakes every sleeper, so a broken park fails
// these tests instead of hanging them in the future's destructor.
constexpr auto kLongPark = std::chrono::seconds(30);
constexpr auto kHangBound = std::chrono::seconds(10);

template <class T>
bool done_within_bound(std::future<T>& body, SubmitQueues& q) {
    if (body.wait_for(kHangBound) == std::future_status::ready) return true;
    q.close();
    return false;
}

TEST(SvcQueue, ParkReturnsAtOnceWhenWorkIsQueuedOrIntakeClosed) {
    // One thread, nobody to wake it: park() must see the queued request and
    // then the closed intake without sleeping, and return at once.
    SubmitQueues q(2, 4);
    auto body = std::async(std::launch::async, [&q] {
        std::vector<ParkResult> results;
        Request r;
        if (!q.try_push(1, r)) return results;
        results.push_back(q.park(kLongPark));
        if (!q.try_pop(1, r)) return results;
        q.close();
        results.push_back(q.park(kLongPark));
        return results;
    });
    ASSERT_TRUE(done_within_bound(body, q))
        << "park() slept with a request queued or intake closed";
    EXPECT_EQ(body.get(), (std::vector<ParkResult>{ParkResult::kWorkSeen,
                                                   ParkResult::kWorkSeen}));
    EXPECT_EQ(q.parked(), 0u);
}

TEST(SvcQueue, ParkSleepsAfterItsSpinWhenNothingArrives) {
    // One thread, open and empty queues: the spin must end on its own and
    // the park go to sleep. A wake here can only be EINTR, so either
    // sleeping result passes.
    SubmitQueues q(2, 4);
    auto body = std::async(std::launch::async, [&q] {
        return q.park(std::chrono::milliseconds(2));
    });
    ASSERT_TRUE(done_within_bound(body, q)) << "park() never left its spin";
    EXPECT_NE(body.get(), ParkResult::kWorkSeen)
        << "park() reported work on empty, open queues";
    EXPECT_EQ(q.parked(), 0u);
}

TEST(SvcQueue, PushWakesOneParkerAndCloseWakesAll) {
    // Once every parker has announced itself, one push must wake at least
    // one of them and close() the rest, each by a wake, not by timeout.
    // Whatever the interleaving, only a lost wakeup leaves a parker asleep.
    constexpr std::uint32_t kParkers = 3;
    SubmitQueues q(2, 4);
    auto body = std::async(std::launch::async, [&q] {
        std::atomic<std::uint32_t> timeouts{0};
        std::vector<std::thread> parkers;
        for (std::uint32_t i = 0; i < kParkers; ++i) {
            parkers.emplace_back([&q, &timeouts] {
                if (q.park(kLongPark) == ParkResult::kTimedOut) {
                    timeouts.fetch_add(1);
                }
            });
        }
        // closed() ends these waits once done_within_bound gives up.
        while (q.parked() < kParkers && !q.closed()) {
            std::this_thread::yield();
        }
        EXPECT_TRUE(q.try_push(0, Request{}));
        while (q.parked() == kParkers && !q.closed()) {
            std::this_thread::yield();
        }
        q.close();
        for (auto& t : parkers) t.join();
        return timeouts.load();
    });
    ASSERT_TRUE(done_within_bound(body, q))
        << "a parker missed the push's or close()'s wakeup";
    EXPECT_EQ(body.get(), 0u) << "parks ended by timeout, not by a wake";
    EXPECT_EQ(q.parked(), 0u);
}

// ---------------------------------------------------------------------------
// Config and fault parsing
// ---------------------------------------------------------------------------

TEST(SvcConfig, FaultSpecRoundTrips) {
    const SvcFault none = svc_fault_from("");
    EXPECT_EQ(none.stall_dispatcher_ms, 0u);
    EXPECT_FALSE(none.drop_response);
    EXPECT_EQ(none.slow_shard, -1);
    EXPECT_EQ(to_string(none), "none");
    EXPECT_EQ(to_string(svc_fault_from("none")), "none");

    const SvcFault f = svc_fault_from(
        "stall_dispatcher:5,drop_response,slow_shard:1,abort_attempts:3");
    EXPECT_EQ(f.stall_dispatcher_ms, 5u);
    EXPECT_TRUE(f.drop_response);
    EXPECT_EQ(f.slow_shard, 1);
    EXPECT_EQ(f.abort_attempts, 3u);
    EXPECT_EQ(svc_fault_from(to_string(f)).stall_dispatcher_ms, 5u);

    EXPECT_THROW((void)svc_fault_from("bogus"), std::invalid_argument);
}

TEST(SvcConfig, KeysParse) {
    const auto cfg = svc_config_from(config::Config::from_string(
        "clients=3 dispatchers=2 shards=4 queue_depth=8 batch=2 "
        "arrival=open:1000 deadline_us=50 retry=backoff:4 requests=10 "
        "ops=3 slots=64 rmw=0 seed=9 svc_fault=drop_response"));
    EXPECT_EQ(cfg.clients, 3u);
    EXPECT_EQ(cfg.dispatchers, 2u);
    EXPECT_EQ(cfg.shard_count(), 4u);
    EXPECT_EQ(cfg.queue_depth, 8u);
    EXPECT_EQ(cfg.batch, 2u);
    EXPECT_TRUE(cfg.open_arrival);
    EXPECT_DOUBLE_EQ(cfg.arrival_per_sec, 1000.0);
    EXPECT_EQ(cfg.deadline_us, 50u);
    EXPECT_EQ(cfg.retry_budget, 4u);
    EXPECT_EQ(cfg.requests_per_client, 10u);
    EXPECT_EQ(cfg.ops_per_request, 3u);
    EXPECT_EQ(cfg.slots, 64u);
    EXPECT_FALSE(cfg.rmw);
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_TRUE(cfg.fault.drop_response);

    // shards=0 defaults to one per dispatcher.
    const auto d = svc_config_from(
        config::Config::from_string("dispatchers=3"));
    EXPECT_EQ(d.shard_count(), 3u);

    EXPECT_THROW((void)svc_config_from(
                     config::Config::from_string("arrival=sometimes")),
                 std::invalid_argument);
    EXPECT_THROW((void)svc_config_from(
                     config::Config::from_string("retry=always")),
                 std::invalid_argument);
}

TEST(SvcConfig, RetryAndArrivalParseWholeValues) {
    // svc_load and the scheduled service share one retry parser, so each
    // bad budget fails both; the budget must fit in 32 bits.
    for (const char* retry : {"backoff:3x", "backoff:", "backoff:-1",
                              "backoff: 3", "backoff:4294967296"}) {
        config::Config c;
        c.set("retry", retry);
        EXPECT_THROW((void)svc_config_from(c), std::invalid_argument) << retry;
        EXPECT_THROW((void)svc_harness_config_from(c), std::invalid_argument)
            << retry;
    }
    EXPECT_EQ(retry_budget_from("none"), 0u);
    EXPECT_EQ(retry_budget_from("backoff:4294967295"), 4294967295u);

    for (const char* arrival :
         {"open:1000abc", "open:", "open:inf", "open:nan", "open:1e999"}) {
        config::Config c;
        c.set("arrival", arrival);
        EXPECT_THROW((void)svc_config_from(c), std::invalid_argument)
            << arrival;
    }
}

TEST(SvcConfig, ReproFlagsRoundTripEveryField) {
    // Every field off its default, so a key the echo drops reads back as
    // the default and fails its comparison.
    SvcConfig c;
    c.clients = 3;
    c.dispatchers = 5;
    c.shards = 7;
    c.queue_depth = 9;
    c.batch = 11;
    c.open_arrival = true;
    c.arrival_per_sec = 2500.5;
    c.deadline_us = 13;
    c.retry_budget = 4;
    c.backoff_cap_us = 250;
    c.requests_per_client = 17;
    c.ops_per_request = 6;
    c.slots = 96;
    c.rmw = false;
    c.seed = 23;
    c.fault = svc_fault_from(
        "stall_dispatcher:2,drop_response,slow_shard:1,abort_attempts:3");

    // Config::set per flag: from_string would split svc_fault at its
    // commas.
    config::Config cfg;
    std::istringstream flags(svc_repro_flags(c));
    for (std::string tok; flags >> tok;) {
        const std::size_t eq = tok.find('=');
        ASSERT_TRUE(tok.rfind("--", 0) == 0 && eq != std::string::npos)
            << tok;
        cfg.set(tok.substr(2, eq - 2), tok.substr(eq + 1));
    }
    const SvcConfig back = svc_config_from(cfg);
    EXPECT_TRUE(cfg.unused_keys().empty())
        << "the echo emits a key svc_config_from does not read";
    EXPECT_EQ(back.clients, c.clients);
    EXPECT_EQ(back.dispatchers, c.dispatchers);
    EXPECT_EQ(back.shards, c.shards);
    EXPECT_EQ(back.queue_depth, c.queue_depth);
    EXPECT_EQ(back.batch, c.batch);
    EXPECT_EQ(back.open_arrival, c.open_arrival);
    EXPECT_DOUBLE_EQ(back.arrival_per_sec, c.arrival_per_sec);
    EXPECT_EQ(back.deadline_us, c.deadline_us);
    EXPECT_EQ(back.retry_budget, c.retry_budget);
    EXPECT_EQ(back.backoff_cap_us, c.backoff_cap_us);
    EXPECT_EQ(back.requests_per_client, c.requests_per_client);
    EXPECT_EQ(back.ops_per_request, c.ops_per_request);
    EXPECT_EQ(back.slots, c.slots);
    EXPECT_EQ(back.rmw, c.rmw);
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.fault.stall_dispatcher_ms, c.fault.stall_dispatcher_ms);
    EXPECT_EQ(back.fault.drop_response, c.fault.drop_response);
    EXPECT_EQ(back.fault.slow_shard, c.fault.slow_shard);
    EXPECT_EQ(back.fault.abort_attempts, c.fault.abort_attempts);
}

// ---------------------------------------------------------------------------
// Deterministic scheduled runs
// ---------------------------------------------------------------------------

TEST(SvcSched, CompleteRunBalancesAndReplaysBitIdentically) {
    const SvcHarnessConfig cfg;  // default 2 clients / 1 dispatcher shape
    const ServiceRunResult run = random_service(cfg, 42);
    ASSERT_FALSE(run.cancelled);
    EXPECT_TRUE(run.ledger_ok) << run.ledger_note;
    EXPECT_EQ(run.counters.submitted,
              std::uint64_t{cfg.svc.clients} * cfg.svc.requests_per_client);
    EXPECT_FALSE(check_service_consistent(cfg, run).has_value());

    const ServiceRunResult again = replay_service(cfg, run.schedule);
    EXPECT_EQ(again.steps, run.steps);
    EXPECT_EQ(again.state_hash, run.state_hash);
    EXPECT_EQ(again.signature, run.signature);
    EXPECT_EQ(again.counters.completed, run.counters.completed);
    EXPECT_EQ(again.counters.retries, run.counters.retries);
    EXPECT_EQ(again.commit_log.size(), run.commit_log.size());
}

TEST(SvcSched, EveryBackendIsConsistentUnderRandomSchedules) {
    struct Pair {
        const char* backend;
        const char* table;
        bool lazy;
    };
    const Pair pairs[] = {
        {"tl2", "", false},          {"table", "tagless", false},
        {"table", "tagless", true},  {"table", "tagged", false},
        {"table", "tagged", true},   {"adaptive", "tagless", false},
    };
    for (const Pair& p : pairs) {
        SvcHarnessConfig cfg;
        cfg.backend = p.backend;
        if (*p.table) cfg.table = p.table;
        cfg.commit_time_locks = p.lazy;
        if (cfg.backend == "adaptive") cfg.policy = "off";
        for (const std::uint64_t seed : {3ull, 7ull, 19ull}) {
            const ServiceRunResult run = random_service(cfg, seed);
            EXPECT_TRUE(run.ledger_ok)
                << p.backend << "/" << p.table << ": " << run.ledger_note;
            const auto error = check_service_consistent(cfg, run);
            ASSERT_FALSE(error.has_value())
                << p.backend << "/" << p.table << " seed " << seed << ": "
                << *error;
        }
    }
}

TEST(SvcSched, DeadlineFiresAtTheExactStep) {
    // One client, one dispatcher; the schedule parks the dispatcher while
    // the client submits and idles, so the request ages a fixed number of
    // virtual steps before triage. Sweeping the deadline must flip the
    // outcome from timeout to completion at EXACTLY one boundary: the
    // dispatch step is schedule-determined, so timed_out(d) is a step
    // function of the deadline.
    const SvcHarnessConfig cfg = tiny_config();
    const std::string schedule = std::string(20, '0') + std::string(40, '1');

    std::vector<bool> timed_out;
    for (std::uint64_t d = 1; d <= 30; ++d) {
        SvcHarnessConfig dcfg = cfg;
        dcfg.svc.deadline_us = d;  // steps under the turnstile
        const ServiceRunResult run = replay_service(dcfg, schedule);
        ASSERT_TRUE(run.ledger_ok) << "deadline " << d << ": "
                                   << run.ledger_note;
        ASSERT_FALSE(check_service_consistent(dcfg, run).has_value());
        ASSERT_EQ(run.counters.timed_out + run.counters.completed, 1u)
            << "deadline " << d;
        timed_out.push_back(run.counters.timed_out == 1);
    }
    // Sharp boundary: 1...10...0, with both outcomes observed.
    EXPECT_TRUE(timed_out.front())
        << "a 1-step deadline must expire while the dispatcher is parked";
    EXPECT_FALSE(timed_out.back())
        << "a 30-step deadline must let the request complete";
    std::size_t flips = 0;
    for (std::size_t i = 1; i < timed_out.size(); ++i) {
        if (timed_out[i] != timed_out[i - 1]) ++flips;
        EXPECT_FALSE(!timed_out[i - 1] && timed_out[i])
            << "longer deadlines must never reintroduce the timeout";
    }
    EXPECT_EQ(flips, 1u) << "exactly one deadline boundary";
}

TEST(SvcSched, RetryBudgetExhaustionIsRejectionNeverAHang) {
    // abort_attempts injects more consecutive failures than the budget
    // covers: every request must come back as an explicit retry rejection
    // with the budget's worth of counted retries — and the run terminates.
    SvcHarnessConfig cfg = tiny_config();
    cfg.svc.requests_per_client = 3;
    cfg.svc.retry_budget = 2;
    cfg.svc.fault.abort_attempts = 100;
    const ServiceRunResult run = random_service(cfg, 5);
    ASSERT_FALSE(run.cancelled) << "exhaustion must terminate, not spin";
    EXPECT_TRUE(run.ledger_ok) << run.ledger_note;
    EXPECT_EQ(run.counters.completed, 0u);
    EXPECT_EQ(run.counters.rejected_retry, 3u);
    EXPECT_EQ(run.counters.retries, 3u * cfg.svc.retry_budget);
    EXPECT_EQ(run.counters.first_try_conflicts, 3u)
        << "every batch failed its first attempt";
    EXPECT_TRUE(run.commit_log.empty());
    EXPECT_FALSE(check_service_consistent(cfg, run).has_value());

    // Under the budget, the same injection only delays the requests.
    cfg.svc.fault.abort_attempts = 2;
    cfg.svc.retry_budget = 3;
    const ServiceRunResult ok = random_service(cfg, 5);
    EXPECT_TRUE(ok.ledger_ok) << ok.ledger_note;
    EXPECT_EQ(ok.counters.completed, 3u);
    EXPECT_EQ(ok.counters.rejected_retry, 0u);
    EXPECT_GE(ok.counters.retries, 2u);
    EXPECT_FALSE(check_service_consistent(cfg, ok).has_value());
}

TEST(SvcSched, FaultInjectedRunsStayConsistent) {
    SvcHarnessConfig cfg;
    cfg.svc.fault = svc_fault_from("drop_response,slow_shard:0");
    const ServiceRunResult run = random_service(cfg, 11);
    EXPECT_TRUE(run.ledger_ok) << run.ledger_note;
    EXPECT_FALSE(check_service_consistent(cfg, run).has_value());
    EXPECT_GT(run.counters.dropped_responses, 0u)
        << "ids % 4 == 3 exist in the default shape, so the drop fault "
           "must fire";
    EXPECT_EQ(run.counters.responded + run.counters.dropped_responses,
              run.counters.completed);
}

// ---------------------------------------------------------------------------
// Kill-point conservation
// ---------------------------------------------------------------------------

TEST(SvcSched, RequestConservationHoldsAtEveryKillStep) {
    const SvcHarnessConfig cfg;
    const ServiceRunResult full = random_service(cfg, 23);
    ASSERT_FALSE(full.cancelled);
    ASSERT_GT(full.steps, 10u);
    for (std::uint64_t kill = 1; kill <= full.steps; ++kill) {
        const auto error =
            sched::replay(ServiceSubject(cfg), full.schedule, kill).error;
        ASSERT_FALSE(error.has_value())
            << "kill at step " << kill << ": " << *error;
    }
}

TEST(SvcSched, KilledRunsReportPartialLedgers) {
    // The kill really cancels: fewer resolutions than the full run, yet the
    // relaxed in-flight ledger still balances.
    const SvcHarnessConfig cfg;
    const ServiceRunResult full = random_service(cfg, 29);
    ASSERT_FALSE(full.cancelled);

    SvcHarnessConfig killed = cfg;
    killed.step_limit = full.steps / 2;
    const ServiceRunResult partial = replay_service(killed, full.schedule);
    EXPECT_TRUE(partial.cancelled);
    EXPECT_TRUE(partial.ledger_ok) << partial.ledger_note;
    EXPECT_LT(partial.counters.resolved(), full.counters.resolved());
    EXPECT_FALSE(check_service_consistent(killed, partial).has_value());
}

// ---------------------------------------------------------------------------
// Guided fuzzing over service schedules
// ---------------------------------------------------------------------------

TEST(SvcFuzz, ReachesEveryServiceYieldSiteAndStaysClean) {
    SvcHarnessConfig cfg;
    cfg.svc.fault.abort_attempts = 1;  // exercise the retry path too
    cfg.svc.retry_budget = 2;
    sched::Corpus corpus;
    sched::FuzzOptions opts;
    opts.budget = 250;
    opts.seed = 31;
    opts.init = 12;
    opts.shrink_probes = 4;  // leave budget for the mutation loop
    opts.kill_every = 8;
    const auto result = sched::fuzz_explore(ServiceSubject(cfg), opts, corpus);
    EXPECT_TRUE(result.violations.empty())
        << result.violations.front().message;
    EXPECT_GT(result.kill_checks, 0u);
    EXPECT_GT(corpus.distinct_signatures(), 1u);
    // Reachability: the campaign must park at the service decision sites.
    EXPECT_TRUE(result.sites_seen & site_bit(YieldSite::kSvcEnqueue))
        << "no run yielded at a client submit site";
    EXPECT_TRUE(result.sites_seen & site_bit(YieldSite::kSvcDequeue))
        << "no run yielded at a dispatcher dequeue site";
    EXPECT_TRUE(result.sites_seen & site_bit(YieldSite::kSvcRespond))
        << "no run yielded at a response site";
}

TEST(SvcFuzz, SingleJobIsBitReproducible) {
    const SvcHarnessConfig cfg;
    sched::FuzzOptions opts;
    opts.budget = 80;
    opts.seed = 13;
    std::vector<std::string> schedules[2];
    sched::FuzzResult results[2];
    for (int i = 0; i < 2; ++i) {
        sched::Corpus corpus;
        results[i] = sched::fuzz_explore(ServiceSubject(cfg), opts, corpus);
        for (std::size_t e = 0; e < corpus.size(); ++e) {
            schedules[i].push_back(corpus.entry(e).schedule);
        }
    }
    EXPECT_EQ(results[0].runs, results[1].runs);
    EXPECT_EQ(results[0].new_coverage_mutants,
              results[1].new_coverage_mutants);
    EXPECT_EQ(results[0].sites_seen, results[1].sites_seen);
    EXPECT_EQ(schedules[0], schedules[1]);
}

// ---------------------------------------------------------------------------
// Production driver (real threads, wall clock)
// ---------------------------------------------------------------------------

TEST(SvcProduction, ClosedLoopDrainsEveryRequest) {
    const auto rep = run_service(config::Config::from_string(
        "backend=tl2 clients=2 dispatchers=2 requests=200 slots=256 "
        "entries=256 seed=7"));
    EXPECT_TRUE(rep.ledger_ok) << rep.ledger_note;
    EXPECT_EQ(rep.counters.submitted, 400u);
    EXPECT_EQ(rep.counters.completed, 400u);
    EXPECT_EQ(rep.counters.responded, 400u);
    EXPECT_EQ(rep.latency.count(), 400u);
    EXPECT_LE(rep.counters.park_timeouts, rep.counters.sleeps);
    EXPECT_LE(rep.counters.sleeps, rep.counters.parks);
}

TEST(SvcProduction, OpenArrivalWithFaultsStillBalances) {
    // from_string splits on commas, so the compound fault spec goes in via
    // set() — the same shape the CLI's --svc_fault=a,b reaches.
    auto cli = config::Config::from_string(
        "backend=table table=tagless clients=2 dispatchers=2 requests=150 "
        "slots=256 entries=256 arrival=open:40000 deadline_us=10000 "
        "retry=backoff:2 queue_depth=8 seed=21");
    cli.set("svc_fault", "drop_response,stall_dispatcher:2");
    const auto rep = run_service(cli);
    EXPECT_TRUE(rep.ledger_ok) << rep.ledger_note;
    EXPECT_EQ(rep.counters.submitted, 300u);
    EXPECT_EQ(rep.counters.resolved(), rep.counters.submitted)
        << "every submitted request must resolve by drain";
    EXPECT_EQ(rep.counters.stalls, 2u) << "one stall per dispatcher";
    EXPECT_LE(rep.counters.park_timeouts, rep.counters.sleeps);
    EXPECT_LE(rep.counters.sleeps, rep.counters.parks);
}

TEST(SvcProduction, Tl2ReportCountsTheDispatchersReadSets) {
    // The report's STM counters include what the dispatchers' TL2 contexts
    // counted, so they match the instance view once finish() retired them.
    class YieldEnv final : public SvcEnv {
    public:
        std::uint64_t now() override {
            return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count());
        }
        void backoff(std::uint32_t) override { std::this_thread::yield(); }
        void idle() override { std::this_thread::yield(); }
        void pace_until(std::uint64_t) override {}
        void stall(std::uint32_t) override {}
    } env;
    const SvcConfig sc = svc_config_from(config::Config::from_string(
        "clients=2 dispatchers=2 requests=500 slots=256 seed=7"));
    const auto tm =
        stm::Stm::create(config::Config::from_string("backend=tl2"));
    // One zeroed 64-byte block per slot, as run_service lays it out.
    std::vector<std::uint64_t> storage(std::size_t{sc.slots} * 8 + 8, 0);
    const auto base =
        (reinterpret_cast<std::uintptr_t>(storage.data()) + 63) &
        ~std::uintptr_t{63};
    Service svc(sc, *tm, env, reinterpret_cast<std::uint64_t*>(base));
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < sc.clients; ++c) {
        threads.emplace_back([&svc, c] { svc.client_loop(c); });
    }
    for (std::uint32_t d = 0; d < sc.dispatchers; ++d) {
        threads.emplace_back([&svc, d] { svc.dispatcher_loop(d); });
    }
    for (auto& th : threads) th.join();
    const ServiceReport rep = svc.finish(/*complete=*/true);
    EXPECT_TRUE(rep.ledger_ok) << rep.ledger_note;
    const stm::StmStats after = tm->stats();
    EXPECT_GT(rep.stm.tl2_read_set_entries, 0u);
    EXPECT_GT(rep.stm.tl2_validation_checks, 0u);
    EXPECT_EQ(rep.stm.tl2_read_set_entries, after.tl2_read_set_entries);
    EXPECT_EQ(rep.stm.tl2_validation_checks, after.tl2_validation_checks);
    EXPECT_EQ(rep.stm.commits, after.commits);
}

TEST(SvcProduction, OpenArrivalDueTimesAreExact) {
    // 3 clients at 400k/s: arrivals are 2.5 µs apart, so a client's own
    // requests are 7.5 µs apart. Arrival j of the merged stream (client
    // j % 3, request j / 3) is due at floor(2.5·j) µs. A per-client interval
    // rounded down to 7 µs would offer 428.6k/s instead.
    class RecordingEnv final : public SvcEnv {
    public:
        std::uint64_t now() override { return 0; }
        void backoff(std::uint32_t) override {}
        void idle() override {}
        ParkResult park(SubmitQueues&) override {
            return ParkResult::kWorkSeen;
        }
        void pace_until(std::uint64_t t) override { due.push_back(t); }
        void stall(std::uint32_t) override {}
        std::vector<std::uint64_t> due;
    } env;
    const SvcConfig sc = svc_config_from(config::Config::from_string(
        "clients=3 dispatchers=1 requests=8 slots=64 queue_depth=64 "
        "arrival=open:400000 seed=7"));
    const auto tm =
        stm::Stm::create(config::Config::from_string("backend=tl2"));
    std::vector<std::uint64_t> storage(std::size_t{sc.slots} * 8 + 8, 0);
    const auto base =
        (reinterpret_cast<std::uintptr_t>(storage.data()) + 63) &
        ~std::uintptr_t{63};
    Service svc(sc, *tm, env, reinterpret_cast<std::uint64_t*>(base));
    // One thread, clients in turn: the last one closes intake, and the
    // dispatcher then drains every ring.
    for (std::uint32_t c = 0; c < sc.clients; ++c) svc.client_loop(c);
    svc.dispatcher_loop(0);
    const ServiceReport rep = svc.finish(/*complete=*/true);
    EXPECT_TRUE(rep.ledger_ok) << rep.ledger_note;

    ASSERT_EQ(env.due.size(), 24u);
    for (std::uint64_t c = 0; c < 3; ++c) {
        for (std::uint64_t k = 0; k < 8; ++k) {
            const std::uint64_t j = 3 * k + c;
            EXPECT_EQ(env.due[c * 8 + k], 5 * j / 2)
                << "client " << c << ", request " << k;
        }
    }
}

}  // namespace
}  // namespace tmb::svc
