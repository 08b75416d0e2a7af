// service.cpp — the svc_open workload: svc::Service under open arrival at
// one fixed rate below the knee, on real threads.
//
// The benchmark owns the SvcEnv, so it sees every clock read, idle poll,
// backoff and pacing call, per thread role; the traced run turns those
// into the svc.* layer metrics. The env's clock unit is the nanosecond
// (the service measures deadlines, pacing and latency in env units), so
// latency percentiles resolve below a microsecond.
//
// One sub-run is one Service instance on a fresh Stm: clients submit a
// fixed budget, dispatchers drain, finish() audits the conservation ledger
// and ownership quiescence, and the benchmark checks that reclamation has
// nothing pending.
#include <sys/prctl.h>

#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "config/config.hpp"
#include "stm/stm.hpp"
#include "svc/service.hpp"
#include "util/latency_histogram.hpp"

namespace perfbench {

namespace {

using tmb::util::LatencyHistogram;

constexpr std::uint32_t kClients = 2;
constexpr std::uint32_t kDispatchers = 2;
/// Offered load: well below the ~1.0-1.4M/s saturation point on a 4-core
/// host. Each client's interval is 1e6 * clients / rate env units; at
/// 400k/s that is exactly 5 us (5000 ns), so nothing is truncated.
constexpr double kOfferedPerSec = 400'000;
constexpr double kSubRunSeconds = 0.5;
constexpr double kWarmupSeconds = 1.5;
constexpr std::string_view kStmConfig = "backend=tl2";

/// What the env saw on one thread during one sub-run.
struct alignas(64) RoleLane {
    // Dispatcher.
    std::uint64_t idle_polls = 0, idle_ns = 0, backoff_ns = 0;
    std::uint64_t triage_at = 0;
    bool in_batch = false;
    LatencyHistogram batch_ns;
    std::uint64_t batch_total_ns = 0;
    // Client.
    LatencyHistogram lag_ns;
    std::uint64_t done_at = 0;  ///< client_loop return, env clock
};

thread_local RoleLane* tl_lane = nullptr;
thread_local bool tl_dispatcher = false;

/// Wall-clock env with the sleeps of run_service's WallClockEnv (20 us idle
/// poll, 4 us << attempt backoff capped at 1 ms, sleep_until pacing),
/// reporting to the calling thread's lane when traced.
class BenchEnv final : public tmb::svc::SvcEnv {
public:
    explicit BenchEnv(bool traced) : traced_(traced) {}

    std::uint64_t now() override {
        const std::uint64_t t = since_start();
        // A dispatcher reads the clock twice per executed batch: at deadline
        // triage and after commit. idle() resets the pairing.
        if (RoleLane* l = lane(); l != nullptr && tl_dispatcher) {
            if (!l->in_batch) {
                l->triage_at = t;
            } else {
                l->batch_ns.record(t - l->triage_at);
                l->batch_total_ns += t - l->triage_at;
            }
            l->in_batch = !l->in_batch;
        }
        return t;
    }
    void backoff(std::uint32_t attempt) override {
        const std::uint64_t us =
            std::min<std::uint64_t>(1000, std::uint64_t{4} << std::min(attempt, 24u));
        const std::uint64_t slept = timed_sleep(std::chrono::microseconds(us));
        if (RoleLane* l = lane()) l->backoff_ns += slept;
    }
    void idle() override {
        const std::uint64_t slept = timed_sleep(std::chrono::microseconds(20));
        if (RoleLane* l = lane()) {
            l->in_batch = false;
            ++l->idle_polls;
            l->idle_ns += slept;
        }
    }
    void pace_until(std::uint64_t t) override {
        std::this_thread::sleep_until(start_ + std::chrono::nanoseconds(t));
        if (RoleLane* l = lane()) {
            const std::uint64_t late = since_start();
            l->lag_ns.record(late > t ? late - t : 0);
        }
    }
    void stall(std::uint32_t ms) override {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }

    [[nodiscard]] std::uint64_t since_start() const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
                .count());
    }

private:
    /// The calling thread's lane when traced, else null.
    [[nodiscard]] RoleLane* lane() const { return traced_ ? tl_lane : nullptr; }
    std::uint64_t timed_sleep(std::chrono::microseconds d) const {
        const std::uint64_t t0 = since_start();
        std::this_thread::sleep_for(d);
        return since_start() - t0;
    }

    bool traced_;
    Clock::time_point start_ = Clock::now();
};

/// Timer slack 1 ns on the calling thread, so the env's sleeps last what
/// the service asked for: the default 50 us slack stretches a 5 us pacing
/// interval and a 20 us idle poll to 55-70 us, and lets the kernel
/// coalesce them with other timers, which made latency follow thread
/// placement rather than the service.
void precise_sleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// 64-byte-aligned, zeroed slot arena (one conflict block per slot).
class Arena {
public:
    explicit Arena(std::uint32_t slots) : storage_(std::size_t{slots} * 8 + 8, 0) {}
    std::uint64_t* base() {
        auto p = reinterpret_cast<std::uintptr_t>(storage_.data());
        return reinterpret_cast<std::uint64_t*>((p + 63) & ~std::uintptr_t{63});
    }

private:
    std::vector<std::uint64_t> storage_;
};

/// Everything one Service instance needs, built the way set-up is timed.
struct Instance {
    std::unique_ptr<tmb::stm::Stm> tm;
    std::unique_ptr<Arena> arena;
    std::unique_ptr<tmb::svc::Service> svc;

    Instance(const tmb::config::Config& stm_cfg, const tmb::svc::SvcConfig& sc,
             BenchEnv& env)
        : tm(tmb::stm::Stm::create(stm_cfg)),
          arena(std::make_unique<Arena>(sc.slots)),
          svc(std::make_unique<tmb::svc::Service>(sc, *tm, env, arena->base())) {}
};

struct SubRun {
    double setup_s = 0.0;  ///< Stm, arena and Service construction
    double wall = 0.0;
    double cpu_per_wall = 0.0;
    double throughput = 0.0;
    double drain_ms = 0.0;
    double client_seconds = 0.0;  ///< start to the last client's return
    tmb::svc::ServiceReport rep;
    std::vector<RoleLane> clients, dispatchers;
};

SubRun sub_run(const tmb::config::Config& stm_cfg, const tmb::svc::SvcConfig& sc,
               BenchEnv& env) {
    const auto t0 = Clock::now();
    Instance inst(stm_cfg, sc, env);
    SubRun s;
    s.setup_s = seconds_since(t0);
    s.clients.resize(kClients);
    s.dispatchers.resize(kDispatchers);
    std::vector<std::exception_ptr> errors(kClients + kDispatchers);
    std::vector<std::thread> threads;

    const std::uint64_t start = env.since_start();
    const double cpu0 = cpu_seconds();
    for (std::uint32_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            precise_sleeps();
            tl_lane = &s.clients[c];
            tl_dispatcher = false;
            try {
                inst.svc->client_loop(c);
            } catch (...) {
                errors[c] = std::current_exception();
            }
            s.clients[c].done_at = env.since_start();
            tl_lane = nullptr;
        });
    }
    for (std::uint32_t d = 0; d < kDispatchers; ++d) {
        threads.emplace_back([&, d] {
            precise_sleeps();
            tl_lane = &s.dispatchers[d];
            tl_dispatcher = true;
            try {
                inst.svc->dispatcher_loop(d);
            } catch (...) {
                errors[kClients + d] = std::current_exception();
            }
            tl_lane = nullptr;
        });
    }
    for (auto& th : threads) th.join();
    const std::uint64_t end = env.since_start();
    const double cpu = cpu_seconds() - cpu0;
    for (auto& err : errors) {
        if (err) std::rethrow_exception(err);
    }

    s.wall = static_cast<double>(end - start) / 1e9;
    s.cpu_per_wall = ratio(cpu, s.wall);
    std::uint64_t last_client = start;
    for (const RoleLane& l : s.clients) last_client = std::max(last_client, l.done_at);
    s.client_seconds = static_cast<double>(last_client - start) / 1e9;

    const std::uint64_t f0 = env.since_start();
    s.rep = inst.svc->finish(/*complete=*/true);
    s.drain_ms = static_cast<double>(env.since_start() - f0) / 1e6;
    if (!s.rep.ledger_ok) {
        throw std::runtime_error("svc ledger imbalance: " + s.rep.ledger_note);
    }
    if (const std::uint64_t pending = inst.tm->reclaim_stats().pending_blocks()) {
        throw std::runtime_error("svc: " + std::to_string(pending) +
                                 " retired blocks pending after drain");
    }
    // TL2 contexts flush their validation count when finish() retires them,
    // after the report's snapshot; the Stm is this sub-run's alone.
    s.rep.stm.tl2_validation_checks = inst.tm->stats().tl2_validation_checks;
    s.throughput = ratio(static_cast<double>(s.rep.counters.completed), s.wall);
    return s;
}

struct Totals {
    tmb::svc::SvcCounters counters;
    tmb::stm::StmStats stm;
    LatencyHistogram latency, batch_ns, lag_ns;
    std::uint64_t idle_polls = 0, idle_ns = 0, backoff_ns = 0, batch_total_ns = 0;
    double wall = 0.0, client_seconds = 0.0;
    std::vector<double> throughput, cpu_per_wall, drain_ms, p50_us, p99_us;

    void add(const SubRun& s) {
        p50_us.push_back(static_cast<double>(s.rep.latency.percentile(0.50)) / 1e3);
        p99_us.push_back(static_cast<double>(s.rep.latency.percentile(0.99)) / 1e3);
        counters.merge(s.rep.counters);
        stm.merge(s.rep.stm);
        latency.merge(s.rep.latency);
        for (const RoleLane& l : s.dispatchers) {
            batch_ns.merge(l.batch_ns);
            idle_polls += l.idle_polls;
            idle_ns += l.idle_ns;
            backoff_ns += l.backoff_ns;
            batch_total_ns += l.batch_total_ns;
        }
        for (const RoleLane& l : s.clients) lag_ns.merge(l.lag_ns);
        wall += s.wall;
        client_seconds += s.client_seconds;
        throughput.push_back(s.throughput);
        cpu_per_wall.push_back(s.cpu_per_wall);
        drain_ms.push_back(s.drain_ms);
    }
    [[nodiscard]] std::uint64_t failed() const {
        return counters.rejected_queue + counters.rejected_retry + counters.timed_out;
    }
};

void layer_metrics(const Totals& t, double base_throughput, Outcome& out) {
    const auto& c = t.counters;
    const auto completed = static_cast<double>(c.completed);
    const auto submitted = static_cast<double>(c.submitted);
    const auto batches = static_cast<double>(c.batches);
    const double dispatcher_ns = t.wall * kDispatchers * 1e9;
    const double batch_mean_ns =
        ratio(static_cast<double>(t.batch_total_ns), static_cast<double>(t.batch_ns.count()));
    const double commits = static_cast<double>(t.stm.commits);

    out.set("exec.cpu_per_wall", median(t.cpu_per_wall));
    out.set("stm.abort_share", t.stm.abort_rate());
    out.set("stm.mean_attempts", t.stm.mean_attempts());
    out.set("stm.clock_cas_failures_per_kcommit",
            1e3 * ratio(static_cast<double>(t.stm.clock_cas_failures), commits));
    out.set("stm.tl2_validation_per_commit",
            ratio(static_cast<double>(t.stm.tl2_validation_checks), commits));
    out.set("svc.latency_samples", static_cast<double>(t.latency.count()));
    out.set("svc.idle_polls_per_req", ratio(static_cast<double>(t.idle_polls), completed));
    out.set("svc.idle_share", ratio(static_cast<double>(t.idle_ns), dispatcher_ns));
    out.set("svc.batch_us.p50", static_cast<double>(t.batch_ns.percentile(0.50)) / 1e3);
    out.set("svc.batch_us.p99", static_cast<double>(t.batch_ns.percentile(0.99)) / 1e3);
    out.set("svc.queue_wait_us", (t.latency.mean() - batch_mean_ns) / 1e3);
    out.set("svc.batch_fill", ratio(completed, batches));
    out.set("svc.retry_share", ratio(static_cast<double>(c.retries), batches));
    out.set("svc.first_try_conflict_share",
            ratio(static_cast<double>(c.first_try_conflicts), batches));
    out.set("svc.backoff_ms", ratio(static_cast<double>(t.backoff_ns) / 1e6, t.wall));
    out.set("svc.reject_queue_share", ratio(static_cast<double>(c.rejected_queue), submitted));
    out.set("svc.timeout_share", ratio(static_cast<double>(c.timed_out), submitted));
    out.set("svc.drain_ms", median(t.drain_ms));
    out.set("svc.gen_lag_us.p50", static_cast<double>(t.lag_ns.percentile(0.50)) / 1e3);
    out.set("svc.gen_lag_us.p99", static_cast<double>(t.lag_ns.percentile(0.99)) / 1e3);
    out.set("svc.offered_per_s", ratio(submitted, t.client_seconds));
    out.set("trace.overhead_share", 1.0 - ratio(median(t.throughput), base_throughput));
    // Dispatcher time the env's spans explain: batches, idle polls, backoff.
    out.set("trace.span_coverage",
            ratio(static_cast<double>(t.batch_total_ns + t.idle_ns + t.backoff_ns),
                  dispatcher_ns));
}

}  // namespace

Outcome run_service(const Options& opt) {
    auto stm_cfg = tmb::config::Config::from_string(kStmConfig);
    const auto requests = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(kOfferedPerSec / kClients * kSubRunSeconds * opt.scale));
    // Env units are ns: the rate key is per 1e6 units (per ms), and the
    // deadline (1 s) is in ns. Deadline and ring depth (~160 ms of arrivals
    // per shard) are set so that host stalls, seen up to ~50 ms with both
    // dispatchers descheduled, delay requests instead of failing them.
    auto svc_cfg = tmb::config::Config::from_string(
        "clients=" + std::to_string(kClients) +
        " dispatchers=" + std::to_string(kDispatchers) +
        " batch=8 ops=4 rmw=1 retry=backoff:3 deadline_us=1000000000 queue_depth=65536"
        " arrival=open:" + std::to_string(kOfferedPerSec / 1e3) +
        " requests=" + std::to_string(requests));
    tmb::svc::SvcConfig sc = tmb::svc::svc_config_from(svc_cfg);

    Outcome out;
    BenchEnv plain(false), traced(true);
    // Every sub-run builds a fresh Stm, arena and Service; setup_s is the
    // median of those constructions over the whole run.
    std::vector<double> setup;
    Totals base, layer;
    std::uint64_t sub = 0;
    const auto next_seed = [&] { sc.seed = opt.seed * 1000003 + sub++; };
    try {
        // Warm-up: one short, checked, untimed sub-run.
        tmb::svc::SvcConfig warm = sc;
        warm.requests_per_client = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(kOfferedPerSec / kClients * kWarmupSeconds * opt.scale));
        next_seed();
        warm.seed = sc.seed;
        const SubRun w = sub_run(stm_cfg, warm, plain);
        out.attempted += w.rep.counters.submitted;
        setup.push_back(w.setup_s);

        double measured = 0.0;
        while (measured < opt.seconds) {
            next_seed();
            const SubRun s = sub_run(stm_cfg, sc, plain);
            base.add(s);
            setup.push_back(s.setup_s);
            measured += s.wall;
            if (opt.trace) {
                next_seed();
                const SubRun t = sub_run(stm_cfg, sc, traced);
                layer.add(t);
                setup.push_back(t.setup_s);
                measured += t.wall;
            }
        }
    } catch (const std::exception& e) {
        out.check_failures.push_back(e.what());
    }
    out.attempted += base.counters.submitted + layer.counters.submitted;
    out.failed += base.failed() + layer.failed();
    if (!out.check_failures.empty()) ++out.failed;

    out.set("setup_s", median(setup));
    out.set("throughput", median(base.throughput));
    // Per-sub-run percentiles, then their median: each sub-run starts fresh
    // threads, and one scheduler stall moves only its own sub-run's tail.
    out.set("p50_us", median(base.p50_us));
    out.set("p99_us", median(base.p99_us));
    std::printf("untraced: %zu sub-runs, %.0f completed/s, latency p50 %.3f us "
                "p99 %.3f us over %llu requests; cpu/wall %.2f\n",
                base.throughput.size(), out.values["throughput"], out.values["p50_us"],
                out.values["p99_us"],
                static_cast<unsigned long long>(base.latency.count()),
                median(base.cpu_per_wall));
    if (opt.trace) {
        layer_metrics(layer, median(base.throughput), out);
        std::printf("traced: %zu sub-runs, %.0f completed/s, latency p50 %.3f us\n",
                    layer.throughput.size(), median(layer.throughput),
                    static_cast<double>(layer.latency.percentile(0.50)) / 1e3);
    }
    out.set("failed_share", ratio(static_cast<double>(out.failed),
                                  static_cast<double>(out.attempted)));
    return out;
}

}  // namespace perfbench
