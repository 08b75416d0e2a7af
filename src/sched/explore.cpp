#include "sched/explore.hpp"

#include <bit>
#include <exception>
#include <stdexcept>
#include <thread>

#include "sched/turnstile.hpp"
#include "stm/sched_hook.hpp"
#include "util/hash.hpp"

namespace tmb::sched {

// ---------------------------------------------------------------------------
// The STM spec
// ---------------------------------------------------------------------------

void read_stm_spec(const config::Config& cfg, StmSpec& spec) {
    spec.backend = cfg.get("backend", spec.backend);
    spec.table = cfg.get("table", spec.table);
    spec.entries = cfg.get_u64("entries", spec.entries);
    spec.commit_time_locks =
        cfg.get_bool("commit_time_locks", spec.commit_time_locks);
    spec.clock = cfg.get("clock", spec.clock);
    spec.engine = cfg.get("engine", spec.engine);
    spec.policy = cfg.get("policy", spec.policy);
    spec.epoch = cfg.get_u64("epoch", spec.epoch);
    spec.max_entries = cfg.get_u64("max_entries", spec.max_entries);
}

config::Config stm_config(const StmSpec& spec) {
    config::Config out;
    out.set("backend", spec.backend);
    if (spec.backend == "table" || spec.backend == "adaptive") {
        out.set("table", spec.table);
    }
    if (spec.backend == "adaptive") {
        if (!spec.engine.empty()) out.set("engine", spec.engine);
        if (!spec.policy.empty()) out.set("policy", spec.policy);
        if (spec.epoch != 0) out.set("epoch", std::to_string(spec.epoch));
        if (spec.max_entries != 0) {
            out.set("max_entries", std::to_string(spec.max_entries));
        }
    }
    out.set("entries", std::to_string(spec.entries));
    out.set("block_bytes", "64");
    // Determinism pins: shift-mask makes ownership-table aliasing a pure
    // function of slot distances (ASLR-proof), `none` removes sleeps and
    // jitter from the retry loop.
    out.set("hash", "shift-mask");
    out.set("contention", "none");
    if (spec.commit_time_locks) out.set("commit_time_locks", "1");
    if (!spec.clock.empty()) out.set("clock", spec.clock);
    return out;
}

std::string stm_repro_flags(const StmSpec& spec) {
    std::string out = "--backend=" + spec.backend;
    if (spec.backend == "table" || spec.backend == "adaptive") {
        out += " --table=" + spec.table;
    }
    if (spec.backend == "adaptive") {
        if (!spec.engine.empty()) out += " --engine=" + spec.engine;
        if (!spec.policy.empty()) out += " --policy=" + spec.policy;
        if (spec.epoch != 0) out += " --epoch=" + std::to_string(spec.epoch);
        if (spec.max_entries != 0) {
            out += " --max_entries=" + std::to_string(spec.max_entries);
        }
    }
    if (spec.commit_time_locks) out += " --commit_time_locks=1";
    if (!spec.clock.empty()) out += " --clock=" + spec.clock;
    out += " --entries=" + std::to_string(spec.entries);
    return out;
}

void BackendPair::apply(StmSpec& spec) const {
    spec.backend = backend;
    if (!table.empty()) spec.table = table;
    spec.commit_time_locks = commit_time_locks;
}

std::string BackendPair::label() const {
    std::string out = backend;
    if (!table.empty()) out += "/" + table;
    if (commit_time_locks) out += "/lazy";
    return out;
}

std::vector<BackendPair> default_backend_pairs() {
    return {
        {"tl2", "", false},
        {"table", "tagless", false},
        {"table", "tagged", false},
        {"table", "tagless", true},
        {"table", "tagged", true},
    };
}

// ---------------------------------------------------------------------------
// The drive loop
// ---------------------------------------------------------------------------

CoverageAccumulator drive(std::uint32_t threads, std::uint64_t step_limit,
                          Schedule& schedule,
                          const std::function<void(std::uint32_t)>& body,
                          const std::function<std::size_t()>& commits,
                          RunTrace& trace) {
    using stm::detail::YieldPoint;
    trace.schedule.reserve(256);
    Turnstile ts(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            WorkerHook hook(ts, t);
            stm::detail::SchedulerHook* previous =
                stm::detail::install_scheduler_hook(&hook);
            std::exception_ptr error;
            try {
                body(t);
            } catch (const HarnessCancelled&) {
                // Step budget exhausted: unwind quietly; the oracle audits
                // what remains.
            } catch (...) {
                error = std::current_exception();
            }
            stm::detail::install_scheduler_hook(previous);
            ts.worker_finish(t, std::move(error));
        });
    }

    // Workers race freely only up to their first yield point (which every
    // one reaches before touching shared state); from here on the turnstile
    // admits exactly one at a time.
    ts.await_parked(threads);

    std::uint64_t runnable = 0;
    for (std::uint32_t t = 0; t < threads; ++t) {
        if (!ts.finished(t)) runnable |= std::uint64_t{1} << t;
    }
    // Wakes every still-runnable worker once with the cancel flag set.
    const auto cancel = [&] {
        ts.cancel();
        for (std::uint64_t m = runnable; m != 0; m &= m - 1) {
            ts.grant(static_cast<std::uint32_t>(std::countr_zero(m)));
        }
    };

    CoverageAccumulator coverage;
    while (runnable != 0) {
        const std::uint32_t pick = schedule.pick(runnable, trace.steps);
        if (pick >= 64 || ((runnable >> pick) & 1) == 0) {
            cancel();
            for (auto& w : workers) w.join();
            throw std::logic_error(
                "sched harness: schedule picked a non-runnable thread " +
                std::to_string(pick));
        }
        trace.schedule.push_back(thread_to_char(pick));
        const std::size_t commits_before = commits();
        // Tick before the grant: during step N every worker's step clock
        // reads N, so "timed out at step N" means the grant that was step N.
        ++trace.steps;
        ts.grant(pick);

        if (ts.finished(pick)) {
            runnable &= ~(std::uint64_t{1} << pick);
            schedule.observe(pick, Event::kThreadDone);
            coverage.finish(pick);
        } else {
            coverage.step(pick, ts.last_point(pick), ts.last_site(pick));
            trace.sites_seen |=
                std::uint32_t{1}
                << static_cast<std::uint32_t>(ts.last_site(pick));
            if (ts.last_point(pick) == YieldPoint::kRetry) {
                schedule.observe(pick, Event::kAbort);
            }
        }
        if (commits() > commits_before) {
            schedule.observe(pick, Event::kCommit);
        }

        if (trace.steps >= step_limit && runnable != 0) {
            trace.cancelled = true;
            cancel();
            break;
        }
    }

    for (auto& w : workers) w.join();
    for (std::uint32_t t = 0; t < threads; ++t) {
        if (ts.error(t)) std::rethrow_exception(ts.error(t));
    }
    return coverage;
}

std::string step_limit_error(std::uint64_t steps, std::uint64_t step_limit) {
    return "run cancelled after " + std::to_string(steps) +
           " steps (step_limit " + std::to_string(step_limit) +
           " exhausted — livelocked schedule or config mismatch)";
}

// ---------------------------------------------------------------------------
// The modes
// ---------------------------------------------------------------------------

std::string repro_line(const std::string& flags, const std::string& schedule) {
    return "sched_explorer " + flags + " --schedule=" + schedule;
}

Violation make_violation(const Subject& subject, const std::string& schedule,
                         const std::string& error, std::uint64_t kill_step) {
    Violation v;
    v.schedule = schedule;
    v.repro = repro_line(subject.repro_flags(), schedule);
    if (kill_step != 0) v.repro += " --kill_step=" + std::to_string(kill_step);
    v.message = error + "\n  repro: " + v.repro;
    return v;
}

std::unique_ptr<Schedule> replay_schedule(const std::string& picks) {
    config::Config sc;
    sc.set("sched", "replay");
    sc.set("schedule", picks);
    return make_schedule(sc, 0);
}

Outcome replay(const Subject& subject, const std::string& schedule,
               std::uint64_t kill_step, std::string* detail) {
    const bool complete = kill_step == 0;
    return subject.run(*replay_schedule(schedule),
                       complete ? subject.step_limit() : kill_step, complete,
                       detail);
}

ExploreResult explore(const Subject& subject, const config::Config& sched_cfg,
                      std::uint64_t count, std::uint64_t base_seed) {
    ExploreResult out;
    for (std::uint64_t n = 0; n < count; ++n) {
        const auto schedule = make_schedule(
            sched_cfg, util::mix64(base_seed + n * 0x9e3779b97f4a7c15ULL + 1));
        const Outcome o = subject.run(*schedule, subject.step_limit(),
                                      /*complete=*/true, nullptr);
        ++out.runs;
        out.stats.merge(o.run.stats);
        if (o.error) {
            out.violations.push_back(
                make_violation(subject, o.run.schedule, *o.error));
        }
    }
    return out;
}

std::string minimize_schedule(const Subject& subject, std::string schedule) {
    const auto fails = [&](const std::string& picks) {
        return replay(subject, picks).error.has_value();
    };
    return shrink_schedule(std::move(schedule), fails);
}

}  // namespace tmb::sched
