#include "svc/sched_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "sched/harness.hpp"
#include "stm/sched_hook.hpp"
#include "util/hash.hpp"

namespace tmb::svc {

namespace {

using stm::detail::scheduler_yield;
using stm::detail::YieldPoint;
using stm::detail::YieldSite;

/// The service harness's own static arena (same rationale as the sched
/// harness's: process-stable addresses make replays exact; runs are
/// serialized by the turnstile, zeroed per run).
std::uint64_t* svc_arena() {
    alignas(64) static std::uint64_t words[std::size_t{kSvcMaxSlots} * 8];
    return words;
}

/// Virtual clock + yield-based waiting: the env the Service sees under the
/// turnstile. now() reads the scheduler's step counter through a pointer —
/// one step, one tick, so "deadline_us" is a deadline *step*.
class StepClockEnv final : public SvcEnv {
public:
    explicit StepClockEnv(const std::uint64_t* steps) : steps_(steps) {}

    std::uint64_t now() override { return *steps_; }
    void backoff(std::uint32_t /*attempt*/) override {
        // Backoff under virtual time is "let everyone else run once":
        // kRetry so PCT demotes the retrying dispatcher.
        scheduler_yield(YieldPoint::kRetry, YieldSite::kSvcDequeue);
    }
    // The loops' own yields pace everything: waiting is a no-op.
    void idle() override {}
    bool park(SubmitQueues& /*q*/) override { return false; }
    void pace_until(std::uint64_t /*t*/) override {
        throw std::logic_error(
            "svc sched: open arrival is not supported under virtual time");
    }
    void stall(std::uint32_t ms) override {
        // A stall is ms extra yields: the dispatcher stays runnable but
        // burns steps, exactly what a wall-clock stall does to a schedule.
        for (std::uint32_t i = 0; i < ms; ++i) {
            scheduler_yield(YieldPoint::kSvcDispatch, YieldSite::kSvcDequeue);
        }
    }
    [[nodiscard]] bool record_commits() const override { return true; }

private:
    const std::uint64_t* steps_;
};

void validate(const SvcHarnessConfig& cfg) {
    if (cfg.threads() == 0 || cfg.threads() > sched::kMaxScheduleThreads) {
        throw std::invalid_argument(
            "svc sched: clients + dispatchers must be in [1, " +
            std::to_string(sched::kMaxScheduleThreads) + "]");
    }
    if (cfg.svc.slots == 0 || cfg.svc.slots > kSvcMaxSlots) {
        throw std::invalid_argument("svc sched: slots must be in [1, " +
                                    std::to_string(kSvcMaxSlots) + "]");
    }
    if (cfg.svc.open_arrival) {
        throw std::invalid_argument(
            "svc sched: arrival must be closed under virtual time");
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Config plumbing
// ---------------------------------------------------------------------------

SvcHarnessConfig svc_harness_config_from(const config::Config& cfg) {
    SvcHarnessConfig out;
    sched::read_stm_spec(cfg, out);
    out.max_attempts = cfg.get_u32("max_attempts", out.max_attempts);
    out.step_limit = cfg.get_u64("step_limit", out.step_limit);
    out.svc.clients = cfg.get_u32("clients", out.svc.clients);
    out.svc.dispatchers = cfg.get_u32("dispatchers", out.svc.dispatchers);
    out.svc.shards = cfg.get_u32("shards", out.svc.shards);
    out.svc.queue_depth = cfg.get_u32("queue_depth", out.svc.queue_depth);
    out.svc.batch = cfg.get_u32("batch", out.svc.batch);
    out.svc.requests_per_client =
        cfg.get_u64("requests", out.svc.requests_per_client);
    out.svc.ops_per_request = cfg.get_u32("ops", out.svc.ops_per_request);
    out.svc.slots = cfg.get_u32("slots", out.svc.slots);
    out.svc.rmw = cfg.get_bool("rmw", out.svc.rmw);
    out.svc.seed = cfg.get_u64("wseed", out.svc.seed);
    out.svc.deadline_us = cfg.get_u64("deadline_steps", out.svc.deadline_us);
    out.svc.retry_budget = retry_budget_from(cfg.get("retry", "none"));
    out.svc.fault = svc_fault_from(cfg.get("svc_fault", ""));
    return out;
}

std::string svc_harness_repro_flags(const SvcHarnessConfig& cfg) {
    std::string out = "--svc=1 " + sched::stm_repro_flags(cfg);
    out += " --max_attempts=" + std::to_string(cfg.max_attempts);
    out += " --clients=" + std::to_string(cfg.svc.clients);
    out += " --dispatchers=" + std::to_string(cfg.svc.dispatchers);
    out += " --shards=" + std::to_string(cfg.svc.shards);
    out += " --queue_depth=" + std::to_string(cfg.svc.queue_depth);
    out += " --batch=" + std::to_string(cfg.svc.batch);
    out += " --requests=" + std::to_string(cfg.svc.requests_per_client);
    out += " --ops=" + std::to_string(cfg.svc.ops_per_request);
    out += " --slots=" + std::to_string(cfg.svc.slots);
    out += " --rmw=" + std::string(cfg.svc.rmw ? "1" : "0");
    out += " --wseed=" + std::to_string(cfg.svc.seed);
    if (cfg.svc.deadline_us != 0) {
        out += " --deadline_steps=" + std::to_string(cfg.svc.deadline_us);
    }
    if (cfg.svc.retry_budget != 0) {
        out += " --retry=backoff:" + std::to_string(cfg.svc.retry_budget);
    }
    const std::string fault = to_string(cfg.svc.fault);
    if (fault != "none") out += " --svc_fault=" + fault;
    return out;
}

// ---------------------------------------------------------------------------
// The scheduled service run
// ---------------------------------------------------------------------------

ServiceRunResult run_service_schedule(const SvcHarnessConfig& cfg,
                                      sched::Schedule& schedule) {
    validate(cfg);
    config::Config spec = sched::stm_config(cfg);
    if (cfg.max_attempts != 0) {
        spec.set("max_attempts", std::to_string(cfg.max_attempts));
    }
    const auto tm = stm::Stm::create(spec);
    std::fill(svc_arena(), svc_arena() + std::size_t{kSvcMaxSlots} * 8, 0);

    ServiceRunResult result;
    StepClockEnv env(&result.steps);
    Service svc(cfg.svc, *tm, env, svc_arena());
    const auto body = [&](std::uint32_t t) {
        if (t < cfg.svc.clients) {
            svc.client_loop(t);
        } else {
            svc.dispatcher_loop(t - cfg.svc.clients);
        }
    };
    const sched::CoverageAccumulator coverage =
        sched::drive(cfg.threads(), cfg.step_limit, schedule, body,
                     [&] { return svc.commit_count(); }, result);

    result.final_state.resize(cfg.svc.slots);
    std::uint64_t h = 0x5eedc0de ^ cfg.svc.slots;
    for (std::uint32_t s = 0; s < cfg.svc.slots; ++s) {
        result.final_state[s] = svc_arena()[std::size_t{s} * 8];
        h = util::mix64(h ^
                        (result.final_state[s] + s * 0x9e3779b97f4a7c15ULL));
    }
    result.state_hash = h;

    result.commit_log = svc.commit_log();
    const ServiceReport rep = svc.finish(/*complete=*/!result.cancelled);
    result.counters = rep.counters;
    result.ledger_ok = rep.ledger_ok;
    result.ledger_note = rep.ledger_note;
    result.stats = rep.stm;
    result.signature = coverage.signature(result.stats);
    return result;
}

// ---------------------------------------------------------------------------
// The service oracle
// ---------------------------------------------------------------------------

std::optional<std::string> check_service_consistent(
    const SvcHarnessConfig& cfg, const ServiceRunResult& run) {
    if (!run.ledger_ok) {
        return "conservation ledger: " + run.ledger_note;
    }
    const SvcCounters& c = run.counters;
    const std::uint64_t total =
        std::uint64_t{cfg.svc.clients} * cfg.svc.requests_per_client;
    if (!run.cancelled && c.submitted != total) {
        return "complete run submitted " + std::to_string(c.submitted) +
               " requests, expected " + std::to_string(total);
    }

    // Commit log vs counters: every completed request is in the log; a kill
    // may strand at most one committed-but-uncounted batch per dispatcher.
    std::uint64_t logged = 0;
    for (const SvcCommit& cm : run.commit_log) {
        logged += cm.request_ids.size();
    }
    const std::uint64_t dispatcher_window =
        std::uint64_t{cfg.svc.dispatchers} * cfg.svc.batch;
    if (logged < c.completed) {
        return "counters claim " + std::to_string(c.completed) +
               " completions but the commit log holds " +
               std::to_string(logged);
    }
    if (run.cancelled ? logged - c.completed > dispatcher_window
                      : logged != c.completed) {
        return "commit log holds " + std::to_string(logged) +
               " requests vs " + std::to_string(c.completed) +
               " counted completions" +
               (run.cancelled ? " (> one batch per dispatcher in flight)"
                              : " on a complete run");
    }

    // At-most-once execution, and only requests that exist.
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(static_cast<std::size_t>(logged) * 2);
    for (const SvcCommit& cm : run.commit_log) {
        if (cm.dispatcher >= cfg.svc.dispatchers) {
            return "commit names unknown dispatcher " +
                   std::to_string(cm.dispatcher);
        }
        for (const std::uint64_t id : cm.request_ids) {
            if (id >= total) {
                return "commit log names unknown request " +
                       std::to_string(id);
            }
            if (!seen.insert(id).second) {
                return "request " + std::to_string(id) +
                       " executed twice (appears in two commits)";
            }
        }
    }

    // Serial replay in commit order: recorded reads/writes must be exactly
    // what the deterministic request logic produces against the serial
    // state, and the final memory must match — for killed runs too (aborted
    // attempts roll back, so memory holds exactly the committed prefix).
    std::vector<std::uint64_t> state(cfg.svc.slots, 0);
    for (std::size_t pos = 0; pos < run.commit_log.size(); ++pos) {
        const SvcCommit& cm = run.commit_log[pos];
        std::size_t ri = 0;
        std::size_t wi = 0;
        for (const std::uint64_t id : cm.request_ids) {
            const std::uint64_t seed = svc_request_seed(cfg.svc.seed, id);
            for (std::uint32_t i = 0; i < cfg.svc.ops_per_request; ++i) {
                const std::uint32_t slot =
                    svc_op_slot(seed, i, cfg.svc.slots);
                if (cfg.svc.rmw) {
                    if (ri >= cm.reads.size() ||
                        cm.reads[ri].slot != slot) {
                        return "commit #" + std::to_string(pos + 1) +
                               ": read log does not match request " +
                               std::to_string(id);
                    }
                    if (cm.reads[ri].value != state[slot]) {
                        return "commit #" + std::to_string(pos + 1) +
                               " (request " + std::to_string(id) +
                               ") read slot " + std::to_string(slot) + " = " +
                               std::to_string(cm.reads[ri].value) +
                               " but the serial replay in commit order "
                               "gives " +
                               std::to_string(state[slot]) +
                               " — not serializable";
                    }
                    ++ri;
                }
                const std::uint64_t nv =
                    svc_op_value(seed, i, state[slot], cfg.svc.rmw);
                if (wi >= cm.writes.size() || cm.writes[wi].slot != slot ||
                    cm.writes[wi].value != nv) {
                    return "commit #" + std::to_string(pos + 1) +
                           " (request " + std::to_string(id) +
                           ") wrote a value the serial replay does not "
                           "produce";
                }
                ++wi;
                state[slot] = nv;
            }
        }
        if (ri != cm.reads.size() || wi != cm.writes.size()) {
            return "commit #" + std::to_string(pos + 1) +
                   " recorded more accesses than its requests perform";
        }
    }
    if (state != run.final_state) {
        std::string diff;
        for (std::uint32_t s = 0; s < cfg.svc.slots; ++s) {
            if (state[s] != run.final_state[s]) {
                diff += " slot " + std::to_string(s) + ": serial " +
                        std::to_string(state[s]) + " vs actual " +
                        std::to_string(run.final_state[s]) + ";";
            }
        }
        return "final state diverges from the serial replay of the commit "
               "log:" +
               diff;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// The service subject
// ---------------------------------------------------------------------------

sched::Outcome ServiceSubject::run(sched::Schedule& schedule,
                                   std::uint64_t step_limit, bool complete,
                                   std::string* detail) const {
    SvcHarnessConfig cfg = cfg_;
    cfg.step_limit = step_limit;
    ServiceRunResult run = run_service_schedule(cfg, schedule);
    if (detail) {
        const SvcCounters& c = run.counters;
        *detail = std::to_string(c.submitted) + " submitted, " +
                  std::to_string(c.completed) + " completed, " +
                  std::to_string(c.rejected_queue) + "+" +
                  std::to_string(c.rejected_retry) + " rejected, " +
                  std::to_string(c.timed_out) + " timed out, " +
                  std::to_string(c.retries) + " retries, " +
                  std::to_string(run.commit_log.size()) + " commits";
    }
    auto error = complete && run.cancelled
                     ? sched::step_limit_error(run.steps, step_limit)
                     : check_service_consistent(cfg, run);
    return {std::move(run), std::move(error)};
}

std::unique_ptr<sched::Subject> make_subject(const config::Config& cli) {
    if (cli.get_bool("svc", false)) {
        return std::make_unique<ServiceSubject>(svc_harness_config_from(cli));
    }
    return std::make_unique<sched::ProgramSubject>(
        sched::harness_config_from(cli));
}

}  // namespace tmb::svc
