// sched_service.hpp — the service front-end as the second subject of the
// schedule-exploration core (sched/explore.hpp): kill-at-any-step runs
// with a conservation + prefix-consistency oracle, explored, replayed,
// minimized and fuzzed by the same modes as the generated programs.
//
// The same Service object that serves real threads (svc/service.hpp) runs
// here on virtual threads: clients 0..C-1 and dispatchers C..C+D-1 advance
// only when a sched::Schedule grants them a step, the clock is the step
// counter itself (deadlines fire at exact steps — test-assertable), and
// every committed batch is recorded for serial replay. Cancelling the run
// at step K *is* killing the service at K; the oracle then checks
//
//   * conservation — submitted == completed + rejected + timed-out +
//     in-flight-at-kill, with in-flight bounded by ring capacity +
//     dispatcher batches + submissions in progress (never unbounded);
//   * prefix consistency — the recorded commit log replayed serially
//     reproduces every recorded read/write and the rolled-back final
//     memory, i.e. a kill never tears a batch or loses a committed one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "config/config.hpp"
#include "sched/explore.hpp"
#include "sched/schedule.hpp"
#include "svc/service.hpp"

namespace tmb::svc {

/// Largest service-arena size under the turnstile (its own static arena,
/// independent of the sched harness's — the model-validation sweep wants
/// slot counts matching real table sizes).
inline constexpr std::uint32_t kSvcMaxSlots = 2048;

/// One deterministic service subject: STM selection + service shape.
/// Arrival is always closed (virtual time has no Poisson process), and
/// svc.deadline_us is measured in scheduler *steps*.
struct SvcHarnessConfig : sched::StmSpec {
    /// STM-internal attempts before TooMuchContention surfaces to the
    /// dispatcher's retry/backoff layer. Small by default so schedules can
    /// actually reach the service-level retry paths.
    std::uint32_t max_attempts = 4;
    SvcConfig svc = [] {
        SvcConfig s;
        s.clients = 2;
        s.dispatchers = 1;
        s.shards = 1;
        s.queue_depth = 2;
        s.batch = 2;
        s.requests_per_client = 3;
        s.ops_per_request = 2;
        s.slots = 8;
        s.rmw = true;
        return s;
    }();
    std::uint64_t step_limit = std::uint64_t{1} << 20;

    [[nodiscard]] std::uint32_t threads() const {
        return svc.clients + svc.dispatchers;
    }
};

/// Parses sched_explorer-style keys: the STM keys (sched::read_stm_spec)
/// plus max_attempts, step_limit, and the service shape (clients,
/// dispatchers, shards, queue_depth, batch, requests, ops, slots, rmw,
/// wseed, deadline_steps, retry=none|backoff:<n>, svc_fault).
[[nodiscard]] SvcHarnessConfig svc_harness_config_from(
    const config::Config& cfg);

/// `--svc=1` plus the `--key=value` flags svc_harness_config_from turns
/// back into `cfg` (everything except the schedule string).
[[nodiscard]] std::string svc_harness_repro_flags(const SvcHarnessConfig& cfg);

/// Outcome of one scheduled service run.
struct ServiceRunResult : sched::RunTrace {
    SvcCounters counters;
    std::vector<SvcCommit> commit_log;  ///< commit order
    bool ledger_ok = false;
    std::string ledger_note;
};

/// Runs the service under `schedule`. Deterministic: identical inputs give
/// identical results (virtual threads bind TxIds in index order, the clock
/// is the step counter, and request contents derive from svc.seed).
[[nodiscard]] ServiceRunResult run_service_schedule(
    const SvcHarnessConfig& cfg, sched::Schedule& schedule);

/// The service oracle: conservation ledger + commit-log/counter agreement +
/// at-most-once execution per request + serial replay of the commit log
/// reproducing every recorded read/write and the final memory. Handles
/// killed runs (run.cancelled) with the relaxed in-flight ledger; complete
/// runs must balance exactly. nullopt = consistent.
[[nodiscard]] std::optional<std::string> check_service_consistent(
    const SvcHarnessConfig& cfg, const ServiceRunResult& run);

/// The service as an exploration subject. Its oracle is
/// check_service_consistent, which audits cancelled runs with the relaxed
/// in-flight ledger; under the full oracle a cancelled run is a violation.
class ServiceSubject final : public sched::Subject {
public:
    explicit ServiceSubject(SvcHarnessConfig cfg) : cfg_(std::move(cfg)) {}

    [[nodiscard]] sched::StmSpec& stm() override { return cfg_; }
    [[nodiscard]] std::uint32_t threads() const override {
        return cfg_.threads();
    }
    [[nodiscard]] std::uint64_t step_limit() const override {
        return cfg_.step_limit;
    }
    [[nodiscard]] std::string repro_flags() const override {
        return svc_harness_repro_flags(cfg_);
    }
    [[nodiscard]] sched::Outcome run(sched::Schedule& schedule,
                                     std::uint64_t step_limit, bool complete,
                                     std::string* detail) const override;

private:
    SvcHarnessConfig cfg_;
};

/// The subject a sched_explorer command line names: the service with
/// --svc=1, the generated transaction programs otherwise.
[[nodiscard]] std::unique_ptr<sched::Subject> make_subject(
    const config::Config& cli);

}  // namespace tmb::svc
