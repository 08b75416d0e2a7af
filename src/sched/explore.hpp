// explore.hpp — the schedule-exploration core: one STM spec, one turnstile
// drive loop, and the explore, replay/kill-point and minimize modes (the
// fuzz loop is in corpus.hpp), shared by every *subject*: the generated
// transaction programs (ProgramSubject, harness.hpp) and the service
// front-end (svc::ServiceSubject, svc/sched_service.hpp). A subject brings
// only its workload, its oracle and its repro flags.
//
// One oracle rule for both: explore and replay judge every run with the
// full oracle, so a run that exhausts its step budget is a violation. Fuzz
// runs and kill-point checks judge a cancelled run with the prefix oracle,
// and a violation found on one carries `--kill_step=<steps>` in its repro
// line so the replay is cut at the same step.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "sched/coverage.hpp"
#include "sched/schedule.hpp"
#include "stm/stm.hpp"

namespace tmb::sched {

/// The STM selection every subject shares, forwarded to stm::Stm::create.
struct StmSpec {
    std::string backend = "table";  ///< tl2 | table | adaptive
    std::string table = "tagless";  ///< organization, table/adaptive backends
    std::uint64_t entries = 16;     ///< ownership-table slots (small ⇒ aliasing)
    bool commit_time_locks = false;
    std::string clock;              ///< tl2 clock scheme (gv1|gv5; "" = engine default)
    // --- adaptive backend only ---
    std::string engine;             ///< wrapped engine ("" = engine default)
    std::string policy;             ///< off | auto | cycle ("" = engine default)
    std::uint64_t epoch = 0;        ///< commits per epoch (0 = engine default)
    std::uint64_t max_entries = 0;  ///< resize growth cap (0 = engine default)

    bool operator==(const StmSpec&) const = default;
};

/// Reads the STM keys (backend, table, entries, commit_time_locks, clock,
/// engine, policy, epoch, max_entries) into `spec`; absent keys keep their
/// current values.
void read_stm_spec(const config::Config& cfg, StmSpec& spec);

/// The Config handed to stm::Stm::create, with the determinism pins
/// (hash=shift-mask, contention=none, reclaim_shards=2).
[[nodiscard]] config::Config stm_config(const StmSpec& spec);

/// `--key=value` flags that read_stm_spec turns back into `spec`.
[[nodiscard]] std::string stm_repro_flags(const StmSpec& spec);

/// One backend×table combination of a pair sweep.
struct BackendPair {
    std::string backend;
    std::string table;  ///< empty when the backend has no table choice
    bool commit_time_locks = false;

    /// Pins `spec` to this pair (its table only when the pair names one).
    void apply(StmSpec& spec) const;
    [[nodiscard]] std::string label() const;
};

/// Every built-in pair: tl2, table×{tagless,tagged}×{eager,lazy}.
[[nodiscard]] std::vector<BackendPair> default_backend_pairs();

/// What every scheduled run reports, whichever subject ran it.
struct RunTrace {
    std::string schedule;  ///< recorded picks (replayable)
    std::uint64_t steps = 0;
    bool cancelled = false;  ///< step_limit exhausted; state is partial
    std::uint64_t state_hash = 0;
    std::vector<std::uint64_t> final_state;  ///< slot values at quiescence
    stm::StmStats stats;
    /// The run's 64-bit behavior signature (sched/coverage.hpp): AFL-style
    /// bucketed per-thread yield-event edges + quantized stats. A pure
    /// function of the replayed execution on a fresh engine, so identical
    /// runs carry identical signatures.
    std::uint64_t signature = 0;
    /// Bitmask of YieldSite values the run parked at (bit s set ⇔ some
    /// granted step yielded from site s). Coarser than the signature, but
    /// directly answers "did this campaign ever reach site X" — the
    /// reachability assertion the decision-point sites exist for.
    std::uint32_t sites_seen = 0;
};

/// The turnstile drive loop: runs body(t) on `threads` virtual threads,
/// granting one step at a time to the thread `schedule` picks, and cancels
/// the run after `step_limit` steps. trace.steps advances *before* each
/// grant, so a step clock read during step N sees N; commits() feeds the
/// schedule's kCommit events. Fills the trace's picks, steps, cancellation
/// and sites, rethrows the first worker error, returns the edge coverage.
[[nodiscard]] CoverageAccumulator drive(
    std::uint32_t threads, std::uint64_t step_limit, Schedule& schedule,
    const std::function<void(std::uint32_t)>& body,
    const std::function<std::size_t()>& commits, RunTrace& trace);

/// The full oracle's verdict on a run that exhausted its step budget.
[[nodiscard]] std::string step_limit_error(std::uint64_t steps,
                                           std::uint64_t step_limit);

/// One run and its oracle verdict (nullopt = consistent).
struct Outcome {
    RunTrace run;
    std::optional<std::string> error;
};

/// One exploration subject: see the header comment.
class Subject {
public:
    Subject() = default;
    Subject(const Subject&) = delete;
    Subject& operator=(const Subject&) = delete;
    virtual ~Subject() = default;

    /// The STM selection every run builds its engine from. Pair sweeps
    /// re-pin it between batches (BackendPair::apply).
    [[nodiscard]] virtual StmSpec& stm() = 0;
    /// Virtual threads per run: the alphabet of its schedule strings.
    [[nodiscard]] virtual std::uint32_t threads() const = 0;
    /// The configured step budget of one run.
    [[nodiscard]] virtual std::uint64_t step_limit() const = 0;
    /// `--key=value` flags reproducing the subject on the sched_explorer
    /// command line (everything except the schedule).
    [[nodiscard]] virtual std::string repro_flags() const = 0;
    /// Runs `schedule` over a fresh engine, cancelled after `step_limit`
    /// steps, and judges the run: with `complete` by the full oracle,
    /// otherwise a cancelled run by the prefix oracle. `detail`, when
    /// non-null, receives the run's counts for the replay summary.
    [[nodiscard]] virtual Outcome run(Schedule& schedule,
                                      std::uint64_t step_limit, bool complete,
                                      std::string* detail) const = 0;
};

/// A failing schedule plus everything needed to reproduce it.
struct Violation {
    std::string message;   ///< oracle description + repro line
    std::string schedule;  ///< recorded pick string
    std::string repro;     ///< copy-pasteable sched_explorer command
};

/// Full repro command: `sched_explorer <flags> --schedule=<schedule>`.
[[nodiscard]] std::string repro_line(const std::string& flags,
                                     const std::string& schedule);

/// The violation `error` found on `schedule`. A nonzero `kill_step` adds
/// `--kill_step` to the repro line, cutting its replay at that step.
[[nodiscard]] Violation make_violation(const Subject& subject,
                                       const std::string& schedule,
                                       const std::string& error,
                                       std::uint64_t kill_step = 0);

/// The Schedule that replays the pick string `picks`.
[[nodiscard]] std::unique_ptr<Schedule> replay_schedule(
    const std::string& picks);

/// Replays `schedule`. With kill_step = 0 the run gets the subject's step
/// budget and the full oracle. Otherwise this is the kill-point oracle: the
/// run is cut after `kill_step` steps (the "crash") and a cut run faces the
/// prefix oracle — a schedule that finishes before the cut still faces the
/// full one.
[[nodiscard]] Outcome replay(const Subject& subject,
                             const std::string& schedule,
                             std::uint64_t kill_step = 0,
                             std::string* detail = nullptr);

/// Aggregate of an exploration batch.
struct ExploreResult {
    std::uint64_t runs = 0;
    std::vector<Violation> violations;
    stm::StmStats stats;  ///< merged over all runs
};

/// Explores `count` schedules built from `sched_cfg` (keys sched=, depth=,
/// steps=) with per-run seeds derived from `base_seed`, judging every run
/// with the full oracle.
[[nodiscard]] ExploreResult explore(const Subject& subject,
                                    const config::Config& sched_cfg,
                                    std::uint64_t count,
                                    std::uint64_t base_seed);

/// Greedily shrinks a failing schedule string (ddmin-style chunk removal)
/// while its replay still violates the full oracle. Returns the input
/// unchanged when it does not fail.
[[nodiscard]] std::string minimize_schedule(const Subject& subject,
                                            std::string schedule);

}  // namespace tmb::sched
