#include "adapt/policy.hpp"

#include <bit>
#include <stdexcept>

namespace tmb::adapt {

namespace {

using stm::BackendKind;
using stm::StmConfig;

/// The deterministic test/fuzz rotation: every transition the adaptive
/// protocol supports, one per epoch, returning home on the fourth. Stages
/// are recognized from the config itself (no hidden state), so replaying a
/// schedule replays the same rotation.
[[nodiscard]] StmConfig cycle_next(const StmConfig& current,
                                   const StmConfig& initial,
                                   const PolicyConfig& policy) {
    StmConfig next = current;
    if (current.backend == BackendKind::kTl2) {
        next.tl2_clock = current.tl2_clock == stm::Tl2Clock::kGv5
                             ? stm::Tl2Clock::kGv1
                             : stm::Tl2Clock::kGv5;
        return next;
    }
    // Table family: initial shape → toggled tag → lazy → grown → initial.
    const bool home_tag = current.backend == initial.backend;
    const bool home_locks =
        current.commit_time_locks == initial.commit_time_locks;
    const bool home_size = current.table.entries == initial.table.entries;
    if (home_tag && home_locks && home_size) {
        next.backend = initial.backend == BackendKind::kTaglessTable
                           ? BackendKind::kTaggedTable
                           : BackendKind::kTaglessTable;
    } else if (!home_tag) {
        next.backend = initial.backend;
        next.commit_time_locks = !initial.commit_time_locks;
    } else if (!home_locks) {
        next.commit_time_locks = initial.commit_time_locks;
        // Growth capped out ⇒ skip the resize stage and go straight home.
        next.table.entries = initial.table.entries * 2 <= policy.max_entries
                                 ? initial.table.entries * 2
                                 : initial.table.entries;
    } else {
        next.table.entries = initial.table.entries;
    }
    return next;
}

[[nodiscard]] std::optional<StmConfig> decide_tl2(const PolicyConfig& policy,
                                                  const StmConfig& current,
                                                  const EpochSample& sample) {
    StmConfig next = current;
    if (current.tl2_clock == stm::Tl2Clock::kGv5 &&
        sample.per_commit(sample.clock_cas_failures) > policy.clock_hi) {
        // The gv5 lag-absorption path is thrashing the clock line harder
        // than plain fetch_add would; fall back to gv1.
        next.tl2_clock = stm::Tl2Clock::kGv1;
        return next;
    }
    if (current.tl2_clock == stm::Tl2Clock::kGv1 &&
        sample.abort_rate() < policy.abort_lo) {
        // Quiet again: gv5 removes the per-commit fetch_add. (The CAS
        // metric itself is silent under gv1 — raise_clock_to never runs —
        // so re-entry keys off the abort rate instead.)
        next.tl2_clock = stm::Tl2Clock::kGv5;
        return next;
    }
    return std::nullopt;
}

[[nodiscard]] std::optional<StmConfig> decide_tables(
    const PolicyConfig& policy, const StmConfig& current,
    const EpochSample& sample) {
    const bool tagless = current.backend == BackendKind::kTaglessTable;
    StmConfig next = current;
    if (tagless && sample.per_commit(sample.false_conflicts) > policy.false_hi) {
        // Aliasing hurts. Grow to where the birthday model predicts a 4x
        // margin under the threshold; if no table under the cap can (or hot
        // spots put the measurement far beyond the uniform model, where
        // growing would not help), the tagged organization ends false
        // conflicts outright.
        const double measured = sample.per_commit(sample.false_conflicts);
        const double modeled = predicted_false_per_commit(
            sample.concurrency, sample.footprint_blocks(),
            current.table.entries);
        const std::uint64_t grown = entries_for_target(
            sample.concurrency, sample.footprint_blocks(), policy.false_hi / 4,
            current.table.entries * 2, policy.max_entries);
        const bool hot_spot = measured > 4.0 * modeled;
        if (grown != 0 && !hot_spot) {
            next.table.entries = grown;
        } else {
            next.backend = BackendKind::kTaggedTable;
        }
        return next;
    }
    // Acquisition-mode rule: the auto policy never *initiates* commit-time
    // acquisition. Under the table engines' sole-reader upgrade rule, lazy
    // acquisition livelocks read-modify-write transactions outright — every
    // reader of a block shares its entry, so no writer can ever upgrade —
    // and the phase experiments measured exactly that (commits/step
    // collapsing by ~400x). Lazy stays reachable explicitly and through the
    // cycle policy; auto only ever *leaves* it: back to eager when calm
    // (eager undo-logging is the cheaper steady state) or when the abort
    // rate shows upgrade starvation.
    if (current.commit_time_locks && (sample.abort_rate() < policy.abort_lo ||
                                      sample.abort_rate() > policy.abort_hi)) {
        next.commit_time_locks = false;
        return next;
    }
    return std::nullopt;
}

}  // namespace

PolicyConfig policy_config_from(const stm::AdaptConfig& cfg) {
    PolicyConfig out;
    if (cfg.policy == "off") {
        out.kind = PolicyConfig::Kind::kOff;
    } else if (cfg.policy == "auto") {
        out.kind = PolicyConfig::Kind::kAuto;
    } else if (cfg.policy == "cycle") {
        out.kind = PolicyConfig::Kind::kCycle;
    } else {
        throw std::invalid_argument("unknown adaptive policy '" + cfg.policy +
                                    "' (known: off, auto, cycle)");
    }
    out.epoch_commits = cfg.epoch_commits ? cfg.epoch_commits : 1;
    out.max_entries = std::bit_floor(cfg.max_entries ? cfg.max_entries
                                                     : std::uint64_t{1} << 22);
    return out;
}

double predicted_false_per_commit(std::uint32_t concurrency,
                                  double footprint_blocks,
                                  std::uint64_t entries) {
    if (concurrency < 2 || entries == 0) return 0.0;
    return static_cast<double>(concurrency - 1) * footprint_blocks *
           footprint_blocks / (2.0 * static_cast<double>(entries));
}

std::uint64_t entries_for_target(std::uint32_t concurrency,
                                 double footprint_blocks, double target,
                                 std::uint64_t at_least,
                                 std::uint64_t max_entries) {
    if (target <= 0.0) return 0;
    std::uint64_t n = std::bit_ceil(at_least < 2 ? std::uint64_t{2} : at_least);
    for (; n != 0 && n <= max_entries; n *= 2) {
        if (predicted_false_per_commit(concurrency, footprint_blocks, n) <
            target) {
            return n;
        }
    }
    return 0;
}

std::optional<stm::StmConfig> decide(const PolicyConfig& policy,
                                     const stm::StmConfig& current,
                                     const stm::StmConfig& initial,
                                     const EpochSample& sample) {
    switch (policy.kind) {
        case PolicyConfig::Kind::kOff: return std::nullopt;
        case PolicyConfig::Kind::kCycle:
            return cycle_next(current, initial, policy);
        case PolicyConfig::Kind::kAuto: break;
    }
    // Gate on *attempts*: a starving configuration (commits ≈ 0, aborts
    // piling up) is exactly the one that must not be ignored for lack of
    // commits — the abort-side epoch boundary exists to escape it.
    if (sample.commits + sample.aborts < policy.min_commits) {
        return std::nullopt;
    }
    if (current.backend == BackendKind::kTl2) {
        return decide_tl2(policy, current, sample);
    }
    return decide_tables(policy, current, sample);
}

std::string engine_spec(const stm::StmConfig& cfg) {
    switch (cfg.backend) {
        case BackendKind::kTl2:
            return std::string("tl2 clock=") +
                   std::string(stm::to_string(cfg.tl2_clock));
        case BackendKind::kTaglessTable:
        case BackendKind::kTaggedTable:
            return std::string("table=") +
                   (cfg.backend == BackendKind::kTaglessTable ? "tagless"
                                                              : "tagged") +
                   " entries=" + std::to_string(cfg.table.entries) +
                   " locks=" + (cfg.commit_time_locks ? "lazy" : "eager");
        case BackendKind::kAdaptive: break;
    }
    return "adaptive";
}

}  // namespace tmb::adapt
