// policy.hpp — the decision function of the contention-adaptive runtime.
//
// The adaptive backend (adaptive_stm.cpp) samples one *epoch* of execution
// — N committed transactions over the currently mounted engine — and asks
// `decide` whether the next epoch should run on a different engine shape.
// The decision is a pure function of (policy knobs, current shape, initial
// shape, epoch sample): no wall clock, no randomness, so a scheduled run
// in the sched harness replays bit-for-bit and every transition a test
// provokes is provable.
//
// The auto policy's resize rule is the paper's birthday model made
// operational. With C concurrent transactions of footprint W blocks over a
// tagless table of N entries, the expected alias (false-conflict) pairs per
// transaction are ≈ (C-1)·W²/(2N) — the per-transaction share of the
// paper's C(C-1)W²/2N pairwise count (core/birthday.hpp). When the
// *measured* false-conflict rate of an epoch exceeds the policy threshold,
// the model is inverted to find the smallest power-of-two N' that predicts
// a comfortably lower rate; if no N' under the growth cap works (or hot
// spots make the measurement exceed the model by far), the policy switches
// to the tagged organization, which cannot false-conflict at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "stm/stm.hpp"

namespace tmb::adapt {

/// Thresholds and mode of the decision function. Parsed from
/// StmConfig::adapt; the numeric thresholds are engine defaults (not yet
/// config keys) chosen in bench/ext_phase_adaptive.cpp's phase experiments.
struct PolicyConfig {
    enum class Kind { kOff, kAuto, kCycle };
    Kind kind = Kind::kAuto;
    std::uint64_t epoch_commits = 4096;
    std::uint64_t max_entries = std::uint64_t{1} << 22;

    /// Auto thresholds. An epoch with fewer than min_commits *attempts*
    /// (commits + aborts) is ignored (too noisy to act on).
    std::uint64_t min_commits = 32;
    double abort_hi = 0.75;   ///< lazy → eager: upgrade starvation escape
    double abort_lo = 0.02;   ///< lazy → eager / gv1 → gv5 below this
    double false_hi = 0.02;   ///< false conflicts per commit triggering resize
    double clock_hi = 0.05;   ///< clock CAS failures per commit: gv5 → gv1
};

/// Parses StmConfig::adapt (policy name + epoch/cap knobs) into a
/// PolicyConfig. Throws std::invalid_argument on an unknown policy name.
[[nodiscard]] PolicyConfig policy_config_from(const stm::AdaptConfig& cfg);

/// What one epoch measured, as deltas over the epoch.
struct EpochSample {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    /// Transactional loads+stores issued by the *successful* attempts of
    /// the epoch's commits — footprint in accesses, ≈ 2·W for the
    /// read-modify-write workloads (counted per access, not per unique
    /// block, so the derived W overestimates and resizes err large).
    std::uint64_t accesses = 0;
    std::uint64_t true_conflicts = 0;
    std::uint64_t false_conflicts = 0;
    std::uint64_t clock_cas_failures = 0;
    /// Live contexts when the epoch closed — the model's C.
    std::uint32_t concurrency = 1;

    [[nodiscard]] double abort_rate() const noexcept {
        const double attempts =
            static_cast<double>(commits) + static_cast<double>(aborts);
        return attempts > 0.0 ? static_cast<double>(aborts) / attempts : 0.0;
    }
    [[nodiscard]] double per_commit(std::uint64_t counter) const noexcept {
        return commits ? static_cast<double>(counter) /
                             static_cast<double>(commits)
                       : 0.0;
    }
    /// Mean footprint of a committed transaction in blocks (accesses/2,
    /// floor 1): the model's W.
    [[nodiscard]] double footprint_blocks() const noexcept {
        const double w = per_commit(accesses) / 2.0;
        return w < 1.0 ? 1.0 : w;
    }
};

/// Birthday-model prediction: expected false conflicts per committed
/// transaction for concurrency C, footprint W blocks, table size N —
/// (C-1)·W²/(2N).
[[nodiscard]] double predicted_false_per_commit(std::uint32_t concurrency,
                                                double footprint_blocks,
                                                std::uint64_t entries);

/// Smallest power-of-two entry count in [at_least, max_entries] whose
/// predicted false-conflict rate is below `target`; 0 when none qualifies.
[[nodiscard]] std::uint64_t entries_for_target(std::uint32_t concurrency,
                                               double footprint_blocks,
                                               double target,
                                               std::uint64_t at_least,
                                               std::uint64_t max_entries);

/// The decision: nullopt to keep the current shape, otherwise the full
/// StmConfig the next epoch's engine is built from. `current` is the live
/// engine's config, `initial` the shape the Stm was constructed with (the
/// cycle policy's home position). Never crosses engine families.
[[nodiscard]] std::optional<stm::StmConfig> decide(
    const PolicyConfig& policy, const stm::StmConfig& current,
    const stm::StmConfig& initial, const EpochSample& sample);

/// One-line human-readable engine shape, e.g.
/// "table=tagless entries=16384 locks=eager" or "tl2 clock=gv5".
[[nodiscard]] std::string engine_spec(const stm::StmConfig& cfg);

}  // namespace tmb::adapt
