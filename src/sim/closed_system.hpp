// closed_system.hpp — the paper's second statistical simulation
// (§4, Figs. 5 and 6).
//
// A closed system of C "threads" executes fixed-size transactions one after
// another for a fixed amount of simulated work — sized so that a
// conflict-free run completes 650 transactions. Thread start times are
// randomly staggered; a transaction that hits a conflict aborts (its table
// entries are removed) and restarts. The simulator counts conflicts and, to
// reproduce Fig. 6(b), measures the *actual* concurrency: the occupancy-
// derived effective number of transactions making forward progress, which
// drops below the applied concurrency when abort rates are high.
#pragma once

#include <cstdint>
#include <vector>

#include "config/config.hpp"
#include "util/rng.hpp"

namespace tmb::sim {

/// Configuration of one closed-system run.
struct ClosedSystemConfig {
    std::uint32_t concurrency = 2;        ///< C, in [1, ownership::kMaxTx]
    std::uint64_t write_footprint = 10;   ///< W per transaction
    double alpha = 2.0;                   ///< reads per write
    /// N. This simulation follows the paper's abstraction of assigning
    /// blocks to random entries directly (identity hash over [0, N)), so
    /// distinct blocks never alias and it runs the tagless table
    /// (AtomicTaglessTable): a tagged one would count the same conflicts
    /// (ablate false conflicts with the trace-alias or hybrid drivers).
    std::uint64_t table_entries = 4096;
    std::uint64_t target_transactions = 650;  ///< completed when conflict-free
    std::uint64_t seed = 1;
};

/// Parses a ClosedSystemConfig from string key/values: `concurrency`,
/// `footprint`, `alpha`, `entries`, `target`, `seed`.
[[nodiscard]] ClosedSystemConfig closed_system_config_from(
    const config::Config& cfg);

/// Result of one closed-system run.
struct ClosedSystemResult {
    std::uint64_t conflicts = 0;     ///< aborts observed during the run
    std::uint64_t commits = 0;       ///< transactions completed in the budget
    double mean_occupancy = 0.0;     ///< average non-free table entries
    /// Occupancy-derived effective concurrency (Fig. 6(b)'s x-axis):
    /// 2 * mean_occupancy / ((1 + alpha) * W).
    double actual_concurrency = 0.0;
    /// The model's expectation for occupancy with no conflicts:
    /// C * (1+alpha) * W / 2 (the paper verifies this in the low-conflict
    /// regime and reports up to ~40 % less when conflicts are frequent).
    double expected_occupancy_no_conflicts = 0.0;
};

/// Runs the closed-system simulation once.
[[nodiscard]] ClosedSystemResult run_closed_system(const ClosedSystemConfig& config);

/// Config-driven overload (closed_system_config_from).
[[nodiscard]] ClosedSystemResult run_closed_system(const config::Config& cfg);

/// Aggregate of `repeats` closed-system runs. Event counts are kept both as
/// exact totals and as double-valued per-run means — integer-dividing the
/// totals (the old behaviour) silently truncated up to repeats-1 events,
/// rounding the fig5 low-conflict points down.
struct ClosedSystemAverages {
    std::uint32_t repeats = 1;
    std::uint64_t total_conflicts = 0;
    std::uint64_t total_commits = 0;
    double conflicts = 0.0;  ///< mean conflicts per run
    double commits = 0.0;    ///< mean commits per run
    double mean_occupancy = 0.0;
    double actual_concurrency = 0.0;
    double expected_occupancy_no_conflicts = 0.0;
};

/// Averages `repeats` runs with derived seeds (the paper's plots are single
/// runs; averaging tightens the series for the reproduction without changing
/// the trends).
[[nodiscard]] ClosedSystemAverages run_closed_system_averaged(
    const ClosedSystemConfig& config, std::uint32_t repeats);

}  // namespace tmb::sim
