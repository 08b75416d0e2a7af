// open_system.hpp — the paper's first statistical simulation (§4, Fig. 4).
//
// C transactions begin at the same time and proceed in lock step; each
// round-robin step a transaction reads α new random blocks then writes one
// new random block, acquiring the corresponding ownership-table entries.
// The experiment asks: does ANY conflict occur before every transaction has
// written W blocks? Repeating `experiments` times yields a conflict
// likelihood directly comparable to the analytical model (Eqs. 4/8).
//
// The simulation deliberately does NOT assume away intra-transaction
// aliasing (model assumption 5); it measures it, supporting the paper's
// claim that the aliasing rate stays below ~3 % while conflict rates are
// below 50 %.
#pragma once

#include <cstdint>
#include <vector>

#include "config/config.hpp"
#include "util/rng.hpp"

namespace tmb::sim {

/// Configuration of one open-system data point.
struct OpenSystemConfig {
    std::uint32_t concurrency = 2;       ///< C, in [2, ownership::kMaxTx]
    std::uint64_t write_footprint = 10;  ///< W (writes per transaction)
    double alpha = 2.0;                  ///< reads per write
    /// N. Blocks ARE entry indices here (the paper's abstraction), so the
    /// simulation runs the tagless table (AtomicTaglessTable): a tagged one
    /// would count the same conflicts. The trace-alias and hybrid drivers
    /// ablate real aliasing.
    std::uint64_t table_entries = 4096;
    std::uint32_t experiments = 1000;    ///< paper: 1000 per data point
    std::uint64_t seed = 1;

    // Strong isolation (paper §6 extension): non-transactional accesses
    // interleaved per lock-step round. A non-transactional read conflicts
    // with any Write entry; a non-transactional write conflicts with any
    // entry. 0 = weak isolation (the paper's main setting).
    std::uint32_t non_tx_accesses_per_step = 0;  ///< S
    double non_tx_write_fraction = 1.0 / 3.0;    ///< β
};

/// Result of the Monte Carlo at one configuration.
struct OpenSystemResult {
    std::uint32_t experiments = 0;
    std::uint32_t conflicted = 0;  ///< experiments with >= 1 conflict
    /// Experiments whose (first) conflict was caused by a non-transactional
    /// access (strong isolation only; <= conflicted).
    std::uint32_t non_tx_conflicted = 0;
    /// Experiments in which some transaction's new block aliased one of its
    /// OWN previously acquired entries (intra-transaction aliasing).
    std::uint32_t intra_aliased = 0;
    /// Total intra-transaction alias events / total block placements.
    double intra_alias_block_rate = 0.0;

    [[nodiscard]] double conflict_rate() const noexcept {
        return experiments ? static_cast<double>(conflicted) / experiments : 0.0;
    }
    [[nodiscard]] double intra_alias_rate() const noexcept {
        return experiments ? static_cast<double>(intra_aliased) / experiments : 0.0;
    }
};

/// Parses an OpenSystemConfig from string key/values: `concurrency`,
/// `footprint`, `alpha`, `entries`, `experiments`, `seed`,
/// `non_tx_per_step`, `non_tx_write_fraction`.
[[nodiscard]] OpenSystemConfig open_system_config_from(
    const config::Config& cfg);

/// Runs the open-system Monte Carlo at one configuration.
[[nodiscard]] OpenSystemResult run_open_system(const OpenSystemConfig& config);

/// Config-driven overload (open_system_config_from).
[[nodiscard]] OpenSystemResult run_open_system(const config::Config& cfg);

/// Convenience sweep: one result per write footprint in `footprints`, all
/// other parameters fixed.
[[nodiscard]] std::vector<OpenSystemResult> sweep_footprint(
    OpenSystemConfig base, const std::vector<std::uint64_t>& footprints);

}  // namespace tmb::sim
