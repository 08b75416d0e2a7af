// hybrid_tm.hpp — a discrete-event simulator of a hybrid transactional
// memory (the paper's motivating context, §1 and §2.3/§6 conclusions).
//
// A hybrid TM runs transactions in hardware (HTM mode: read/write sets
// tracked in the L1 data cache, conflicts via coherence — no false
// conflicts) and falls back to a software path when a transaction's
// footprint overflows the cache. The SOFTWARE path tracks conflicts in an
// ownership table, so its behaviour depends on the table organization —
// exactly the paper's subject.
//
// The simulator reproduces the paper's conclusion quantitatively: with a
// tagless fallback table, overflowed transactions suffer alias-induced
// aborts that drive their effective concurrency toward 1, while a tagged
// fallback scales. Workload true conflicts are zero by construction
// (disjoint per-thread footprints), so every observed abort is the
// metadata's fault.
//
// Time model: one tick = one new cache block added per running transaction
// (matching sim::ClosedSystem). HTM transactions never conflict and commit
// after `footprint` ticks unless they overflow (decided up front by
// replaying the footprint through a private cache simulator, amortized via
// a per-thread overflow decision cache). Overflowed transactions restart in
// STM mode, acquiring ownership-table entries block by block; a failed
// acquire aborts and restarts the transaction (entries released).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "config/config.hpp"
#include "ownership/any_table.hpp"
#include "util/rng.hpp"

namespace tmb::hybrid {

/// Transaction-size mix: small transactions fit the HTM; large ones
/// overflow and take the STM path.
struct WorkloadMix {
    /// Fraction of transactions that are "large" (sized to overflow).
    double large_fraction = 0.1;
    std::uint64_t small_blocks = 16;   ///< footprint of a small transaction
    std::uint64_t large_blocks = 256;  ///< footprint of a large transaction
    double alpha = 2.0;                ///< reads per write (both sizes)
};

struct HybridConfig {
    std::uint32_t threads = 4;
    cache::CacheGeometry htm_cache{};  ///< paper: 32KB 4-way 64B
    /// STM-fallback ownership-table organization, "tagless" or "tagged"
    /// (any_table.hpp) — the paper's ablation axis.
    std::string stm_table = "tagless";
    std::uint64_t stm_table_entries = 1u << 16;
    WorkloadMix mix{};
    std::uint64_t ticks = 50'000;  ///< simulated duration
    std::uint64_t seed = 1;
};

/// Parses a HybridConfig from string key/values: `threads`, `table`,
/// `entries`, `large_fraction`, `small_blocks`, `large_blocks`, `alpha`,
/// `ticks`, `seed`, and the cache geometry `cache_kb`, `cache_ways`,
/// `cache_block`, `victim_entries`.
[[nodiscard]] HybridConfig hybrid_config_from(const config::Config& cfg);

struct HybridResult {
    std::uint64_t htm_commits = 0;
    std::uint64_t stm_commits = 0;
    std::uint64_t stm_aborts = 0;   ///< alias-induced (workload is conflict-free)
    std::uint64_t overflows = 0;    ///< HTM→STM fallbacks
    /// Committed STM work per tick while at least one STM transaction was
    /// running: (sum of committed STM footprints) / (ticks with STM
    /// activity). This is the overflowed transactions' *useful* effective
    /// concurrency: wasted (aborted-and-redone) work does not count. With no
    /// aborts it equals the number of STM threads; the paper predicts it
    /// collapses toward (or below) 1 for a tagless fallback.
    double stm_effective_concurrency = 0.0;
    /// Commits per 1000 ticks, split by path.
    [[nodiscard]] double htm_throughput(const HybridConfig& c) const noexcept {
        return 1000.0 * static_cast<double>(htm_commits) /
               static_cast<double>(c.ticks);
    }
    [[nodiscard]] double stm_throughput(const HybridConfig& c) const noexcept {
        return 1000.0 * static_cast<double>(stm_commits) /
               static_cast<double>(c.ticks);
    }
    [[nodiscard]] double stm_abort_ratio() const noexcept {
        const auto attempts = stm_commits + stm_aborts;
        return attempts ? static_cast<double>(stm_aborts) /
                              static_cast<double>(attempts)
                        : 0.0;
    }
};

/// Runs the hybrid-TM simulation.
[[nodiscard]] HybridResult run_hybrid_tm(const HybridConfig& config);

/// Config-driven overload (fallback organization selected by `table=`).
[[nodiscard]] HybridResult run_hybrid_tm(const config::Config& cfg);

/// The hybrid TM as a component: parses its configuration once (from a
/// Config or a ready HybridConfig) and runs the simulation on demand, so
/// drivers hold one object instead of a (config, function) pair.
class HybridTm {
public:
    explicit HybridTm(HybridConfig config) : config_(std::move(config)) {}
    explicit HybridTm(const config::Config& cfg)
        : HybridTm(hybrid_config_from(cfg)) {}

    [[nodiscard]] const HybridConfig& config() const noexcept { return config_; }

    /// One full simulation with this configuration (stateless across runs).
    [[nodiscard]] HybridResult run() const { return run_hybrid_tm(config_); }

private:
    HybridConfig config_;
};

/// Decides whether a transaction of `footprint_blocks` blocks (with the
/// given read/write mix) overflows the HTM cache, by replaying a synthetic
/// footprint through a fresh cache of the given geometry. Exposed for tests.
[[nodiscard]] bool htm_overflows(const cache::CacheGeometry& geometry,
                                 std::uint64_t footprint_blocks,
                                 std::uint64_t seed);

}  // namespace tmb::hybrid
