// instrumentation.hpp — the unified per-backend instrumentation block.
//
// Every STM backend (tl2 / table / adaptive) reports into one `Instrumentation`
// struct owned by its `Stm` instance: commit/abort counts, the paper's
// true- vs false-conflict classification, and a per-transaction retry
// histogram (how many attempts each committed transaction needed — the
// user-visible cost of the false conflicts the paper models). All counters
// are relaxed atomics; `Stm::stats()` snapshots them into the value-type
// `StmStats` handed to callers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "util/histogram.hpp"

namespace tmb::stm::detail {

struct Instrumentation {
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts{0};            ///< conflict-induced
    std::atomic<std::uint64_t> explicit_retries{0};  ///< Transaction::retry()
    /// Table backends classify each conflict by checking whether any
    /// conflicting transaction actually holds the same block: same block →
    /// true conflict; different blocks aliasing to one entry → false
    /// conflict (tagless only; tagged tables never report one).
    std::atomic<std::uint64_t> true_conflicts{0};
    std::atomic<std::uint64_t> false_conflicts{0};
    /// TL2 only: read-set entries recorded (post-dedup — one per *unique*
    /// stripe lock read) and lock words examined by commit-time validation
    /// plus read-version extension. With the dedup filter in place,
    /// validation work per commit equals the unique-stripe count, not the
    /// load count; tests assert exactly that. Backends accumulate these as
    /// plain counters in the TxContext and flush when the context retires
    /// (TxContext::flush_stats), so no hot path touches a shared counter;
    /// exact at quiescent points.
    std::atomic<std::uint64_t> tl2_read_set_entries{0};
    std::atomic<std::uint64_t> tl2_validation_checks{0};
    /// TL2 only: failed CAS iterations while advancing the global version
    /// clock (the gv5 conflict path and failed gv1-style publishes). The
    /// clock cache line is the hottest contended word in classic TL2; this
    /// counter is the adaptive layer's signal for gv5 vs gv1 selection.
    std::atomic<std::uint64_t> clock_cas_failures{0};
    /// Adaptive backend only: completed engine swaps (any strategy change)
    /// and the subset that changed the ownership-table entry count.
    std::atomic<std::uint64_t> policy_switches{0};
    std::atomic<std::uint64_t> table_resizes{0};

    /// Attempts-per-committed-transaction histogram: bucket i (1-based)
    /// counts transactions that committed on attempt i; the last bucket
    /// accumulates everything beyond kMaxTrackedAttempts.
    static constexpr std::uint32_t kMaxTrackedAttempts = 32;
    std::array<std::atomic<std::uint64_t>, kMaxTrackedAttempts + 1>
        attempt_buckets{};

    /// Records a commit that succeeded on attempt `attempts` (>= 1).
    void record_commit(std::uint32_t attempts) noexcept {
        commits.fetch_add(1, std::memory_order_relaxed);
        const std::uint32_t bucket =
            attempts == 0 ? 1
            : attempts > kMaxTrackedAttempts ? kMaxTrackedAttempts + 1
                                             : attempts;
        attempt_buckets[bucket - 1].fetch_add(1, std::memory_order_relaxed);
    }

    /// Rebuilds the attempts histogram as a value type (overflow mass lands
    /// in the histogram's own overflow bucket).
    [[nodiscard]] util::Histogram attempts_histogram() const {
        util::Histogram h(kMaxTrackedAttempts);
        for (std::uint32_t i = 0; i < kMaxTrackedAttempts; ++i) {
            const std::uint64_t n =
                attempt_buckets[i].load(std::memory_order_relaxed);
            if (n) h.add(i + 1, n);
        }
        const std::uint64_t over =
            attempt_buckets[kMaxTrackedAttempts].load(std::memory_order_relaxed);
        if (over) h.add(kMaxTrackedAttempts + 1, over);
        return h;
    }
};

}  // namespace tmb::stm::detail
