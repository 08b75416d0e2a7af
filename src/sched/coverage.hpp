// coverage.hpp — behavior signatures for coverage-guided schedule fuzzing.
//
// The harness (harness.hpp) already makes every explored run deterministic
// and oracle-checked; what blind sampling lacks is a notion of whether a
// new schedule *did anything new*. This layer hashes each run into a
// 64-bit behavior signature built from three ingredients the run produces
// for free:
//
//   1. Per-thread yield-event edges, AFL-style. Every scheduler step parks
//      the granted thread at a (YieldPoint, YieldSite) event; consecutive
//      events of the SAME thread form an edge, hashed into a fixed bucket
//      array whose hit counts are collapsed into AFL's coarse count
//      classes (1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+). Two runs differ
//      only when some thread traversed a different branch sequence — or
//      the same sequence a categorically different number of times.
//   2. The backend-branch bits carried by YieldSite: an eager acquire, a
//      lazy commit-lock, a TL2 load, a depot refill and an engine swap are
//      distinct vocabulary even when their YieldPoint kind coincides.
//   3. A quantized StmStats vector (aborts, false conflicts, clock CAS
//      failures, allocator cache hits/misses, retire flushes, policy
//      switches, ... — each reduced to its bit width), so runs that
//      interleave identically but stress a counter into a new magnitude
//      still count as new behavior.
//
// Identical runs produce identical signatures (everything hashed is a pure
// function of the replayed execution), so a CoverageMap never reports
// false "new coverage" for a replay — test-asserted.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>

#include "sched/schedule.hpp"
#include "stm/sched_hook.hpp"
#include "stm/stm.hpp"

namespace tmb::sched {

/// Edge-bucket count. Power of two; small enough that zeroing one
/// accumulator per run is noise next to the run itself, large enough that
/// the handful of hundreds of distinct edges a run can produce rarely
/// collide.
inline constexpr std::uint32_t kCoverageBuckets = 4096;

/// AFL's count classes: collapses a raw hit count into one of 8 coarse
/// classes (0 is never stored — an untouched bucket contributes nothing).
[[nodiscard]] std::uint32_t coverage_count_class(std::uint32_t count) noexcept;

/// Bit-width quantization for the stats vector: 0 → 0, else 1 + floor(log2).
[[nodiscard]] std::uint32_t coverage_quantize(std::uint64_t value) noexcept;

/// Per-run signature accumulator. The harness feeds it one event per
/// scheduler step; signature() folds the bucketed edge map with the
/// quantized stats vector into the run's 64-bit behavior signature.
class CoverageAccumulator {
public:
    CoverageAccumulator() noexcept { prev_.fill(0); }

    /// Records that `thread` parked at (point, site) after this step.
    void step(std::uint32_t thread, stm::detail::YieldPoint point,
              stm::detail::YieldSite site) noexcept;

    /// Records that `thread` ran to completion on this step.
    void finish(std::uint32_t thread) noexcept;

    /// The run's behavior signature: bucketed edges + quantized stats.
    [[nodiscard]] std::uint64_t signature(
        const stm::StmStats& stats) const noexcept;

private:
    void edge(std::uint32_t thread, std::uint32_t event) noexcept;

    std::array<std::uint32_t, kCoverageBuckets> hits_{};
    /// Last event per thread, +1 (0 = thread not yet seen).
    std::array<std::uint32_t, kMaxScheduleThreads> prev_{};
};

/// The set of distinct behavior signatures an exploration has reached.
class CoverageMap {
public:
    /// True when `signature` was not seen before (and records it).
    bool insert(std::uint64_t signature) {
        return seen_.insert(signature).second;
    }

    [[nodiscard]] bool contains(std::uint64_t signature) const {
        return seen_.count(signature) != 0;
    }

    [[nodiscard]] std::size_t size() const noexcept { return seen_.size(); }

private:
    std::unordered_set<std::uint64_t> seen_;
};

}  // namespace tmb::sched
