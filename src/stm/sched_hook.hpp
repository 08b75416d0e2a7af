// sched_hook.hpp — scheduling yield points for deterministic interleaving
// exploration.
//
// The schedule-exploration harness (src/sched/) runs N logical transactions
// under a cooperative turnstile: exactly one virtual thread executes at a
// time, and control transfers only at *yield points*. The STM runtime and
// its backends call `scheduler_yield(point)` at every boundary where real
// concurrency could interleave:
//
//   kTxBegin  — first attempt of an atomically() call is about to start
//   kRetry    — a conflict-aborted attempt is about to re-execute
//   kAcquire* — a backend is about to acquire conflict metadata for a
//               transactional access (the paper's contended operation)
//   kCommit   — the attempt body finished; commit is about to run. The
//               commit itself executes as ONE step (no yields inside), so
//               the order in which commits complete is the serialization
//               order for every backend — the property the serializability
//               oracle replays against.
//
// In the real engine no hook is installed: `tls_scheduler_hook` is a
// thread-local null pointer and `scheduler_yield` is a single predictable
// branch — the production fast path is untouched. The harness installs a
// hook per virtual thread; a yield may throw (the harness cancels runaway
// runs that way), so backends treat it like any body exception.
//
// TestFaults deliberately breaks a backend so tests can prove the
// serializability oracle actually detects broken executions (a harness that
// only ever passes proves nothing). Production code never sets these.
#pragma once

#include <atomic>
#include <cstdint>

namespace tmb::stm::detail {

/// Stable identifier of the *call site* emitting a yield — the backend
/// branch the runtime was in when it yielded. The schedule-exploration
/// coverage signature (sched/coverage.hpp) hashes (site, point) pairs, so
/// two runs that interleave the same YieldPoint kinds through *different*
/// backend branches (eager acquire vs lazy commit-lock, depot refill vs
/// heap) still count as distinct behavior. IDs are part of the recorded
/// corpus vocabulary: append new sites at the end, never renumber.
enum class YieldSite : std::uint8_t {
    kRunBegin = 0,         ///< Stm::run_in attempt loop (begin + retry)
    kRunCommit = 1,        ///< Stm::run_in pre-commit
    kTableAcquire = 2,     ///< eager table acquire (read or write)
    kTableLazyRead = 3,    ///< lazy table encounter-time read acquire
    kTableLazyCommit = 4,  ///< lazy table commit-time lock acquisition
    kTl2Load = 5,          ///< TL2 versioned load
    // 6 is retired (a removed engine's acquire site): never reuse it, so
    // recorded corpus signatures keep their meaning.
    kAdaptDrain = 7,       ///< adaptive begin parked behind a pending swap
    kAdaptSwap = 8,        ///< adaptive quiesce-and-swap transition
    kTxAlloc = 9,          ///< tx_alloc about to allocate
    kTxFree = 10,          ///< tx_free about to record the deferred free
    kReclaimPoll = 11,     ///< ReclaimDomain::poll reclamation pass
    kCacheRefill = 12,     ///< magazine miss about to take the depot lock
    kCacheSpill = 13,      ///< overfull magazine spilling to the depot
    kShardFlush = 14,      ///< retire-buffer batch joining the retired list
    /// Adaptive-policy *decision* sites: which transition the staged config
    /// represents, announced from the same begin-path position as
    /// kAdaptSwap. Splitting resize from engine-switch lets the coverage
    /// signature distinguish interleavings around a table regrow from those
    /// around a tag/locks/clock flip.
    kAdaptResize = 15,        ///< staged config changes table.entries
    kAdaptEngineSwitch = 16,  ///< staged config changes engine/tag/locks/clock
    /// Service harness (src/svc/): submission-queue push, dispatcher pop,
    /// and per-request response/acknowledge.
    kSvcEnqueue = 17,
    kSvcDequeue = 18,
    kSvcRespond = 19,
};
/// One past the largest YieldSite value (coverage table sizing).
inline constexpr std::uint32_t kYieldSiteCount = 20;

enum class YieldPoint : std::uint8_t {
    kTxBegin = 0,   ///< first attempt of an atomically() call
    kRetry = 1,     ///< re-execution after a conflict abort
    kAcquireRead = 2,
    kAcquireWrite = 3,
    kCommit = 4,    ///< commit about to run (executes as one step)
    /// The adaptive backend is about to quiesce-and-swap its wrapped
    /// engine (no transaction in flight). Emitted from the *begin* path
    /// only — never between a commit and its completion — so the
    /// commit-order serializability argument above is unaffected.
    kPolicySwitch = 5,
    /// Transactional memory management (txalloc.hpp). kAlloc / kFree fire
    /// inside the attempt body (before the allocation / the deferred-free
    /// record); kReclaim fires in ReclaimDomain::poll, which the runtime
    /// calls only *before* an attempt loop starts — never between a commit
    /// and its completion — keeping the commit-order argument intact.
    kAlloc = 6,
    kFree = 7,
    kReclaim = 8,
    /// Allocator maintenance (txalloc.hpp). kCacheRefill fires in tx_alloc
    /// before a magazine miss takes the shared depot lock; kCacheSpill /
    /// kShardFlush fire in ReclaimDomain::maintain before an overfull
    /// magazine spills to the depot / a retire-buffer batch joins the
    /// domain's retired list. All three run from the same pre-attempt /
    /// attempt-body positions as kAlloc and kReclaim — never between a
    /// commit and its completion — so the commit-order argument is
    /// unaffected.
    kCacheRefill = 9,
    kCacheSpill = 10,
    kShardFlush = 11,
    /// Service harness (src/svc/). kSvcSubmit fires in client loops around
    /// submission-queue operations; kSvcDispatch fires in dispatcher loops
    /// around dequeue/batch/respond steps. Both run strictly outside any
    /// transaction attempt — never between a commit and its completion — so
    /// the commit-order serializability argument is unaffected.
    kSvcSubmit = 12,
    kSvcDispatch = 13,
};

/// Cooperative scheduler interface; one instance per virtual thread.
class SchedulerHook {
public:
    virtual ~SchedulerHook() = default;

    /// Called at every yield point of the installing thread. `site` names
    /// the backend branch the yield came from (stable across builds).
    /// Blocks until the scheduler grants the next step; may throw to
    /// cancel the run.
    virtual void yield(YieldPoint point, YieldSite site) = 0;
};

/// The calling thread's installed hook (null in the real engine).
inline thread_local SchedulerHook* tls_scheduler_hook = nullptr;

/// Installs `hook` for the calling thread, returning the previous one so
/// scopes can nest/restore. Pass nullptr to uninstall.
inline SchedulerHook* install_scheduler_hook(SchedulerHook* hook) noexcept {
    SchedulerHook* previous = tls_scheduler_hook;
    tls_scheduler_hook = hook;
    return previous;
}

/// The yield point the runtime and backends call. No-op (one branch on a
/// thread-local) when no hook is installed; the site argument is a
/// compile-time constant at every call site, so the production fast path
/// is unchanged.
inline void scheduler_yield(YieldPoint point, YieldSite site) {
    if (tls_scheduler_hook != nullptr) [[unlikely]] {
        tls_scheduler_hook->yield(point, site);
    }
}

/// Test-only fault injection. Setting a flag makes the named backend
/// *silently skip* part of its conflict protocol, producing executions that
/// are not serializable — which the sched harness's oracle must catch.
/// Relaxed atomics: the flags are toggled only at quiescent points in tests.
struct TestFaults {
    /// Table backend: a failed ownership acquire proceeds as if it
    /// had succeeded (without recording ownership) instead of aborting —
    /// dirty reads and racy in-place writes.
    std::atomic<bool> ignore_acquire_conflicts{false};
    /// TL2: commit skips read-set validation — a writer can commit having
    /// read state that another transaction overwrote since begin().
    std::atomic<bool> skip_tl2_validation{false};
    /// txalloc: committed tx_free releases the block immediately instead of
    /// retiring it into the epoch pipeline — doomed readers then touch
    /// freed memory, which the harness's lifetime oracle must catch.
    std::atomic<bool> eager_reclaim{false};
    /// txalloc: committed tx_free of a cacheable block feeds the per-context
    /// magazine directly, skipping the epoch pipeline and ignoring the
    /// reclaim observer's impound verdict — a later tx_alloc then hands out
    /// a block the lifetime oracle still holds, which must surface as an
    /// allocation-time violation. No effect when caching is off.
    std::atomic<bool> leaky_cache{false};
};

/// Process-wide fault block (all flags false unless a test sets them).
[[nodiscard]] inline TestFaults& test_faults() noexcept {
    static TestFaults faults;
    return faults;
}

}  // namespace tmb::stm::detail
