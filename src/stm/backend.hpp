// backend.hpp — internal backend interface of the STM runtime.
//
// A backend owns the conflict-detection metadata (ownership table or
// versioned locks) and implements the transactional load/store/commit
// protocol. One TxContext per in-flight atomically() call carries the
// per-transaction logs; contexts are backend-specific and reused across
// retries of the same transaction.
//
// Protocol per attempt:
//   begin(cx) → { load/store }* → commit(cx) → true
//                                            → false: validation failed, retry
//   any load/store may throw detail::ConflictAbort → abort(cx), retry
//
// Backends synchronize internally; the runtime calls them from arbitrary
// threads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "stm/instrumentation.hpp"
#include "stm/stm.hpp"
#include "stm/txalloc.hpp"

namespace tmb::stm::detail {

/// Legacy name for the unified instrumentation block (instrumentation.hpp);
/// one set of counters per Stm instance, shared by backend and runtime.
using SharedStats = Instrumentation;

/// Per-transaction state; concrete type owned by the backend.
class TxContext {
public:
    virtual ~TxContext();

    /// Folds any statistics accumulated locally in this context into the
    /// backend's shared Instrumentation block. Hot paths accumulate plain
    /// per-context counters and the runtime flushes when a context retires
    /// (Executor destruction, context-pool return), so per-access and
    /// per-commit paths never touch a shared counter. Counters routed this
    /// way are exact at quiescent points.
    virtual void flush_stats() noexcept {}

    /// Binds this context to the runtime's reclamation domain: registers
    /// an epoch pin slot, sizes the free-block cache, assigns a retirement
    /// shard, and enables tx_alloc/tx_free (txalloc.hpp). The runtime binds
    /// every context it hands to a Transaction; the adaptive wrapper's
    /// *inner* contexts stay unbound (only the outer context is ever
    /// visible to the attempt loop).
    void bind_reclaim(ReclaimDomain& domain) {
        reclaim_domain = &domain;
        reclaim_slot = domain.register_slot();
        domain.bind_context(*this);
    }

    /// Transactional-allocation state (txalloc.hpp), applied by the
    /// runtime's attempt loop: rollback on abort, retire on commit,
    /// maintain between attempts.
    TxMemLog mem;
    ReclaimDomain* reclaim_domain = nullptr;
    ReclaimSlot* reclaim_slot = nullptr;
    /// Per-context free-block magazines: tx_alloc pops, rollback and
    /// same-transaction alloc+free pairs push — no shared state touched.
    BlockCache cache;
    /// Commit-deferred frees park here (no lock) until maintain() flushes
    /// a batch into `reclaim_shard`'s striped retirement shard.
    std::vector<RetiredBlock> retire_buffer;
    std::uint32_t reclaim_shard = 0;
    /// Commits since the last reclamation poll (maintain() cadence).
    std::uint32_t maintain_tick = 0;
};

/// Metadata-organization-specific transactional engine.
class Backend {
public:
    virtual ~Backend() = default;

    /// Creates a context for one atomically() call (reused across retries).
    [[nodiscard]] virtual std::unique_ptr<TxContext> make_context() = 0;

    /// Starts (or restarts) an attempt.
    virtual void begin(TxContext& cx) = 0;

    /// Transactional word read; throws ConflictAbort on conflict.
    [[nodiscard]] virtual std::uint64_t load(TxContext& cx,
                                             const std::uint64_t* addr) = 0;

    /// Transactional word write; throws ConflictAbort on conflict.
    virtual void store(TxContext& cx, std::uint64_t* addr,
                       std::uint64_t value) = 0;

    /// Attempts to commit; false means validation failed (retry).
    [[nodiscard]] virtual bool commit(TxContext& cx) = 0;

    /// Rolls back after ConflictAbort (or failed commit cleanup is internal).
    virtual void abort(TxContext& cx) = 0;

    /// Largest number of contexts that can be live simultaneously without
    /// make_context() blocking — 62 (ownership::kMaxAtomicTx) for the table
    /// engine, whichever organization; unbounded for tl2. The execution
    /// engine validates its thread count against this.
    [[nodiscard]] virtual std::uint32_t max_live_contexts() const noexcept {
        return ownership::kMaxTx;
    }

    /// Currently held conflict-metadata entries (ownership-table occupancy;
    /// 0 for backends without a table). Exact only at quiescent points; the
    /// engine's stress tests assert it returns to 0 after all transactions
    /// finish — a nonzero value there means a release was lost.
    [[nodiscard]] virtual std::uint64_t occupied_metadata_entries()
        const noexcept {
        return 0;
    }

    /// Human-readable description of the engine's current shape; "" means
    /// "nothing beyond StmConfig::backend" (the runtime substitutes the
    /// kind name). The adaptive backend overrides this with the live
    /// epoch's engine description.
    [[nodiscard]] virtual std::string describe() const { return ""; }
};

/// Blocks a tagless-table transaction publishes for conflict classification
/// without a lock; the rest spill into a mutex-guarded set.
inline constexpr std::uint32_t kTaglessInlineBlocks = 64;

// Every factory receives the runtime's reclamation domain. The concrete
// engines ignore it (the attempt loop applies TxMemLogs centrally); the
// adaptive wrapper drains it before retiring a swapped-out engine.
[[nodiscard]] std::unique_ptr<Backend> make_tl2_backend(const StmConfig& config,
                                                        SharedStats& stats,
                                                        ReclaimDomain& reclaim);
[[nodiscard]] std::unique_ptr<Backend> make_table_backend(
    const StmConfig& config, SharedStats& stats, ReclaimDomain& reclaim);
/// The epoch-based policy layer (src/adapt/adaptive_stm.cpp); wraps one of
/// the engines above per StmConfig::adapt.
[[nodiscard]] std::unique_ptr<Backend> make_adaptive_backend(
    const StmConfig& config, SharedStats& stats, ReclaimDomain& reclaim);

}  // namespace tmb::stm::detail
