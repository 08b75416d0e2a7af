// table_backend.cpp — the ownership-table STM engine (tagless or tagged).
//
// This is the organization the paper analyzes: transactional accesses are
// tracked at cache-block granularity in a central ownership table (strict
// two-phase locking). A conflicting acquire aborts the acquiring
// transaction immediately (no waiting → no deadlock), rolls back, and
// retries. Reads always acquire ownership at encounter; writes either
//
//   * eager — acquire write ownership at first write and update in place
//     under an undo log, or
//   * lazy (commit_time_locks) — go to a redo buffer and acquire write
//     ownership inside commit(), one entry at a time, before write-back.
//
// Both disciplines share one acquire / classify / release core, templated
// on the organization:
//
//   * tagless — ownership::AtomicTaglessTable: one word per entry, one CAS
//     per acquire, no lock on the acquire or release path (paper §2.1's
//     appeal to implementers). A failed acquire is classified by looking
//     the block up in the conflicting slots' footprints (true: one of them
//     holds this very block; false: only an alias). A footprint has one
//     writer, its slot's transaction, which publishes a block once, when it
//     first acquires it (a read-to-write upgrade publishes nothing): a
//     relaxed store into the next cell of a fixed inline array, then a
//     release store of the count. A classifier acquire-loads the count and
//     scans that prefix. Blocks past the array (kTaglessInlineBlocks) spill
//     into a mutex-guarded set, so a transaction holding at most that many
//     blocks takes no lock: an acquire is the entry CAS alone.
//     Under the sched harness one virtual thread runs at a time and acquire
//     plus publish are one step, so the split is exact; on real threads a
//     conflicting transaction may finish, or start another, between the
//     failed CAS and the lookup, so it is best-effort.
//   * tagged — ownership::TaggedTable, a single-threaded structure behind
//     one mutex. A tagged conflict is on the same block by construction,
//     so it is always a true conflict.
//
// Both organizations cap concurrency at kMaxAtomicTx (62) transactions: the
// adaptive wrapper quotes its initial engine's capacity and may later swap
// tagged for tagless, so the whole family hands out one TxId range.
//
// Per-transaction state is allocation-free (stm/txlocal.hpp): the block →
// mode map is a SmallMap (inline storage, O(1) epoch clear), a tagless
// footprint is a fixed array (its spill set a SmallSet), and the undo/redo
// logs keep their capacity across retries and transactions. A steady-state
// transaction run through an Executor performs zero heap allocations.

#include <array>
#include <atomic>
#include <bit>
#include <mutex>
#include <vector>

#include "ownership/atomic_tagless_table.hpp"
#include "ownership/tagged_table.hpp"
#include "stm/backend.hpp"
#include "stm/sched_hook.hpp"
#include "stm/slot_pool.hpp"
#include "stm/txlocal.hpp"
#include "util/bits.hpp"

namespace tmb::stm::detail {

namespace {

using ownership::AcquireResult;
using ownership::kMaxAtomicTx;
using ownership::Mode;
using ownership::TxId;

/// Block → strongest mode one transaction holds.
using BlockModes = SmallMap<std::uint64_t, Mode>;

[[nodiscard]] AcquireResult acquire_in(auto& table, TxId slot,
                                       std::uint64_t block, Mode mode) {
    return mode == Mode::kWrite ? table.acquire_write(slot, block)
                                : table.acquire_read(slot, block);
}

/// Tagless organization: the lock-free table plus, per slot, the blocks the
/// slot's transaction holds (padded so slots do not share a cache line; see
/// the file header for how they are published).
class TaglessOwnership {
public:
    explicit TaglessOwnership(const ownership::TableConfig& shape)
        : table_(shape) {}

    [[nodiscard]] AcquireResult acquire(TxId slot, std::uint64_t block,
                                        Mode mode) {
        return acquire_in(table_, slot, block, mode);
    }

    /// Adds `block` to `slot`'s footprint. Only the slot's transaction
    /// calls this, once per block it newly holds.
    void publish(TxId slot, std::uint64_t block) {
        Footprint& fp = footprints_[slot];
        const std::uint32_t n = fp.count.load(std::memory_order_relaxed);
        if (n < kTaglessInlineBlocks) {
            fp.blocks[n].store(block, std::memory_order_relaxed);
            fp.count.store(n + 1, std::memory_order_release);
            return;
        }
        const std::lock_guard<std::mutex> guard(fp.mutex);
        fp.spill.insert(block);
    }

    /// True iff one of the `conflicting` slots holds `block` itself.
    [[nodiscard]] bool same_block(std::uint64_t block,
                                  std::uint64_t conflicting) {
        while (conflicting != 0) {
            const auto slot =
                static_cast<std::uint32_t>(std::countr_zero(conflicting));
            conflicting &= conflicting - 1;
            if (footprints_[slot].contains(block)) return true;
        }
        return false;
    }

    void release_all(TxId slot, const BlockModes& held) {
        held.for_each([&](std::uint64_t block, Mode mode) {
            table_.release(slot, block, mode);
        });
        Footprint& fp = footprints_[slot];
        // The owner is the spill's only writer, so it may test it unlocked.
        if (!fp.spill.empty()) {
            const std::lock_guard<std::mutex> guard(fp.mutex);
            fp.spill.clear();
        }
        fp.count.store(0, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t occupied_entries() const noexcept {
        return table_.occupied_entries();
    }

private:
    struct alignas(64) Footprint {
        std::atomic<std::uint32_t> count{0};
        std::array<std::atomic<std::uint64_t>, kTaglessInlineBlocks> blocks;
        std::mutex mutex;  ///< guards spill
        SmallSet<std::uint64_t> spill;

        [[nodiscard]] bool contains(std::uint64_t block) {
            const std::uint32_t n = count.load(std::memory_order_acquire);
            for (std::uint32_t i = 0; i < n; ++i) {
                if (blocks[i].load(std::memory_order_relaxed) == block) {
                    return true;
                }
            }
            if (n < kTaglessInlineBlocks) return false;
            const std::lock_guard<std::mutex> guard(mutex);
            return spill.contains(block);
        }
    };

    ownership::AtomicTaglessTable table_;
    std::array<Footprint, kMaxAtomicTx> footprints_;
};

/// Tagged organization: the chaining table behind one mutex.
class TaggedOwnership {
public:
    explicit TaggedOwnership(const ownership::TableConfig& shape)
        : table_(shape) {}

    [[nodiscard]] AcquireResult acquire(TxId slot, std::uint64_t block,
                                        Mode mode) {
        const std::lock_guard<std::mutex> guard(mutex_);
        return acquire_in(table_, slot, block, mode);
    }

    /// Tags make every conflict one on the block itself, so there is no
    /// footprint to publish to.
    static void publish(TxId /*slot*/, std::uint64_t /*block*/) {}

    [[nodiscard]] static bool same_block(std::uint64_t /*block*/,
                                         std::uint64_t /*conflicting*/) {
        return true;
    }

    void release_all(TxId slot, const BlockModes& held) {
        const std::lock_guard<std::mutex> guard(mutex_);
        held.for_each([&](std::uint64_t block, Mode mode) {
            table_.release(slot, block, mode);
        });
    }

    [[nodiscard]] std::uint64_t occupied_entries() const noexcept {
        const std::lock_guard<std::mutex> guard(mutex_);
        return table_.occupied_entries();
    }

private:
    mutable std::mutex mutex_;
    ownership::TaggedTable table_;
};

struct UndoEntry {
    std::uint64_t* addr;
    std::uint64_t old_value;
};

class TableContext final : public TxContext {
public:
    TableContext(SlotPool& slots, TxId slot) : slots_(slots), slot_(slot) {}
    ~TableContext() override { slots_.release(slot_); }

    SlotPool& slots_;
    const TxId slot_;
    BlockModes held_;
    std::vector<UndoEntry> undo_;  ///< eager: in-place writes, oldest first
    /// Lazy: one entry per address in first-write order (rewrites update in
    /// place), with the shared scan-then-index lookup.
    WriteLog redo_;
};

template <typename Ownership, bool kLazy>
class TableBackend final : public Backend {
public:
    TableBackend(const StmConfig& config, SharedStats& stats)
        : stats_(stats),
          block_shift_(util::log2_pow2(util::next_pow2(config.block_bytes))),
          ownership_(config.table),
          slots_(kMaxAtomicTx) {}

    std::unique_ptr<TxContext> make_context() override {
        return std::make_unique<TableContext>(slots_, slots_.acquire());
    }

    std::uint32_t max_live_contexts() const noexcept override {
        return kMaxAtomicTx;
    }

    std::uint64_t occupied_metadata_entries() const noexcept override {
        return ownership_.occupied_entries();
    }

    void begin(TxContext& cx_base) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        cx.held_.clear();
        cx.undo_.clear();
        cx.redo_.clear();
    }

    std::uint64_t load(TxContext& cx_base, const std::uint64_t* addr) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        if constexpr (kLazy) {
            // Read-your-own-write from the redo buffer.
            if (const WriteLog::Entry* entry = cx.redo_.find(addr)) {
                return entry->value;
            }
        }
        const std::uint64_t block = block_of(addr);
        if (!cx.held_.contains(block)) {
            scheduler_yield(YieldPoint::kAcquireRead,
                            kLazy ? YieldSite::kTableLazyRead
                                  : YieldSite::kTableAcquire);
            if (!acquire(cx, block, Mode::kRead)) throw ConflictAbort{};
        }
        return *addr;  // safe: >= read ownership until transaction end (2PL)
    }

    void store(TxContext& cx_base, std::uint64_t* addr,
               std::uint64_t value) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        if constexpr (kLazy) {
            // Ownership deferred to commit.
            if (WriteLog::Entry* entry = cx.redo_.find(addr)) {
                entry->value = value;
            } else {
                cx.redo_.push(addr, value);
            }
        } else {
            const std::uint64_t block = block_of(addr);
            const Mode* held = cx.held_.find(block);
            if (held == nullptr || *held != Mode::kWrite) {
                scheduler_yield(YieldPoint::kAcquireWrite,
                                YieldSite::kTableAcquire);
                if (!acquire(cx, block, Mode::kWrite)) throw ConflictAbort{};
            }
            cx.undo_.push_back({addr, *addr});
            *addr = value;  // in place, exclusive under write ownership
        }
    }

    bool commit(TxContext& cx_base) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        if constexpr (kLazy) {
            // Each commit-time acquire is a scheduling point, so two lazy
            // commits may interleave here. Any two that both succeed have
            // compatible lock sets (a conflicting pair aborts one), so
            // commit-completion order stays a valid serialization order.
            for (const WriteLog::Entry& entry : cx.redo_.entries()) {
                const std::uint64_t block = block_of(entry.addr);
                const Mode* held = cx.held_.find(block);
                if (held != nullptr && *held == Mode::kWrite) continue;
                try {
                    scheduler_yield(YieldPoint::kAcquireWrite,
                                    YieldSite::kTableLazyCommit);
                } catch (...) {
                    release_all(cx);  // cancellation: clean exit
                    throw;
                }
                if (!acquire(cx, block, Mode::kWrite)) {
                    release_all(cx);
                    return false;  // retry
                }
            }
            // Write back under exclusive ownership (one entry per address,
            // each holding its final value).
            for (const WriteLog::Entry& entry : cx.redo_.entries()) {
                *entry.addr = entry.value;
            }
        }
        release_all(cx);
        return true;  // 2PL: reaching commit means the transaction is valid
    }

    void abort(TxContext& cx_base) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        // Eager: roll back newest-first while still holding exclusive write
        // ownership of every touched block. Lazy: nothing was published.
        for (auto it = cx.undo_.rbegin(); it != cx.undo_.rend(); ++it) {
            *it->addr = it->old_value;
        }
        release_all(cx);
    }

private:
    [[nodiscard]] std::uint64_t block_of(const std::uint64_t* addr) const noexcept {
        return reinterpret_cast<std::uintptr_t>(addr) >> block_shift_;
    }

    /// True: `cx` holds `block` in `mode`. False: a conflict, classified and
    /// counted; the caller aborts. The test-only ignore fault turns a
    /// conflict into `true` without recording ownership — dirty reads and
    /// racy writes, which the sched oracle must catch.
    [[nodiscard]] bool acquire(TableContext& cx, std::uint64_t block,
                               Mode mode) {
        const AcquireResult r = ownership_.acquire(cx.slot_, block, mode);
        if (r.ok) {
            if (cx.held_.put(block, mode)) {
                ownership_.publish(cx.slot_, block);
            }
            return true;
        }
        if (test_faults().ignore_acquire_conflicts.load(
                std::memory_order_relaxed)) {
            return true;
        }
        auto& counter = ownership_.same_block(block, r.conflicting)
                            ? stats_.true_conflicts
                            : stats_.false_conflicts;
        counter.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    void release_all(TableContext& cx) {
        ownership_.release_all(cx.slot_, cx.held_);
        cx.held_.clear();
        cx.undo_.clear();
        cx.redo_.clear();
    }

    SharedStats& stats_;
    unsigned block_shift_;
    Ownership ownership_;
    SlotPool slots_;
};

template <typename Ownership>
std::unique_ptr<Backend> make_engine(const StmConfig& config,
                                     SharedStats& stats) {
    if (config.commit_time_locks) {
        return std::make_unique<TableBackend<Ownership, true>>(config, stats);
    }
    return std::make_unique<TableBackend<Ownership, false>>(config, stats);
}

}  // namespace

std::unique_ptr<Backend> make_table_backend(const StmConfig& config,
                                            SharedStats& stats,
                                            ReclaimDomain& /*reclaim*/) {
    if (config.backend == BackendKind::kTaglessTable) {
        return make_engine<TaglessOwnership>(config, stats);
    }
    return make_engine<TaggedOwnership>(config, stats);
}

}  // namespace tmb::stm::detail
