// txalloc.hpp — transactional memory management: speculative allocation,
// deferred frees, and scalable epoch-based reclamation.
//
// Transactional data structures that grow need three guarantees the raw
// heap cannot give:
//
//   1. An object allocated inside an attempt that later aborts must be
//      freed (otherwise every conflict leaks a node). Transaction::tx_alloc
//      records each allocation in the context's TxMemLog; the runtime rolls
//      the log back — running the destructors — on every abort path.
//   2. An object freed inside an attempt must NOT be freed until the
//      attempt commits (an aborted free must be a no-op). tx_free only
//      records a deferred-free entry; the runtime applies it at commit.
//   3. An object whose free *has* committed may still be dereferenced by a
//      concurrent doomed ("zombie") reader: a TL2 transaction that loaded
//      the pointer before the unlinking commit keeps using it until
//      commit-time validation kills the attempt. The committed free
//      therefore only *retires* the block; the backing memory is released
//      once every transaction that could have observed the old pointer has
//      finished — tracked with per-context epoch pins (one ReclaimSlot per
//      TxContext, pinned for the duration of each attempt).
//
// Epoch rule. The domain keeps a global epoch E (advanced only under the
// epoch mutex). pin() publishes the current epoch into the context's slot;
// retirement tags each batch with the epoch read under that same mutex.
// Because a transaction's loads all happen after its pin, any transaction
// that can still hold a pointer retired at epoch e was pinned at an epoch
// <= e; a retired block is freed once every active pin is > e (or no pin is
// active). poll() — run at executor-quiescent points, i.e. between an
// executor's transactions — advances the epoch when every active pin has
// caught up and frees what the rule allows.
//
// Scalability. The steady-state hot path touches no global lock:
//
//   * Per-context free-block caches. Each bound TxContext carries
//     size-class magazines (BlockCache). Cacheable blocks (<= 256 bytes,
//     fundamental alignment) are carved from `::operator new(class_bytes)`
//     + placement-new, so their raw memory is type-free and reusable:
//     tx_alloc serves from the local magazine, and commit-time recycling
//     (same-transaction alloc+free pairs, speculative rollbacks, and the
//     blocks poll() releases) refills it. A shared depot recycles blocks
//     across contexts when a magazine over- or underflows, in batches.
//     `cache_blocks=0` turns the caches off for differential testing; the
//     allocation path is identical either way (a zero-capacity magazine
//     simply always misses).
//
//   * Sharded retirement. Committed frees append to a per-context retire
//     buffer (no lock); the buffer is flushed in batches into one of N
//     striped shards, with the batch's epoch tag read once under the epoch
//     mutex. Within a shard, blocks are partitioned into per-epoch buckets,
//     so poll() releases whole buckets below the safe epoch and never
//     re-scans entries it must keep. poll() is O(1) (one relaxed load)
//     when no shard holds anything.
//
// The hot path of transactions that never allocate is untouched: pin/unpin
// are two uncontended atomic stores, and maintenance is a couple of
// branches on context-local state.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace tmb::stm {

/// Counters for the transactional-allocation subsystem, exposed through
/// Stm::reclaim_stats(). Monotonic; exact at quiescent points.
struct ReclaimStats {
    /// tx_alloc calls that returned (speculative or later committed).
    std::uint64_t tx_allocs = 0;
    /// Allocations rolled back (and freed) because their attempt aborted.
    std::uint64_t speculative_rollbacks = 0;
    /// Committed tx_free calls (the block entered — or passed through —
    /// the reclamation pipeline).
    std::uint64_t tx_frees = 0;
    /// Retired blocks whose backing memory has actually been released
    /// (recycled into a cache or returned to the heap).
    std::uint64_t reclaimed = 0;
    /// tx_alloc calls served by the context's own magazine (no lock, no
    /// heap) vs. everything else (depot refill or ::operator new).
    std::uint64_t alloc_cache_hits = 0;
    std::uint64_t alloc_cache_misses = 0;
    /// Retire-buffer batches flushed into a shard.
    std::uint64_t reclaim_shard_flushes = 0;
    /// Every acquisition of any domain-level mutex (epoch, shard, depot,
    /// slot registration). The lock-pressure metric the per-context caches
    /// exist to shrink: divide by commits for the per-commit figure.
    std::uint64_t domain_mutex_acquires = 0;

    /// Blocks currently reachable from committed state.
    [[nodiscard]] std::uint64_t live_blocks() const noexcept {
        return tx_allocs - speculative_rollbacks - tx_frees;
    }
    /// Blocks whose free committed but whose memory is still held back for
    /// possible doomed readers (buffered in a context or parked in a
    /// shard).
    [[nodiscard]] std::uint64_t pending_blocks() const noexcept {
        return tx_frees - reclaimed;
    }
};

namespace detail {

class TxContext;

// --------------------------------------------------------------------------
// Size classes. Cacheable blocks are allocated as raw storage of the
// class's rounded size, so a recycled block can serve any type of the same
// class. Types that are too large or overaligned fall back to plain
// new/delete and never enter a cache (kUncachedClass).
// --------------------------------------------------------------------------

inline constexpr std::size_t kCacheGrain = 16;
inline constexpr std::size_t kMaxCachedBytes = 256;
inline constexpr std::size_t kCacheSizeClasses = kMaxCachedBytes / kCacheGrain;
inline constexpr std::uint16_t kUncachedClass = 0xFFFF;
/// Recycling may overfill a magazine by this many blocks per class before
/// maintenance spills the excess to the depot (kCacheSpill yield point).
inline constexpr std::uint32_t kCacheSpillSlack = 16;
/// Byte budget across one context's magazines: a magazine declines blocks
/// beyond it even with block slots free.
inline constexpr std::uint64_t kCacheBytes = std::uint64_t{1} << 18;

[[nodiscard]] constexpr std::uint16_t size_class_for(std::size_t bytes,
                                                     std::size_t align) noexcept {
    if (bytes == 0 || bytes > kMaxCachedBytes ||
        align > alignof(std::max_align_t)) {
        return kUncachedClass;
    }
    return static_cast<std::uint16_t>((bytes + kCacheGrain - 1) / kCacheGrain -
                                      1);
}

[[nodiscard]] constexpr std::size_t class_bytes(std::uint16_t sc) noexcept {
    return (static_cast<std::size_t>(sc) + 1) * kCacheGrain;
}

/// Test/harness hook observing the allocation lifecycle. Installed only at
/// quiescent points (the sched harness runs one OS thread at a time); the
/// production engine never installs one.
class ReclaimObserver {
public:
    virtual ~ReclaimObserver() = default;

    /// A tx_alloc returned `ptr` (the attempt may still abort). Lets a
    /// lifetime oracle catch an allocator handing out a block it impounded.
    virtual void on_alloc(void* ptr) noexcept = 0;

    /// `ptr` is about to be destroyed and released (speculative rollback,
    /// commit-time recycling, or epoch reclamation — cached blocks pass
    /// through here before they may enter a magazine). Return false to
    /// impound the block: no destructor runs, no cache takes it, and the
    /// memory stays mapped — the harness uses this to turn a would-be
    /// double free or use-after-free into a reported violation instead of
    /// UB.
    [[nodiscard]] virtual bool on_reclaim(void* ptr) noexcept = 0;
};

/// One per-context epoch pin. state == 0 when idle; (epoch << 1) | 1 while
/// an attempt is in flight. Every attempt stores to its pin twice, so each
/// pin has a cache line to itself.
struct alignas(64) ReclaimSlot {
    std::atomic<std::uint64_t> state{0};
};

/// One tx_alloc record: `freed` marks an allocation tx_freed later in the
/// same transaction (applied at commit; never double-freed on abort).
/// `destroy` runs the destructor only for cacheable blocks (the raw
/// storage is disposed separately) and is a full `delete` for uncached
/// ones (size_class == kUncachedClass).
struct TxAllocRecord {
    void* ptr;
    void (*destroy)(void*);
    std::uint16_t size_class;
    bool freed;
};

/// One deferred tx_free of a pre-existing (committed) block.
struct TxFreeRecord {
    void* ptr;
    void (*destroy)(void*);
    std::uint16_t size_class;
};

/// One committed-freed block awaiting a safe epoch. Epoch tags live on the
/// shard buckets, not the blocks: a whole flush batch shares one tag.
struct RetiredBlock {
    void* ptr;
    void (*destroy)(void*);
    std::uint16_t size_class;
};

/// Per-transaction allocation log, embedded in TxContext. Capacity is
/// retained across attempts and transactions, so steady-state transactions
/// of a warmed-up context never allocate for the log itself.
struct TxMemLog {
    std::vector<TxAllocRecord> allocs;
    std::vector<TxFreeRecord> frees;

    [[nodiscard]] bool empty() const noexcept {
        return allocs.empty() && frees.empty();
    }
    void clear() noexcept {
        allocs.clear();
        frees.clear();
    }
};

/// Per-context size-class magazines (embedded in TxContext). All methods
/// are single-threaded (the owning context runs one attempt at a time) and
/// allocation-free: magazines are reserved once at bind time, so push/pop
/// in noexcept paths (rollback) can never allocate. Capacity 0 = cache
/// off: pop always misses and push always declines.
struct BlockCache {
    std::array<std::vector<void*>, kCacheSizeClasses> magazines;
    std::uint64_t bytes = 0;       ///< currently cached, all classes
    std::uint32_t cap_blocks = 0;  ///< per-class target capacity
    std::uint64_t cap_bytes = 0;   ///< total byte budget
    bool overfull = false;         ///< some magazine exceeds cap_blocks
    /// Plain counters (no atomics on the hot path); the domain absorbs
    /// them in batches at maintenance/retire time.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    [[nodiscard]] bool enabled() const noexcept { return cap_blocks != 0; }

    [[nodiscard]] void* pop(std::uint16_t sc) noexcept {
        auto& mag = magazines[sc];
        if (mag.empty()) return nullptr;
        void* p = mag.back();
        mag.pop_back();
        bytes -= class_bytes(sc);
        return p;
    }

    /// Takes `p` if the class is under `limit` blocks, the byte budget
    /// holds, and a reserved slot is left (never reallocates). Callers use
    /// limit = cap_blocks on refill and cap_blocks + kCacheSpillSlack when
    /// recycling, letting commit-time recycling run ahead of maintenance.
    [[nodiscard]] bool push(void* p, std::uint16_t sc,
                            std::uint32_t limit) noexcept {
        auto& mag = magazines[sc];
        if (mag.size() >= limit || mag.size() == mag.capacity() ||
            bytes + class_bytes(sc) > cap_bytes) {
            return false;
        }
        mag.push_back(p);
        bytes += class_bytes(sc);
        if (mag.size() > cap_blocks) overfull = true;
        return true;
    }
};

/// The reclamation domain — one per Stm instance, shared by every context.
class ReclaimDomain {
public:
    /// Default shape: caches on at the StmConfig defaults, one shard —
    /// equivalent to the pre-sharding design for directly constructed
    /// domains in tests. Stm::Impl reconfigures before creating contexts.
    ReclaimDomain() { configure(64, 1); }
    ~ReclaimDomain() { drain_all(); }

    ReclaimDomain(const ReclaimDomain&) = delete;
    ReclaimDomain& operator=(const ReclaimDomain&) = delete;

    /// Sets cache capacities and the shard count. Must run before any
    /// context binds (shards are not resizable once blocks are in flight).
    /// cache_blocks == 0 disables the caches AND restores per-commit
    /// flush/poll cadence, making cache-off runs behave like the
    /// pre-cache engine for differential testing.
    void configure(std::uint32_t cache_blocks, std::uint32_t shards);

    /// Registers an epoch slot for a new context (cold path, mutex).
    [[nodiscard]] ReclaimSlot* register_slot();
    void unregister_slot(ReclaimSlot* slot) noexcept;

    /// Completes a context's binding (after register_slot): sizes its
    /// magazines and assigns its retirement shard round-robin.
    void bind_context(TxContext& cx);

    /// Marks an attempt in flight: publishes the current epoch into `slot`.
    /// Must happen before the attempt's first transactional load; the
    /// runtime pins right after backend begin(). No-op on null.
    ///
    /// Orderings: the epoch load may be relaxed — a stale (lower) epoch
    /// only makes the pin more conservative. The slot store must be
    /// seq_cst: it needs a store-load barrier against the attempt's
    /// subsequent transactional loads, or poll() could miss the pin while
    /// the attempt reads a pointer being retired (the hazard-pointer
    /// problem; one locked instruction per attempt is the standard price).
    void pin(ReclaimSlot* slot) noexcept {
        if (slot == nullptr) return;
        const std::uint64_t epoch =
            global_epoch_.load(std::memory_order_relaxed);
        slot->state.store((epoch << 1) | 1, std::memory_order_seq_cst);
    }
    /// Release suffices here: it orders the attempt's loads before the
    /// clear, and there is nothing after it to order against.
    void unpin(ReclaimSlot* slot) noexcept {
        if (slot == nullptr) return;
        slot->state.store(0, std::memory_order_release);
    }

    /// Records a completed tx_alloc (counter + observer). Called at
    /// allocation time so address reuse is visible to the observer before
    /// the allocating transaction dereferences the block.
    void note_alloc(void* ptr) noexcept;

    /// Refill path for a magazine miss: grabs a batch from the depot shelf
    /// of `sc` and returns one block (the rest top up the magazine), or
    /// nullptr when the shelf is empty. Emits kCacheRefill (may throw)
    /// before taking the depot lock.
    [[nodiscard]] void* cache_refill(TxContext& cx, std::uint16_t sc);

    /// Returns a block obtained from cache_refill/::operator new that was
    /// never constructed (constructor threw) to the cache or heap.
    void cache_unfetch(TxContext& cx, void* raw, std::uint16_t sc) noexcept;

    /// Aborted attempt: destroys every speculative allocation of the
    /// context's log (the blocks were never published — table backends
    /// roll the heap word back before this runs, TL2 never wrote it),
    /// recycling cacheable storage into the context's magazine, and drops
    /// deferred frees.
    void rollback(TxContext& cx) noexcept;

    /// Committed attempt: same-transaction alloc+free pairs are recycled
    /// immediately (their address never reached a shared word — TL2 write
    /// logs keep only final values, eager tables hold write ownership
    /// until commit completes — so no concurrent attempt can hold it);
    /// frees of pre-existing blocks are appended to the context's retire
    /// buffer. Never yields and takes no lock — it runs between a backend
    /// commit and the caller observing it.
    void commit(TxContext& cx);

    /// Executor-quiescent maintenance, called by the runtime between a
    /// context's transactions: flushes the retire buffer once it reaches
    /// the batch size (kShardFlush yield), spills overfull magazines to
    /// the depot (kCacheSpill yield), and polls every few transactions
    /// (kReclaim yield). Yields fire before the matching locks, so a
    /// cancelling throw leaks nothing. O(1) branches when idle.
    void maintain(TxContext& cx);

    /// Unthrottled poll: advances the epoch when every active pin has
    /// caught up and releases every bucket no active pin can still
    /// reference. Emits kReclaim (which may throw, see sched_hook.hpp)
    /// before touching anything when there is work. O(1) when no shard
    /// holds anything. Releasing does not recycle into any magazine (no
    /// context at hand); use maintain() on the hot path.
    void poll();

    /// Flushes the context's retire buffer and absorbs its cache counters
    /// without yielding; called when a context is released back to the
    /// runtime so drain/pending checks observe every committed free.
    void flush_context(TxContext& cx) noexcept;

    /// Context teardown: flush_context plus spilling the whole magazine
    /// into the depot (overflow goes back to the heap). After this the
    /// context holds no memory; pending/ledger counters balance at
    /// quiescence. Called from ~TxContext before unregister_slot.
    void retire_context(TxContext& cx) noexcept;

    /// Releases every *flushed* retired block regardless of epochs and
    /// returns the depot's free blocks to the heap. Caller must guarantee
    /// no in-flight attempt holds a retired pointer: the Stm destructor,
    /// the adaptive wrapper's quiesce-and-swap (zero in-flight
    /// transactions implies no attempt has performed a load), and
    /// quiescent test/tool code. Blocks still buffered in live contexts
    /// stay pending until those contexts flush or retire.
    void drain_all() noexcept;

    [[nodiscard]] bool has_pending() const noexcept {
        return pending_.load(std::memory_order_relaxed) != 0;
    }

    [[nodiscard]] ReclaimStats stats() const noexcept;

    /// Installs (or clears, with nullptr) the lifecycle observer. Quiescent
    /// points only.
    void set_observer(ReclaimObserver* observer) noexcept {
        observer_.store(observer, std::memory_order_relaxed);
    }

private:
    /// A shard's blocks, partitioned by retirement epoch (ascending; new
    /// batches only ever append to the newest bucket or open a fresh one,
    /// and poll releases a prefix — kept entries are never re-scanned).
    struct EpochBucket {
        std::uint64_t epoch;
        std::vector<RetiredBlock> blocks;
    };
    struct alignas(64) Shard {
        std::mutex mutex;
        std::vector<EpochBucket> buckets;
        /// Emptied bucket vectors, recycled so steady-state flushing and
        /// polling allocate nothing.
        std::vector<std::vector<RetiredBlock>> spare;
        /// Blocks currently in buckets (relaxed; poll's skip check).
        std::atomic<std::uint64_t> flushed{0};
    };
    struct Depot {
        std::mutex mutex;
        std::array<std::vector<void*>, kCacheSizeClasses> shelves;
        /// Relaxed per-class sizes so a refill miss never takes the lock.
        std::array<std::atomic<std::uint32_t>, kCacheSizeClasses> counts{};
    };

    [[nodiscard]] std::unique_lock<std::mutex> lock_counted(std::mutex& m) {
        domain_mutex_acquires_.fetch_add(1, std::memory_order_relaxed);
        return std::unique_lock<std::mutex>(m);
    }

    /// Observer gate + destructor + storage disposal for one block.
    /// Returns false when the observer impounded the block (nothing ran).
    bool release_destroy(const RetiredBlock& block, TxContext* cx) noexcept;
    /// Raw-storage disposal: context magazine, then depot, then heap.
    void dispose(void* ptr, std::uint16_t sc, TxContext* cx) noexcept;
    void depot_put_bulk(std::uint16_t sc, void** blocks,
                        std::size_t count) noexcept;
    void flush_retired(TxContext& cx) noexcept;
    void spill_cache(TxContext& cx) noexcept;
    void absorb_cache_counters(TxContext& cx) noexcept;
    void poll_from(TxContext* cx);

    std::mutex epoch_mutex_;  ///< guards epoch advancement + slot registry
    std::atomic<std::uint64_t> global_epoch_{1};
    std::deque<ReclaimSlot> slots_;          // stable addresses
    std::vector<ReclaimSlot*> free_slots_;   // unregistered, reusable

    std::deque<Shard> shards_;  // stable addresses (Shard is immovable)
    std::atomic<std::uint32_t> next_shard_{0};
    std::atomic<std::uint64_t> flushed_total_{0};
    Depot depot_;

    std::uint32_t cache_blocks_ = 0;
    std::uint32_t depot_cap_ = 0;     ///< per-class shelf capacity
    std::uint32_t flush_batch_ = 1;   ///< retire-buffer flush threshold
    std::uint32_t poll_period_ = 1;   ///< maintain() calls between polls

    std::atomic<std::uint64_t> pending_{0};
    std::atomic<ReclaimObserver*> observer_{nullptr};

    std::atomic<std::uint64_t> tx_allocs_{0};
    std::atomic<std::uint64_t> speculative_rollbacks_{0};
    std::atomic<std::uint64_t> tx_frees_{0};
    std::atomic<std::uint64_t> reclaimed_{0};
    std::atomic<std::uint64_t> alloc_cache_hits_{0};
    std::atomic<std::uint64_t> alloc_cache_misses_{0};
    std::atomic<std::uint64_t> reclaim_shard_flushes_{0};
    std::atomic<std::uint64_t> domain_mutex_acquires_{0};
};

/// RAII pin for one attempt; tolerates a null slot (unbound context).
class PinGuard {
public:
    PinGuard(ReclaimDomain& domain, ReclaimSlot* slot) noexcept
        : domain_(domain), slot_(slot) {
        domain_.pin(slot_);
    }
    ~PinGuard() { domain_.unpin(slot_); }

    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;

private:
    ReclaimDomain& domain_;
    ReclaimSlot* slot_;
};

}  // namespace detail

/// Destroys and frees a block obtained from Transaction::tx_alloc *outside*
/// any transaction — container teardown walking its nodes at quiescence.
/// Mirrors tx_alloc's allocation path: cacheable blocks were carved from
/// raw `::operator new(class_bytes)` storage, so a plain `delete` on them
/// would pass the wrong size to the deallocator.
template <typename T>
void tx_delete(T* ptr) noexcept {
    if (ptr == nullptr) return;
    constexpr std::uint16_t sc =
        detail::size_class_for(sizeof(T), alignof(T));
    if constexpr (sc != detail::kUncachedClass) {
        ptr->~T();
        ::operator delete(static_cast<void*>(ptr));
    } else {
        delete ptr;
    }
}

}  // namespace tmb::stm
