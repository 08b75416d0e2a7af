// txalloc.cpp — ReclaimDomain implementation and the Transaction-side
// recording of tx_alloc / tx_free (see txalloc.hpp for the design).
#include "stm/txalloc.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "stm/backend.hpp"
#include "stm/sched_hook.hpp"
#include "stm/stm.hpp"

namespace tmb::stm {
namespace detail {

namespace {
constexpr std::uint64_t kNoPin = std::numeric_limits<std::uint64_t>::max();
/// Cache hit/miss counters are absorbed into the domain atomics once this
/// many events accumulate locally (and at context release/retire).
constexpr std::uint64_t kCounterAbsorbBatch = 256;
}  // namespace

void ReclaimDomain::configure(std::uint32_t cache_blocks,
                              std::uint32_t shards) {
    cache_blocks_ = cache_blocks;
    depot_cap_ = cache_blocks * 8;
    // Cache off restores the pre-cache cadence (flush and poll every
    // transaction) — the differential baseline. Cache on batches both, so
    // steady-state commits touch no domain lock.
    flush_batch_ = cache_blocks != 0 ? 32 : 1;
    poll_period_ = cache_blocks != 0 ? 32 : 1;
    if (shards == 0) shards = 1;
    // Grow only: shard addresses must stay stable once batches are in
    // flight (extra shards from a wider earlier configure stay empty).
    while (shards_.size() < shards) shards_.emplace_back();
    // Full shelf capacity up front: depot_put_bulk runs in noexcept paths.
    for (auto& shelf : depot_.shelves) shelf.reserve(depot_cap_);
}

ReclaimSlot* ReclaimDomain::register_slot() {
    auto lock = lock_counted(epoch_mutex_);
    if (!free_slots_.empty()) {
        ReclaimSlot* slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    return &slots_.emplace_back();
}

void ReclaimDomain::unregister_slot(ReclaimSlot* slot) noexcept {
    if (slot == nullptr) return;
    slot->state.store(0, std::memory_order_seq_cst);
    auto lock = lock_counted(epoch_mutex_);
    free_slots_.push_back(slot);
}

void ReclaimDomain::bind_context(TxContext& cx) {
    cx.cache.cap_blocks = cache_blocks_;
    cx.cache.cap_bytes = cache_blocks_ != 0 ? kCacheBytes : 0;
    if (cache_blocks_ != 0) {
        // Full capacity (including recycle slack) up front: BlockCache::push
        // must never allocate — it runs inside noexcept rollback paths.
        for (auto& mag : cx.cache.magazines) {
            mag.reserve(cache_blocks_ + kCacheSpillSlack);
        }
    }
    cx.reclaim_shard = next_shard_.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<std::uint32_t>(shards_.size());
}

void ReclaimDomain::note_alloc(void* ptr) noexcept {
    tx_allocs_.fetch_add(1, std::memory_order_relaxed);
    if (ReclaimObserver* obs = observer_.load(std::memory_order_relaxed)) {
        obs->on_alloc(ptr);
    }
}

bool ReclaimDomain::release_destroy(const RetiredBlock& block,
                                    TxContext* cx) noexcept {
    if (ReclaimObserver* obs = observer_.load(std::memory_order_relaxed)) {
        // Impounded: no destructor, no cache, no free — the observer owns
        // the memory now. Cached blocks take this gate too, so a lifetime
        // oracle sees every block before a magazine could recycle it.
        if (!obs->on_reclaim(block.ptr)) return false;
    }
    block.destroy(block.ptr);
    if (block.size_class != kUncachedClass) {
        dispose(block.ptr, block.size_class, cx);
    }
    return true;
}

void ReclaimDomain::dispose(void* ptr, std::uint16_t sc,
                            TxContext* cx) noexcept {
    if (cx != nullptr &&
        cx->cache.push(ptr, sc, cx->cache.cap_blocks + kCacheSpillSlack)) {
        return;
    }
    depot_put_bulk(sc, &ptr, 1);
}

void ReclaimDomain::depot_put_bulk(std::uint16_t sc, void** blocks,
                                   std::size_t count) noexcept {
    std::size_t taken = 0;
    if (depot_cap_ != 0 && count != 0 &&
        depot_.counts[sc].load(std::memory_order_relaxed) < depot_cap_) {
        auto lock = lock_counted(depot_.mutex);
        auto& shelf = depot_.shelves[sc];
        while (taken < count && shelf.size() < depot_cap_) {
            shelf.push_back(blocks[taken++]);
        }
        depot_.counts[sc].store(static_cast<std::uint32_t>(shelf.size()),
                                std::memory_order_relaxed);
    }
    for (std::size_t i = taken; i < count; ++i) ::operator delete(blocks[i]);
}

void* ReclaimDomain::cache_refill(TxContext& cx, std::uint16_t sc) {
    if (!cx.cache.enabled() ||
        depot_.counts[sc].load(std::memory_order_relaxed) == 0) {
        return nullptr;
    }
    // Yield before the lock: a cancelling throw here holds nothing.
    scheduler_yield(YieldPoint::kCacheRefill, YieldSite::kCacheRefill);
    void* out = nullptr;
    auto lock = lock_counted(depot_.mutex);
    auto& shelf = depot_.shelves[sc];
    // Batch refill: one block to hand out now plus up to half a magazine
    // for future misses, amortizing the depot lock.
    std::uint32_t want = cx.cache.cap_blocks / 2 + 1;
    while (want != 0 && !shelf.empty()) {
        void* p = shelf.back();
        if (out == nullptr) {
            out = p;
        } else if (!cx.cache.push(p, sc, cx.cache.cap_blocks)) {
            break;
        }
        shelf.pop_back();
        --want;
    }
    depot_.counts[sc].store(static_cast<std::uint32_t>(shelf.size()),
                            std::memory_order_relaxed);
    return out;
}

void ReclaimDomain::cache_unfetch(TxContext& cx, void* raw,
                                  std::uint16_t sc) noexcept {
    // The storage was never constructed and never shown to the observer;
    // it is plain free memory — back to the magazine or the heap.
    if (cx.cache.push(raw, sc, cx.cache.cap_blocks + kCacheSpillSlack)) return;
    ::operator delete(raw);
}

void ReclaimDomain::rollback(TxContext& cx) noexcept {
    TxMemLog& log = cx.mem;
    if (log.empty()) return;
    // Reverse order: later allocations may point into earlier ones. The
    // blocks were never published, so cacheable storage recycles straight
    // into this context's magazine.
    for (auto it = log.allocs.rbegin(); it != log.allocs.rend(); ++it) {
        speculative_rollbacks_.fetch_add(1, std::memory_order_relaxed);
        (void)release_destroy({it->ptr, it->destroy, it->size_class}, &cx);
    }
    log.clear();  // deferred frees of an aborted attempt are no-ops
}

void ReclaimDomain::commit(TxContext& cx) {
    TxMemLog& log = cx.mem;
    if (log.empty()) return;
    std::uint64_t frees = 0;
    std::uint64_t recycled = 0;
    std::uint64_t buffered = 0;
    const bool eager =
        test_faults().eager_reclaim.load(std::memory_order_relaxed);
    const bool leaky =
        test_faults().leaky_cache.load(std::memory_order_relaxed) &&
        cx.cache.enabled();
    // Same-transaction alloc+free pairs recycle immediately: the address
    // never reached a shared word (TL2 write logs keep only final values
    // per location; eager tables hold write ownership until the commit
    // completes), so no concurrent attempt can hold it.
    for (const TxAllocRecord& rec : log.allocs) {
        if (!rec.freed) continue;
        ++frees;
        ++recycled;
        (void)release_destroy({rec.ptr, rec.destroy, rec.size_class}, &cx);
    }
    for (const TxFreeRecord& rec : log.frees) {
        ++frees;
        if (eager) {
            // Fault injection: free committed-freed blocks immediately, as
            // a reclamation-free implementation would. Doomed readers then
            // dereference released memory — the lifetime oracle must catch
            // it.
            ++recycled;
            (void)release_destroy({rec.ptr, rec.destroy, rec.size_class},
                                  &cx);
        } else if (leaky && rec.size_class != kUncachedClass) {
            // Fault injection: a broken cache that recycles a freed block
            // into the magazine without waiting for a safe epoch — and
            // ignores the observer's impound verdict. The next tx_alloc
            // hands the block out while the lifetime oracle still holds
            // it, which must surface as an on_alloc violation.
            bool impounded = false;
            if (ReclaimObserver* obs =
                    observer_.load(std::memory_order_relaxed)) {
                impounded = !obs->on_reclaim(rec.ptr);
            }
            if (!impounded) rec.destroy(rec.ptr);
            if (!cx.cache.push(rec.ptr, rec.size_class,
                               cx.cache.cap_blocks + kCacheSpillSlack) &&
                !impounded) {
                ::operator delete(rec.ptr);
            }
            ++recycled;
        } else {
            // Deferred: park in the context's retire buffer — no lock; the
            // buffer's capacity is retained, so steady-state commits stay
            // allocation-free. maintain()/flush_context() moves batches
            // into a shard.
            cx.retire_buffer.push_back(
                {rec.ptr, rec.destroy, rec.size_class});
            ++buffered;
        }
    }
    if (buffered != 0) pending_.fetch_add(buffered, std::memory_order_relaxed);
    if (recycled != 0) reclaimed_.fetch_add(recycled, std::memory_order_relaxed);
    tx_frees_.fetch_add(frees, std::memory_order_relaxed);
    log.clear();
}

void ReclaimDomain::flush_retired(TxContext& cx) noexcept {
    if (cx.retire_buffer.empty()) return;
    std::uint64_t epoch;
    {
        // The batch's tag is read under the mutex that also guards epoch
        // advancement, so a tag can never lag an advance: any attempt
        // still holding one of these pointers pinned before the frees
        // committed, at an epoch <= the commit-time epoch <= this one
        // (tagging at flush time is only more conservative).
        auto lock = lock_counted(epoch_mutex_);
        epoch = global_epoch_.load(std::memory_order_relaxed);
    }
    Shard& shard = shards_[cx.reclaim_shard];
    const std::uint64_t n = cx.retire_buffer.size();
    {
        auto lock = lock_counted(shard.mutex);
        // Epochs are monotonic, so a batch either joins the newest bucket
        // or opens a fresh one — buckets stay sorted by construction.
        if (shard.buckets.empty() || shard.buckets.back().epoch != epoch) {
            std::vector<RetiredBlock> blocks;
            if (!shard.spare.empty()) {
                blocks = std::move(shard.spare.back());
                shard.spare.pop_back();
            }
            shard.buckets.push_back({epoch, std::move(blocks)});
        }
        auto& dst = shard.buckets.back().blocks;
        dst.insert(dst.end(), cx.retire_buffer.begin(),
                   cx.retire_buffer.end());
        shard.flushed.fetch_add(n, std::memory_order_relaxed);
    }
    flushed_total_.fetch_add(n, std::memory_order_relaxed);
    reclaim_shard_flushes_.fetch_add(1, std::memory_order_relaxed);
    cx.retire_buffer.clear();
}

void ReclaimDomain::spill_cache(TxContext& cx) noexcept {
    cx.cache.overfull = false;
    for (std::uint16_t sc = 0; sc < kCacheSizeClasses; ++sc) {
        auto& mag = cx.cache.magazines[sc];
        if (mag.size() <= cx.cache.cap_blocks) continue;
        const std::size_t excess = mag.size() - cx.cache.cap_blocks;
        depot_put_bulk(sc, mag.data() + cx.cache.cap_blocks, excess);
        mag.resize(cx.cache.cap_blocks);
        cx.cache.bytes -= excess * class_bytes(sc);
    }
}

void ReclaimDomain::absorb_cache_counters(TxContext& cx) noexcept {
    if (cx.cache.hits != 0) {
        alloc_cache_hits_.fetch_add(cx.cache.hits, std::memory_order_relaxed);
        cx.cache.hits = 0;
    }
    if (cx.cache.misses != 0) {
        alloc_cache_misses_.fetch_add(cx.cache.misses,
                                      std::memory_order_relaxed);
        cx.cache.misses = 0;
    }
}

void ReclaimDomain::maintain(TxContext& cx) {
    if (cx.cache.hits + cx.cache.misses >= kCounterAbsorbBatch) {
        absorb_cache_counters(cx);
    }
    if (cx.retire_buffer.size() >= flush_batch_) {
        scheduler_yield(YieldPoint::kShardFlush, YieldSite::kShardFlush);
        flush_retired(cx);
    }
    if (cx.cache.overfull) {
        scheduler_yield(YieldPoint::kCacheSpill, YieldSite::kCacheSpill);
        spill_cache(cx);
    }
    if (++cx.maintain_tick >= poll_period_) {
        cx.maintain_tick = 0;
        poll_from(&cx);
    }
}

void ReclaimDomain::poll() { poll_from(nullptr); }

void ReclaimDomain::poll_from(TxContext* cx) {
    // O(1) fast path: nothing parked in any shard. Blocks still buffered
    // in contexts are not releasable from here anyway.
    if (flushed_total_.load(std::memory_order_relaxed) == 0) return;
    // Yield before acquiring anything: a cancelling throw here leaks
    // nothing, and the reclaim step becomes an explorable interleaving
    // point for the sched harness.
    scheduler_yield(YieldPoint::kReclaim, YieldSite::kReclaimPoll);
    // Thread-local scratch: eligible blocks must be destroyed outside the
    // locks (destructors are arbitrary code), and retained capacity keeps
    // the steady-state polling path allocation-free.
    static thread_local std::vector<RetiredBlock> releasable;
    releasable.clear();
    std::uint64_t limit = kNoPin;
    {
        auto lock = lock_counted(epoch_mutex_);
        const std::uint64_t global =
            global_epoch_.load(std::memory_order_relaxed);
        std::uint64_t min_pinned = kNoPin;
        for (ReclaimSlot& slot : slots_) {
            const std::uint64_t state =
                slot.state.load(std::memory_order_seq_cst);
            if ((state & 1) != 0) {
                min_pinned = std::min(min_pinned, state >> 1);
            }
        }
        if (min_pinned == kNoPin || min_pinned >= global) {
            // Every active attempt pinned the current epoch: batches
            // flushed from now on get a strictly newer tag.
            global_epoch_.store(global + 1, std::memory_order_seq_cst);
        }
        limit = min_pinned;  // free strictly below
    }
    std::uint64_t released = 0;
    for (Shard& shard : shards_) {
        if (shard.flushed.load(std::memory_order_relaxed) == 0) continue;
        auto lock = lock_counted(shard.mutex);
        // Buckets are sorted by epoch: the releasable ones are a prefix,
        // and the kept suffix is never re-scanned.
        std::size_t take = 0;
        std::uint64_t n = 0;
        while (take < shard.buckets.size() &&
               shard.buckets[take].epoch < limit) {
            EpochBucket& bucket = shard.buckets[take];
            n += bucket.blocks.size();
            releasable.insert(releasable.end(), bucket.blocks.begin(),
                              bucket.blocks.end());
            bucket.blocks.clear();
            shard.spare.push_back(std::move(bucket.blocks));
            ++take;
        }
        if (take != 0) {
            shard.buckets.erase(shard.buckets.begin(),
                                shard.buckets.begin() +
                                    static_cast<std::ptrdiff_t>(take));
            shard.flushed.fetch_sub(n, std::memory_order_relaxed);
            released += n;
        }
    }
    if (released == 0) return;
    flushed_total_.fetch_sub(released, std::memory_order_relaxed);
    pending_.fetch_sub(released, std::memory_order_relaxed);
    reclaimed_.fetch_add(released, std::memory_order_relaxed);
    for (const RetiredBlock& block : releasable) {
        (void)release_destroy(block, cx);
    }
}

void ReclaimDomain::flush_context(TxContext& cx) noexcept {
    absorb_cache_counters(cx);
    flush_retired(cx);
}

void ReclaimDomain::retire_context(TxContext& cx) noexcept {
    flush_context(cx);
    for (std::uint16_t sc = 0; sc < kCacheSizeClasses; ++sc) {
        auto& mag = cx.cache.magazines[sc];
        if (mag.empty()) continue;
        depot_put_bulk(sc, mag.data(), mag.size());
        mag.clear();
    }
    cx.cache.bytes = 0;
    cx.cache.overfull = false;
}

void ReclaimDomain::drain_all() noexcept {
    std::vector<RetiredBlock> releasable;
    std::uint64_t released = 0;
    for (Shard& shard : shards_) {
        auto lock = lock_counted(shard.mutex);
        for (EpochBucket& bucket : shard.buckets) {
            released += bucket.blocks.size();
            releasable.insert(releasable.end(), bucket.blocks.begin(),
                              bucket.blocks.end());
            bucket.blocks.clear();
            shard.spare.push_back(std::move(bucket.blocks));
        }
        shard.buckets.clear();
        shard.flushed.store(0, std::memory_order_relaxed);
    }
    if (released != 0) {
        flushed_total_.fetch_sub(released, std::memory_order_relaxed);
        pending_.fetch_sub(released, std::memory_order_relaxed);
        reclaimed_.fetch_add(released, std::memory_order_relaxed);
    }
    for (const RetiredBlock& block : releasable) {
        (void)release_destroy(block, nullptr);
    }
    // Return the depot's free blocks (already released and counted) to the
    // heap, so a drained domain holds no memory at all. With an observer
    // installed the shelves can only hold blocks the leaky_cache fault
    // forced past an impound verdict (a clean dyn run vetoes every release
    // before any cache sees it, so its shelves stay empty): offer each one
    // back — a veto means the observer owns the storage and will free it,
    // and freeing here too would be a real double free.
    ReclaimObserver* obs = observer_.load(std::memory_order_relaxed);
    auto lock = lock_counted(depot_.mutex);
    for (std::size_t sc = 0; sc < kCacheSizeClasses; ++sc) {
        for (void* p : depot_.shelves[sc]) {
            if (obs == nullptr || obs->on_reclaim(p)) ::operator delete(p);
        }
        depot_.shelves[sc].clear();
        depot_.counts[sc].store(0, std::memory_order_relaxed);
    }
}

TxContext::~TxContext() {
    if (reclaim_domain != nullptr) {
        // A context never retires mid-attempt, so mem is normally empty
        // here; rolling back defensively keeps an exceptional unwind (e.g.
        // a throwing harness cancellation racing executor teardown) from
        // leaking speculative blocks.
        reclaim_domain->rollback(*this);
        reclaim_domain->retire_context(*this);
        reclaim_domain->unregister_slot(reclaim_slot);
    }
}

ReclaimStats ReclaimDomain::stats() const noexcept {
    ReclaimStats s;
    s.tx_allocs = tx_allocs_.load(std::memory_order_relaxed);
    s.speculative_rollbacks =
        speculative_rollbacks_.load(std::memory_order_relaxed);
    s.tx_frees = tx_frees_.load(std::memory_order_relaxed);
    s.reclaimed = reclaimed_.load(std::memory_order_relaxed);
    s.alloc_cache_hits = alloc_cache_hits_.load(std::memory_order_relaxed);
    s.alloc_cache_misses =
        alloc_cache_misses_.load(std::memory_order_relaxed);
    s.reclaim_shard_flushes =
        reclaim_shard_flushes_.load(std::memory_order_relaxed);
    s.domain_mutex_acquires =
        domain_mutex_acquires_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Transaction-side recording (declared in stm.hpp).
// ---------------------------------------------------------------------------

void Transaction::alloc_hook() {
    detail::scheduler_yield(detail::YieldPoint::kAlloc,
                            detail::YieldSite::kTxAlloc);
    // Guarantee the upcoming record_alloc cannot throw: with capacity
    // reserved, push_back is nothrow, so a fresh object can never leak
    // between the allocation and its log entry.
    cx_.mem.allocs.reserve(cx_.mem.allocs.size() + 1);
}

void* Transaction::cache_fetch(std::uint16_t size_class) {
    alloc_hook();
    if (void* p = cx_.cache.pop(size_class)) {
        ++cx_.cache.hits;
        return p;
    }
    ++cx_.cache.misses;
    if (cx_.reclaim_domain != nullptr) {
        if (void* p = cx_.reclaim_domain->cache_refill(cx_, size_class)) {
            return p;
        }
    }
    return ::operator new(detail::class_bytes(size_class));
}

void Transaction::cache_unfetch(void* raw, std::uint16_t size_class) noexcept {
    if (cx_.reclaim_domain != nullptr) {
        cx_.reclaim_domain->cache_unfetch(cx_, raw, size_class);
    } else {
        ::operator delete(raw);
    }
}

void Transaction::record_alloc(void* ptr, void (*destroy)(void*),
                               std::uint16_t size_class) noexcept {
    cx_.mem.allocs.push_back({ptr, destroy, size_class, false});
    if (cx_.reclaim_domain != nullptr) cx_.reclaim_domain->note_alloc(ptr);
}

void Transaction::record_free(void* ptr, void (*destroy)(void*),
                              std::uint16_t size_class) {
    if (ptr == nullptr) return;
    detail::scheduler_yield(detail::YieldPoint::kFree,
                            detail::YieldSite::kTxFree);
    for (detail::TxAllocRecord& rec : cx_.mem.allocs) {
        if (rec.ptr == ptr) {
            if (rec.freed) {
                throw std::logic_error(
                    "tx_free: double free of a block allocated in this "
                    "transaction");
            }
            rec.freed = true;  // same-transaction alloc+free pair
            return;
        }
    }
    for (const detail::TxFreeRecord& rec : cx_.mem.frees) {
        if (rec.ptr == ptr) {
            throw std::logic_error(
                "tx_free: block already freed in this transaction");
        }
    }
    cx_.mem.frees.push_back({ptr, destroy, size_class});
}

}  // namespace tmb::stm
