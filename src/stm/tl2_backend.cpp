// tl2_backend.cpp — TL2-style versioned-lock STM backend.
//
// Transactional Locking II (Shavit, Dice & Shalev — the paper's ref [19]):
// a global version clock plus a striped table of versioned write-locks.
// Reads validate the lock version against the transaction's read version;
// writes are buffered and published at commit under write locks with a new
// clock value. Lazy versioning → aborts are cheap (discard buffers).
//
// Lock word layout: (version << 1) | locked. Versions come from the global
// clock and only grow per stripe.
//
// Hot-path engineering (the paper's point is that metadata fast paths must
// cost nothing extra):
//
//   * The read set is dedup'd through a SeenFilter, so re-reading a stripe
//     records — and later validates — it once. Commit validation work is
//     O(unique stripes), not O(loads).
//   * Read-after-write goes through a SmallMap (addr → write-set index)
//     instead of a backward scan; the write set holds one entry per
//     address, updated in place.
//   * All per-transaction structures (read set, write set, index, the
//     commit-time lock scratch vector) live in the context and keep their
//     capacity across retries and transactions: a steady-state transaction
//     performs zero heap allocations.
//   * Clock schemes (StmConfig::tl2_clock): kGv1 is the classic fetch_add
//     per writer commit. kGv5 lets a writer whose commit-time clock still
//     equals its read version publish rv+1 *without* the fetch_add after a
//     full (always-run) read-set validation — removing the single hottest
//     contended RMW from uncontended commits. Stripe versions may then lag
//     the clock by one; any load (or commit-time lock acquire) that
//     observes a version beyond rv advances the clock to it (CAS-max,
//     conflict path only) and the load path revalidates the read set at
//     the new clock instead of aborting ("read-version extension").
//     Safety: a skip requires clock == rv at commit while all write locks
//     are held and validation passes, so any transaction that began when
//     the clock was ≥ rv+1 can only have begun after some rv+1 writer
//     finished publishing — it sees either none or all of that writer's
//     stripes locked/updated, never a mix (locks are held across publish).
//   * The clock has a cache line of its own (PaddedClock), and the engine's
//     first line (vtable pointer, gv5_, locks_) is written only at
//     construction. Writer commits and lag fixes write the clock; on a
//     shared line each such write would evict, from every other core, the
//     line that their next virtual call into the engine and lock_for read.

#include <algorithm>
#include <limits>
#include <vector>

#include "stm/backend.hpp"
#include "stm/sched_hook.hpp"
#include "stm/txlocal.hpp"
#include "util/hash.hpp"

namespace tmb::stm::detail {

namespace {

class Tl2Backend;

/// Versioned stripe locks, one 8-byte word each; a power of two. Every Stm
/// zeroes the table: 512 KB at 2^16 against 8 MB at 2^20. The table holds
/// no tags, so fewer stripes mean more false conflicts: 4-thread replay
/// transactions of 128 accesses abort 0.19 of attempts here against 0.12
/// at 2^20, while vacation's abort share moved only from 2.53% to 2.62%.
constexpr std::uint64_t kLocks = std::uint64_t{1} << 16;

/// The global version clock, alone on its cache line.
struct alignas(64) PaddedClock {
    std::atomic<std::uint64_t> word{0};
};
static_assert(sizeof(PaddedClock) == 64 && alignof(PaddedClock) == 64,
              "the clock must not share its line with any other member");

class Tl2Context final : public TxContext {
public:
    /// Below this size read-set dedup uses a linear scan — for the common
    /// tiny transaction a handful of L1-hot compares beats any hashing.
    /// Past it, the SeenFilter takes over (seeded from the scanned prefix).
    static constexpr std::size_t kSmallScan = WriteLog::kScanThreshold;

    std::uint64_t rv = 0;  ///< read version (may be extended mid-attempt)
    /// Unique stripe locks read (dedup'd; a SeenFilter eviction can at
    /// worst record a duplicate, which only costs one extra validation).
    std::vector<std::atomic<std::uint64_t>*> read_set;
    /// Buffered writes: one entry per address in first-write order, with
    /// the scan-then-index read-own-write lookup.
    WriteLog write_set;
    /// Commit-time scratch: sorted unique stripe locks of the write set.
    std::vector<std::atomic<std::uint64_t>*> commit_locks;

    /// Records a stripe lock in the read set unless already present.
    void record_read(std::atomic<std::uint64_t>* lock) {
        if (!read_filter_on_) {
            for (std::atomic<std::uint64_t>* seen : read_set) {
                if (seen == lock) return;
            }
            read_set.push_back(lock);
            ++stats->tl2_read_set_entries;
            if (read_set.size() < kSmallScan) return;
            read_seen_.clear();  // seed the filter from the scanned prefix
            for (std::atomic<std::uint64_t>* seen : read_set) {
                (void)read_seen_.test_and_set(seen);
            }
            read_filter_on_ = true;
            return;
        }
        if (!read_seen_.test_and_set(lock)) {
            read_set.push_back(lock);
            ++stats->tl2_read_set_entries;
        }
    }

    void reset() {
        read_set.clear();
        write_set.clear();
        read_filter_on_ = false;
    }

private:
    SeenFilter<> read_seen_;
    bool read_filter_on_ = false;
};

class Tl2Backend final : public Backend {
public:
    explicit Tl2Backend(const StmConfig& config)
        : gv5_(config.tl2_clock == Tl2Clock::kGv5), locks_(kLocks) {}

    std::unique_ptr<TxContext> make_context() override {
        return std::make_unique<Tl2Context>();
    }

    std::uint32_t max_live_contexts() const noexcept override {
        return std::numeric_limits<std::uint32_t>::max();  // no slot pool
    }

    void begin(TxContext& cx_base) override {
        auto& cx = static_cast<Tl2Context&>(cx_base);
        cx.reset();
        cx.rv = clock_.word.load(std::memory_order_acquire);
    }

    std::uint64_t load(TxContext& cx_base, const std::uint64_t* addr) override {
        auto& cx = static_cast<Tl2Context&>(cx_base);
        if (!cx.write_set.empty()) {  // read-own-write only once one exists
            if (const WriteLog::Entry* w = cx.write_set.find(addr)) {
                return w->value;
            }
        }

        // Version check + data read is the interleaving-sensitive window;
        // stores only buffer locally, so loads are TL2's scheduling points.
        scheduler_yield(YieldPoint::kAcquireRead, YieldSite::kTl2Load);
        std::atomic<std::uint64_t>& lock = lock_for(addr);
        const std::uint64_t v1 = lock.load(std::memory_order_acquire);
        if ((v1 & 1) ||
            ((v1 >> 1) > cx.rv && !extend_read_version(cx, v1 >> 1))) {
            conflict_abort(cx);
        }
        const std::uint64_t value =
            std::atomic_ref<const std::uint64_t>(*addr).load(
                std::memory_order_acquire);
        const std::uint64_t v2 = lock.load(std::memory_order_acquire);
        if (v1 != v2) conflict_abort(cx);
        cx.record_read(&lock);
        return value;
    }

    void store(TxContext& cx_base, std::uint64_t* addr,
               std::uint64_t value) override {
        auto& cx = static_cast<Tl2Context&>(cx_base);
        if (WriteLog::Entry* w = cx.write_set.find(addr)) {
            w->value = value;
            return;
        }
        cx.write_set.push(addr, value);
    }

    bool commit(TxContext& cx_base) override {
        return try_commit(static_cast<Tl2Context&>(cx_base));
    }

    void abort(TxContext& cx_base) override {
        // Lazy versioning: nothing was published; just drop the buffers.
        static_cast<Tl2Context&>(cx_base).reset();
    }

private:
    [[nodiscard]] std::atomic<std::uint64_t>& lock_for(const std::uint64_t* addr) {
        const auto key = reinterpret_cast<std::uintptr_t>(addr) >> 3;
        return locks_[util::mix64(key) & (kLocks - 1)];
    }

    /// CAS-max: lifts the global clock to a stripe version observed beyond
    /// it (GV5 lag). Conflict path only; a no-op under GV1, where published
    /// versions never exceed the clock.
    void raise_clock_to(Tl2Context& cx, std::uint64_t version) noexcept {
        std::uint64_t cur = clock_.word.load(std::memory_order_relaxed);
        while (cur < version &&
               !clock_.word.compare_exchange_weak(cur, version,
                                                  std::memory_order_acq_rel)) {
            // Each failed iteration is one more writer racing us for the
            // clock cache line — the contention signal the adaptive layer
            // watches to fall back from gv5 to gv1.
            ++cx.stats->clock_cas_failures;
        }
    }

    /// A load found a stripe at `needed` > rv. Absorb the lag: advance the
    /// clock to `needed`, then re-prove the snapshot — every stripe read so
    /// far must still be at its pre-begin version (≤ the *old* rv and
    /// unlocked). On success rv becomes the new clock value and the load
    /// proceeds; on failure the transaction aborts (and the clock bump
    /// guarantees the retry begins past the blocking version).
    [[nodiscard]] bool extend_read_version(Tl2Context& cx,
                                           std::uint64_t needed) {
        raise_clock_to(cx, needed);
        const std::uint64_t extended =
            clock_.word.load(std::memory_order_acquire);
        for (std::atomic<std::uint64_t>* lock : cx.read_set) {
            ++cx.stats->tl2_validation_checks;
            const std::uint64_t v = lock->load(std::memory_order_acquire);
            if ((v & 1) || (v >> 1) > cx.rv) return false;
        }
        cx.rv = extended;
        return true;
    }

    [[noreturn]] static void conflict_abort(Tl2Context& cx) {
        ++cx.stats->true_conflicts;
        throw ConflictAbort{};
    }

    /// Pre: `locks` sorted. Validates every read-set stripe against rv; a
    /// locked stripe passes only when we hold the lock ourselves.
    [[nodiscard]] bool read_set_valid(
        Tl2Context& cx,
        const std::vector<std::atomic<std::uint64_t>*>& locks) {
        if (test_faults().skip_tl2_validation.load(std::memory_order_relaxed)) {
            return true;  // test-only fault: the oracle must catch this
        }
        for (std::atomic<std::uint64_t>* lock : cx.read_set) {
            ++cx.stats->tl2_validation_checks;
            const std::uint64_t v = lock->load(std::memory_order_acquire);
            const bool locked_by_me =
                (v & 1) &&
                std::binary_search(locks.begin(), locks.end(), lock);
            if (((v & 1) && !locked_by_me) || (v >> 1) > cx.rv) {
                if (!(v & 1)) raise_clock_to(cx, v >> 1);
                return false;
            }
        }
        return true;
    }

    static void release_locks(
        const std::vector<std::atomic<std::uint64_t>*>& locks,
        std::size_t count) noexcept {
        for (std::size_t i = 0; i < count; ++i) {
            locks[i]->fetch_and(~std::uint64_t{1}, std::memory_order_release);
        }
    }

    [[nodiscard]] bool try_commit(Tl2Context& cx) {
        if (cx.write_set.empty()) {
            return true;  // read-only: rv validation done per load
        }

        // Lock the write set in lock-address order (deadlock freedom), one
        // lock at most once. `commit_locks` is context-resident scratch.
        auto& locks = cx.commit_locks;
        locks.clear();
        locks.reserve(cx.write_set.size());
        for (const WriteLog::Entry& w : cx.write_set.entries()) {
            locks.push_back(&lock_for(w.addr));
        }
        std::sort(locks.begin(), locks.end());
        locks.erase(std::unique(locks.begin(), locks.end()), locks.end());

        std::size_t held = 0;
        for (; held < locks.size(); ++held) {
            std::uint64_t expected =
                locks[held]->load(std::memory_order_relaxed);
            // A locked word or a version beyond rv both doom the attempt.
            if ((expected & 1) || (expected >> 1) > cx.rv ||
                !locks[held]->compare_exchange_strong(
                    expected, expected | 1, std::memory_order_acquire)) {
                break;
            }
        }
        if (held != locks.size()) {
            release_locks(locks, held);
            // GV5 lag: an unlocked stripe beyond rv must lift the clock or
            // the retry would begin at the same rv and fail here forever.
            const std::uint64_t v =
                locks[held]->load(std::memory_order_relaxed);
            if (!(v & 1)) raise_clock_to(cx, v >> 1);
            ++cx.stats->true_conflicts;
            return false;
        }

        const std::uint64_t observed =
            clock_.word.load(std::memory_order_acquire);
        std::uint64_t wv;
        if (gv5_ && observed == cx.rv) {
            // GV5 skip: publish rv+1 without the fetch_add. Validation is
            // mandatory here — other skippers may have committed at rv+1
            // since begin without moving the clock; any such stripe in our
            // read set shows up as a version beyond rv.
            if (!read_set_valid(cx, locks)) {
                release_locks(locks, locks.size());
                ++cx.stats->true_conflicts;
                return false;
            }
            wv = cx.rv + 1;
        } else {
            wv = clock_.word.fetch_add(1, std::memory_order_acq_rel) + 1;
            // Validate the read set unless we were the only clock increment
            // since begin (TL2's rv+1 == wv shortcut).
            if (wv != cx.rv + 1 && !read_set_valid(cx, locks)) {
                release_locks(locks, locks.size());
                ++cx.stats->true_conflicts;
                return false;
            }
        }

        // Publish the write set, then release locks with the new version.
        for (const WriteLog::Entry& w : cx.write_set.entries()) {
            std::atomic_ref<std::uint64_t>(*w.addr).store(
                w.value, std::memory_order_release);
        }
        for (std::atomic<std::uint64_t>* lock : locks) {
            lock->store(wv << 1, std::memory_order_release);
        }
        return true;
    }

    const bool gv5_;
    std::vector<std::atomic<std::uint64_t>> locks_;
    PaddedClock clock_;
};

}  // namespace

std::unique_ptr<Backend> make_tl2_backend(const StmConfig& config) {
    return std::make_unique<Tl2Backend>(config);
}

}  // namespace tmb::stm::detail
