// stm.hpp — public API of the word-based software transactional memory.
//
// This is the "real system" context for the paper's analysis: a word-based
// STM whose conflict-detection metadata organization is pluggable:
//
//   * BackendKind::kTaglessTable — ownership table per paper Fig. 1
//     (two-phase locking over lock-free single-CAS entries; false
//     conflicts under aliasing);
//   * BackendKind::kTaggedTable  — ownership table per paper Fig. 7
//     (tags + chaining; no false conflicts);
//   * BackendKind::kTl2          — TL2-style versioned write-locks with a
//     global version clock (Shavit/Dice/Shalev [19]), the classic word STM
//     design, as a baseline.
//
// Usage:
//
//   stm::Stm tm({.backend = stm::BackendKind::kTaggedTable});
//   stm::TVar<long> balance{100};
//   tm.atomically([&](stm::Transaction& tx) {
//       balance.write(tx, balance.read(tx) - 42);
//   });
//
// Transactions are serializable: table backends implement strict two-phase
// locking with abort-on-conflict (no waiting → no deadlock); TL2 validates
// read versions against the global clock at access and commit time.
//
// Threading: any thread may call atomically() at any time; with a table
// backend at most 62 transactions may be live simultaneously (a tagless
// entry is one 64-bit word whose top two bits hold the mode, leaving 62
// sharer bits; tagged tables share the cap so the adaptive runtime can
// swap between them). Further callers block until a slot frees up.
// Weak isolation: non-transactional accesses to data that a live
// transaction touches are not detected (the paper's §6 discusses why strong
// isolation makes tagless tables even less tenable).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "config/config.hpp"
#include "ownership/ownership.hpp"
#include "stm/contention.hpp"
#include "stm/instrumentation.hpp"
#include "stm/txalloc.hpp"
#include "util/histogram.hpp"

namespace tmb::stm {

/// Metadata organizations available to the runtime.
///
///   kTaglessTable   — Fig. 1 organization on lock-free single-CAS entries
///                     (true/false classification exact under the sched
///                     harness, best-effort on real threads).
///   kTaggedTable    — Fig. 7 tagged/chaining organization (no false
///                     conflicts), one metadata mutex.
///   kTl2            — TL2-style versioned locks + global version clock.
///   kAdaptive       — epoch-based policy layer (src/adapt/) wrapping one
///                     of the concrete engines above, re-tuning table
///                     organization / size / acquisition / clock online.
///
/// Both table kinds run on one engine (stm/table_backend.cpp) capped at 62
/// live transactions.
enum class BackendKind {
    kTaglessTable,
    kTaggedTable,
    kTl2,
    kAdaptive,
};

[[nodiscard]] std::string_view to_string(BackendKind kind) noexcept;

/// Inverse of to_string for runtime `--backend=` flags. Accepts the
/// canonical names plus the flag spellings "table" (tagless organization),
/// "tagless", "tagged" and "tl2"; throws std::invalid_argument on anything
/// else.
[[nodiscard]] BackendKind backend_kind_from_string(std::string_view name);

/// TL2 global-version-clock scheme (tl2 backend only).
///
///   kGv1 — classic TL2: every writer commit performs fetch_add on the
///          global clock; simple, but the clock cache line is the hottest
///          contended word in the system.
///   kGv5 — a writer whose commit-time clock still equals its read version
///          validates its read set and, when clean, publishes rv+1 WITHOUT
///          touching the clock. Stripe versions may then run one ahead of
///          the clock; a load observing such a version advances the clock
///          (fetch_max, conflict path only) and revalidates its read set at
///          the new version instead of aborting. Commits that see a moved
///          clock fall back to fetch_add, bounding the lag to one.
enum class Tl2Clock { kGv1, kGv5 };

[[nodiscard]] std::string_view to_string(Tl2Clock clock) noexcept;
[[nodiscard]] Tl2Clock tl2_clock_from_string(std::string_view name);

/// Adaptive-backend policy knobs (backend = kAdaptive only). Defined here
/// rather than in src/adapt/ so StmConfig stays a single value type; the
/// policy semantics live in adapt/policy.hpp.
struct AdaptConfig {
    /// Initial wrapped engine; the policy mutates organization/size/clock
    /// within this engine's family (table↔tagged, gv1↔gv5), never across
    /// families, so capacity guarantees given at construction keep holding.
    BackendKind engine = BackendKind::kTaglessTable;
    /// off (never switch) | auto (threshold rules + birthday model) |
    /// cycle (deterministic rotation through the family's shapes — the
    /// test/fuzz mode that forces every transition).
    std::string policy = "auto";
    /// Re-evaluate after this many commits in the current epoch.
    std::uint64_t epoch_commits = 4096;
    /// Growth cap for birthday-model table resizes.
    std::uint64_t max_entries = std::uint64_t{1} << 22;
};

/// Runtime configuration.
struct StmConfig {
    BackendKind backend = BackendKind::kTaggedTable;
    /// Ownership-table shape (table backends only).
    ownership::TableConfig table{.entries = 1u << 16,
                                 .hash = util::HashKind::kMix64};
    /// Conflict-tracking granularity in bytes (table backends): the paper
    /// uses 64-byte cache blocks. Must be a power of two >= 8.
    std::uint32_t block_bytes = 64;
    /// Global-clock scheme (TL2 backend). kGv5 removes the per-commit
    /// fetch_add from uncontended writer commits; see Tl2Clock.
    Tl2Clock tl2_clock = Tl2Clock::kGv5;
    /// Table backends only: acquire WRITE ownership at commit time (lazy /
    /// commit-time locking with a redo buffer) instead of at first write
    /// (eager / encounter-time locking with an undo log). Read ownership is
    /// always acquired at encounter, so both variants are strict 2PL and
    /// serializable; they differ in when write-write conflicts surface and
    /// how long write ownership is held.
    bool commit_time_locks = false;
    ContentionConfig contention{};
    /// Abort an atomically() call with TooMuchContention after this many
    /// consecutive failed attempts (0 = retry forever).
    std::uint32_t max_attempts = 0;
    /// Per-context free-block cache: blocks retained per size class in each
    /// context's magazines (txalloc.hpp). 0 disables caching entirely AND
    /// restores the per-commit retire/poll cadence — the differential
    /// baseline for tests.
    std::uint32_t cache_blocks = 64;
    /// Striped retirement shards in the reclamation domain. 0 (default) =
    /// hardware concurrency.
    std::uint32_t reclaim_shards = 0;
    /// Policy layer (backend = kAdaptive only).
    AdaptConfig adapt{};
};

/// Parses an StmConfig from string key/values. Keys:
///   backend           tl2 | table | tagless | tagged | adaptive (default
///                     "tagged"; "table" selects the organization named by
///                     `table`)
///   table             ownership organization for table backends
///   entries           ownership-table slots (default 65536; accepts "64k")
///   hash              shift-mask | multiplicative | mix64
///   block_bytes       conflict-tracking granularity (default 64)
///   clock             gv1 | gv5 (TL2 global-clock scheme, default gv5)
///   commit_time_locks eager (false, default) vs lazy write locking
///   max_attempts      TooMuchContention threshold (default 0 = forever)
///   contention        backoff | yield | none
///   cache_blocks      free-block cache capacity per size class per context
///                     (default 64; 0 = cache off + per-commit reclaim
///                     cadence, the differential-test baseline)
///   reclaim_shards    striped retirement shards (default 0 = hardware
///                     concurrency)
///
/// backend=adaptive adds:
///   engine       initial wrapped engine: table (organization from `table`,
///                default) | tagless | tagged | tl2
///   policy       off | auto | cycle (default auto)
///   epoch        commits per policy epoch (default 4096)
///   max_entries  table growth cap for birthday-model resizes (default 4m)
[[nodiscard]] StmConfig stm_config_from(const config::Config& cfg);

/// Counters exposed by Stm::stats(). Snapshot semantics; monotonic.
struct StmStats {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;            ///< conflict-induced aborts
    std::uint64_t explicit_retries = 0;  ///< Transaction::retry() calls
    /// Table backends classify each conflict by checking whether any
    /// conflicting transaction actually holds the same block: same block →
    /// true conflict; different blocks aliasing to one entry → false
    /// conflict (tagless only; tagged tables never report one).
    std::uint64_t true_conflicts = 0;
    std::uint64_t false_conflicts = 0;
    /// TL2 only: unique stripe locks recorded into read sets (dedup'd — a
    /// re-read of a stripe adds nothing) and lock words examined by
    /// commit-time validation / read-version extension. Validation work per
    /// transaction equals the unique-stripe count, not the load count.
    /// Accumulated per context and folded in when the context parks (end
    /// of an Stm::atomically call) or retires (Executor destruction): exact
    /// at quiescent points, possibly stale while executors are live.
    std::uint64_t tl2_read_set_entries = 0;
    std::uint64_t tl2_validation_checks = 0;
    /// TL2 only: failed CAS iterations advancing the global version clock
    /// (see Instrumentation::clock_cas_failures).
    std::uint64_t clock_cas_failures = 0;
    /// Adaptive backend only: completed engine swaps, and the subset that
    /// changed the ownership-table entry count.
    std::uint64_t policy_switches = 0;
    std::uint64_t table_resizes = 0;
    /// Transactional allocator (txalloc.hpp): tx_allocs served from a
    /// per-context magazine vs everything else (depot refill or heap), how
    /// many retire-buffer batches were parked in a shard, and every
    /// acquisition of any reclamation-domain mutex (epoch registry, shard,
    /// depot) — the lock-pressure metric the free-block cache is meant to
    /// crush. Domain-wide, so Stm::stats() reports them even for
    /// Executor-run transactions; exact at quiescent points.
    std::uint64_t alloc_cache_hits = 0;
    std::uint64_t alloc_cache_misses = 0;
    std::uint64_t reclaim_shard_flushes = 0;
    std::uint64_t domain_mutex_acquires = 0;
    /// Attempts-per-committed-transaction distribution (bucket = attempt
    /// count, 1 = first-try commit); the user-visible retry cost of the
    /// conflicts — false ones included — that the paper models.
    util::Histogram attempts_per_commit{32};

    /// Mean attempts a committed transaction needed (1.0 = no retries).
    [[nodiscard]] double mean_attempts() const noexcept {
        return attempts_per_commit.total() ? attempts_per_commit.mean() : 1.0;
    }

    [[nodiscard]] double abort_rate() const noexcept {
        const auto attempts = commits + aborts;
        return attempts ? static_cast<double>(aborts) /
                              static_cast<double>(attempts)
                        : 0.0;
    }

    /// Every counter field above, for code that sums or diffs snapshots
    /// field by field; a new counter goes here too.
    static constexpr auto counters() noexcept {
        return std::array{
            &StmStats::commits,          &StmStats::aborts,
            &StmStats::explicit_retries, &StmStats::true_conflicts,
            &StmStats::false_conflicts,  &StmStats::tl2_read_set_entries,
            &StmStats::tl2_validation_checks,
            &StmStats::clock_cas_failures,
            &StmStats::policy_switches,  &StmStats::table_resizes,
            &StmStats::alloc_cache_hits, &StmStats::alloc_cache_misses,
            &StmStats::reclaim_shard_flushes,
            &StmStats::domain_mutex_acquires,
        };
    }

    /// Accumulates `other` into this snapshot (counters sum, histograms
    /// merge). The execution engine uses this to fold per-thread Executor
    /// shards into one engine-wide StmStats at join time.
    void merge(const StmStats& other) {
        for (const auto field : counters()) this->*field += other.*field;
        attempts_per_commit.merge(other.attempts_per_commit);
    }
};

/// Thrown by atomically() when max_attempts is exhausted.
class TooMuchContention : public std::runtime_error {
public:
    explicit TooMuchContention(std::uint32_t attempts)
        : std::runtime_error("transaction aborted after " +
                             std::to_string(attempts) + " attempts") {}
};

class Transaction;

namespace detail {

/// Internal control-flow exception: conflict detected, roll back and retry.
/// Never escapes atomically().
struct ConflictAbort {
    bool user_requested = false;
};

class Backend;
class TxContext;

/// Type-erased reference to a transaction body (no allocation).
struct BodyRef {
    void* object;
    void (*invoke)(void*, Transaction&);
};

}  // namespace detail

class Stm;
class Executor;

/// Handle passed to the user's transaction body. All transactional data
/// access goes through this object; it is valid only during the atomically()
/// call that created it.
class Transaction {
public:
    Transaction(const Transaction&) = delete;
    Transaction& operator=(const Transaction&) = delete;

    /// Transactionally reads the 8-byte word at `addr` (8-byte aligned).
    [[nodiscard]] std::uint64_t load(const std::uint64_t* addr);

    /// Transactionally writes the 8-byte word at `addr`.
    void store(std::uint64_t* addr, std::uint64_t value);

    /// Aborts the current attempt and re-executes the body (e.g. when a
    /// precondition does not hold yet). Counted in StmStats::explicit_retries.
    [[noreturn]] void retry();

    /// Transactionally allocates a T. If the attempt aborts (conflict,
    /// retry(), failed commit, or an escaping exception), the object is
    /// destroyed and freed automatically; it survives only when the attempt
    /// commits. The object is private to this transaction until the store
    /// that publishes its address commits, so initializing it with
    /// TVar::unsafe_write before that store is safe.
    ///
    /// Small types (<= detail::kMaxCachedBytes, default-aligned) draw their
    /// storage from the context's free-block magazine when one is resident —
    /// the steady-state path touches no lock and no heap. A block allocated
    /// here must be freed via tx_free<T> with the same type T (its storage
    /// is size-class raw memory, not a `new T` allocation).
    template <typename T, typename... Args>
    [[nodiscard]] T* tx_alloc(Args&&... args) {
        constexpr std::uint16_t sc =
            detail::size_class_for(sizeof(T), alignof(T));
        if constexpr (sc != detail::kUncachedClass) {
            void* raw = cache_fetch(sc);
            T* ptr;
            try {
                ptr = ::new (raw) T(std::forward<Args>(args)...);
            } catch (...) {
                cache_unfetch(raw, sc);
                throw;
            }
            record_alloc(
                ptr, [](void* p) noexcept { static_cast<T*>(p)->~T(); }, sc);
            return ptr;
        } else {
            alloc_hook();
            T* ptr = new T(std::forward<Args>(args)...);
            record_alloc(
                ptr, [](void* p) noexcept { delete static_cast<T*>(p); },
                detail::kUncachedClass);
            return ptr;
        }
    }

    /// Transactionally frees `ptr` (a block obtained from tx_alloc<T>, in
    /// this or an earlier committed transaction — same T, cv-unqualified).
    /// The free is deferred: nothing happens unless the attempt commits, and
    /// even then the memory is only *retired* — epoch-based reclamation
    /// releases it once no concurrent (possibly doomed) reader can still
    /// hold the pointer (cacheable storage then recycles through the
    /// magazines/depot). Freeing a block twice in one transaction throws
    /// std::logic_error; tx_free(nullptr) is a no-op.
    template <typename T>
    void tx_free(T* ptr) {
        constexpr std::uint16_t sc =
            detail::size_class_for(sizeof(T), alignof(T));
        if constexpr (sc != detail::kUncachedClass) {
            record_free(
                ptr, [](void* p) noexcept { static_cast<T*>(p)->~T(); }, sc);
        } else {
            record_free(
                ptr, [](void* p) noexcept { delete static_cast<T*>(p); },
                detail::kUncachedClass);
        }
    }

private:
    friend class Stm;
    Transaction(detail::Backend& backend, detail::TxContext& cx)
        : backend_(backend), cx_(cx) {}

    // txalloc.cpp: yield + log-capacity hooks, storage fetch/unfetch against
    // the context's magazine (falling back to depot/heap), then the nothrow
    // record. `destroy` runs the destructor only for cacheable size classes
    // (storage recycles separately); it is `delete` for uncached blocks.
    void alloc_hook();
    [[nodiscard]] void* cache_fetch(std::uint16_t size_class);
    void cache_unfetch(void* raw, std::uint16_t size_class) noexcept;
    void record_alloc(void* ptr, void (*destroy)(void*),
                      std::uint16_t size_class) noexcept;
    void record_free(void* ptr, void (*destroy)(void*),
                     std::uint16_t size_class);

    detail::Backend& backend_;
    detail::TxContext& cx_;
};

namespace detail {

/// Shared dispatcher behind Stm::atomically and Executor::atomically: wraps
/// `fn` in a type-erased BodyRef (capturing the result slot when fn returns
/// a value) and hands it to `run`, which loops attempts until commit.
template <typename RunFn, typename F>
    requires std::invocable<F&, Transaction&>
decltype(auto) run_body(RunFn run, F&& fn) {
    using R = std::invoke_result_t<F&, Transaction&>;
    if constexpr (std::is_void_v<R>) {
        BodyRef body{&fn, [](void* f, Transaction& tx) {
                         (*static_cast<std::remove_reference_t<F>*>(f))(tx);
                     }};
        run(body);
    } else if constexpr (std::is_default_constructible_v<R>) {
        // Default-construct the result slot: run() returns only after a
        // committed attempt overwrote it, and a definitely-initialized
        // object keeps -Wmaybe-uninitialized quiet in caller code.
        R out{};
        struct Capture {
            std::remove_reference_t<F>* fn;
            R* out;
        } capture{&fn, &out};
        BodyRef body{&capture, [](void* c, Transaction& tx) {
                         auto* cap = static_cast<Capture*>(c);
                         *cap->out = (*cap->fn)(tx);
                     }};
        run(body);
        return out;
    } else {
        std::optional<R> out;
        struct Capture {
            std::remove_reference_t<F>* fn;
            std::optional<R>* out;
        } capture{&fn, &out};
        BodyRef body{&capture, [](void* c, Transaction& tx) {
                         auto* cap = static_cast<Capture*>(c);
                         cap->out->emplace((*cap->fn)(tx));
                     }};
        run(body);
        return std::move(out).value();
    }
}

}  // namespace detail

/// A transactional variable holding a trivially copyable value of at most
/// 8 bytes. The storage is a single aligned word, so every backend can track
/// it precisely.
template <typename T>
    requires(std::is_trivially_copyable_v<T> && sizeof(T) <= 8)
class TVar {
public:
    TVar() noexcept { set_raw(T{}); }
    explicit TVar(T value) noexcept { set_raw(value); }

    TVar(const TVar&) = delete;
    TVar& operator=(const TVar&) = delete;

    [[nodiscard]] T read(Transaction& tx) const {
        return from_word(tx.load(&storage_));
    }
    void write(Transaction& tx, T value) {
        tx.store(&storage_, to_word(value));
    }

    /// Non-transactional read; safe only when no transaction can be writing
    /// (e.g. quiescent verification in tests).
    [[nodiscard]] T unsafe_read() const noexcept { return from_word(storage_); }

    /// Non-transactional write; safe only before the variable is published
    /// to other threads (e.g. initializing a freshly allocated container
    /// node before transactionally linking it in) or at quiescent points.
    void unsafe_write(T value) noexcept { storage_ = to_word(value); }

private:
    static std::uint64_t to_word(T value) noexcept {
        std::uint64_t w = 0;
        std::memcpy(&w, &value, sizeof(T));
        return w;
    }
    static T from_word(std::uint64_t w) noexcept {
        T value;
        std::memcpy(&value, &w, sizeof(T));
        return value;
    }
    void set_raw(T value) noexcept { storage_ = to_word(value); }

    alignas(8) mutable std::uint64_t storage_ = 0;
};

/// The STM runtime. One instance owns one metadata organization; independent
/// instances are fully isolated (do not share TVars between instances).
class Stm {
public:
    explicit Stm(StmConfig config);
    ~Stm();

    /// Constructs a runtime from string keys (stm_config_from) — the path
    /// every bench, example and tool uses:
    ///
    ///   auto tm = Stm::create(config::Config::from_string(
    ///       "backend=table table=tagless entries=16384"));
    ///
    /// `backend=` and `table=` map onto the closed BackendKind set;
    /// `table=` takes the same two names as ownership::make_table (tagless,
    /// tagged). The tagless engine runs on the lock-free AtomicTaglessTable.
    [[nodiscard]] static std::unique_ptr<Stm> create(const config::Config& cfg);

    Stm(const Stm&) = delete;
    Stm& operator=(const Stm&) = delete;

    /// Runs `fn(Transaction&)` as an atomic transaction, retrying on
    /// conflict with contention-managed backoff. Returns fn's result.
    /// `fn` must be safe to re-execute (no irrevocable side effects).
    ///
    /// Each call borrows a context from the instance's pool (for table
    /// backends it takes a transaction slot for the call's duration and
    /// gives it back after), so the steady state allocates nothing. It
    /// records into the instance-wide counters; an Executor skips the pool
    /// and keeps its counters in a private shard.
    template <typename F>
        requires std::invocable<F&, Transaction&>
    decltype(auto) atomically(F&& fn) {
        return detail::run_body(
            [this](detail::BodyRef body) { run(body); }, std::forward<F>(fn));
    }

    /// Creates a per-thread execution handle (see Executor). At most
    /// max_live_executors() may be alive at once for table backends; one
    /// more blocks until another is destroyed.
    [[nodiscard]] std::unique_ptr<Executor> make_executor();

    /// Number of Executors (more generally: concurrently live transactions)
    /// the configured backend supports — 62 for the table engine (both
    /// organizations, and an adaptive wrapper started on either);
    /// effectively unbounded for tl2.
    [[nodiscard]] std::uint32_t max_live_executors() const noexcept;

    /// Currently held conflict-metadata entries (ownership-table occupancy;
    /// always 0 for tl2). Exact only at quiescent points — with no
    /// transaction in flight this must be 0; anything else means a release
    /// was lost. The execution engine asserts this after every run.
    [[nodiscard]] std::uint64_t occupied_metadata_entries() const noexcept;

    /// Counters for transactions run through Stm::atomically() plus the
    /// backend's conflict classification (which covers Executor-run
    /// transactions too); Executor commit/abort counts live in the
    /// executors' own shards — merge() them in for an engine-wide view.
    [[nodiscard]] StmStats stats() const noexcept;
    [[nodiscard]] const StmConfig& config() const noexcept;

    /// Transactional-allocation counters (tx_alloc/tx_free/reclamation);
    /// exact at quiescent points, like occupied_metadata_entries().
    [[nodiscard]] ReclaimStats reclaim_stats() const noexcept;

    /// Releases every retired-but-unreclaimed block immediately. Quiescent
    /// points only (no transaction in flight) — the runner and tests call
    /// this after joining worker threads; the destructor drains implicitly.
    void reclaim_drain() noexcept;

    /// The instance's reclamation domain — harness/test hook (observer
    /// installation); not part of the stable API.
    [[nodiscard]] detail::ReclaimDomain& reclaim_domain() noexcept;

    /// Human-readable description of the *current* engine shape. Static
    /// backends describe their configuration; the adaptive backend reports
    /// the live epoch's engine (organization, entries, acquisition, clock),
    /// which changes as the policy switches.
    [[nodiscard]] std::string backend_description() const;

private:
    friend class Executor;

    void run(detail::BodyRef body);

    /// One attempt loop: begin/body/commit with retries, recording into
    /// `stats` (an executor's shard or the instance-wide block).
    void run_in(detail::BodyRef body, detail::TxContext& cx,
                detail::Instrumentation& stats, std::uint64_t cm_seed);

    class Impl;
    std::unique_ptr<Impl> impl_;
};

/// A per-thread execution handle — the unit of real concurrency in the
/// execution engine (exec::ParallelRunner binds one to each of its
/// threads). Compared to Stm::atomically it
///
///   * keeps one backend context for life, so a table-backend slot (TxId)
///     is acquired once per thread instead of once per call (pooled
///     Stm::atomically contexts hold none between calls, so Executors
///     created one after another on a quiet Stm bind TxIds 0, 1, 2, ...),
///     and
///   * records commits/aborts/attempt histograms into a private
///     Instrumentation shard — no shared counter is touched on the commit
///     fast path; shards are merged (StmStats::merge) after join.
///
/// An Executor must be used by one thread at a time; distinct Executors of
/// one Stm may run fully concurrently. It must not outlive its Stm.
class Executor {
public:
    ~Executor();
    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// Same contract as Stm::atomically (retry loop, contention backoff,
    /// TooMuchContention), against this executor's pinned context.
    template <typename F>
        requires std::invocable<F&, Transaction&>
    decltype(auto) atomically(F&& fn) {
        return detail::run_body(
            [this](detail::BodyRef body) { run(body); }, std::forward<F>(fn));
    }

    /// Snapshot of this executor's private shard only.
    [[nodiscard]] StmStats stats() const noexcept;

private:
    friend class Stm;
    explicit Executor(Stm& stm);

    void run(detail::BodyRef body);

    Stm& stm_;
    std::unique_ptr<detail::TxContext> cx_;
    detail::Instrumentation shard_;
    std::uint64_t cm_seed_;
};

}  // namespace tmb::stm
