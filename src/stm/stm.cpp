#include "stm/stm.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>

#include "stm/backend.hpp"
#include "stm/contention.hpp"
#include "stm/sched_hook.hpp"
#include "util/hash.hpp"

namespace tmb::stm {

namespace {

[[nodiscard]] ContentionPolicy contention_policy_from(std::string_view name) {
    if (name == "backoff" || name == "exponential") {
        return ContentionPolicy::kExponentialBackoff;
    }
    if (name == "yield") return ContentionPolicy::kYield;
    if (name == "none") return ContentionPolicy::kNone;
    throw std::invalid_argument("unknown contention policy '" +
                                std::string(name) +
                                "' (known: backoff, yield, none)");
}

}  // namespace

std::string_view to_string(BackendKind kind) noexcept {
    switch (kind) {
        case BackendKind::kTaglessTable: return "tagless-table";
        case BackendKind::kTaggedTable: return "tagged-table";
        case BackendKind::kTl2: return "tl2";
        case BackendKind::kAdaptive: return "adaptive";
    }
    return "unknown";
}

BackendKind backend_kind_from_string(std::string_view name) {
    if (name == "tl2") return BackendKind::kTl2;
    if (name == "tagless" || name == "tagless-table" || name == "table") {
        return BackendKind::kTaglessTable;
    }
    if (name == "tagged" || name == "tagged-table") {
        return BackendKind::kTaggedTable;
    }
    if (name == "adaptive") return BackendKind::kAdaptive;
    throw std::invalid_argument(
        "unknown STM backend '" + std::string(name) +
        "' (known: tl2, table, tagless, tagged, adaptive)");
}

std::string_view to_string(Tl2Clock clock) noexcept {
    switch (clock) {
        case Tl2Clock::kGv1: return "gv1";
        case Tl2Clock::kGv5: return "gv5";
    }
    return "unknown";
}

Tl2Clock tl2_clock_from_string(std::string_view name) {
    if (name == "gv1") return Tl2Clock::kGv1;
    if (name == "gv5") return Tl2Clock::kGv5;
    throw std::invalid_argument("unknown TL2 clock scheme '" +
                                std::string(name) + "' (known: gv1, gv5)");
}

StmConfig stm_config_from(const config::Config& cfg) {
    StmConfig out;
    // `backend=` names the engine; `backend=table` (implied whenever only
    // `table=` is given) defers the metadata organization to `table=`, so
    // `--table=tagless` vs `--table=tagged` is a pure runtime switch.
    const std::string backend =
        cfg.get("backend", cfg.has("table") ? "table" : "tagged");
    // Resolves the {engine name, table=} pair to a concrete kind — shared
    // by the static path and the adaptive path's `engine=` key.
    const auto concrete_kind = [&cfg](const std::string& engine) {
        if (engine == "table") {
            const std::string table = cfg.get("table", "tagless");
            if (table == "tagless") return BackendKind::kTaglessTable;
            if (table == "tagged") return BackendKind::kTaggedTable;
            throw std::invalid_argument(
                "unknown STM table organization '" + table +
                "' (known: tagless, tagged)");
        }
        const BackendKind kind = backend_kind_from_string(engine);
        if (kind == BackendKind::kAdaptive) {
            throw std::invalid_argument(
                "adaptive engine= must name a concrete engine "
                "(table, tagless, tagged, tl2)");
        }
        (void)cfg.get("table", "");  // engine pinned; consume a stray table=
        return kind;
    };
    if (backend == "adaptive") {
        out.backend = BackendKind::kAdaptive;
        out.adapt.engine = concrete_kind(cfg.get("engine", "table"));
        out.adapt.policy = cfg.get("policy", out.adapt.policy);
        if (out.adapt.policy != "off" && out.adapt.policy != "auto" &&
            out.adapt.policy != "cycle") {
            throw std::invalid_argument("unknown adaptive policy '" +
                                        out.adapt.policy +
                                        "' (known: off, auto, cycle)");
        }
        out.adapt.epoch_commits =
            cfg.get_u64("epoch", out.adapt.epoch_commits);
        out.adapt.max_entries =
            cfg.get_u64("max_entries", out.adapt.max_entries);
    } else {
        out.backend = concrete_kind(backend);
        (void)cfg.get("engine", "");  // adaptive-only keys; consume strays
        (void)cfg.get("policy", "");
        (void)cfg.get_u64("epoch", 0);
        (void)cfg.get_u64("max_entries", 0);
    }
    out.table.entries = cfg.get_u64("entries", out.table.entries);
    out.table.hash = util::hash_kind_from_string(
        cfg.get("hash", util::to_string(out.table.hash)));
    out.block_bytes = cfg.get_u32("block_bytes", out.block_bytes);
    out.tl2_clock = tl2_clock_from_string(
        cfg.get("clock", std::string(to_string(out.tl2_clock))));
    out.commit_time_locks =
        cfg.get_bool("commit_time_locks", out.commit_time_locks);
    out.max_attempts = cfg.get_u32("max_attempts", out.max_attempts);
    if (const auto policy = cfg.get_optional("contention")) {
        out.contention.policy = contention_policy_from(*policy);
    }
    out.cache_blocks = cfg.get_u32("cache_blocks", out.cache_blocks);
    return out;
}

namespace detail {

std::unique_ptr<Backend> make_backend(const StmConfig& config,
                                      ReclaimDomain& reclaim) {
    switch (config.backend) {
        case BackendKind::kTl2: return make_tl2_backend(config);
        case BackendKind::kTaglessTable:
        case BackendKind::kTaggedTable:
            return make_table_backend(config);
        case BackendKind::kAdaptive:
            return make_adaptive_backend(config, reclaim);
    }
    throw std::invalid_argument("unknown STM backend kind");
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Transaction: thin forwarding layer over the backend.
// ---------------------------------------------------------------------------

std::uint64_t Transaction::load(const std::uint64_t* addr) {
    return backend_.load(cx_, addr);
}

void Transaction::store(std::uint64_t* addr, std::uint64_t value) {
    backend_.store(cx_, addr, value);
}

void Transaction::retry() {
    throw detail::ConflictAbort{.user_requested = true};
}

// ---------------------------------------------------------------------------
// Stm
// ---------------------------------------------------------------------------

class Stm::Impl {
public:
    explicit Impl(StmConfig config) : config_(std::move(config)) {
        // Shape the reclamation domain (magazine capacity, flush/poll
        // cadence) before anything can bind a context to it.
        reclaim_.configure(config_.cache_blocks);
        backend_ = detail::make_backend(config_, reclaim_);
        // Full capacity up front: release_context's push_back must not
        // throw (it runs inside a scope guard, possibly mid-unwind).
        context_pool_.reserve(kMaxPooledContexts);
    }

    /// Every context handed to the attempt loop is bound to the reclaim
    /// domain (epoch pin slot + tx_alloc support) exactly once, here.
    [[nodiscard]] std::unique_ptr<detail::TxContext> new_context() {
        auto cx = backend_->make_context();
        cx->bind_reclaim(reclaim_);
        return cx;
    }

    /// Contexts carry allocation-free tx-local structures (txlocal.hpp) and
    /// a reclaim binding that are cheap to reuse but not to build, so
    /// Stm::atomically draws them from a pool. A pooled context is parked:
    /// it holds no TxId, so the pool never starves Executors of slots.
    [[nodiscard]] std::unique_ptr<detail::TxContext> acquire_context() {
        std::unique_ptr<detail::TxContext> cx;
        {
            const std::lock_guard<std::mutex> guard(pool_mutex_);
            if (!context_pool_.empty()) {
                cx = std::move(context_pool_.back());
                context_pool_.pop_back();
            }
        }
        // Both may wait for a TxId, so neither runs under the pool mutex.
        if (!cx) return new_context();
        cx->unpark();
        return cx;
    }

    void release_context(std::unique_ptr<detail::TxContext> cx) {
        // Flush buffered retired blocks into the retired list so a pooled
        // context never sits on unreclaimable memory; park() then gives
        // back its TxId.
        reclaim_.flush_context(*cx);
        cx->park();
        {
            const std::lock_guard<std::mutex> guard(pool_mutex_);
            if (context_pool_.size() < kMaxPooledContexts) {
                context_pool_.push_back(std::move(cx));
                return;
            }
        }
        retire(std::move(cx));
    }

    /// Destroys a context (an Executor's, or a pooled one the full pool
    /// turned away) and adds its block to the retired total. The
    /// reclamation teardown counts too, so it runs before the merge; the
    /// destructor runs on return, outside the pool mutex.
    void retire(std::unique_ptr<detail::TxContext> cx) {
        cx->release_reclaim();
        add_retired(cx->counts);
    }

    /// Adds a block to the retired total: a retiring context's, or the
    /// one a reclaim_drain() counted into.
    void add_retired(const StmStats& counts) {
        const std::lock_guard<std::mutex> guard(pool_mutex_);
        retired_.merge(counts);
    }

    /// The retired total plus every parked context's block. A parked
    /// context has no running thread, and the pool mutex orders its last
    /// writes before this read.
    [[nodiscard]] StmStats stats() {
        const std::lock_guard<std::mutex> guard(pool_mutex_);
        StmStats out = retired_;
        for (const auto& cx : context_pool_) out.merge(cx->counts);
        return out;
    }

    StmConfig config_;
    // Declared before backend_ (and the pool below): contexts unregister
    // their pin slots and the adaptive wrapper drains retired blocks, so
    // the domain must be destroyed after both.
    detail::ReclaimDomain reclaim_;
    std::unique_ptr<detail::Backend> backend_;
    std::atomic<std::uint64_t> cm_seed_{0x5eedc0ffee123457ULL};

private:
    static constexpr std::size_t kMaxPooledContexts = 64;
    std::mutex pool_mutex_;  ///< guards context_pool_ and retired_
    std::vector<std::unique_ptr<detail::TxContext>> context_pool_;
    StmStats retired_;
};

Stm::Stm(StmConfig config) : impl_(std::make_unique<Impl>(std::move(config))) {}
Stm::~Stm() = default;

std::unique_ptr<Stm> Stm::create(const config::Config& cfg) {
    return std::make_unique<Stm>(stm_config_from(cfg));
}

StmStats Stm::stats() const noexcept { return impl_->stats(); }

const StmConfig& Stm::config() const noexcept { return impl_->config_; }

std::string Stm::backend_description() const {
    std::string described = impl_->backend_->describe();
    if (described.empty()) {
        described = std::string(to_string(impl_->config_.backend));
    }
    return described;
}

void Stm::run(detail::BodyRef body) {
    auto cx = impl_->acquire_context();
    // Return the context to the pool on every exit path (including
    // TooMuchContention and user exceptions, where abort() already rolled
    // the transaction back and the context is quiescent).
    struct Return {
        Impl* impl;
        std::unique_ptr<detail::TxContext>* cx;
        ~Return() { impl->release_context(std::move(*cx)); }
    } ret{impl_.get(), &cx};
    run_in(body, *cx,
           impl_->cm_seed_.fetch_add(0x9e3779b97f4a7c15ULL,
                                     std::memory_order_relaxed));
}

void Stm::run_in(detail::BodyRef body, detail::TxContext& cx,
                 std::uint64_t cm_seed) {
    detail::Backend& backend = *impl_->backend_;
    StmStats& stats = cx.counts;
    detail::ReclaimDomain& reclaim = impl_->reclaim_;
    ContentionManager cm(impl_->config_.contention, cm_seed);

    // Executor-quiescent point: between this context's transactions nothing
    // is pinned here, so allocator maintenance runs — flush a full retire
    // buffer into the retired list, spill an overfull magazine, and (on
    // this context's poll cadence) advance reclamation. O(1) when idle.
    reclaim.maintain(cx);

    std::uint32_t attempts = 0;
    for (;;) {
        ++attempts;
        detail::scheduler_yield(attempts == 1 ? detail::YieldPoint::kTxBegin
                                              : detail::YieldPoint::kRetry,
                                detail::YieldSite::kRunBegin);
        backend.begin(cx);
        // Pinned after begin (an adaptive begin may park waiting for a
        // swap; nothing is held while parked) and before the body's first
        // load — the window in which retired pointers could be observed.
        const detail::PinGuard pin(reclaim, cx.reclaim_slot);
        Transaction tx(backend, cx);
        try {
            body.invoke(body.object, tx);
        } catch (const detail::ConflictAbort& conflict) {
            backend.abort(cx);
            reclaim.rollback(cx);
            ++(conflict.user_requested ? stats.explicit_retries
                                       : stats.aborts);
            if (impl_->config_.max_attempts != 0 &&
                attempts >= impl_->config_.max_attempts) {
                throw TooMuchContention(attempts);
            }
            cm.on_abort();
            continue;
        } catch (...) {
            // User exception: roll back and propagate (failure atomicity).
            // The backend rolls shared words back first, so a speculative
            // block is unreachable before rollback() frees it.
            backend.abort(cx);
            reclaim.rollback(cx);
            throw;
        }

        try {
            detail::scheduler_yield(detail::YieldPoint::kCommit,
                                    detail::YieldSite::kRunCommit);
        } catch (...) {
            backend.abort(cx);  // harness cancellation: leave no metadata held
            reclaim.rollback(cx);
            throw;
        }
        if (backend.commit(cx)) {
            reclaim.commit(cx);
            stats.record_commit(attempts);
            return;
        }
        reclaim.rollback(cx);
        ++stats.aborts;
        if (impl_->config_.max_attempts != 0 &&
            attempts >= impl_->config_.max_attempts) {
            throw TooMuchContention(attempts);
        }
        cm.on_abort();
    }
}

std::unique_ptr<Executor> Stm::make_executor() {
    return std::unique_ptr<Executor>(new Executor(*this));
}

std::uint32_t Stm::max_live_executors() const noexcept {
    return impl_->backend_->max_live_contexts();
}

std::uint64_t Stm::occupied_metadata_entries() const noexcept {
    return impl_->backend_->occupied_metadata_entries();
}

ReclaimStats Stm::reclaim_stats() const noexcept {
    const StmStats s = stats();
    return {.tx_allocs = s.tx_allocs,
            .speculative_rollbacks = s.speculative_rollbacks,
            .tx_frees = s.tx_frees,
            .reclaimed = s.reclaimed};
}

void Stm::reclaim_drain() noexcept {
    // Drained blocks' destructors run here, outside the pool mutex.
    StmStats drained;
    impl_->reclaim_.drain_all(drained);
    impl_->add_retired(drained);
}

detail::ReclaimDomain& Stm::reclaim_domain() noexcept {
    return impl_->reclaim_;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(Stm& stm)
    : stm_(stm),
      cx_(stm.impl_->new_context()),
      cm_seed_(stm.impl_->cm_seed_.fetch_add(0x9e3779b97f4a7c15ULL,
                                             std::memory_order_relaxed)) {}

Executor::~Executor() { stm_.impl_->retire(std::move(cx_)); }

void Executor::run(detail::BodyRef body) {
    // Iterated-mix64 walk from this executor's private starting point — no
    // shared atomic on this path, and (unlike advancing every executor by
    // the same additive constant) no two executors' seed sequences lie on
    // one arithmetic progression, so their backoff jitter never locks step.
    cm_seed_ = util::mix64(cm_seed_);
    stm_.run_in(body, *cx_, cm_seed_);
}

StmStats Executor::stats() const noexcept { return cx_->counts; }

}  // namespace tmb::stm
