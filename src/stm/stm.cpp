#include "stm/stm.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "config/registry.hpp"
#include "stm/backend.hpp"
#include "stm/contention.hpp"
#include "stm/sched_hook.hpp"
#include "util/hash.hpp"

namespace tmb::stm {

namespace {

/// Backend engines are registered by *engine* name — the organization of
/// the conflict-detection metadata lives in StmConfig (`table` backends
/// cover both tagless and tagged ownership tables).
using BackendRegistry =
    config::Registry<detail::Backend, const StmConfig&, detail::SharedStats&,
                     detail::ReclaimDomain&>;

BackendRegistry& backend_registry() {
    static const bool bootstrapped = [] {
        auto& r = BackendRegistry::instance();
        r.add_default("tl2", [](const config::Config&, const StmConfig& c,
                        detail::SharedStats& s, detail::ReclaimDomain& d) {
            return detail::make_tl2_backend(c, s, d);
        });
        r.add_default("table", [](const config::Config&, const StmConfig& c,
                          detail::SharedStats& s, detail::ReclaimDomain& d) {
            return detail::make_table_backend(c, s, d);
        });
        r.add_default("adaptive", [](const config::Config&, const StmConfig& c,
                             detail::SharedStats& s, detail::ReclaimDomain& d) {
            return detail::make_adaptive_backend(c, s, d);
        });
        return true;
    }();
    (void)bootstrapped;
    return BackendRegistry::instance();
}

/// Registry key the built-in kinds resolve to.
[[nodiscard]] std::string_view registry_key(BackendKind kind) noexcept {
    switch (kind) {
        case BackendKind::kTl2: return "tl2";
        case BackendKind::kTaglessTable:
        case BackendKind::kTaggedTable: return "table";
        case BackendKind::kAdaptive: return "adaptive";
    }
    return "table";
}

/// Value-type snapshot of an instrumentation block (instance-wide or an
/// executor shard).
[[nodiscard]] StmStats snapshot(const detail::Instrumentation& in) noexcept {
    StmStats out;
    out.commits = in.commits.load(std::memory_order_relaxed);
    out.aborts = in.aborts.load(std::memory_order_relaxed);
    out.explicit_retries = in.explicit_retries.load(std::memory_order_relaxed);
    out.true_conflicts = in.true_conflicts.load(std::memory_order_relaxed);
    out.false_conflicts = in.false_conflicts.load(std::memory_order_relaxed);
    out.tl2_read_set_entries =
        in.tl2_read_set_entries.load(std::memory_order_relaxed);
    out.tl2_validation_checks =
        in.tl2_validation_checks.load(std::memory_order_relaxed);
    out.clock_cas_failures =
        in.clock_cas_failures.load(std::memory_order_relaxed);
    out.policy_switches = in.policy_switches.load(std::memory_order_relaxed);
    out.table_resizes = in.table_resizes.load(std::memory_order_relaxed);
    out.attempts_per_commit = in.attempts_histogram();
    return out;
}

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

std::vector<std::string> backend_names() { return backend_registry().names(); }

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
        out.adapt.epoch_ms = cfg.get_u32("epoch_ms", out.adapt.epoch_ms);
        out.adapt.max_entries =
            cfg.get_u64("max_entries", out.adapt.max_entries);
    } else {
        out.backend = concrete_kind(backend);
        (void)cfg.get("engine", "");  // adaptive-only keys; consume strays
        (void)cfg.get("policy", "");
        (void)cfg.get_u64("epoch", 0);
        (void)cfg.get_u32("epoch_ms", 0);
        (void)cfg.get_u64("max_entries", 0);
    }
    out.table.entries = cfg.get_u64("entries", out.table.entries);
    out.table.hash = util::hash_kind_from_string(
        cfg.get("hash", util::to_string(out.table.hash)));
    out.block_bytes = cfg.get_u32("block_bytes", out.block_bytes);
    out.tl2_locks = cfg.get_u64("tl2_locks", out.tl2_locks);
    out.tl2_clock = tl2_clock_from_string(
        cfg.get("clock", std::string(to_string(out.tl2_clock))));
    out.commit_time_locks =
        cfg.get_bool("commit_time_locks", out.commit_time_locks);
    out.max_attempts = cfg.get_u32("max_attempts", out.max_attempts);
    if (const auto policy = cfg.get_optional("contention")) {
        out.contention.policy = contention_policy_from(*policy);
    }
    out.cache_blocks = cfg.get_u32("cache_blocks", out.cache_blocks);
    out.cache_bytes = cfg.get_u64("cache_bytes", out.cache_bytes);
    out.reclaim_shards = cfg.get_u32("reclaim_shards", out.reclaim_shards);
    return out;
}

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
        // Shape the reclamation domain (magazine capacity, shard count,
        // flush/poll cadence) before anything can bind a context to it.
        const std::uint32_t shards =
            config_.reclaim_shards != 0
                ? config_.reclaim_shards
                : std::max(1u, std::thread::hardware_concurrency());
        reclaim_.configure(config_.cache_blocks, config_.cache_bytes, shards);
        // All construction funnels through the registry, so an engine
        // registered at runtime is selectable exactly like the built-ins.
        backend_ = backend_registry().create(registry_key(config_.backend),
                                             config::Config{}, config_, stats_,
                                             reclaim_);
        // Contexts carry allocation-free tx-local structures (txlocal.hpp)
        // that are cheap to reuse but not to construct; pool them for the
        // convenience Stm::atomically path. Only backends without a slot
        // cap participate: a pooled table-backend context would pin its
        // TxId slot and could starve Executors of slots.
        pool_contexts_ = backend_->max_live_contexts() ==
                         std::numeric_limits<std::uint32_t>::max();
        // Full capacity up front: release_context's push_back must not
        // throw (it runs inside a scope guard, possibly mid-unwind).
        if (pool_contexts_) context_pool_.reserve(kMaxPooledContexts);
    }

    /// Every context handed to the attempt loop is bound to the reclaim
    /// domain (epoch pin slot + tx_alloc support) exactly once, here.
    [[nodiscard]] std::unique_ptr<detail::TxContext> new_context() {
        auto cx = backend_->make_context();
        cx->bind_reclaim(reclaim_);
        return cx;
    }

    [[nodiscard]] std::unique_ptr<detail::TxContext> acquire_context() {
        if (pool_contexts_) {
            const std::lock_guard<std::mutex> guard(pool_mutex_);
            if (!context_pool_.empty()) {
                auto cx = std::move(context_pool_.back());
                context_pool_.pop_back();
                return cx;
            }
        }
        return new_context();
    }

    void release_context(std::unique_ptr<detail::TxContext> cx) {
        // A retiring context folds its locally accumulated counters into
        // the shared block (destruction flushes too; pooling would not),
        // and parks any buffered retired blocks in their shard so a pooled
        // context never sits on unreclaimable memory.
        cx->flush_stats();
        reclaim_.flush_context(*cx);
        if (pool_contexts_) {
            const std::lock_guard<std::mutex> guard(pool_mutex_);
            if (context_pool_.size() < kMaxPooledContexts) {
                context_pool_.push_back(std::move(cx));
                return;
            }
        }
        // Destroyed here (table backends: releases the TxId slot).
    }

    StmConfig config_;
    detail::SharedStats stats_;
    // Declared before backend_ (and the pool below): contexts unregister
    // their pin slots and the adaptive wrapper drains retired blocks, so
    // the domain must be destroyed after both.
    detail::ReclaimDomain reclaim_;
    std::unique_ptr<detail::Backend> backend_;
    std::atomic<std::uint64_t> cm_seed_{0x5eedc0ffee123457ULL};

private:
    static constexpr std::size_t kMaxPooledContexts = 64;
    bool pool_contexts_ = false;
    std::mutex pool_mutex_;
    std::vector<std::unique_ptr<detail::TxContext>> context_pool_;
};

Stm::Stm(StmConfig config) : impl_(std::make_unique<Impl>(std::move(config))) {}
Stm::~Stm() = default;

std::unique_ptr<Stm> Stm::create(const config::Config& cfg) {
    return std::make_unique<Stm>(stm_config_from(cfg));
}

StmStats Stm::stats() const noexcept {
    StmStats out = snapshot(impl_->stats_);
    // Allocator counters live on the reclamation domain (they are not
    // per-executor-sharded like Instrumentation), so the instance snapshot
    // carries them for Executor-run transactions too.
    const ReclaimStats reclaim = impl_->reclaim_.stats();
    out.alloc_cache_hits = reclaim.alloc_cache_hits;
    out.alloc_cache_misses = reclaim.alloc_cache_misses;
    out.reclaim_shard_flushes = reclaim.reclaim_shard_flushes;
    out.domain_mutex_acquires = reclaim.domain_mutex_acquires;
    return out;
}

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
    run_in(body, *cx, impl_->stats_,
           impl_->cm_seed_.fetch_add(0x9e3779b97f4a7c15ULL,
                                     std::memory_order_relaxed));
}

void Stm::run_in(detail::BodyRef body, detail::TxContext& cx,
                 detail::Instrumentation& stats, std::uint64_t cm_seed) {
    detail::Backend& backend = *impl_->backend_;
    detail::ReclaimDomain& reclaim = impl_->reclaim_;
    ContentionManager cm(impl_->config_.contention, cm_seed);

    // Executor-quiescent point: between this context's transactions nothing
    // is pinned here, so allocator maintenance runs — flush a full retire
    // buffer into its shard, spill an overfull magazine, and (on this
    // context's poll cadence) advance reclamation. O(1) when idle.
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
            auto& counter = conflict.user_requested ? stats.explicit_retries
                                                    : stats.aborts;
            counter.fetch_add(1, std::memory_order_relaxed);
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
        stats.aborts.fetch_add(1, std::memory_order_relaxed);
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
    return impl_->reclaim_.stats();
}

void Stm::reclaim_drain() noexcept { impl_->reclaim_.drain_all(); }

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

Executor::~Executor() = default;

void Executor::run(detail::BodyRef body) {
    // Iterated-mix64 walk from this executor's private starting point — no
    // shared atomic on this path, and (unlike advancing every executor by
    // the same additive constant) no two executors' seed sequences lie on
    // one arithmetic progression, so their backoff jitter never locks step.
    cm_seed_ = util::mix64(cm_seed_);
    stm_.run_in(body, *cx_, shard_, cm_seed_);
}

StmStats Executor::stats() const noexcept { return snapshot(shard_); }

}  // namespace tmb::stm
