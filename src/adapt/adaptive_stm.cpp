// adaptive_stm.cpp — the epoch-based quiesce-and-swap backend behind
// `backend=adaptive`, built by the same engine factory as every other
// backend:
//
//   auto tm = stm::Stm::create(config::Config::from_string(
//       "backend=adaptive engine=table table=tagless entries=1024 "
//       "policy=auto epoch=512"));
//
// Epoch protocol:
//
//   1. Every attempt adds its outcome, its accesses (commits only), and
//      the conflicts and clock CAS failures it counted to the current
//      epoch's tallies when it commits or aborts. Every N commits (an
//      epoch boundary) the policy (adapt/policy.hpp)
//      examines the epoch sample; a switch decision is *staged* —
//      published as a pending config, never applied in the commit path.
//   2. A beginning transaction that sees a pending switch stands back
//      (yielding) instead of entering the engine; when the last in-flight
//      transaction drains, one beginner performs the swap: asserts the old
//      engine's metadata is fully released (occupied_metadata_entries()==0
//      — quiescence is a hard invariant, not a hope), builds the new engine
//      from the staged config, and republishes.
//   3. Contexts lazily rebind: each holds a shared_ptr to the epoch it was
//      created under, so the old engine outlives its last context even
//      after the swap, and no transaction ever spans two engines.
//
// Every swap passes a kPolicySwitch scheduler yield point, so the sched
// harness explores transitions like any other interleaving and the
// serializability oracle checks runs that switch engines mid-schedule.
//
// Correctness hinges on three protocol rules:
//
//   * Swaps run only in the *begin* path. The commit path merely counts and
//     stages; sched_hook.hpp's guarantee that a commit executes as one
//     scheduler step — the basis of the commit-order serializability oracle
//     — is untouched.
//   * A beginner and the swapper race on (in_flight, pending) with seq_cst
//     on both sides (the classic Dekker pattern): either the beginner
//     observes the pending flag and stands back, or the swapper observes
//     the beginner's in_flight increment and retries. Hence in_flight == 0
//     at the swap means *no* transaction is between begin and
//     commit/abort on the old engine.
//   * A waiting beginner yields YieldPoint::kRetry, which the sched
//     harness maps to Event::kAbort — so PCT schedules demote it and the
//     in-flight holder it is waiting for eventually runs (no priority
//     livelock).
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "adapt/policy.hpp"
#include "stm/backend.hpp"
#include "stm/sched_hook.hpp"

namespace tmb::stm::detail {

namespace {

/// One generation of the wrapped engine plus its epoch tallies. Contexts
/// keep their generation alive via shared_ptr, so transactions that bound
/// before a swap finish (and their contexts release engine slots) against
/// the engine they started on.
struct EngineEpoch {
    std::uint64_t seq = 0;
    StmConfig cfg;  ///< concrete (backend != kAdaptive)
    std::unique_ptr<Backend> engine;
    /// Epoch-local tallies (relaxed: folded into one sample at the boundary).
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts{0};
    std::atomic<std::uint64_t> accesses{0};
    std::atomic<std::uint64_t> true_conflicts{0};
    std::atomic<std::uint64_t> false_conflicts{0};
    std::atomic<std::uint64_t> clock_cas_failures{0};
};

class AdaptiveBackend;

/// Context wrapper: the inner context plus the epoch it is bound to.
/// Member order matters — inner_ must be destroyed (releasing its engine
/// slot) before epoch_ drops the engine itself. An unparked context counts
/// toward the policy's concurrency C; park/unpark forward to the inner
/// context, so the inner TxId is taken in unpark, before begin takes an
/// in-flight ticket. The inner context counts into this context's block.
class AdaptCx final : public TxContext {
public:
    explicit AdaptCx(AdaptiveBackend& owner);
    ~AdaptCx() override;

    void park() noexcept override;
    void unpark() override;

    AdaptiveBackend& owner_;
    std::shared_ptr<EngineEpoch> epoch_;
    std::unique_ptr<TxContext> inner_;
    std::uint64_t epoch_seq_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t attempt_accesses_ = 0;
    /// counts.{true_conflicts, false_conflicts, clock_cas_failures} when
    /// the attempt began.
    std::uint64_t begin_true_ = 0;
    std::uint64_t begin_false_ = 0;
    std::uint64_t begin_clock_cas_ = 0;
    bool parked_ = false;
};

class AdaptiveBackend final : public Backend {
public:
    AdaptiveBackend(const StmConfig& config, ReclaimDomain& reclaim)
        : outer_(config),
          policy_(adapt::policy_config_from(config.adapt)),
          reclaim_(reclaim) {
        if (config.adapt.engine == BackendKind::kAdaptive) {
            throw std::invalid_argument(
                "adaptive: inner engine must be concrete");
        }
        initial_ = config;
        initial_.backend = config.adapt.engine;
        auto first = std::make_shared<EngineEpoch>();
        first->cfg = initial_;
        first->engine = make_backend(initial_, reclaim_);
        capacity_ = first->engine->max_live_contexts();
        epoch_ = std::move(first);
        published_seq_.store(0, std::memory_order_release);
    }

    std::unique_ptr<TxContext> make_context() override {
        // Unbound: the inner context (and for table engines its TxId slot)
        // is acquired at first begin, against whatever epoch is then live.
        return std::make_unique<AdaptCx>(*this);
    }

    void begin(TxContext& cx_base) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        for (;;) {
            in_flight_.fetch_add(1, std::memory_order_seq_cst);
            if (!pending_.load(std::memory_order_seq_cst) && cx.inner_ &&
                cx.epoch_seq_ == published_seq_.load(std::memory_order_seq_cst)) {
                break;
            }
            // Either a switch is staged or this context is bound to a
            // retired epoch: stand back (no in_flight held across waiting,
            // or the drain could never complete) and rebind.
            in_flight_.fetch_sub(1, std::memory_order_seq_cst);
            wait_and_bind(cx);
        }
        cx.attempt_accesses_ = 0;
        cx.begin_true_ = cx.counts.true_conflicts;
        cx.begin_false_ = cx.counts.false_conflicts;
        cx.begin_clock_cas_ = cx.counts.clock_cas_failures;
        cx.epoch_->engine->begin(*cx.inner_);
    }

    std::uint64_t load(TxContext& cx_base, const std::uint64_t* addr) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        ++cx.attempt_accesses_;
        return cx.epoch_->engine->load(*cx.inner_, addr);
    }

    void store(TxContext& cx_base, std::uint64_t* addr,
               std::uint64_t value) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        ++cx.attempt_accesses_;
        cx.epoch_->engine->store(*cx.inner_, addr, value);
    }

    bool commit(TxContext& cx_base) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        EngineEpoch& ep = *cx.epoch_;
        const bool ok = ep.engine->commit(*cx.inner_);
        std::uint64_t epoch_commits = 0;
        std::uint64_t epoch_aborts = 0;
        if (ok) {
            epoch_commits = ep.commits.fetch_add(1, std::memory_order_relaxed) + 1;
            ep.accesses.fetch_add(cx.attempt_accesses_,
                                  std::memory_order_relaxed);
        } else {
            epoch_aborts = ep.aborts.fetch_add(1, std::memory_order_relaxed) + 1;
        }
        tally_conflicts(cx, ep);
        in_flight_.fetch_sub(1, std::memory_order_seq_cst);
        // Boundary check after the in-flight release: staging only sets a
        // flag, so this path never blocks and never yields.
        if ((ok && at_epoch_boundary(epoch_commits)) ||
            (!ok && at_abort_boundary(epoch_aborts))) {
            maybe_stage_switch(ep);
        }
        return ok;
    }

    void abort(TxContext& cx_base) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        EngineEpoch& ep = *cx.epoch_;
        ep.engine->abort(*cx.inner_);
        const std::uint64_t epoch_aborts =
            ep.aborts.fetch_add(1, std::memory_order_relaxed) + 1;
        tally_conflicts(cx, ep);
        in_flight_.fetch_sub(1, std::memory_order_seq_cst);
        if (at_abort_boundary(epoch_aborts)) maybe_stage_switch(ep);
    }

    std::uint32_t max_live_contexts() const noexcept override {
        // The policy never leaves the initial engine's family, so the
        // capacity quoted at construction holds across every swap.
        return capacity_;
    }

    std::uint64_t occupied_metadata_entries() const noexcept override {
        const std::lock_guard<std::mutex> lock(mutex_);
        return epoch_->engine->occupied_metadata_entries();
    }

    std::string describe() const override {
        std::shared_ptr<EngineEpoch> ep;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ep = epoch_;
        }
        return "adaptive(" + adapt::engine_spec(ep->cfg) +
               " epoch=" + std::to_string(ep->seq) + ")";
    }

    /// Unparked contexts, the model's C.
    std::atomic<std::uint32_t> live_contexts_{0};

private:
    /// Adds what the ending attempt counted since begin to the epoch's
    /// tallies; conflict-free attempts touch no shared word.
    static void tally_conflicts(const AdaptCx& cx, EngineEpoch& ep) {
        const auto add = [](std::atomic<std::uint64_t>& tally,
                            std::uint64_t now, std::uint64_t at_begin) {
            if (now != at_begin) {
                tally.fetch_add(now - at_begin, std::memory_order_relaxed);
            }
        };
        add(ep.true_conflicts, cx.counts.true_conflicts, cx.begin_true_);
        add(ep.false_conflicts, cx.counts.false_conflicts, cx.begin_false_);
        add(ep.clock_cas_failures, cx.counts.clock_cas_failures,
            cx.begin_clock_cas_);
    }

    [[nodiscard]] bool at_epoch_boundary(std::uint64_t epoch_commits) const {
        if (policy_.kind == adapt::PolicyConfig::Kind::kOff) return false;
        return epoch_commits % policy_.epoch_commits == 0;
    }

    /// Abort-side epoch boundary. Epochs normally advance on commits, but a
    /// configuration that starves (e.g. lazy acquisition livelocking
    /// read-modify-write upgrades) commits *nothing* — a commit-only
    /// boundary would pin it forever. Aborts therefore also close an epoch,
    /// at a multiple of the commit period so the abort path stays cheap and
    /// healthy epochs still close on commits.
    [[nodiscard]] bool at_abort_boundary(std::uint64_t epoch_aborts) const {
        if (policy_.kind == adapt::PolicyConfig::Kind::kOff) return false;
        if (epoch_aborts == 0) return false;
        return epoch_aborts % (policy_.epoch_commits * 4) == 0;
    }

    /// Closes the epoch sample and stages a switch when the policy asks
    /// for one. Runs under the mutex; commit-path callers only ever stage —
    /// the swap itself happens in wait_and_bind.
    void maybe_stage_switch(EngineEpoch& ep) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (epoch_.get() != &ep) return;  // raced with a completed swap
        if (pending_.load(std::memory_order_seq_cst)) return;
        adapt::EpochSample sample;
        sample.commits = ep.commits.load(std::memory_order_relaxed);
        sample.aborts = ep.aborts.load(std::memory_order_relaxed);
        sample.accesses = ep.accesses.load(std::memory_order_relaxed);
        sample.true_conflicts =
            ep.true_conflicts.load(std::memory_order_relaxed);
        sample.false_conflicts =
            ep.false_conflicts.load(std::memory_order_relaxed);
        sample.clock_cas_failures =
            ep.clock_cas_failures.load(std::memory_order_relaxed);
        const std::uint32_t live =
            live_contexts_.load(std::memory_order_relaxed);
        sample.concurrency = live ? live : 1;
        auto next = adapt::decide(policy_, ep.cfg, initial_, sample);
        if (!next) {
            // No change: reset the epoch tallies in place so the next
            // sample covers fresh attempts only.
            for (auto* tally : {&ep.commits, &ep.aborts, &ep.accesses,
                                &ep.true_conflicts, &ep.false_conflicts,
                                &ep.clock_cas_failures}) {
                tally->store(0, std::memory_order_relaxed);
            }
            return;
        }
        pending_cfg_ = *next;
        pending_.store(true, std::memory_order_seq_cst);
    }

    /// Slow begin path: drain/perform a staged swap, then bind the context
    /// to the live epoch. Called with no in_flight ticket held; may yield
    /// (and the harness may cancel the run by throwing through the yield).
    void wait_and_bind(AdaptCx& cx) {
        while (pending_.load(std::memory_order_seq_cst)) {
            if (try_swap(cx)) break;
            // Someone is still in flight (or another thread owns the swap
            // lock): let them run. kRetry so PCT demotes this waiter.
            scheduler_yield(YieldPoint::kRetry, YieldSite::kAdaptDrain);
            std::this_thread::yield();
        }
        std::shared_ptr<EngineEpoch> ep;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ep = epoch_;
        }
        if (cx.epoch_ != ep) {
            // Release the old engine's slot *before* acquiring on the new
            // engine — and outside the mutex: inner make_context can block
            // on slot exhaustion, and a parked beginner must not hold the
            // lock the releasing side needs.
            cx.inner_.reset();
            cx.epoch_ = ep;
            cx.inner_ = ep->engine->make_context();
            cx.inner_->stats = &cx.counts;
            cx.epoch_seq_ = ep->seq;
        }
    }

    /// Attempts the staged swap. True when the pending flag is clear on
    /// return (this thread swapped, or another already had); false when the
    /// caller should back off and retry (drain incomplete / lock busy). A
    /// swap counts in the swapping context's block.
    bool try_swap(AdaptCx& cx) {
        std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
        if (!lock.owns_lock()) return false;
        if (!pending_.load(std::memory_order_seq_cst)) return true;
        if (in_flight_.load(std::memory_order_seq_cst) != 0) return false;
        // Drained. The swap is a scheduling event like any other: announce
        // it so the sched harness can interleave other virtual threads
        // here (they will stand back on the pending flag). Yield outside
        // the lock — a granted thread may need it to park/bind.
        // Which transition the staged config represents: table regrow vs
        // engine/tag/locks/clock flip. Read under the lock (pending_cfg_ is
        // mutex-guarded), announced as its own decision site below so the
        // fuzzer's coverage distinguishes interleavings around the two.
        const bool resize =
            pending_cfg_.table.entries != epoch_->cfg.table.entries;
        lock.unlock();
        scheduler_yield(YieldPoint::kPolicySwitch, YieldSite::kAdaptSwap);
        scheduler_yield(YieldPoint::kPolicySwitch,
                        resize ? YieldSite::kAdaptResize
                               : YieldSite::kAdaptEngineSwitch);
        lock.lock();
        if (!pending_.load(std::memory_order_seq_cst)) return true;
        if (in_flight_.load(std::memory_order_seq_cst) != 0) return false;
        perform_swap_locked(cx);
        return true;
    }

    void perform_swap_locked(AdaptCx& cx) {
        EngineEpoch& old = *epoch_;
        // Quiescence is the protocol's hard invariant: zero transactions in
        // flight must mean zero metadata held. A violation here is a lost
        // release — fail loudly, exactly like the harness's end-of-run check.
        if (const std::uint64_t held = old.engine->occupied_metadata_entries()) {
            throw std::logic_error(
                "adaptive: engine swap with " + std::to_string(held) +
                " metadata entries still held (lost release?)");
        }
        // Quiescence also means no epoch pin is held (pins live strictly
        // between begin and commit/abort), so every retired block can be
        // released before the old engine goes away — a zombie reader that
        // observed a since-freed pointer through the old engine's metadata
        // no longer exists. The drain counts into the swapping context's
        // block, like the switch itself.
        reclaim_.drain_all(cx.counts);
        auto next = std::make_shared<EngineEpoch>();
        next->seq = old.seq + 1;
        next->cfg = pending_cfg_;
        next->engine = make_backend(pending_cfg_, reclaim_);
        ++cx.counts.policy_switches;
        if (next->cfg.table.entries != old.cfg.table.entries) {
            ++cx.counts.table_resizes;
        }
        epoch_ = std::move(next);  // old epoch lives on via bound contexts
        published_seq_.store(epoch_->seq, std::memory_order_seq_cst);
        pending_.store(false, std::memory_order_seq_cst);
    }

    StmConfig outer_;
    StmConfig initial_;  ///< concrete home shape (outer_ with adapt.engine)
    adapt::PolicyConfig policy_;
    ReclaimDomain& reclaim_;
    std::uint32_t capacity_ = 0;

    mutable std::mutex mutex_;
    std::shared_ptr<EngineEpoch> epoch_;     ///< guarded by mutex_
    StmConfig pending_cfg_;                  ///< guarded by mutex_
    std::atomic<std::uint64_t> published_seq_{0};
    std::atomic<bool> pending_{false};
    std::atomic<std::uint64_t> in_flight_{0};
};

AdaptCx::AdaptCx(AdaptiveBackend& owner) : owner_(owner) {
    owner_.live_contexts_.fetch_add(1, std::memory_order_relaxed);
}

AdaptCx::~AdaptCx() {
    if (!parked_) owner_.live_contexts_.fetch_sub(1, std::memory_order_relaxed);
}

void AdaptCx::park() noexcept {
    if (inner_) inner_->park();
    parked_ = true;
    owner_.live_contexts_.fetch_sub(1, std::memory_order_relaxed);
}

void AdaptCx::unpark() {
    owner_.live_contexts_.fetch_add(1, std::memory_order_relaxed);
    parked_ = false;
    if (inner_) inner_->unpark();
}

}  // namespace

std::unique_ptr<Backend> make_adaptive_backend(const StmConfig& config,
                                               ReclaimDomain& reclaim) {
    return std::make_unique<AdaptiveBackend>(config, reclaim);
}

}  // namespace tmb::stm::detail
