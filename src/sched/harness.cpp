#include "sched/harness.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "sched/coverage.hpp"
#include "stm/sched_hook.hpp"
#include "stm/txalloc.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace tmb::sched {

namespace {

/// The shared words all runs execute over: one 64-byte block per slot in a
/// process-static 64-byte-aligned arena. A static arena means every run in
/// a process sees identical addresses (exact in-process replay even for
/// TL2's address-hashed locks), and — because the harness pins
/// hash=shift-mask — two slots alias in the ownership table iff their
/// *distance* is a multiple of the entry count, which no ASLR shift can
/// change. Safe to share across sequential runs: the harness zeroes it per
/// run and never runs two schedules concurrently in one process (runs are
/// serialized by design — the turnstile admits one OS thread at a time).
std::uint64_t* arena() {
    alignas(64) static std::uint64_t words[kMaxSlots * 8];
    return words;
}

[[nodiscard]] std::uint64_t* slot_addr(std::uint32_t slot) {
    return arena() + std::size_t{slot} * 8;  // 64-byte stride: 1 block/slot
}

/// The dyn-mode indirection target: each slot's arena word holds one of
/// these as a bit-cast pointer, and every write replaces the node
/// (tx_alloc + tx_free) rather than the value. Reads dereference the node
/// *transactionally* — exactly the access a doomed reader performs on a
/// stale pointer, which epoch reclamation must keep mapped.
struct DynNode {
    explicit DynNode(std::uint64_t v) noexcept : value_word(v) {}
    std::uint64_t value_word;
};

/// The lifetime oracle's ledger. While installed it vetoes *every* release
/// (on_reclaim returns false) and takes ownership of the block instead:
/// released nodes therefore stay mapped with their contents intact, so a
/// worker that touches one — the bug epoch reclamation exists to prevent —
/// reads defined memory, re-checks the ledger, and records a violation
/// instead of committing undefined behavior (and instead of tripping ASan
/// in the deliberately-broken eager_reclaim fault tests). Because nothing
/// is handed back to the heap until release_all() at end of run, addresses
/// are never recycled mid-run and the ledger can never go stale. No
/// locking: the turnstile admits one OS thread at a time, and the main
/// thread only touches the tracker before workers start / after they join.
class LifetimeTracker final : public stm::detail::ReclaimObserver {
public:
    ~LifetimeTracker() override { release_all(); }

    void on_alloc(void* ptr) noexcept override {
        if (released_.erase(ptr) != 0) {
            // Impossible while we own every released block — the heap
            // cannot hand one out again. Seeing it means a recycling path
            // (the leaky_cache fault's magazine short-circuit) handed out
            // a block before its epoch was safe. Ownership of the storage
            // passes back to the allocator with the block now live again,
            // so teardown frees it exactly once.
            record("allocator returned a block the lifetime oracle holds");
        }
    }

    [[nodiscard]] bool on_reclaim(void* ptr) noexcept override {
        if (!released_.insert(ptr).second) {
            record("reclaimer released one block twice");
        }
        return false;  // the tracker owns it now; freed in release_all()
    }

    [[nodiscard]] bool released(const void* ptr) const {
        return released_.count(const_cast<void*>(ptr)) != 0;
    }

    /// Hands the impounded blocks back to the heap. End of run only (all
    /// transactions finished, ledger checks done). Raw operator delete: the
    /// blocks were vetoed *before* the runtime ran their destructors or
    /// recycled their storage, so what we hold is size-class raw memory
    /// from tx_alloc's cacheable path (DynNode's destructor is trivial —
    /// skipping it loses nothing).
    void release_all() noexcept {
        for (void* ptr : released_) ::operator delete(ptr);
        released_.clear();
    }

    void record(std::string message) noexcept {
        if (!first_error_) first_error_ = std::move(message);
    }

    [[nodiscard]] const std::optional<std::string>& first_error() const {
        return first_error_;
    }

private:
    std::unordered_set<void*> released_;
    std::optional<std::string> first_error_;
};

/// Per-transaction seed: the accumulator's starting point, and the basis of
/// the commutative mode's write deltas.
[[nodiscard]] std::uint64_t tx_seed(const HarnessConfig& cfg, std::uint32_t t,
                                    std::uint32_t k) {
    return util::mix64(cfg.workload_seed ^
                       (std::uint64_t{t} * 0x9e3779b97f4a7c15ULL + k + 1));
}

[[nodiscard]] std::uint64_t op_delta(const HarnessConfig& cfg, std::uint32_t t,
                                     std::uint32_t k, std::size_t op_index) {
    return (util::mix64(tx_seed(cfg, t, k) ^ (op_index + 1)) & 0xff) + 1;
}

void validate(const HarnessConfig& cfg, const stm::Stm& tm) {
    if (cfg.threads == 0 || cfg.threads > kMaxScheduleThreads) {
        throw std::invalid_argument("sched harness: threads must be in [1, " +
                                    std::to_string(kMaxScheduleThreads) + "]");
    }
    if (cfg.threads > tm.max_live_executors()) {
        throw std::invalid_argument(
            "sched harness: threads=" + std::to_string(cfg.threads) +
            " exceeds the backend's capacity of " +
            std::to_string(tm.max_live_executors()));
    }
    if (cfg.slots == 0 || cfg.slots > kMaxSlots) {
        throw std::invalid_argument("sched harness: slots must be in [1, " +
                                    std::to_string(kMaxSlots) + "]");
    }
    if (cfg.txs_per_thread == 0 || cfg.ops_per_tx == 0) {
        throw std::invalid_argument(
            "sched harness: txs and ops must be >= 1");
    }
}

[[nodiscard]] std::string format_double(double v) {
    std::ostringstream os;
    os << v;
    return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Config plumbing
// ---------------------------------------------------------------------------

HarnessConfig harness_config_from(const config::Config& cfg) {
    HarnessConfig out;
    read_stm_spec(cfg, out);
    out.threads = cfg.get_u32("threads", out.threads);
    out.txs_per_thread = cfg.get_u32("txs", out.txs_per_thread);
    out.ops_per_tx = cfg.get_u32("ops", out.ops_per_tx);
    out.slots = cfg.get_u32("slots", out.slots);
    out.write_fraction = cfg.get_double("wfrac", out.write_fraction);
    out.read_only_fraction = cfg.get_double("rofrac", out.read_only_fraction);
    const std::string mode = cfg.get("mode", out.commutative ? "incr" : "acc");
    if (mode == "incr") {
        out.commutative = true;
        out.dynamic = false;
    } else if (mode == "acc") {
        out.commutative = false;
        out.dynamic = false;
    } else if (mode == "dyn") {
        // Node-replacing writes are order-sensitive (acc value rule), so
        // dyn is never commutative — the differential oracle excludes it.
        out.commutative = false;
        out.dynamic = true;
    } else {
        throw std::invalid_argument("sched harness: unknown mode '" + mode +
                                    "' (known: acc, incr, dyn)");
    }
    out.workload_seed = cfg.get_u64("wseed", out.workload_seed);
    if (cfg.has("cache_blocks")) {
        out.cache_blocks =
            static_cast<std::int64_t>(cfg.get_u64("cache_blocks", 0));
    }
    out.step_limit = cfg.get_u64("step_limit", out.step_limit);
    return out;
}

config::Config stm_spec(const HarnessConfig& cfg) {
    config::Config out = stm_config(cfg);
    if (cfg.cache_blocks >= 0) {
        out.set("cache_blocks", std::to_string(cfg.cache_blocks));
    }
    return out;
}

std::string repro_flags(const HarnessConfig& cfg) {
    std::string out = stm_repro_flags(cfg);
    out += " --threads=" + std::to_string(cfg.threads);
    out += " --txs=" + std::to_string(cfg.txs_per_thread);
    out += " --ops=" + std::to_string(cfg.ops_per_tx);
    out += " --slots=" + std::to_string(cfg.slots);
    out += " --wfrac=" + format_double(cfg.write_fraction);
    out += " --rofrac=" + format_double(cfg.read_only_fraction);
    out += std::string(" --mode=") +
           (cfg.dynamic ? "dyn" : (cfg.commutative ? "incr" : "acc"));
    out += " --wseed=" + std::to_string(cfg.workload_seed);
    if (cfg.cache_blocks >= 0) {
        out += " --cache_blocks=" + std::to_string(cfg.cache_blocks);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

std::vector<std::vector<TxProgram>> generate_programs(
    const HarnessConfig& cfg) {
    util::Xoshiro256 gen(util::mix64(cfg.workload_seed ^ 0x5eedfeedULL));
    std::vector<std::vector<TxProgram>> programs(cfg.threads);
    for (std::uint32_t t = 0; t < cfg.threads; ++t) {
        programs[t].resize(cfg.txs_per_thread);
        for (std::uint32_t k = 0; k < cfg.txs_per_thread; ++k) {
            TxProgram& prog = programs[t][k];
            const bool read_only = gen.bernoulli(cfg.read_only_fraction);
            bool has_write = false;
            for (std::uint32_t i = 0; i < cfg.ops_per_tx; ++i) {
                TxOp op;
                op.slot = static_cast<std::uint32_t>(gen.below(cfg.slots));
                op.is_write = !read_only && gen.bernoulli(cfg.write_fraction);
                has_write |= op.is_write;
                prog.ops.push_back(op);
            }
            // A "writer" transaction with zero sampled writes would dilute
            // both oracles; promote its last access.
            if (!read_only && !has_write) prog.ops.back().is_write = true;
        }
    }
    return programs;
}

// ---------------------------------------------------------------------------
// The scheduled run
// ---------------------------------------------------------------------------

RunResult run_schedule(const HarnessConfig& cfg,
                       const std::vector<std::vector<TxProgram>>& programs,
                       Schedule& schedule) {
    const auto tm = stm::Stm::create(stm_spec(cfg));
    return run_schedule(cfg, programs, schedule, *tm);
}

RunResult run_schedule(const HarnessConfig& cfg,
                       const std::vector<std::vector<TxProgram>>& programs,
                       Schedule& schedule, stm::Stm& tm) {
    if (programs.size() != cfg.threads) {
        throw std::invalid_argument(
            "sched harness: programs/threads mismatch");
    }
    validate(cfg, tm);

    std::fill(arena(), arena() + std::size_t{kMaxSlots} * 8, 0);

    // Dyn mode: arm the lifetime oracle on the runtime's reclaim domain,
    // then seed every slot with a tx_alloc'd node holding 0 (the serial
    // replay's initial state). The snapshot of the allocation ledger makes
    // the end-of-run balance check a per-run delta, so a caller-owned Stm
    // can host many dyn runs in sequence.
    LifetimeTracker tracker;
    const stm::ReclaimStats reclaim_before = tm.reclaim_stats();
    const stm::StmStats stats_before = tm.stats();
    struct ObserverGuard {
        stm::Stm* tm = nullptr;
        ~ObserverGuard() {
            if (tm) tm->reclaim_domain().set_observer(nullptr);
        }
    } observer_guard;
    if (cfg.dynamic) {
        tm.reclaim_domain().set_observer(&tracker);
        observer_guard.tm = &tm;
        for (std::uint32_t s = 0; s < cfg.slots; ++s) {
            tm.atomically([&](stm::Transaction& tx) {
                DynNode* node = tx.tx_alloc<DynNode>(0);
                tx.store(slot_addr(s), std::bit_cast<std::uint64_t>(node));
            });
        }
    }

    // Executors are created sequentially here so virtual thread t always
    // binds table TxId t — part of the determinism contract.
    std::vector<std::unique_ptr<stm::Executor>> executors;
    executors.reserve(cfg.threads);
    for (std::uint32_t t = 0; t < cfg.threads; ++t) {
        executors.push_back(tm.make_executor());
    }

    RunResult result;
    // Capacity retention: the commit log's final size is known up front,
    // and each record's read/write logs are bounded by the program length —
    // reserve once instead of growing on the hot turnstile path.
    result.commit_log.reserve(std::size_t{cfg.threads} * cfg.txs_per_thread);
    const auto body = [&](std::uint32_t t) {
        stm::Executor& exec = *executors[t];
        for (std::uint32_t k = 0; k < cfg.txs_per_thread; ++k) {
            const TxProgram& prog = programs[t][k];
            CommitRecord rec;
            rec.reads.reserve(prog.ops.size());
            rec.writes.reserve(prog.ops.size());
            // The body re-executes per attempt; only the successful
            // attempt's records survive (cleared on entry).
            exec.atomically([&](stm::Transaction& tx) {
                rec.reads.clear();
                rec.writes.clear();
                rec.begin_commits = result.commit_log.size();
                // Dyn: nodes this attempt already tx_free'd. Broken
                // reclamation can recycle one address into two
                // slots; freeing it twice must become a reported
                // violation, not a logic_error out of record_free.
                std::vector<DynNode*> freed;
                std::uint64_t acc = tx_seed(cfg, t, k);
                for (std::size_t i = 0; i < prog.ops.size(); ++i) {
                    const TxOp& op = prog.ops[i];
                    std::uint64_t v = 0;
                    DynNode* node = nullptr;
                    bool node_ok = false;
                    if (cfg.dynamic) {
                        node = std::bit_cast<DynNode*>(
                            tx.load(slot_addr(op.slot)));
                        // The lifetime oracle: dereferencing a
                        // released block is the failure epoch
                        // reclamation exists to prevent — report it
                        // and read 0 instead of touching freed
                        // memory (doomed readers included).
                        const auto uar = [&] {
                            tracker.record(
                                "use-after-reclaim: thread " +
                                std::to_string(t) +
                                " touched the released node of "
                                "slot " +
                                std::to_string(op.slot));
                        };
                        if (node == nullptr) {
                            tracker.record(
                                "thread " + std::to_string(t) +
                                " read a null node from slot " +
                                std::to_string(op.slot));
                        } else if (tracker.released(node)) {
                            uar();
                        } else {
                            node_ok = true;
                            // The load yields before it reads, so
                            // the node can be released while this
                            // attempt is parked holding the
                            // pointer: re-check after it returns,
                            // and on the abort path a doomed
                            // reader takes when its snapshot
                            // validation fails.
                            try {
                                v = tx.load(&node->value_word);
                            } catch (...) {
                                if (tracker.released(node)) uar();
                                throw;
                            }
                            if (tracker.released(node)) uar();
                        }
                    } else {
                        v = tx.load(slot_addr(op.slot));
                    }
                    rec.reads.push_back({op.slot, v});
                    acc = util::mix64(acc ^ v);
                    if (op.is_write) {
                        const std::uint64_t nv =
                            cfg.commutative
                                ? v + op_delta(cfg, t, k, i)
                                : util::mix64(acc);
                        if (cfg.dynamic) {
                            DynNode* fresh = tx.tx_alloc<DynNode>(nv);
                            tx.store(
                                slot_addr(op.slot),
                                std::bit_cast<std::uint64_t>(fresh));
                            if (node_ok &&
                                std::find(freed.begin(), freed.end(),
                                          node) != freed.end()) {
                                tracker.record(
                                    "one node reached two slots — "
                                    "second tx_free averted");
                            } else if (node_ok) {
                                tx.tx_free(node);
                                freed.push_back(node);
                            }
                        } else {
                            tx.store(slot_addr(op.slot), nv);
                        }
                        rec.writes.push_back({op.slot, nv});
                    }
                }
            });
            rec.thread = t;
            rec.tx_index = k;
            // Commit-log position == commit order: between the
            // backend's commit and this push no yield point runs,
            // so no other virtual thread can slip in between.
            result.commit_log.push_back(std::move(rec));
        }
    };
    const CoverageAccumulator coverage = drive(
        cfg.threads, cfg.step_limit, schedule, body,
        [&] { return result.commit_log.size(); }, result);

    result.final_state.resize(cfg.slots);
    std::uint64_t h = 0x5eedc0de ^ cfg.slots;
    for (std::uint32_t s = 0; s < cfg.slots; ++s) {
        if (cfg.dynamic) {
            // Quiescent: plain reads through the committed node pointers.
            auto* node = std::bit_cast<DynNode*>(*slot_addr(s));
            if (node == nullptr || tracker.released(node)) {
                tracker.record("slot " + std::to_string(s) + " holds a " +
                               (node == nullptr ? "null" : "released") +
                               " node at quiescence");
            } else {
                result.final_state[s] = node->value_word;
            }
        } else {
            result.final_state[s] = *slot_addr(s);
        }
        h = util::mix64(h ^ (result.final_state[s] +
                             s * 0x9e3779b97f4a7c15ULL));
    }
    result.state_hash = h;

    // This run's counts: the live executors' blocks, plus what the Stm's
    // view grew by (dyn mode's pooled seeding transactions, read before the
    // executors retire). The attempts histogram covers the executors'
    // transactions.
    const stm::StmStats stats_after = tm.stats();
    for (const auto field : stm::StmStats::counters()) {
        result.stats.*field = stats_after.*field - stats_before.*field;
    }
    for (const auto& exec : executors) result.stats.merge(exec->stats());
    result.signature = coverage.signature(result.stats);
    // Retire the executor contexts before the dyn balance check: their
    // buffered retired blocks must reach the retired list for the full
    // drain below to account for every tx_free.
    executors.clear();

    if (cfg.dynamic) {
        // Free the surviving nodes through the runtime so the allocation
        // ledger must balance: after a full drain any remaining pending
        // block or live-count delta is a reclaimer bug, and it becomes the
        // run's lifetime verdict alongside anything the workers recorded.
        // The leaky_cache fault is suspended for this cleanup: it targets
        // the workers' steady-state recycling (already recorded by now),
        // and letting it divert these frees into the runtime's *pooled*
        // context — whose magazine outlives the tracker — would leave
        // impounded blocks owned by both sides at teardown.
        const bool leaky_was =
            stm::detail::test_faults().leaky_cache.exchange(
                false, std::memory_order_relaxed);
        for (std::uint32_t s = 0; s < cfg.slots; ++s) {
            tm.atomically([&](stm::Transaction& tx) {
                auto* node =
                    std::bit_cast<DynNode*>(tx.load(slot_addr(s)));
                if (node != nullptr && !tracker.released(node)) {
                    tx.tx_free(node);
                }
                tx.store(slot_addr(s), 0);
            });
        }
        tm.reclaim_drain();
        const stm::ReclaimStats reclaim_after = tm.reclaim_stats();
        if (reclaim_after.pending_blocks() != 0) {
            tracker.record(
                std::to_string(reclaim_after.pending_blocks()) +
                " retired blocks still pending after a full drain");
        } else if (reclaim_after.live_blocks() !=
                   reclaim_before.live_blocks()) {
            tracker.record(
                "allocation ledger unbalanced at end of run: " +
                std::to_string(reclaim_after.live_blocks()) +
                " live blocks vs " +
                std::to_string(reclaim_before.live_blocks()) +
                " before it — leaked or over-released nodes");
        }
        result.lifetime_error = tracker.first_error();
        tracker.release_all();  // hand the impounded blocks back
        stm::detail::test_faults().leaky_cache.store(
            leaky_was, std::memory_order_relaxed);
    }

    if (!result.cancelled) {
        if (const std::uint64_t held = tm.occupied_metadata_entries()) {
            throw std::runtime_error(
                "sched harness: ownership table not quiescent after run: " +
                std::to_string(held) + " entries still held");
        }
    }
    return result;
}

// ---------------------------------------------------------------------------
// Serializability oracle
// ---------------------------------------------------------------------------

namespace {

/// Shared oracle core. With `require_complete`, every transaction must have
/// committed (the classic serializability oracle). Without it — the
/// kill-point / crash-consistency mode — the run may have been cancelled
/// mid-flight, and the oracle instead demands that whatever DID commit is a
/// per-thread gap-free prefix whose serial replay reproduces memory: no
/// torn writes from a transaction killed mid-commit, no lost effects of a
/// transaction that reported commit before the kill.
std::optional<std::string> oracle_core(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs, const RunResult& run,
    bool require_complete) {
    const auto describe = [&](std::uint32_t t, std::uint32_t k) {
        return "thread " + std::to_string(t) + " tx " + std::to_string(k);
    };
    if (run.lifetime_error) {
        return "lifetime oracle: " + *run.lifetime_error;
    }
    if (require_complete && run.cancelled) {
        return step_limit_error(run.steps, cfg.step_limit);
    }
    const std::uint64_t expected =
        std::uint64_t{cfg.threads} * cfg.txs_per_thread;
    if (require_complete ? run.commit_log.size() != expected
                         : run.commit_log.size() > expected) {
        return "commit log holds " + std::to_string(run.commit_log.size()) +
               " transactions, expected " +
               (require_complete ? "" : "at most ") + std::to_string(expected);
    }

    // Serial replay in commit order, keeping every intermediate state for
    // the read-only window check.
    std::vector<std::vector<std::uint64_t>> snapshots;
    snapshots.reserve(run.commit_log.size() + 1);
    snapshots.emplace_back(cfg.slots, 0);

    // Each thread runs its transactions in index order, so the global
    // commit log must show every thread's tx indices as a gap-free,
    // in-order prefix 0..k — in the kill-point mode this IS the
    // prefix-consistency property.
    std::vector<std::uint32_t> next_tx(cfg.threads, 0);

    for (std::size_t pos = 0; pos < run.commit_log.size(); ++pos) {
        const CommitRecord& rec = run.commit_log[pos];
        if (rec.thread >= cfg.threads || rec.tx_index >= cfg.txs_per_thread) {
            return "commit log names unknown " +
                   describe(rec.thread, rec.tx_index);
        }
        if (rec.tx_index != next_tx[rec.thread]) {
            return describe(rec.thread, rec.tx_index) +
                   " committed out of order: expected tx " +
                   std::to_string(next_tx[rec.thread]) +
                   " next for that thread (commit history is not a "
                   "per-thread prefix)";
        }
        ++next_tx[rec.thread];

        const TxProgram& prog = programs[rec.thread][rec.tx_index];
        const bool writer = !prog.read_only();
        std::vector<std::uint64_t> state = snapshots.back();

        std::uint64_t acc = tx_seed(cfg, rec.thread, rec.tx_index);
        std::size_t ri = 0;
        std::size_t wi = 0;
        for (std::size_t i = 0; i < prog.ops.size(); ++i) {
            const TxOp& op = prog.ops[i];
            const std::uint64_t v = state[op.slot];
            if (ri >= rec.reads.size() || rec.reads[ri].slot != op.slot) {
                return describe(rec.thread, rec.tx_index) +
                       " read log does not match its program";
            }
            if (writer && rec.reads[ri].value != v) {
                return describe(rec.thread, rec.tx_index) + " (commit #" +
                       std::to_string(pos + 1) + ") read slot " +
                       std::to_string(op.slot) + " = " +
                       std::to_string(rec.reads[ri].value) +
                       " but the serial replay in commit order gives " +
                       std::to_string(v) + " — not serializable";
            }
            // For the replay, trust the recorded read (writers proved it
            // equal; read-only txs are window-checked below and do not
            // write).
            const std::uint64_t observed = rec.reads[ri].value;
            ++ri;
            acc = util::mix64(acc ^ (writer ? v : observed));
            if (op.is_write) {
                const std::uint64_t nv =
                    cfg.commutative
                        ? v + op_delta(cfg, rec.thread, rec.tx_index, i)
                        : util::mix64(acc);
                if (wi >= rec.writes.size() || rec.writes[wi].slot != op.slot ||
                    rec.writes[wi].value != nv) {
                    return describe(rec.thread, rec.tx_index) +
                           " wrote a value the serial replay does not produce";
                }
                ++wi;
                state[op.slot] = nv;
            }
        }
        snapshots.push_back(std::move(state));
    }

    // Read-only transactions: their snapshot must exist somewhere between
    // the begin of their successful attempt and their commit position (TL2
    // serializes read-only transactions at their read version, which may
    // precede commit completion).
    for (std::size_t pos = 0; pos < run.commit_log.size(); ++pos) {
        const CommitRecord& rec = run.commit_log[pos];
        if (!programs[rec.thread][rec.tx_index].read_only()) continue;
        const std::size_t lo =
            std::min<std::size_t>(rec.begin_commits, pos);
        bool matched = false;
        for (std::size_t k = lo; k <= pos && !matched; ++k) {
            matched = std::all_of(
                rec.reads.begin(), rec.reads.end(), [&](const SlotValue& r) {
                    return snapshots[k][r.slot] == r.value;
                });
        }
        if (!matched) {
            return describe(rec.thread, rec.tx_index) +
                   " (read-only, commit #" + std::to_string(pos + 1) +
                   ") observed a state that exists at no serial point in "
                   "its begin..commit window — not serializable";
        }
    }

    if (snapshots.back() != run.final_state) {
        std::string diff;
        for (std::uint32_t s = 0; s < cfg.slots; ++s) {
            if (snapshots.back()[s] != run.final_state[s]) {
                diff += " slot " + std::to_string(s) + ": serial " +
                        std::to_string(snapshots.back()[s]) + " vs actual " +
                        std::to_string(run.final_state[s]) + ";";
            }
        }
        return "final state diverges from the serial replay in commit "
               "order:" +
               diff;
    }
    return std::nullopt;
}

}  // namespace

std::optional<std::string> check_serializable(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs,
    const RunResult& run) {
    return oracle_core(cfg, programs, run, /*require_complete=*/true);
}

std::optional<std::string> check_prefix_consistent(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs,
    const RunResult& run) {
    return oracle_core(cfg, programs, run, /*require_complete=*/false);
}

// ---------------------------------------------------------------------------
// Differential oracle / the programs subject
// ---------------------------------------------------------------------------

std::optional<std::string> run_differential(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs,
    const std::vector<BackendPair>& pairs, const config::Config& sched_cfg,
    std::uint64_t seed, std::vector<RunResult>* runs_out) {
    if (!cfg.commutative) {
        throw std::invalid_argument(
            "differential oracle requires the commutative workload "
            "(mode=incr): backends legitimately reorder commits, and only "
            "commutative writes make the final state order-independent");
    }
    if (pairs.empty()) {
        throw std::invalid_argument("differential oracle: no backend pairs");
    }

    const auto pair_cfg = [&](const BackendPair& pair) {
        HarnessConfig pc = cfg;
        pair.apply(pc);
        return pc;
    };

    std::vector<RunResult> runs;
    runs.reserve(pairs.size());
    for (const BackendPair& pair : pairs) {
        const HarnessConfig pc = pair_cfg(pair);
        const auto schedule = make_schedule(sched_cfg, seed);
        RunResult run = run_schedule(pc, programs, *schedule);
        if (const auto error = check_serializable(pc, programs, run)) {
            if (runs_out) *runs_out = std::move(runs);
            return pair.label() + ": " + *error + "\n  repro: " +
                   repro_line(repro_flags(pc), run.schedule);
        }
        runs.push_back(std::move(run));
    }

    std::optional<std::string> verdict;
    for (std::size_t i = 1; i < pairs.size() && !verdict; ++i) {
        if (runs[i].final_state != runs[0].final_state) {
            verdict = "final state of " + pairs[i].label() +
                      " differs from " + pairs[0].label() +
                      " on the identical workload and schedule seed " +
                      std::to_string(seed) + "\n  repro (" +
                      pairs[i].label() + "): " +
                      repro_line(repro_flags(pair_cfg(pairs[i])),
                                 runs[i].schedule);
        }
    }

    // The paper's direction: tagged organizations never report a false
    // conflict; tagless ones report at least as many as tagged (trivially,
    // since tagged must be zero — asserting both catches a broken
    // classifier on either side).
    for (std::size_t i = 0; i < pairs.size() && !verdict; ++i) {
        if (pairs[i].table == "tagged" &&
            runs[i].stats.false_conflicts != 0) {
            verdict = pairs[i].label() + " reported " +
                      std::to_string(runs[i].stats.false_conflicts) +
                      " false conflicts; tagged tables must report none";
        }
    }
    if (!verdict) {
        std::uint64_t tagged_false = 0;
        std::uint64_t tagless_false = 0;
        bool have_tagged = false;
        bool have_tagless = false;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            if (pairs[i].table == "tagged") {
                have_tagged = true;
                tagged_false =
                    std::max(tagged_false, runs[i].stats.false_conflicts);
            }
            if (pairs[i].table == "tagless") {
                have_tagless = true;
                tagless_false =
                    std::max(tagless_false, runs[i].stats.false_conflicts);
            }
        }
        if (have_tagged && have_tagless && tagless_false < tagged_false) {
            verdict = "tagless reported fewer false conflicts (" +
                      std::to_string(tagless_false) + ") than tagged (" +
                      std::to_string(tagged_false) +
                      ") — classification direction inverted";
        }
    }

    if (runs_out) *runs_out = std::move(runs);
    return verdict;
}

Outcome ProgramSubject::run(Schedule& schedule, std::uint64_t step_limit,
                            bool complete, std::string* detail) const {
    HarnessConfig cfg = cfg_;
    cfg.step_limit = step_limit;
    RunResult run = run_schedule(cfg, programs_, schedule);
    if (detail) {
        *detail = std::to_string(run.commit_log.size()) + " commits, " +
                  std::to_string(run.stats.policy_switches) +
                  " policy switches, " +
                  std::to_string(run.stats.clock_cas_failures) +
                  " clock CAS failures";
    }
    auto error = oracle_core(cfg, programs_, run, complete || !run.cancelled);
    return {std::move(run), std::move(error)};
}

}  // namespace tmb::sched
