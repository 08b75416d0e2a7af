// harness.hpp — deterministic schedule exploration with a serializability
// oracle.
//
// The paper's backends claim serializability; PR 2's engine could only
// check coarse invariants under whatever interleavings the OS happened to
// produce. This harness makes interleavings a *first-class input*: N
// virtual threads run real transactions over a real registry-selected STM
// backend, but control transfers only at the runtime's yield points
// (stm/sched_hook.hpp) and only to the thread a Schedule object names. One
// OS thread executes at a time (a semaphore turnstile), so a run is a pure
// function of (workload config, programs, pick sequence) — every explored
// run collapses to a compact base-36 string that replays bit-for-bit, and
// every failure prints a copy-pasteable `sched_explorer` repro line.
//
// Two oracles sit on top:
//
//   * check_serializable — records each committed transaction's read/write
//     sets and the commit order, then replays the transaction *logic*
//     serially in commit order against a fresh array: every writer's reads
//     must match the serial state at its commit position, every read-only
//     transaction's reads must match some serial state between its begin
//     and its commit, and the final memory must be bit-identical. Commit
//     (-completion) order is a valid serialization order for all four
//     backends because commit executes as one scheduler step (see
//     sched_hook.hpp).
//
//   * run_differential — replays one schedule seed across every
//     backend×table pair and asserts identical final state (the workload
//     must be commutative: conflict-induced retries legitimately reorder
//     commits between backends) plus the paper's conflict-count direction:
//     tagged tables report zero false conflicts, tagless at least as many.
//
// Mode `dyn` widens the first oracle with a *lifetime* check: each slot
// holds a pointer to a heap node allocated with tx_alloc and replaced (new
// node in, old node tx_free'd) on every write, and the runtime yields at
// its alloc/free/reclaim points too. A ReclaimObserver tracks every block
// the reclaimer releases; a virtual thread dereferencing a released node —
// legal for a doomed reader under correct epoch reclamation, fatal under a
// broken one — or the reclaimer releasing a block twice is reported in
// RunResult::lifetime_error instead of being undefined behavior, and
// check_serializable reports it before anything else.
//
// Determinism notes: the shared words live in a process-static 64-byte-
// aligned arena and the harness pins hash=shift-mask, so which slots alias
// in the ownership table depends only on slot *distances* — recorded
// schedules replay identically across processes and ASLR. Contention
// management is pinned to `none` (no sleeps, no jitter).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "sched/schedule.hpp"
#include "stm/stm.hpp"

namespace tmb::sched {

/// Largest shared-array size (one 64-byte block per slot in the arena — a
/// 256 KiB process-static array). Raised from 64 so scheduled runs can
/// express footprints whose birthday term (C-1)W²/2N meaningfully spans
/// table sizes (slot count must exceed the tables under test for aliasing
/// to exist at all).
inline constexpr std::uint32_t kMaxSlots = 4096;

/// One exploration subject: workload shape + STM selection. Parsed from the
/// same `--key=value` vocabulary as every other driver.
struct HarnessConfig {
    // --- STM selection (forwarded to stm::Stm::create) ---
    std::string backend = "table";  ///< tl2 | table | adaptive
    std::string table = "tagless";  ///< organization, table/adaptive backends
    std::uint64_t entries = 16;     ///< ownership-table slots (small ⇒ aliasing)
    bool commit_time_locks = false;
    std::string clock;              ///< tl2 clock scheme (gv1|gv5; "" = engine default)
    // --- adaptive backend only (epoch_ms stays 0: determinism) ---
    std::string engine;             ///< wrapped engine ("" = engine default)
    std::string policy;             ///< off | auto | cycle ("" = engine default)
    std::uint64_t epoch = 0;        ///< commits per epoch (0 = engine default)
    std::uint64_t max_entries = 0;  ///< resize growth cap (0 = engine default)
    // --- workload shape ---
    std::uint32_t threads = 3;         ///< virtual threads (≤ 36)
    std::uint32_t txs_per_thread = 3;  ///< transactions each runs, in order
    std::uint32_t ops_per_tx = 4;      ///< accesses per transaction
    std::uint32_t slots = 6;           ///< shared words (one block each)
    double write_fraction = 0.6;       ///< P(access is a write), writer txs
    double read_only_fraction = 0.25;  ///< P(tx is read-only)
    /// Commutative mode ("incr"): every write is `read + constant`, so the
    /// final state is independent of commit order — required by the
    /// differential oracle. Default ("acc") writes a hash of everything the
    /// transaction has read, making the final state maximally sensitive to
    /// serialization errors — preferred for the serializability oracle.
    bool commutative = false;
    /// Dynamic-memory mode ("dyn"): every slot holds a tx_alloc'd heap node
    /// and writes replace the node (tx_alloc + tx_free) instead of the
    /// value, driving the allocator's speculative-rollback and epoch-
    /// reclamation machinery through every explored interleaving. Values
    /// follow the acc rule (non-commutative), and run_schedule additionally
    /// arms the lifetime oracle (RunResult::lifetime_error).
    bool dynamic = false;
    std::uint64_t workload_seed = 1;
    /// Per-context free-block cache capacity forwarded to the runtime
    /// (stm_spec). -1 = engine default; 0 = cache off (per-commit
    /// retire/poll cadence) — the cache-on/cache-off differential axis the
    /// dyn fuzz batches sweep.
    std::int64_t cache_blocks = -1;
    /// Scheduler steps before the run is cancelled (livelocked replays
    /// under a mismatched config would otherwise never terminate).
    std::uint64_t step_limit = 1u << 20;
};

/// Parses harness keys: backend, table, entries, commit_time_locks, clock,
/// engine, policy, epoch, max_entries, threads, txs, ops, slots, wfrac,
/// rofrac, mode (acc|incr|dyn), wseed, cache_blocks, step_limit.
[[nodiscard]] HarnessConfig harness_config_from(const config::Config& cfg);

/// The Config handed to stm::Stm::create for this harness config —
/// includes the determinism pins (hash=shift-mask, contention=none).
[[nodiscard]] config::Config stm_spec(const HarnessConfig& cfg);

/// `--key=value` flags reproducing `cfg` on the sched_explorer command
/// line (everything except the schedule string).
[[nodiscard]] std::string repro_flags(const HarnessConfig& cfg);

/// Full repro command for one explored run.
[[nodiscard]] std::string repro_line(const HarnessConfig& cfg,
                                     const std::string& schedule);

/// One transactional access of a generated program.
struct TxOp {
    std::uint32_t slot = 0;
    bool is_write = false;
};

/// One transaction's access list (executed atomically, retried on
/// conflict). A program with no writes is a read-only transaction.
struct TxProgram {
    std::vector<TxOp> ops;

    [[nodiscard]] bool read_only() const noexcept {
        for (const TxOp& op : ops) {
            if (op.is_write) return false;
        }
        return true;
    }
};

/// programs[t][k] = thread t's k-th transaction, generated deterministically
/// from cfg.workload_seed.
[[nodiscard]] std::vector<std::vector<TxProgram>> generate_programs(
    const HarnessConfig& cfg);

/// One observed transactional access (slot index + value read or written).
struct SlotValue {
    std::uint32_t slot = 0;
    std::uint64_t value = 0;
};

/// What one committed transaction did, in commit order.
struct CommitRecord {
    std::uint32_t thread = 0;
    std::uint32_t tx_index = 0;
    /// Commits completed when the *successful* attempt began — the lower
    /// bound of the window a read-only transaction may serialize into.
    std::uint64_t begin_commits = 0;
    std::vector<SlotValue> reads;
    std::vector<SlotValue> writes;
};

/// Outcome of one scheduled run.
struct RunResult {
    std::string schedule;  ///< recorded picks (replayable)
    std::uint64_t steps = 0;
    bool cancelled = false;  ///< step_limit exhausted; state is partial
    std::uint64_t state_hash = 0;
    std::vector<std::uint64_t> final_state;  ///< slot values at quiescence
    std::vector<CommitRecord> commit_log;    ///< commit order
    stm::StmStats stats;
    /// The run's 64-bit behavior signature (sched/coverage.hpp): AFL-style
    /// bucketed per-thread yield-event edges + quantized stats. A pure
    /// function of the replayed execution on a fresh engine, so identical
    /// runs carry identical signatures.
    std::uint64_t signature = 0;
    /// Bitmask of YieldSite values the run parked at (bit s set ⇔ some
    /// granted step yielded from site s). Coarser than the signature, but
    /// directly answers "did this campaign ever reach site X" — the
    /// reachability assertion the decision-point sites exist for.
    std::uint32_t sites_seen = 0;
    /// Lifetime-oracle verdict (dyn mode only): a use of a reclaimed block,
    /// a double reclamation, or an unbalanced allocation ledger at the end
    /// of the run. nullopt when clean (always nullopt outside dyn mode).
    std::optional<std::string> lifetime_error;
};

/// Runs `programs` under `schedule` over a fresh Stm built from `cfg`.
/// Deterministic: identical inputs give identical RunResults.
[[nodiscard]] RunResult run_schedule(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs, Schedule& schedule);

/// Same, over a caller-owned Stm — the engine's state (ownership metadata
/// must be quiescent, but an adaptive backend's mounted engine shape and
/// cumulative instance counters persist) carries across calls. This is how
/// the phase-change experiments measure the adaptive runtime *across* runs:
/// the shape it adapted to in one run is the shape the next run starts on.
/// `cfg.txs_per_thread` must equal each thread's program count, and
/// `result.stats`'s instance-block counters are engine-lifetime totals, not
/// per-run deltas.
[[nodiscard]] RunResult run_schedule(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs, Schedule& schedule,
    stm::Stm& tm);

/// The serializability oracle: nullopt when the run is equivalent to the
/// serial execution of its commit log in commit order; otherwise a
/// description of the first divergence. A cancelled run is reported as a
/// violation (step_limit exhausted), and a dyn-mode lifetime violation
/// (run.lifetime_error) is reported before any serializability analysis.
[[nodiscard]] std::optional<std::string> check_serializable(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs, const RunResult& run);

/// The crash/kill-consistency oracle's core: like check_serializable, but
/// accepts a *partial* run (a kill-point cancellation): the commit log may
/// hold any per-thread prefix of the programs, and a cancelled run is not
/// itself a violation. What must still hold: the log is a gap-free prefix
/// per thread, the serial replay of the log in commit order reproduces
/// every recorded read/write, read-only windows close, the rolled-back
/// final memory equals the serial replay of exactly the committed
/// transactions, and (dyn mode) the lifetime ledger balances.
[[nodiscard]] std::optional<std::string> check_prefix_consistent(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs, const RunResult& run);

/// Kill-point oracle: replays `schedule` with the step budget cut to
/// `kill_step` (the "crash"), then asserts the post-crash state is a
/// prefix-consistent commit history. A schedule that finishes before the
/// kill step is checked with the full serializability oracle instead.
[[nodiscard]] std::optional<std::string> check_kill_point(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs,
    const std::string& schedule, std::uint64_t kill_step);

/// A failing schedule plus everything needed to reproduce it.
struct Violation {
    std::string message;   ///< oracle description + repro line
    std::string schedule;  ///< recorded pick string
    std::string repro;     ///< copy-pasteable sched_explorer command
};

/// Aggregate of an exploration batch.
struct ExploreResult {
    std::uint64_t runs = 0;
    std::vector<Violation> violations;
    stm::StmStats stats;  ///< merged over all runs
};

/// Explores `count` schedules built from `sched_cfg` (keys sched=, depth=,
/// steps=) with per-run seeds derived from `base_seed`, oracle-checking
/// every run.
[[nodiscard]] ExploreResult explore(const HarnessConfig& cfg,
                                    const config::Config& sched_cfg,
                                    std::uint64_t count,
                                    std::uint64_t base_seed);

/// One backend×table combination of the differential sweep.
struct BackendPair {
    std::string backend;
    std::string table;  ///< empty when the backend has no table choice
    bool commit_time_locks = false;

    [[nodiscard]] std::string label() const;
};

/// Every built-in pair: tl2, table×{tagless,tagged}×{eager,lazy}.
[[nodiscard]] std::vector<BackendPair> default_backend_pairs();

/// The differential oracle: runs one schedule seed across `pairs` (all
/// sharing cfg's workload, which must be commutative), asserting
/// serializability per run, identical final state across runs, and the
/// tagged-zero / tagless≥tagged false-conflict direction. Returns nullopt
/// on agreement. When `runs_out` is non-null it receives one RunResult per
/// pair (in order) for inspection.
[[nodiscard]] std::optional<std::string> run_differential(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs,
    const std::vector<BackendPair>& pairs, const config::Config& sched_cfg,
    std::uint64_t seed, std::vector<RunResult>* runs_out = nullptr);

/// Greedily shrinks a failing schedule string (ddmin-style chunk removal)
/// while check_serializable still reports a violation. Returns the input
/// unchanged when it does not fail.
[[nodiscard]] std::string minimize_schedule(
    const HarnessConfig& cfg,
    const std::vector<std::vector<TxProgram>>& programs, std::string schedule);

}  // namespace tmb::sched
