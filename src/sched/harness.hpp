// harness.hpp — deterministic schedule exploration with a serializability
// oracle.
//
// The paper's backends claim serializability; PR 2's engine could only
// check coarse invariants under whatever interleavings the OS happened to
// produce. This harness makes interleavings a *first-class input*: N
// virtual threads run real transactions over a real name-selected STM
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
// ProgramSubject makes these programs one subject of the exploration core
// (explore.hpp), which holds the STM spec, the drive loop and the explore,
// replay, kill-point and minimize modes.
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
#include <utility>
#include <vector>

#include "config/config.hpp"
#include "sched/explore.hpp"
#include "sched/schedule.hpp"
#include "stm/stm.hpp"

namespace tmb::sched {

/// Largest shared-array size (one 64-byte block per slot in the arena — a
/// 256 KiB process-static array). Raised from 64 so scheduled runs can
/// express footprints whose birthday term (C-1)W²/2N meaningfully spans
/// table sizes (slot count must exceed the tables under test for aliasing
/// to exist at all).
inline constexpr std::uint32_t kMaxSlots = 4096;

/// The generated-programs subject's config: STM selection + workload
/// shape. Parsed from the same `--key=value` vocabulary as every other
/// driver.
struct HarnessConfig : StmSpec {
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

    bool operator==(const HarnessConfig&) const = default;
};

/// Parses the STM keys (read_stm_spec) plus threads, txs, ops, slots,
/// wfrac, rofrac, mode (acc|incr|dyn), wseed, cache_blocks, step_limit.
[[nodiscard]] HarnessConfig harness_config_from(const config::Config& cfg);

/// The Config handed to stm::Stm::create for this harness config:
/// stm_config plus cache_blocks.
[[nodiscard]] config::Config stm_spec(const HarnessConfig& cfg);

/// `--key=value` flags reproducing `cfg` on the sched_explorer command
/// line (everything except the schedule string).
[[nodiscard]] std::string repro_flags(const HarnessConfig& cfg);

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
struct RunResult : RunTrace {
    std::vector<CommitRecord> commit_log;  ///< commit order
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
/// Stm::stats() persist) carries across calls. This is how the
/// phase-change experiments measure the adaptive runtime *across* runs:
/// the shape it adapted to in one run is the shape the next run starts on.
/// `cfg.txs_per_thread` must equal each thread's program count.
/// `result.stats` counts this run only; Stm::stats() sums the runs.
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

/// The generated transaction programs as an exploration subject: its
/// oracle is check_serializable, or check_prefix_consistent for a cut run
/// judged as a kill point.
class ProgramSubject final : public Subject {
public:
    explicit ProgramSubject(HarnessConfig cfg)
        : cfg_(std::move(cfg)), programs_(generate_programs(cfg_)) {}

    [[nodiscard]] StmSpec& stm() override { return cfg_; }
    [[nodiscard]] std::uint32_t threads() const override {
        return cfg_.threads;
    }
    [[nodiscard]] std::uint64_t step_limit() const override {
        return cfg_.step_limit;
    }
    [[nodiscard]] std::string repro_flags() const override {
        return sched::repro_flags(cfg_);
    }
    [[nodiscard]] Outcome run(Schedule& schedule, std::uint64_t step_limit,
                              bool complete,
                              std::string* detail) const override;

private:
    HarnessConfig cfg_;
    std::vector<std::vector<TxProgram>> programs_;
};

}  // namespace tmb::sched
