#include "exec/parallel_runner.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace tmb::exec {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ParallelConfig parallel_config_from(const config::Config& cfg) {
    ParallelConfig out;
    out.threads = cfg.get_u32("threads", out.threads);
    out.ops_per_thread = cfg.get_u64("ops", out.ops_per_thread);
    out.duration_ms = cfg.get_u32("duration_ms", out.duration_ms);
    if (cfg.has("duration-ms")) {  // dashed-flag alias
        out.duration_ms = cfg.get_u32("duration-ms", out.duration_ms);
    }
    out.seed = cfg.get_u64("seed", out.seed);
    out.workload = cfg.get("workload", out.workload);
    return out;
}

ParallelRunner::ParallelRunner(const config::Config& cfg)
    : ParallelRunner(parallel_config_from(cfg), stm::Stm::create(cfg),
                     make_workload(cfg)) {}

ParallelRunner::ParallelRunner(ParallelConfig config,
                               std::unique_ptr<stm::Stm> stm,
                               std::unique_ptr<Workload> workload)
    : config_(std::move(config)),
      stm_(std::move(stm)),
      workload_(std::move(workload)) {
    if (config_.threads < 1) {
        throw std::invalid_argument("threads must be >= 1");
    }
    // Fail fast instead of deadlocking in make_executor: each thread pins
    // one backend context, and the table engine has finite TxId capacity
    // (62 — the lock-free tagless entry word's sharer bits).
    const std::uint32_t cap = stm_->max_live_executors();
    if (config_.threads > cap) {
        throw std::invalid_argument(
            "threads=" + std::to_string(config_.threads) +
            " exceeds the '" +
            std::string(stm::to_string(stm_->config().backend)) +
            "' backend's capacity of " + std::to_string(cap) +
            " concurrently live transactions");
    }
    // Container-backed workloads build their transactional state here —
    // once, before any engine thread exists.
    workload_->prepare(*stm_);
}

ParallelResult ParallelRunner::run() {
    const std::uint32_t n = config_.threads;

    // Executors are created sequentially on this thread so thread t is bound
    // to slot/TxId t — deterministic and friendly to per-slot diagnostics.
    std::vector<std::unique_ptr<stm::Executor>> executors;
    executors.reserve(n);
    for (std::uint32_t t = 0; t < n; ++t) {
        executors.push_back(stm_->make_executor());
    }

    // Non-overlapping RNG substreams: thread t's generator starts 2^128 · t
    // steps into the seed's master sequence (thread 0 == the plain seeded
    // stream, which is what the 1-thread determinism contract relies on).
    std::vector<util::Xoshiro256> rngs;
    rngs.reserve(n);
    util::Xoshiro256 substream{config_.seed};
    for (std::uint32_t t = 0; t < n; ++t) {
        rngs.push_back(substream);
        substream.jump();
    }

    std::vector<std::uint64_t> ops_done(n, 0);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<bool> go{false};

    // Instance-block snapshot so repeated run() calls report only their own
    // conflict classification, not the Stm's cumulative history.
    const stm::StmStats before = stm_->stats();

    const auto deadline =
        Clock::now() + std::chrono::milliseconds(config_.duration_ms);
    const bool timed = config_.duration_ms > 0;

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::uint32_t t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
            // Start barrier: line every thread up before the clock matters,
            // so short timed runs measure contention, not spawn skew.
            while (!go.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            stm::Executor& exec = *executors[t];
            util::Xoshiro256& rng = rngs[t];
            std::uint64_t done = 0;  // thread-local; published once at exit
            try {
                if (timed) {
                    while (Clock::now() < deadline) {
                        workload_->op(exec, rng);
                        ++done;
                    }
                } else {
                    for (std::uint64_t i = 0; i < config_.ops_per_thread; ++i) {
                        workload_->op(exec, rng);
                        ++done;
                    }
                }
            } catch (...) {
                errors[t] = std::current_exception();
            }
            ops_done[t] = done;
        });
    }

    const auto start = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    const auto end = Clock::now();

    ParallelResult result;
    result.elapsed_seconds =
        std::chrono::duration<double>(end - start).count();
    for (std::uint32_t t = 0; t < n; ++t) {
        result.ops += ops_done[t];
        result.per_thread.push_back(executors[t]->stats());
    }
    // Shards are snapshotted; destroy the executors NOW so their contexts
    // retire — buffered retired blocks reach the shards (the pending==0
    // check below needs them) and locally accumulated allocator counters
    // land in the domain before the `after` snapshot.
    executors.clear();

    // Merge: shards carry the engine threads' commit/abort counts; the
    // backend's true/false-conflict classification and the allocator's
    // domain-wide counters land in the instance block, so fold in this
    // run's delta of them.
    for (const stm::StmStats& shard : result.per_thread) {
        result.stats.merge(shard);
    }
    const stm::StmStats after = stm_->stats();
    result.stats.true_conflicts += after.true_conflicts - before.true_conflicts;
    result.stats.false_conflicts +=
        after.false_conflicts - before.false_conflicts;
    result.stats.clock_cas_failures +=
        after.clock_cas_failures - before.clock_cas_failures;
    result.stats.policy_switches +=
        after.policy_switches - before.policy_switches;
    result.stats.table_resizes += after.table_resizes - before.table_resizes;
    result.stats.alloc_cache_hits +=
        after.alloc_cache_hits - before.alloc_cache_hits;
    result.stats.alloc_cache_misses +=
        after.alloc_cache_misses - before.alloc_cache_misses;
    result.stats.reclaim_shard_flushes +=
        after.reclaim_shard_flushes - before.reclaim_shard_flushes;
    result.stats.domain_mutex_acquires +=
        after.domain_mutex_acquires - before.domain_mutex_acquires;

    lifetime_ops_ += result.ops;
    lifetime_stats_.merge(result.stats);

    // Rethrow only after the merge above: the surviving threads' shards
    // (commit/abort/attempt counts) must reach lifetime_stats_ even when a
    // worker threw — rethrowing first used to lose every histogram of the
    // run. The quiescence checks below stay off the error path; they would
    // report the interrupted run, not the bug that interrupted it.
    for (auto& err : errors) {
        if (err) std::rethrow_exception(err);
    }

    // Quiescent now (all threads joined, all executors destroyed): release
    // every retired block — nothing can still hold one — then check that
    // the allocation ledger balances and the ownership table is empty.
    stm_->reclaim_drain();
    const stm::ReclaimStats reclaim = stm_->reclaim_stats();
    if (reclaim.pending_blocks() != 0) {
        throw std::runtime_error(
            "reclamation not quiescent after join: " +
            std::to_string(reclaim.pending_blocks()) +
            " retired blocks still pending after a full drain");
    }
    workload_->verify(lifetime_ops_);
    if (const std::uint64_t held = stm_->occupied_metadata_entries()) {
        throw std::runtime_error(
            "ownership table not quiescent after join: " +
            std::to_string(held) + " entries still held (lost release)");
    }
    result.state_hash = workload_->state_hash();
    return result;
}

}  // namespace tmb::exec
