// parallel_runner.hpp — the real-thread execution engine.
//
// Everything below the exec layer models or measures concurrency without
// ever creating it: the simulators interleave logical transactions in one
// loop, and the benches drive the STM from a single thread. ParallelRunner
// is the layer that actually spawns std::threads and contends on the
// ownership metadata, turning the paper's simulated concurrency claims into
// measured ones:
//
//   * N threads, each bound to one stm::Executor (one backend context /
//     table TxId per thread, acquired once, not per transaction);
//   * non-overlapping per-thread RNG substreams via Xoshiro256::jump()
//     (thread t's stream starts 2^128·t steps into the seed's sequence);
//   * per-thread counters: each Executor counts into its own context, so
//     the hot path touches no shared counter;
//   * everything selected by name: `--backend=`/`--table=` pick the STM,
//     `--workload=` picks the closure, exactly like every other driver.
//
// The run is bounded by an operation budget (`--ops=`, per thread;
// deterministic for 1 thread).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "exec/workload.hpp"
#include "stm/stm.hpp"

namespace tmb::exec {

/// Engine shape. STM and workload shape are parsed separately from the same
/// Config (stm::stm_config_from, make_workload).
struct ParallelConfig {
    std::uint32_t threads = 4;
    std::uint64_t ops_per_thread = 10000;
    std::uint64_t seed = 0x5eed0eec0ffeeULL;
    std::string workload = "counters";
};

/// Parses engine keys: `threads`, `ops`, `seed`, `workload`.
[[nodiscard]] ParallelConfig parallel_config_from(const config::Config& cfg);

/// Outcome of one engine run.
struct ParallelResult {
    /// This run's counters: the run's delta of Stm::stats() (the threads'
    /// Executors are retired by then) with their attempts histograms.
    stm::StmStats stats;
    /// Each thread's Executor::stats(), in thread order.
    std::vector<stm::StmStats> per_thread;
    std::uint64_t ops = 0;               ///< completed operations (== commits)
    double elapsed_seconds = 0.0;        ///< spawn-to-join wall clock
    std::uint64_t state_hash = 0;        ///< workload digest at quiescence

    [[nodiscard]] double commits_per_second() const noexcept {
        return elapsed_seconds > 0.0
                   ? static_cast<double>(stats.commits) / elapsed_seconds
                   : 0.0;
    }
};

/// The execution engine. Construction validates the thread count against
/// the selected backend's executor capacity (62 for the table engine,
/// either organization) and fails fast with the actual cap in the message.
class ParallelRunner {
public:
    /// Builds engine, STM and workload from one Config — the all-flags path
    /// (`--threads=8 --backend=table --workload=zipf --ops=100000 ...`).
    explicit ParallelRunner(const config::Config& cfg);

    /// Pre-built components (tests that need to inspect the workload).
    ParallelRunner(ParallelConfig config, std::unique_ptr<stm::Stm> stm,
                   std::unique_ptr<Workload> workload);

    ParallelRunner(const ParallelRunner&) = delete;
    ParallelRunner& operator=(const ParallelRunner&) = delete;

    /// Spawns the threads, drives the workload, joins, retires the
    /// Executors, and checks the workload invariant (throws
    /// std::runtime_error if the backend lost or doubled an update).
    /// Callable repeatedly: the workload state persists, so the invariant
    /// is verified against the runner-lifetime operation total; each
    /// result reports its own run's counters and wall clock.
    [[nodiscard]] ParallelResult run();

    [[nodiscard]] const ParallelConfig& config() const noexcept {
        return config_;
    }
    [[nodiscard]] stm::Stm& stm() noexcept { return *stm_; }
    [[nodiscard]] Workload& workload() noexcept { return *workload_; }

    /// Runner-lifetime stats: every run() call's counters, including runs
    /// that ended by rethrowing a worker exception. They are merged before
    /// the rethrow, so the surviving threads' commit/abort/attempt counts
    /// are observable here even when run() never returned a ParallelResult.
    [[nodiscard]] const stm::StmStats& lifetime_stats() const noexcept {
        return lifetime_stats_;
    }

private:
    ParallelConfig config_;
    std::unique_ptr<stm::Stm> stm_;
    std::unique_ptr<Workload> workload_;
    std::uint64_t lifetime_ops_ = 0;
    stm::StmStats lifetime_stats_;
};

}  // namespace tmb::exec
