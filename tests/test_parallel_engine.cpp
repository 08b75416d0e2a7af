// Tests for the exec layer (ParallelRunner + workloads + stm::Executor) and
// for the tx-id cap fixes the real-thread engine forced: the lock-free
// tagless table's 62-transaction capacity is enforced everywhere instead of
// silently corrupting entry words.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "exec/parallel_runner.hpp"
#include "exec/workload.hpp"
#include "hybrid/hybrid_tm.hpp"
#include "ownership/atomic_tagless_table.hpp"
#include "sim/closed_system.hpp"
#include "sim/open_system.hpp"
#include "sim/trace_alias.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"

namespace tmb {
namespace {

config::Config cfg(std::string_view spec) {
    return config::Config::from_string(spec);
}

// ---------------------------------------------------------------------------
// TxId cap enforcement (the bugfix satellite)
// ---------------------------------------------------------------------------

TEST(TxIdCap, AtomicTableRejectsOutOfRangeTxIds) {
    ownership::AtomicTaglessTable t({.entries = 16});
    EXPECT_TRUE(t.acquire_read(ownership::kMaxTx - 1, 3).ok);
    t.release(ownership::kMaxTx - 1, 3, ownership::Mode::kRead);
    // TxIds 62 and 63 would set mode bits instead of sharer bits.
    EXPECT_THROW((void)t.acquire_read(62, 3), std::out_of_range);
    EXPECT_THROW((void)t.acquire_write(63, 3), std::out_of_range);
    // And the failed acquires corrupted nothing.
    EXPECT_EQ(t.occupied_entries(), 0u);
    EXPECT_TRUE(t.acquire_write(0, 3).ok);
}

TEST(TxIdCap, SimulatorsValidateAgainstTableCapacity) {
    // One over the cap must fail fast with the cap in the message, before
    // any table access: there TxId kMaxTx would throw std::out_of_range.
    constexpr std::uint32_t kOver = ownership::kMaxTx + 1;
    const auto expect_cap_error = [](const char* simulator, auto run) {
        try {
            run();
            ADD_FAILURE() << simulator << ": expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(std::to_string(ownership::kMaxTx)),
                      std::string::npos)
                << simulator << ": " << e.what();
        }
    };
    sim::ClosedSystemConfig closed{
        .concurrency = kOver, .write_footprint = 2, .target_transactions = 10};
    sim::OpenSystemConfig open{
        .concurrency = kOver, .write_footprint = 2, .experiments = 10};
    expect_cap_error("closed", [&] { (void)sim::run_closed_system(closed); });
    expect_cap_error("open", [&] { (void)sim::run_open_system(open); });
    // An empty trace: the cap check also precedes the stream-count check.
    expect_cap_error("trace-alias", [] {
        (void)sim::run_trace_alias(sim::TraceAliasConfig{.concurrency = kOver},
                                   trace::MultiThreadTrace{});
    });
    expect_cap_error("hybrid", [] {
        (void)hybrid::run_hybrid_tm(hybrid::HybridConfig{.threads = kOver});
    });
    // At the cap the open and closed systems run.
    closed.concurrency = open.concurrency = ownership::kMaxTx;
    EXPECT_NO_THROW((void)sim::run_closed_system(closed));
    EXPECT_NO_THROW((void)sim::run_open_system(open));
}

TEST(TxIdCap, EngineRejectsThreadCountsOverBackendCapacity) {
    // One capacity for the whole table family, tagged included.
    for (const char* table : {"tagless", "tagged"}) {
        try {
            exec::ParallelRunner runner(
                cfg(std::string("backend=table table=") + table +
                    " threads=63 ops=1 entries=1024"));
            ADD_FAILURE() << table << ": expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("62"), std::string::npos)
                << table << ": " << e.what();
        }
    }
}

TEST(TxIdCap, AdaptiveOnTaggedQuotesTheFamilyCapacity) {
    // The wrapper quotes its first engine's capacity for its whole life and
    // may swap tagged for tagless, so tagged must already quote 62.
    const auto stm = stm::Stm::create(
        cfg("backend=adaptive engine=table table=tagged entries=1024"));
    EXPECT_EQ(stm->max_live_executors(), ownership::kMaxTx);
}

// ---------------------------------------------------------------------------
// Real-concurrency stress
// ---------------------------------------------------------------------------

TEST(ParallelEngine, TaglessBackendSurvivesContentionWithNoLostReleases) {
    // 8 threads hammer a deliberately small table (aliasing + contention);
    // run() verifies the counter invariant (no lost/doubled increments).
    exec::ParallelRunner runner(cfg(
        "backend=table workload=counters threads=8 ops=4000 "
        "slots=256 tx_size=4 entries=512 contention=yield seed=41"));
    const auto result = runner.run();
    EXPECT_EQ(result.ops, 8u * 4000u);
    EXPECT_EQ(result.stats.commits, result.ops);
    // Quiescent engine ⇒ every acquired entry was released.
    EXPECT_EQ(runner.stm().occupied_metadata_entries(), 0u);
    EXPECT_EQ(runner.stm().stats().commits, result.ops)
        << "retired executors' counts must reach the instance view";
}

TEST(ParallelEngine, CountersSumAcrossShards) {
    exec::ParallelRunner runner(cfg(
        "backend=table workload=counters threads=4 ops=2000 "
        "slots=128 tx_size=2 entries=256 contention=yield seed=43"));
    const auto result = runner.run();
    ASSERT_EQ(result.per_thread.size(), 4u);
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    for (const auto& shard : result.per_thread) {
        EXPECT_EQ(shard.commits, 2000u);  // each thread ran its own budget
        commits += shard.commits;
        aborts += shard.aborts;
    }
    EXPECT_EQ(result.stats.commits, commits);
    EXPECT_EQ(result.stats.aborts, aborts);
    EXPECT_EQ(result.stats.attempts_per_commit.total(), commits);
}

TEST(ParallelEngine, RunCarriesTheTl2CountersOfItsExecutors) {
    // TL2 contexts count read-set entries and validation checks in their
    // own blocks; the run result carries them, and so does the instance
    // view once the run's executors have retired.
    exec::ParallelRunner runner(cfg(
        "backend=tl2 workload=counters threads=2 ops=2000 "
        "slots=64 tx_size=4 contention=yield seed=53"));
    const stm::StmStats before = runner.stm().stats();
    const auto result = runner.run();
    const stm::StmStats after = runner.stm().stats();
    EXPECT_GT(result.stats.tl2_read_set_entries, 0u);
    EXPECT_GT(result.stats.tl2_validation_checks, 0u);
    EXPECT_EQ(result.stats.tl2_read_set_entries,
              after.tl2_read_set_entries - before.tl2_read_set_entries);
    EXPECT_EQ(result.stats.tl2_validation_checks,
              after.tl2_validation_checks - before.tl2_validation_checks);
}

TEST(ParallelEngine, InstanceStatsCountTheRunOnceItsExecutorsRetire) {
    // Stm::stats() sums pooled and retired contexts: after run() it holds
    // prepare()'s pooled transactions plus every commit of the run.
    exec::ParallelRunner runner(
        cfg("backend=tl2 workload=vacation rows=16 customers=8 threads=2 "
            "ops=500 seed=59"));
    const std::uint64_t prepared = runner.stm().stats().commits;
    EXPECT_GT(prepared, 0u);
    const auto result = runner.run();
    EXPECT_EQ(runner.stm().stats().commits, prepared + result.ops);
}

TEST(ParallelEngine, TableQuiescentAfterRun) {
    // Drive the lock-free table through the STM, then check the table
    // directly: a lost release would leave a stuck entry that blocks this
    // fresh writer forever (we just check occupancy through a fresh tx).
    auto stm = stm::Stm::create(cfg("backend=table entries=128 contention=yield"));
    auto workload =
        exec::make_workload(cfg("workload=bank accounts=32"));
    exec::ParallelRunner runner({.threads = 6, .ops_per_thread = 3000,
                                 .seed = 7, .workload = "bank"},
                                std::move(stm), std::move(workload));
    const auto result = runner.run();
    EXPECT_EQ(result.stats.commits, 6u * 3000u);
    // Quiescent ⇒ every acquired entry was released (run() also enforces
    // this; the explicit check documents the invariant under test).
    EXPECT_EQ(runner.stm().occupied_metadata_entries(), 0u);
}

TEST(ParallelEngine, AllBackendsRunAllWorkloads) {
    // gv1 writes the clock on every writer commit; gv5 (the default) rarely.
    for (const char* engine : {"backend=tl2", "backend=tl2 clock=gv1",
                               "backend=table", "backend=tagged"}) {
        for (const std::string& workload : exec::workload_names()) {
            config::Config c = cfg(
                std::string(engine) +
                " threads=4 ops=500 slots=256 accounts=64 entries=1024 "
                "contention=yield seed=47");
            c.set("workload", workload);
            exec::ParallelRunner runner(c);
            const auto result = runner.run();
            EXPECT_EQ(result.stats.commits, 4u * 500u)
                << engine << "/" << workload;
        }
    }
}

namespace {

/// Commits real transactions, then one thread throws after the process-wide
/// op count passes a threshold — the regression shape for the
/// stats-lost-on-worker-throw bug: run() must rethrow, but the commits the
/// workers already made have to survive into lifetime_stats().
class ThrowingWorkload final : public exec::Workload {
public:
    ThrowingWorkload() : slots_(64) {}

    std::string_view name() const noexcept override { return "throwing"; }

    void op(stm::Executor& exec, util::Xoshiro256& rng) override {
        if (issued_.fetch_add(1, std::memory_order_relaxed) >= 200) {
            throw std::runtime_error("injected worker failure");
        }
        const std::uint64_t pick = rng.below(slots_.size());
        exec.atomically([&](stm::Transaction& tx) {
            auto& slot = slots_[pick];
            slot.write(tx, slot.read(tx) + 1);
        });
    }

    void verify(std::uint64_t) const override {}
    std::uint64_t state_hash() const override { return 0; }

private:
    std::vector<stm::TVar<std::uint64_t>> slots_;
    std::atomic<std::uint64_t> issued_{0};
};

}  // namespace

TEST(ParallelEngine, WorkerThrowKeepsThePerThreadStats) {
    auto stm = stm::Stm::create(cfg("backend=tl2 entries=1024"));
    exec::ParallelRunner runner(
        {.threads = 4, .ops_per_thread = 100000, .seed = 3,
         .workload = "throwing"},
        std::move(stm), std::make_unique<ThrowingWorkload>());
    EXPECT_THROW(runner.run(), std::runtime_error);
    // The throw must not discard what the workers committed before dying:
    // attempt histograms and commit counters are merged before the rethrow.
    const auto& stats = runner.lifetime_stats();
    EXPECT_GT(stats.commits, 0u)
        << "worker shards were dropped on the error path";
    EXPECT_GE(stats.commits, 200u - 4u)
        << "every pre-throw commit must be merged, not just one shard";
    EXPECT_EQ(stats.attempts_per_commit.total(), stats.commits);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(ParallelEngine, OneThreadIsDeterministic) {
    const char* spec =
        "backend=table workload=zipf threads=1 ops=3000 slots=512 "
        "tx_size=3 entries=1024 seed=101";
    exec::ParallelRunner a(cfg(spec));
    exec::ParallelRunner b(cfg(spec));
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.state_hash, rb.state_hash);
    EXPECT_EQ(ra.stats.commits, rb.stats.commits);
    EXPECT_EQ(ra.stats.aborts, rb.stats.aborts);
}

TEST(ParallelEngine, OneThreadMatchesManualSingleThreadedDrive) {
    // The engine with 1 thread must reproduce the plain single-threaded
    // path bit-for-bit: same workload, same seed, one executor, no jump.
    const char* spec =
        "backend=table workload=counters threads=1 ops=2500 slots=512 "
        "tx_size=4 entries=1024 seed=103";
    exec::ParallelRunner engine(cfg(spec));
    const auto engine_result = engine.run();

    auto stm = stm::Stm::create(cfg(spec));
    auto workload = exec::make_workload(cfg(spec));
    const auto executor = stm->make_executor();
    util::Xoshiro256 rng{103};
    for (int i = 0; i < 2500; ++i) workload->op(*executor, rng);
    workload->verify(2500);

    EXPECT_EQ(engine_result.state_hash, workload->state_hash());
    EXPECT_EQ(engine_result.stats.commits, executor->stats().commits);
}

TEST(ParallelEngine, ThreadsUseNonOverlappingSubstreams) {
    // Two threads with the same seed must not replay each other's operand
    // sequence: with disjoint substreams the 2-thread hash differs from a
    // 1-thread run of twice the ops with probability ~1.
    const auto one = exec::ParallelRunner(
        cfg("backend=table workload=counters threads=1 ops=2000 "
            "slots=64k seed=7")).run();
    const auto two = exec::ParallelRunner(
        cfg("backend=table workload=counters threads=2 ops=1000 "
            "slots=64k seed=7")).run();
    EXPECT_EQ(one.stats.commits, two.stats.commits);
    EXPECT_NE(one.state_hash, two.state_hash);
}

// ---------------------------------------------------------------------------
// Executor API
// ---------------------------------------------------------------------------

TEST(Executor, ShardsArePrivateAndMergeable) {
    auto stm = stm::Stm::create(cfg("backend=tagged entries=4096"));
    stm::TVar<long> x{0};
    const auto e1 = stm->make_executor();
    const auto e2 = stm->make_executor();
    for (int i = 0; i < 10; ++i) {
        e1->atomically([&](stm::Transaction& tx) { x.write(tx, x.read(tx) + 1); });
    }
    for (int i = 0; i < 5; ++i) {
        e2->atomically([&](stm::Transaction& tx) { x.write(tx, x.read(tx) + 1); });
    }
    EXPECT_EQ(e1->stats().commits, 10u);
    EXPECT_EQ(e2->stats().commits, 5u);
    EXPECT_EQ(stm->stats().commits, 0u);  // live executors count alone
    stm::StmStats merged = stm->stats();
    merged.merge(e1->stats());
    merged.merge(e2->stats());
    EXPECT_EQ(merged.commits, 15u);
    EXPECT_EQ(x.unsafe_read(), 15);
    EXPECT_DOUBLE_EQ(merged.mean_attempts(), 1.0);
}

TEST(Executor, ReturnsValuesLikeAtomically) {
    auto stm = stm::Stm::create(cfg("backend=tl2"));
    stm::TVar<std::uint64_t> x{41};
    const auto exec = stm->make_executor();
    const auto out = exec->atomically([&](stm::Transaction& tx) {
        x.write(tx, x.read(tx) + 1);
        return x.read(tx);
    });
    EXPECT_EQ(out, 42u);
}

TEST(Workloads, ListsBuiltins) {
    const std::vector<std::string> names = exec::workload_names();
    EXPECT_EQ(names, (std::vector<std::string>{"counters", "zipf", "bank",
                                               "replay", "vacation", "kmeans",
                                               "pipeline"}));
    for (const std::string& name : names) {
        const auto w = exec::make_workload(
            cfg("workload=" + name + " slots=64 accesses=1000"));
        ASSERT_NE(w, nullptr) << name;
        EXPECT_EQ(w->name(), name);
    }
    try {
        (void)exec::make_workload(cfg("workload=nonesuch"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'nonesuch'"), std::string::npos) << what;
        for (const std::string& name : names) {
            EXPECT_NE(what.find(name), std::string::npos) << what;
        }
    }
}

// ---------------------------------------------------------------------------
// STAMP-class workloads (tx_alloc/tx_free churn through the engine)
// ---------------------------------------------------------------------------

TEST(StampWorkloads, VacationHoldsItsInvariantOnAllBackends) {
    for (const char* engine :
         {"backend=table", "backend=tagged", "backend=tl2",
          "backend=tl2 clock=gv1", "backend=adaptive"}) {
        exec::ParallelRunner runner(cfg(
            std::string("workload=vacation ") + engine +
            " entries=16384 threads=4 ops=400 rows=32 customers=16 seed=5"));
        const auto r = runner.run();  // verify() throws on violation
        EXPECT_EQ(r.ops, 1600u) << engine;
        const stm::ReclaimStats reclaim = runner.stm().reclaim_stats();
        EXPECT_GT(reclaim.tx_allocs, 0u) << engine;
        EXPECT_GT(reclaim.tx_frees, 0u) << engine;
        EXPECT_EQ(reclaim.pending_blocks(), 0u) << engine;
    }
}

TEST(StampWorkloads, RunReclaimsEveryBlockItFrees) {
    // run() snapshots its counters after the quiescent drain, so a run's
    // reclaimed count includes the blocks that drain releases.
    exec::ParallelRunner runner(
        cfg("workload=vacation backend=tagless entries=16384 threads=1 "
            "ops=2000 seed=24301"));
    const auto r = runner.run();
    EXPECT_GT(r.stats.tx_frees, 0u);
    EXPECT_EQ(r.stats.reclaimed, r.stats.tx_frees);
}

TEST(StampWorkloads, KmeansHoldsItsInvariantOnAllBackends) {
    for (const char* backend : {"table", "tagged", "tl2", "adaptive"}) {
        exec::ParallelRunner runner(
            cfg(std::string("workload=kmeans backend=") + backend +
                " entries=16384 threads=4 ops=400 clusters=4"
                " recenter_every=16 seed=5"));
        const auto r = runner.run();
        EXPECT_EQ(r.ops, 1600u) << backend;
        const stm::ReclaimStats reclaim = runner.stm().reclaim_stats();
        EXPECT_GT(reclaim.tx_frees, 0u) << backend;
        EXPECT_EQ(reclaim.pending_blocks(), 0u) << backend;
    }
}

TEST(StampWorkloads, OneThreadRunsAreDeterministic) {
    for (const char* wl :
         {"workload=vacation rows=16 customers=8", "workload=kmeans"}) {
        const std::string spec =
            std::string(wl) + " backend=tl2 threads=1 ops=300 seed=77";
        exec::ParallelRunner a(cfg(spec));
        exec::ParallelRunner b(cfg(spec));
        EXPECT_EQ(a.run().state_hash, b.run().state_hash) << wl;
    }
}

TEST(StampWorkloads, RejectBadShapes) {
    EXPECT_THROW((void)exec::make_workload(cfg("workload=vacation rows=0")),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)exec::make_workload(cfg("workload=vacation queries=9")),
        std::invalid_argument);
    EXPECT_THROW((void)exec::make_workload(cfg("workload=kmeans clusters=0")),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)exec::make_workload(cfg("workload=kmeans recenter_every=0")),
        std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replay workload (trace source -> real threads)
// ---------------------------------------------------------------------------

TEST(ReplayWorkload, OneThreadIsBitForBitDeterministic) {
    const char* spec =
        "backend=table workload=replay source=jbb threads=1 ops=500 "
        "tx_size=8 accesses=3000 slots=4096 entries=4096 seed=31";
    exec::ParallelRunner a(cfg(spec));
    exec::ParallelRunner b(cfg(spec));
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.state_hash, rb.state_hash);
    EXPECT_EQ(ra.stats.commits, rb.stats.commits);
    EXPECT_EQ(ra.stats.commits, 500u);
}

TEST(ReplayWorkload, StateHashesArePinned) {
    // Ties the jbb emitter, the RNG draws and the block -> slot map to fixed
    // outputs: a change to any of them that alters a single replayed access
    // moves the hash. The second shape's slot count is not a power of two,
    // so its map takes the modulo path instead of the mask. (zipf and spec
    // sources are left out: their samplers go through libm.)
    const struct {
        const char* spec;
        std::uint64_t hash;
    } cases[] = {
        {"backend=table workload=replay source=jbb threads=1 ops=500 "
         "tx_size=8 accesses=3000 slots=4096 entries=4096 seed=31",
         0x836681e08d0c6873ULL},
        {"backend=table workload=replay source=jbb threads=1 ops=500 "
         "tx_size=16 accesses=3000 slots=1000 entries=4096 seed=7",
         0xa81ef9c64050c6e4ULL},
    };
    for (const auto& c : cases) {
        exec::ParallelRunner runner(cfg(c.spec));
        const auto r = runner.run();
        EXPECT_EQ(r.stats.commits, 500u) << c.spec;
        EXPECT_EQ(r.state_hash, c.hash) << c.spec;
    }
}

TEST(ReplayWorkload, InvariantHoldsAcrossRepeatedRuns) {
    // Every run() spawns fresh threads, which bind fresh cursors; verify()
    // (inside run()) checks the lifetime slot sum against the committed
    // writes of every cursor, earlier runs' included.
    exec::ParallelRunner runner(cfg(
        "backend=table workload=replay source=jbb threads=4 ops=300 "
        "tx_size=8 accesses=2000 slots=1024 entries=256 contention=yield "
        "seed=41"));
    for (int run = 0; run < 5; ++run) {
        const auto r = runner.run();
        EXPECT_EQ(r.stats.commits, 4u * 300u) << "run " << run;
    }
}

TEST(ReplayWorkload, WrapsShortStreamsInsteadOfStarving) {
    // 200 accesses per stream, but 500 ops x 8 accesses demand 4000: the
    // cursor must wrap and the run still commit every transaction.
    exec::ParallelRunner runner(cfg(
        "backend=table workload=replay source=jbb threads=2 ops=500 "
        "tx_size=8 accesses=200 slots=1024 entries=2048 contention=yield "
        "seed=33"));
    const auto r = runner.run();
    EXPECT_EQ(r.stats.commits, 2u * 500u);
}

TEST(ReplayWorkload, AllBackendsReplayUnderContention) {
    for (const char* backend : {"tl2", "table", "tagged"}) {
        config::Config c = cfg(
            "workload=replay source=zipf threads=4 ops=300 tx_size=8 "
            "accesses=10000 slots=512 entries=1024 contention=yield seed=37");
        c.set("backend", backend);
        exec::ParallelRunner runner(c);
        const auto r = runner.run();
        EXPECT_EQ(r.stats.commits, 4u * 300u) << backend;
    }
}

TEST(ReplayWorkload, RejectsBadShape) {
    EXPECT_THROW((void)exec::make_workload(cfg("workload=replay tx_size=0")),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)exec::make_workload(cfg("workload=replay tx_size=5000")),
        std::invalid_argument);
    EXPECT_THROW((void)exec::make_workload(cfg("workload=replay slots=0")),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)exec::make_workload(cfg("workload=replay source=nonesuch")),
        std::invalid_argument);
}

}  // namespace
}  // namespace tmb
