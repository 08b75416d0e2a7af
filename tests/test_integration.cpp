// Cross-module integration tests: each test exercises a pipeline of two or
// more libraries the way the benches and examples do, checking end-to-end
// behaviour rather than unit semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>

#include "cache/overflow.hpp"
#include "core/birthday.hpp"
#include "core/conflict_model.hpp"
#include "ownership/any_table.hpp"
#include "ownership/atomic_tagless_table.hpp"
#include "sim/closed_system.hpp"
#include "sim/open_system.hpp"
#include "sim/trace_alias.hpp"
#include "stm/stm.hpp"
#include "trace/conflict_filter.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/stats.hpp"

namespace tmb {
namespace {

// ---------------------------------------------------------------------------
// trace → filter → alias experiment → model comparison
// ---------------------------------------------------------------------------

TEST(Integration, TraceAliasTracksModelShape) {
    // The full Fig. 2 pipeline at three footprints; the measured likelihood
    // must scale like the model's W² law within a generous factor (real
    // traces have correlated addresses, so only the trend is guaranteed).
    trace::SpecJbbLikeParams params;
    trace::SpecJbbLikeGenerator gen(params, 555);
    auto tr = gen.generate(60000);
    trace::remove_true_conflicts(tr);
    ASSERT_FALSE(trace::has_true_conflicts(tr));

    std::vector<double> w{10, 20, 40}, rate;
    for (const double footprint : w) {
        const sim::TraceAliasConfig cfg{
            .concurrency = 2,
            .write_footprint = static_cast<std::uint64_t>(footprint),
            .table_entries = 1u << 16,
            .samples = 2000,
            .seed = 99};
        rate.push_back(run_trace_alias(cfg, tr).alias_likelihood());
    }
    const double slope = util::loglog_slope(w, rate);
    EXPECT_GT(slope, 1.5);
    EXPECT_LT(slope, 2.5);
}

TEST(Integration, TraceRoundTripPreservesExperimentResults) {
    // Serializing a trace and re-running the experiment must reproduce the
    // result exactly (users will run our experiments on their own traces).
    trace::SpecJbbLikeParams params;
    params.arena_blocks = 1u << 14;
    trace::SpecJbbLikeGenerator gen(params, 777);
    auto tr = gen.generate(8000);
    trace::remove_true_conflicts(tr);

    std::stringstream buffer;
    trace::write_text(buffer, tr);
    const auto loaded = trace::read_text(buffer);

    const sim::TraceAliasConfig cfg{.concurrency = 3,
                                    .write_footprint = 10,
                                    .table_entries = 2048,
                                    .samples = 500,
                                    .seed = 42};
    EXPECT_EQ(run_trace_alias(cfg, tr).aliased,
              run_trace_alias(cfg, loaded).aliased);
}

// ---------------------------------------------------------------------------
// cache overflow → model sizing (the hybrid_overflow example's pipeline)
// ---------------------------------------------------------------------------

TEST(Integration, OverflowPointFeedsModelSizing) {
    const cache::CacheGeometry l1{};
    const auto stream = trace::generate_spec2000_stream(
        trace::spec2000_profile("vortex"), 60000, 31);
    const auto p = cache::find_overflow(l1, stream);
    ASSERT_TRUE(p.overflowed);
    ASSERT_GT(p.write_blocks, 10u);

    const double alpha = static_cast<double>(p.read_blocks) /
                         static_cast<double>(p.write_blocks);
    const auto needed =
        core::required_table_entries(alpha, 2, p.write_blocks, 0.95);
    // A realistic overflow footprint needs a six-figure tagless table for
    // 95 % commit at C=2 — the paper's central practical conclusion.
    EXPECT_GT(needed, 50'000u);

    // And the forward model at that size is consistent.
    const core::ModelParams mp{.alpha = alpha, .table_entries = needed};
    EXPECT_GE(core::commit_probability_linear(mp, 2, p.write_blocks), 0.95 - 1e-9);
}

TEST(Integration, AllProfilesOverflowThePaperCache) {
    // Every SPEC2000-like profile must actually exercise the §2.3 pipeline:
    // overflow the 32 KB cache with a plausible footprint.
    const cache::CacheGeometry l1{};
    for (const auto& profile : trace::spec2000_profiles()) {
        const auto stream = trace::generate_spec2000_stream(profile, 60000, 17);
        const auto p = cache::find_overflow(l1, stream);
        EXPECT_TRUE(p.overflowed) << profile.name;
        EXPECT_GT(p.footprint_blocks(), 64u) << profile.name;
        EXPECT_LT(p.footprint_blocks(), 512u) << profile.name;
        EXPECT_GT(p.write_blocks, 0u) << profile.name;
        EXPECT_GT(p.read_blocks, p.write_blocks / 2) << profile.name;
    }
}

TEST(Integration, VictimBufferHelpsEveryProfile) {
    const cache::CacheGeometry base{};
    cache::CacheGeometry vb = base;
    vb.victim_entries = 1;
    for (const auto& profile : trace::spec2000_profiles()) {
        const auto stream = trace::generate_spec2000_stream(profile, 60000, 23);
        const auto p0 = cache::find_overflow(base, stream);
        const auto p1 = cache::find_overflow(vb, stream);
        EXPECT_GE(p1.footprint_blocks(), p0.footprint_blocks()) << profile.name;
    }
}

// ---------------------------------------------------------------------------
// simulators ↔ analytical model cross-checks
// ---------------------------------------------------------------------------

TEST(Integration, OpenAndClosedSystemsAgreeOnScaling) {
    // The two §4 simulators model the same physics; their conflict measures
    // must scale the same way with table size.
    // Stay out of the open system's saturation regime (rates < ~50 %).
    std::vector<double> n{4096, 16384}, open_rate, closed_conflicts;
    for (const double entries : n) {
        const auto open = sim::run_open_system(
            {.concurrency = 4,
             .write_footprint = 10,
             .table_entries = static_cast<std::uint64_t>(entries),
             .experiments = 3000,
             .seed = 7});
        open_rate.push_back(open.conflict_rate());
        const auto closed = sim::run_closed_system_averaged(
            {.concurrency = 4,
             .write_footprint = 10,
             .table_entries = static_cast<std::uint64_t>(entries),
             .seed = 7},
            5);
        closed_conflicts.push_back(static_cast<double>(closed.conflicts));
    }
    const double open_ratio = open_rate[0] / open_rate[1];
    const double closed_ratio = closed_conflicts[0] / closed_conflicts[1];
    // Open system saturates faster (per-transaction likelihood), so allow a
    // loose band — both must show a several-fold drop for a 4x table.
    EXPECT_GT(open_ratio, 2.0);
    EXPECT_GT(closed_ratio, 2.0);
    EXPECT_LT(closed_ratio, 8.0);
}

TEST(Integration, ExpectedOccupancyMatchesBirthdayFormula) {
    // The closed-system occupancy in the conflict-free regime matches the
    // balls-in-bins expectation from core::expected_occupied_bins applied to
    // the average in-flight footprint.
    const sim::ClosedSystemConfig cfg{.concurrency = 4,
                                      .write_footprint = 10,
                                      .alpha = 2.0,
                                      .table_entries = 1u << 22,
                                      .seed = 3};
    const auto r = sim::run_closed_system(cfg);
    ASSERT_EQ(r.conflicts, 0u);
    // Mean in-flight blocks = C * (1+α)W/2; table huge → occupancy ≈ blocks.
    const double blocks = 4 * (1.0 + 2.0) * 10 / 2.0;
    EXPECT_NEAR(r.mean_occupancy, core::expected_occupied_bins(
                                      static_cast<std::uint64_t>(blocks), cfg.table_entries),
                blocks * 0.15);
}

// ---------------------------------------------------------------------------
// STM ↔ ownership-table consistency
// ---------------------------------------------------------------------------

TEST(Integration, StmFalseConflictRateFollowsModel) {
    // Run the live STM with a small tagless table on disjoint single-block
    // transactions and compare the observed false-conflict *possibility*
    // against the birthday bound: with only 2 live transactions of 1 block
    // each, collisions happen at rate ~1/N per attempt pair. We can't
    // control overlap timing on one core, so assert the weaker property:
    // everything classified false, nothing true.
    stm::StmConfig cfg;
    cfg.backend = stm::BackendKind::kTaglessTable;
    cfg.table.entries = 16;
    cfg.contention.policy = stm::ContentionPolicy::kYield;
    stm::Stm tm(cfg);

    struct alignas(64) Slot {
        stm::TVar<long> v;
    };
    std::vector<Slot> slots(64);

    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            util::Xoshiro256 rng{static_cast<std::uint64_t>(t) + 5};
            for (int i = 0; i < 500; ++i) {
                const auto idx = static_cast<std::size_t>(t) * 32 + rng.below(32);
                tm.atomically([&](stm::Transaction& tx) {
                    const long v = slots[idx].v.read(tx);
                    std::this_thread::yield();
                    slots[idx].v.write(tx, v + 1);
                });
            }
        });
    }
    for (auto& th : threads) th.join();

    long total = 0;
    for (auto& s : slots) total += s.v.unsafe_read();
    EXPECT_EQ(total, 1000);
    EXPECT_EQ(tm.stats().true_conflicts, 0u);
}

TEST(Integration, AnyTableDrivesTraceAliasIdentically) {
    // The type-erased wrapper must give the same results as the concrete
    // table (the experiment uses AnyTable; unit tests use concrete types).
    trace::SpecJbbLikeParams params;
    params.arena_blocks = 1u << 14;
    trace::SpecJbbLikeGenerator gen(params, 888);
    auto tr = gen.generate(8000);
    trace::remove_true_conflicts(tr);

    sim::TraceAliasConfig cfg{.concurrency = 2,
                              .write_footprint = 10,
                              .table_entries = 1024,
                              .samples = 400,
                              .seed = 10};
    cfg.table = "tagless";
    const auto tagless = run_trace_alias(cfg, tr);
    cfg.table = "tagged";
    const auto tagged = run_trace_alias(cfg, tr);
    EXPECT_GT(tagless.aliased, 0u);
    EXPECT_EQ(tagged.aliased, 0u);
}

// ---------------------------------------------------------------------------
// model self-consistency at experiment scale
// ---------------------------------------------------------------------------

TEST(Integration, RequiredTableSizeMatchesSimulatedCommitRate) {
    // Size a table with the inverse solver, then *simulate* at that size and
    // confirm the commit rate target is roughly met (the solver uses the
    // linear form, which is conservative vs the product form).
    const std::uint64_t w = 12;
    const auto n = core::required_table_entries(2.0, 2, w, 0.8);
    const auto r = sim::run_open_system({.concurrency = 2,
                                         .write_footprint = w,
                                         .alpha = 2.0,
                                         .table_entries = n,
                                         .experiments = 5000,
                                         .seed = 77});
    EXPECT_GE(1.0 - r.conflict_rate(), 0.8 - 0.03);
}

TEST(Integration, BirthdayBoundCoversTableCollisions) {
    // Populating an ownership table with k random singleton transactions and
    // asking "did any pair collide" IS the birthday problem; the exact
    // formula must match a direct Monte Carlo on the real table.
    constexpr std::uint64_t kTable = 365;
    constexpr std::uint64_t kTx = 23;
    util::Xoshiro256 rng{123};
    util::Proportion collided;
    for (int trial = 0; trial < 4000; ++trial) {
        ownership::AtomicTaglessTable table(
            {.entries = kTable, .hash = util::HashKind::kShiftMask});
        bool any = false;
        for (ownership::TxId tx = 0; tx < kTx; ++tx) {
            if (!table.acquire_write(tx, rng.below(kTable)).ok) {
                any = true;
                break;
            }
        }
        collided.add(any);
    }
    EXPECT_NEAR(collided.rate(),
                core::birthday_collision_probability(kTx, kTable), 0.03);
}

}  // namespace
}  // namespace tmb
