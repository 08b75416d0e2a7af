// Property-based and parameterized tests: invariants that must hold across
// whole parameter grids, exercised with TEST_P / INSTANTIATE_TEST_SUITE_P
// sweeps and randomized operation sequences.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "cache/cache.hpp"
#include "core/birthday.hpp"
#include "core/conflict_model.hpp"
#include "ownership/atomic_tagless_table.hpp"
#include "ownership/tagged_table.hpp"
#include "sim/open_system.hpp"
#include "util/rng.hpp"

namespace tmb {
namespace {

// ---------------------------------------------------------------------------
// Ownership tables: randomized lifecycle property — after releasing
// everything it acquired, a transaction leaves no trace in either table.
// ---------------------------------------------------------------------------

class TableLifecycle : public ::testing::TestWithParam<
                           std::tuple<std::uint64_t /*entries*/,
                                      std::uint64_t /*seed*/>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, TableLifecycle,
    ::testing::Combine(::testing::Values(4u, 64u, 1024u),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST_P(TableLifecycle, ReleaseRestoresEmptyTagless) {
    const auto [entries, seed] = GetParam();
    ownership::AtomicTaglessTable table(
        {.entries = entries, .hash = util::HashKind::kMix64});
    util::Xoshiro256 rng{seed};

    // Per-transaction acquired-block log, as the STM keeps it.
    std::map<ownership::TxId, std::set<std::uint64_t>> held;
    for (int step = 0; step < 3000; ++step) {
        const auto tx = static_cast<ownership::TxId>(rng.below(8));
        if (rng.bernoulli(0.25) && !held[tx].empty()) {
            // Commit/abort: release the whole footprint.
            for (const auto b : held[tx]) {
                table.release(tx, b, ownership::Mode::kWrite);
            }
            held[tx].clear();
            continue;
        }
        const std::uint64_t block = rng.below(entries * 8);
        const bool write = rng.bernoulli(0.4);
        const auto r = write ? table.acquire_write(tx, block)
                             : table.acquire_read(tx, block);
        if (r.ok) held[tx].insert(block);
    }
    for (auto& [tx, blocks] : held) {
        for (const auto b : blocks) table.release(tx, b, ownership::Mode::kWrite);
    }
    EXPECT_EQ(table.occupied_entries(), 0u);
}

TEST_P(TableLifecycle, ReleaseRestoresEmptyTagged) {
    const auto [entries, seed] = GetParam();
    ownership::TaggedTable table(
        {.entries = entries, .hash = util::HashKind::kMix64});
    util::Xoshiro256 rng{seed * 31 + 7};

    std::map<ownership::TxId, std::set<std::uint64_t>> held;
    for (int step = 0; step < 3000; ++step) {
        const auto tx = static_cast<ownership::TxId>(rng.below(8));
        if (rng.bernoulli(0.25) && !held[tx].empty()) {
            for (const auto b : held[tx]) {
                table.release(tx, b, ownership::Mode::kWrite);
            }
            held[tx].clear();
            continue;
        }
        const std::uint64_t block = rng.below(entries * 8);
        const bool write = rng.bernoulli(0.4);
        const auto r = write ? table.acquire_write(tx, block)
                             : table.acquire_read(tx, block);
        if (r.ok) held[tx].insert(block);
    }
    for (auto& [tx, blocks] : held) {
        for (const auto b : blocks) table.release(tx, b, ownership::Mode::kWrite);
    }
    EXPECT_EQ(table.occupied_entries(), 0u);
    EXPECT_EQ(table.chained_slots(), 0u);
}

// ---------------------------------------------------------------------------
// Differential property: the tagged table accepts a superset of the tagless
// table's acquisitions on any workload (conservative-aliasing dominance).
// ---------------------------------------------------------------------------

class TableDominance
    : public ::testing::TestWithParam<std::tuple<util::HashKind, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, TableDominance,
    ::testing::Combine(::testing::Values(util::HashKind::kShiftMask,
                                         util::HashKind::kMultiplicative,
                                         util::HashKind::kMix64),
                       ::testing::Values(11u, 22u, 33u)));

TEST_P(TableDominance, TaggedAcceptsWheneverTaglessDoes) {
    const auto [hash, seed] = GetParam();
    ownership::AtomicTaglessTable tagless({.entries = 64, .hash = hash});
    ownership::TaggedTable tagged({.entries = 64, .hash = hash});
    util::Xoshiro256 rng{seed};

    // Mirror operations; track per-tx footprints for synchronized releases.
    std::map<ownership::TxId, std::set<std::uint64_t>> held;
    for (int step = 0; step < 5000; ++step) {
        const auto tx = static_cast<ownership::TxId>(rng.below(6));
        if (rng.bernoulli(0.2) && !held[tx].empty()) {
            for (const auto b : held[tx]) {
                tagless.release(tx, b, ownership::Mode::kWrite);
                tagged.release(tx, b, ownership::Mode::kWrite);
            }
            held[tx].clear();
            continue;
        }
        const std::uint64_t block = rng.below(4096);
        const bool write = rng.bernoulli(0.4);
        const bool ok_tagless = write ? tagless.acquire_write(tx, block).ok
                                      : tagless.acquire_read(tx, block).ok;
        const bool ok_tagged = write ? tagged.acquire_write(tx, block).ok
                                     : tagged.acquire_read(tx, block).ok;
        // Divergence is one-directional. If the organizations diverge, their
        // footprints diverge too, so we stop mirroring at first divergence.
        if (ok_tagless && !ok_tagged) {
            ADD_FAILURE() << "tagless accepted what tagged refused at step "
                          << step;
            break;
        }
        if (ok_tagless != ok_tagged) break;
        if (ok_tagless) held[tx].insert(block);
    }
}

// ---------------------------------------------------------------------------
// Cache simulator: structural invariants over random access streams.
// ---------------------------------------------------------------------------

class CacheInvariants
    : public ::testing::TestWithParam<std::tuple<std::uint32_t /*ways*/,
                                                 std::uint32_t /*victims*/,
                                                 std::uint64_t /*seed*/>> {};

INSTANTIATE_TEST_SUITE_P(Grid, CacheInvariants,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                                            ::testing::Values(0u, 1u, 4u),
                                            ::testing::Values(1u, 9u)));

TEST_P(CacheInvariants, ResidencyAndCountersStayConsistent) {
    const auto [ways, victims, seed] = GetParam();
    const cache::CacheGeometry g{.size_bytes = 64u * 64u * ways,
                                 .ways = ways,
                                 .block_bytes = 64,
                                 .victim_entries = victims};
    cache::SetAssociativeCache c(g);
    util::Xoshiro256 rng{seed};

    std::set<std::uint64_t> resident;  // reference model of the hierarchy
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t block = rng.below(g.block_count() * 4);
        const auto r = c.access(block);
        // Reference model update.
        const bool was_resident = resident.contains(block);
        EXPECT_EQ(r.hit || r.victim_hit, was_resident) << "step " << i;
        resident.insert(block);
        if (r.evicted) {
            EXPECT_TRUE(resident.contains(*r.evicted)) << "step " << i;
            resident.erase(*r.evicted);
        }
        // Capacity invariant.
        EXPECT_LE(c.resident_count(), g.block_count() + victims);
        EXPECT_EQ(c.resident_count(), resident.size()) << "step " << i;
        // The just-accessed block is always resident afterwards.
        EXPECT_TRUE(c.contains(block)) << "step " << i;
    }
    EXPECT_EQ(c.hits() + c.misses(), 20000u);
}

// ---------------------------------------------------------------------------
// Model: monotonicity and scaling laws over the whole parameter grid.
// ---------------------------------------------------------------------------

class ModelGrid : public ::testing::TestWithParam<
                      std::tuple<double /*alpha*/, std::uint64_t /*C*/>> {};

INSTANTIATE_TEST_SUITE_P(Grid, ModelGrid,
                         ::testing::Combine(::testing::Values(0.5, 1.0, 2.0, 4.0),
                                            ::testing::Values(2u, 3u, 4u, 8u, 16u)));

TEST_P(ModelGrid, SumEqualsClosedFormEverywhere) {
    const auto [alpha, c] = GetParam();
    const core::ModelParams p{.alpha = alpha, .table_entries = 1u << 18};
    for (const std::uint64_t w : {1u, 2u, 7u, 31u, 100u}) {
        EXPECT_NEAR(core::conflict_sum(p, c, w), core::conflict_likelihood(p, c, w),
                    1e-9)
            << "alpha=" << alpha << " C=" << c << " W=" << w;
    }
}

TEST_P(ModelGrid, MonotoneInFootprintAndConcurrency) {
    const auto [alpha, c] = GetParam();
    const core::ModelParams p{.alpha = alpha, .table_entries = 1u << 20};
    double prev = -1.0;
    for (std::uint64_t w = 1; w <= 64; w *= 2) {
        const double v = core::conflict_likelihood(p, c, w);
        EXPECT_GT(v, prev);
        prev = v;
    }
    EXPECT_LT(core::conflict_likelihood(p, c, 16),
              core::conflict_likelihood(p, c + 1, 16));
}

TEST_P(ModelGrid, ProductFormBoundsLinearForm) {
    const auto [alpha, c] = GetParam();
    for (const std::uint64_t n : {1024u, 65536u}) {
        const core::ModelParams p{.alpha = alpha, .table_entries = n};
        for (const std::uint64_t w : {2u, 8u, 32u}) {
            const double lin = core::commit_probability_linear(p, c, w);
            const double prod = core::commit_probability_product(p, c, w);
            EXPECT_LE(lin, prod + 1e-12);
            EXPECT_GE(prod, 0.0);
            EXPECT_LE(prod, 1.0);
        }
    }
}

TEST_P(ModelGrid, InverseSolverIsExactBoundary) {
    const auto [alpha, c] = GetParam();
    for (const double target : {0.5, 0.9, 0.99}) {
        const auto n = core::required_table_entries(alpha, c, 20, target);
        const core::ModelParams at{.alpha = alpha, .table_entries = n};
        EXPECT_GE(core::commit_probability_linear(at, c, 20), target - 1e-9);
        if (n > 2) {
            const core::ModelParams below{.alpha = alpha, .table_entries = n - 2};
            EXPECT_LT(core::commit_probability_linear(below, c, 20), target + 1e-6);
        }
    }
}

// ---------------------------------------------------------------------------
// Open-system simulation vs model: agreement across a parameter grid in the
// sparse regime (the paper's validation, as a sweeping property).
// ---------------------------------------------------------------------------

class SimModelAgreement
    : public ::testing::TestWithParam<std::tuple<std::uint32_t /*C*/,
                                                 std::uint64_t /*W*/>> {};

INSTANTIATE_TEST_SUITE_P(Grid, SimModelAgreement,
                         ::testing::Combine(::testing::Values(2u, 3u, 4u),
                                            ::testing::Values(5u, 10u, 15u)));

TEST_P(SimModelAgreement, WithinNoiseOfProductForm) {
    const auto [c, w] = GetParam();
    // Choose N so the conflict rate sits in a well-measurable 5-60 % band.
    const std::uint64_t n = 256 * c * w;
    const auto r = sim::run_open_system({.concurrency = c,
                                         .write_footprint = w,
                                         .alpha = 2.0,
                                         .table_entries = n,
                                         .experiments = 4000,
                                         .seed = 1000 + c * 37 + w});
    const core::ModelParams p{.alpha = 2.0, .table_entries = n};
    const double predicted = 1.0 - core::commit_probability_product(p, c, w);
    EXPECT_NEAR(r.conflict_rate(), predicted, 0.04)
        << "C=" << c << " W=" << w << " N=" << n;
}

// ---------------------------------------------------------------------------
// Birthday functions: approximation quality across the grid.
// ---------------------------------------------------------------------------

class BirthdayGrid : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Days, BirthdayGrid,
                         ::testing::Values(64u, 365u, 4096u, 65536u));

TEST_P(BirthdayGrid, ApproxTracksExactBelowHalfLoad) {
    const std::uint64_t days = GetParam();
    // The second-order approximation degrades past n ~ sqrt(d) (load 1).
    for (std::uint64_t people = 2; people * people <= days; people *= 2) {
        const double exact = core::birthday_collision_probability(people, days);
        const double approx = core::birthday_collision_approx(people, days);
        EXPECT_NEAR(approx, exact, 0.02) << "people=" << people;
    }
}

TEST_P(BirthdayGrid, MinPeopleInvertsExactProbability) {
    const std::uint64_t days = GetParam();
    for (const double threshold : {0.1, 0.5, 0.9}) {
        const auto n = core::birthday_min_people(threshold, days);
        EXPECT_GE(core::birthday_collision_probability(n, days), threshold);
        if (n > 2) {
            EXPECT_LT(core::birthday_collision_probability(n - 1, days), threshold);
        }
    }
}

}  // namespace
}  // namespace tmb
