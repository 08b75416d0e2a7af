// Edge-path tests for the STM runtime internals that the main suites only
// exercise incidentally: SlotPool exhaustion/blocking, ContentionManager
// policy edges (backoff saturation), and the max_attempts give-up path
// (TooMuchContention).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "stm/contention.hpp"
#include "stm/slot_pool.hpp"
#include "stm/stm.hpp"

namespace tmb::stm {
namespace {

// ---------------------------------------------------------------------------
// SlotPool
// ---------------------------------------------------------------------------

TEST(SlotPool, HandsOutLowestFreeIds) {
    detail::SlotPool pool(8);
    EXPECT_EQ(pool.acquire(), 0u);
    EXPECT_EQ(pool.acquire(), 1u);
    EXPECT_EQ(pool.acquire(), 2u);
    pool.release(1);
    EXPECT_EQ(pool.acquire(), 1u);  // lowest free, not next-highest
    pool.release(0);
    pool.release(2);
    EXPECT_EQ(pool.acquire(), 0u);
}

TEST(SlotPool, FullCapacityDrainAndRefill) {
    detail::SlotPool pool;  // default capacity: ownership::kMaxTx == 62
    for (std::uint32_t i = 0; i < ownership::kMaxTx; ++i) {
        EXPECT_EQ(pool.acquire(), i);
    }
    for (std::uint32_t i = 0; i < ownership::kMaxTx; ++i) pool.release(i);
    EXPECT_EQ(pool.acquire(), 0u);
    pool.release(0);
}

TEST(SlotPool, ExhaustionBlocksUntilRelease) {
    detail::SlotPool pool(2);
    EXPECT_EQ(pool.acquire(), 0u);
    EXPECT_EQ(pool.acquire(), 1u);

    std::atomic<bool> acquired{false};
    std::atomic<std::uint32_t> got{~0u};
    std::thread waiter([&] {
        got.store(pool.acquire(), std::memory_order_relaxed);
        acquired.store(true, std::memory_order_release);
    });

    // With both slots held, a correct pool cannot hand out a third id.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(acquired.load(std::memory_order_acquire));

    pool.release(1);
    waiter.join();
    EXPECT_TRUE(acquired.load(std::memory_order_acquire));
    EXPECT_EQ(got.load(std::memory_order_relaxed), 1u);
    pool.release(1);
    pool.release(0);
}

// ---------------------------------------------------------------------------
// ContentionManager policy edges
// ---------------------------------------------------------------------------

TEST(Contention, NonePolicyCountsWithoutBlocking) {
    const ContentionConfig cfg{.policy = ContentionPolicy::kNone};
    ContentionManager cm(cfg, 1);
    for (int i = 0; i < 100; ++i) cm.on_abort();
    EXPECT_EQ(cm.attempts(), 100u);
    cm.reset();
    EXPECT_EQ(cm.attempts(), 0u);
}

TEST(Contention, BackoffSaturatesAtMaxDelay) {
    // Deep attempt counts must clamp: the exponent is capped (<< 24 max)
    // and the delay ceiling is min'ed against max_delay_ns, so attempt 60
    // still sleeps at most max_delay_ns. With nanosecond ceilings the whole
    // saturated walk stays far under a second — if either clamp were lost,
    // the shift would overflow into multi-second (or UB) sleeps.
    const ContentionConfig cfg{.policy = ContentionPolicy::kExponentialBackoff,
                               .initial_delay_ns = 1,
                               .max_delay_ns = 1000,
                               .yield_attempts = 2};
    ContentionManager cm(cfg, 42);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 60; ++i) cm.on_abort();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(cm.attempts(), 60u);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                  .count(),
              1000);
}

// ---------------------------------------------------------------------------
// max_attempts: the give-up path
// ---------------------------------------------------------------------------

/// Pads a TVar onto its own 64-byte block so two variables never share a
/// conflict-tracking unit by stack-layout accident.
struct alignas(64) PaddedVar {
    TVar<long> v{0};
};

TEST(MaxAttempts, GivesUpWithTooMuchContention) {
    StmConfig config;
    config.backend = BackendKind::kTaglessTable;
    config.table.entries = 1024;
    config.max_attempts = 3;
    config.contention.policy = ContentionPolicy::kNone;
    Stm tm(config);

    PaddedVar shared;
    const auto holder = tm.make_executor();
    const auto contender = tm.make_executor();

    // The holder keeps write ownership of the block for the whole body;
    // every one of the contender's attempts hits the same conflict, so
    // after max_attempts the inner call must give up rather than spin.
    holder->atomically([&](Transaction& tx) {
        shared.v.write(tx, 1);
        EXPECT_THROW(
            contender->atomically(
                [&](Transaction& inner) { (void)shared.v.read(inner); }),
            TooMuchContention);
    });

    EXPECT_EQ(contender->stats().aborts, 3u);
    EXPECT_EQ(contender->stats().commits, 0u);
    EXPECT_EQ(holder->stats().commits, 1u);
    // Give-up must not leak ownership: with both transactions finished the
    // table is quiescent.
    EXPECT_EQ(tm.occupied_metadata_entries(), 0u);
}

TEST(MaxAttempts, GivesUpThroughTheBackoffSleepPath) {
    // Same conflict shape, but through the exponential-backoff branch with
    // nanosecond delays: exercises on_abort()'s sleep path end to end
    // without slowing the suite.
    StmConfig config;
    config.backend = BackendKind::kTaggedTable;
    config.table.entries = 1024;
    config.max_attempts = 30;
    config.contention = ContentionConfig{
        .policy = ContentionPolicy::kExponentialBackoff,
        .initial_delay_ns = 1,
        .max_delay_ns = 500,
        .yield_attempts = 1};
    Stm tm(config);

    PaddedVar shared;
    const auto holder = tm.make_executor();
    const auto contender = tm.make_executor();
    holder->atomically([&](Transaction& tx) {
        shared.v.write(tx, 7);
        EXPECT_THROW(
            contender->atomically([&](Transaction& inner) {
                shared.v.write(inner, 8);
            }),
            TooMuchContention);
    });
    EXPECT_EQ(contender->stats().aborts, 30u);
    EXPECT_EQ(shared.v.unsafe_read(), 7);  // loser never published
    EXPECT_EQ(tm.occupied_metadata_entries(), 0u);
}

TEST(MaxAttempts, ExplicitRetryAlsoHitsTheCap) {
    StmConfig config;
    config.backend = BackendKind::kTaggedTable;
    config.max_attempts = 4;
    config.contention.policy = ContentionPolicy::kNone;
    Stm tm(config);
    std::uint32_t calls = 0;
    EXPECT_THROW(tm.atomically([&](Transaction& tx) {
        ++calls;
        tx.retry();
    }),
                 TooMuchContention);
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(tm.stats().explicit_retries, 4u);
    EXPECT_EQ(tm.stats().commits, 0u);
}

}  // namespace
}  // namespace tmb::stm
