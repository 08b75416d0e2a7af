// Tests for the allocation-free transaction-local containers
// (stm/txlocal.hpp) and the zero-allocation steady-state guarantee of the
// STM backends built on them.
//
//   * SmallMap / SmallSet — differential tests against std::unordered_map /
//     std::unordered_set under randomized workloads (insert / lookup /
//     clear / growth past the inline capacity / epoch wrap-around).
//   * SeenFilter — no-false-positive property against a reference set.
//   * Zero allocations — a global operator-new hook counts heap
//     allocations; after a warm-up, a transaction retry loop through an
//     Executor must perform none, for every backend and both TL2 clocks.
//   * TL2 read-set dedup — re-reading a stripe must not inflate the read
//     set, and commit-time validation work must equal the unique-stripe
//     count (the duplicate-validation inefficiency this PR fixes).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "stm/stm.hpp"
#include "stm/txlocal.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. Counts every operator-new entry point; the
// zero-allocation tests compare deltas around a measured region.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) - 1) &
                                         ~(static_cast<std::size_t>(align) - 1))) {
        return p;
    }
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace tmb::stm {
namespace {

using detail::SeenFilter;
using detail::SmallMap;
using detail::SmallSet;

// ---------------------------------------------------------------------------
// SmallMap differential tests
// ---------------------------------------------------------------------------

TEST(SmallMap, MatchesUnorderedMapUnderRandomizedOps) {
    SmallMap<std::uint64_t, std::uint64_t, 16> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    util::Xoshiro256 rng{0xfeedULL};

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t key = rng.below(256);  // collisions guaranteed
        const std::uint64_t roll = rng.below(100);
        if (roll < 60) {
            const std::uint64_t value = rng.below(1u << 20);
            const bool was_new = map.put(key, value);
            EXPECT_EQ(was_new, !ref.contains(key));
            ref[key] = value;
        } else if (roll < 97) {
            const std::uint64_t* found = map.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(found != nullptr, it != ref.end());
            if (found) EXPECT_EQ(*found, it->second);
        } else {
            map.clear();
            ref.clear();
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    // Full-content sweep, both directions.
    std::unordered_map<std::uint64_t, std::uint64_t> seen;
    map.for_each([&](std::uint64_t k, std::uint64_t v) { seen[k] = v; });
    EXPECT_EQ(seen, ref);
}

TEST(SmallMap, GrowsPastInlineCapacityAndKeepsInsertionOrder) {
    SmallMap<std::uint64_t, std::uint64_t, 16> map;
    EXPECT_FALSE(map.spilled());
    std::vector<std::uint64_t> inserted;
    for (std::uint64_t k = 0; k < 500; ++k) {
        map.put(k * 977, k);
        inserted.push_back(k * 977);
    }
    EXPECT_TRUE(map.spilled()) << "500 keys must spill a 16-slot inline array";
    EXPECT_GE(map.capacity(), 1000u) << "load must stay at or below 50%";
    EXPECT_EQ(map.size(), 500u);
    std::vector<std::uint64_t> order;
    map.for_each([&](std::uint64_t k, std::uint64_t) { order.push_back(k); });
    EXPECT_EQ(order, inserted) << "iteration preserves insertion order";
    for (std::uint64_t k = 0; k < 500; ++k) {
        const std::uint64_t* v = map.find(k * 977);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k);
    }
    // Capacity is retained across clears (no shrink on the hot path).
    const std::size_t grown = map.capacity();
    map.clear();
    EXPECT_EQ(map.capacity(), grown);
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(977), nullptr);
}

TEST(SmallMap, EpochWrapDoesNotResurrectStaleEntries) {
    // A one-byte epoch wraps after 255 clears; the map must wipe stamps on
    // wrap so cleared keys stay cleared.
    SmallMap<std::uint64_t, std::uint64_t, 8, std::uint8_t> map;
    for (int round = 0; round < 600; ++round) {
        const auto key = static_cast<std::uint64_t>(round % 7);
        EXPECT_EQ(map.find(key), nullptr)
            << "stale entry resurrected in round " << round;
        map.put(key, static_cast<std::uint64_t>(round));
        const std::uint64_t* v = map.find(key);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, static_cast<std::uint64_t>(round));
        map.clear();
    }
}

TEST(SmallSet, MatchesUnorderedSetUnderRandomizedOps) {
    SmallSet<std::uint64_t, 16> set;
    std::unordered_set<std::uint64_t> ref;
    util::Xoshiro256 rng{0xdecafULL};
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t key = rng.below(300);
        const std::uint64_t roll = rng.below(100);
        if (roll < 55) {
            EXPECT_EQ(set.insert(key), ref.insert(key).second);
        } else if (roll < 97) {
            EXPECT_EQ(set.contains(key), ref.contains(key));
        } else {
            set.clear();
            ref.clear();
        }
        ASSERT_EQ(set.size(), ref.size());
    }
    std::unordered_set<std::uint64_t> seen;
    set.for_each([&](std::uint64_t k) { seen.insert(k); });
    EXPECT_EQ(seen, ref);
}

// ---------------------------------------------------------------------------
// SeenFilter
// ---------------------------------------------------------------------------

TEST(SeenFilter, NeverReportsAFalsePositive) {
    SeenFilter<16> filter;  // tiny: forces evictions
    std::unordered_set<std::uint64_t> ref;
    util::Xoshiro256 rng{0xabcULL};
    std::uint64_t hits = 0;
    for (int op = 0; op < 50000; ++op) {
        if (rng.below(200) == 0) {
            filter.clear();
            ref.clear();
            continue;
        }
        const std::uint64_t key = rng.below(64);
        if (filter.test_and_set(key)) {
            EXPECT_TRUE(ref.contains(key))
                << "filter claimed an unseen key as seen";
            ++hits;
        }
        ref.insert(key);
    }
    EXPECT_GT(hits, 0u) << "filter never deduplicated anything";
}

TEST(SeenFilter, DeduplicatesExactRepeatsAndSurvivesEpochWrap) {
    SeenFilter<8, std::uint8_t> filter;
    for (int round = 0; round < 600; ++round) {
        EXPECT_FALSE(filter.test_and_set(std::uint64_t{42}))
            << "cleared key still marked seen in round " << round;
        EXPECT_TRUE(filter.test_and_set(std::uint64_t{42}));
        filter.clear();
    }
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

/// One cache block per variable so table backends see disjoint blocks.
struct alignas(64) PaddedVar {
    TVar<long> value;
};

/// Runs warm-up then measured transactions (each with one explicit retry,
/// exercising the abort/rollback path too) and returns the heap allocations
/// performed inside the measured region.
std::uint64_t measure_steady_state_allocs(const std::string& spec) {
    const auto tm = Stm::create(config::Config::from_string(spec));
    const auto exec = tm->make_executor();
    std::vector<PaddedVar> vars(16);

    const auto run_one = [&](int i) {
        bool retried = false;
        exec->atomically([&](Transaction& tx) {
            if (!retried) {
                retried = true;
                tx.retry();  // steady state includes the retry path
            }
            for (int k = 0; k < 8; ++k) {
                auto& var = vars[(i + k) % vars.size()].value;
                var.write(tx, var.read(tx) + 1);
                // Duplicate read of the same variable (TL2: same stripe).
                (void)var.read(tx);
            }
        });
    };

    for (int i = 0; i < 64; ++i) run_one(i);  // warm-up: capacities settle

    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 256; ++i) run_one(i);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocation, SteadyStateTransactionsAcrossAllBackends) {
    const char* specs[] = {
        "backend=tl2 clock=gv1 contention=none",
        "backend=tl2 clock=gv5 contention=none",
        "backend=table table=tagless contention=none",
        "backend=table table=tagged contention=none",
        "backend=table table=tagless commit_time_locks=1 contention=none",
        "backend=table table=tagged commit_time_locks=1 contention=none",
    };
    for (const char* spec : specs) {
        EXPECT_EQ(measure_steady_state_allocs(spec), 0u)
            << "steady-state transactions allocated on: " << spec;
    }
}

/// Like measure_steady_state_allocs, but the transactions churn the
/// allocator: one tx_alloc + tx_free per attempt, with one explicit retry
/// (rolling back a speculative block) per operation. Returns the heap
/// allocations of the measured region; the caller knows how many blocks the
/// *user* asked for and expects not one call more — the mem log, the
/// retire queue and the polling path must all run on retained capacity.
std::uint64_t measure_steady_state_churn_allocs(const std::string& spec,
                                                int iterations) {
    const auto tm = Stm::create(config::Config::from_string(spec));
    const auto exec = tm->make_executor();

    const auto churn_one = [&] {
        bool retried = false;
        exec->atomically([&](Transaction& tx) {
            auto* block = tx.tx_alloc<std::uint64_t>(1);
            if (!retried) {
                retried = true;
                tx.retry();  // the speculative block is rolled back
            }
            tx.tx_free(block);  // same-tx free: retired at commit
        });
    };

    // Warm-up leaves the whole pipeline — mem log, retire queue, poll
    // scratch — at steady state capacity (no drain: that would reset the
    // retire pipeline and hand the measured region a deeper backlog than
    // the warm-up ever saw).
    for (int i = 0; i < 64; ++i) churn_one();

    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < iterations; ++i) churn_one();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocation, TxAllocChurnAllocatesOnlyTheUserBlocksCacheOff) {
    // cache_blocks=0: every tx_alloc takes heap storage and every retired
    // block is released back to it — the pre-cache baseline.
    const char* specs[] = {
        "backend=tl2 cache_blocks=0 contention=none",
        "backend=table table=tagless cache_blocks=0 contention=none",
        "backend=table table=tagged cache_blocks=0 contention=none",
    };
    for (const char* spec : specs) {
        // Two attempts per operation (one retry), one tx_alloc each: the
        // runtime's own bookkeeping must add zero allocations on top.
        EXPECT_EQ(measure_steady_state_churn_allocs(spec, 256), 2u * 256u)
            << "tx_alloc bookkeeping allocated on: " << spec;
    }
}

TEST(ZeroAllocation, TxAllocChurnIsAllocationFreeWithTheCacheOn) {
    // With per-context magazines (the default), steady-state churn cycles
    // storage through the magazine: rolled-back and reclaimed blocks feed
    // the next tx_alloc, so the measured region performs NO heap
    // allocation at all — the tentpole's allocation-free hot path.
    const char* specs[] = {
        "backend=tl2 contention=none",
        "backend=table table=tagless contention=none",
        "backend=table table=tagged contention=none",
    };
    for (const char* spec : specs) {
        EXPECT_EQ(measure_steady_state_churn_allocs(spec, 256), 0u)
            << "cached tx_alloc churn hit the heap on: " << spec;
    }
}

// ---------------------------------------------------------------------------
// TL2 read-set dedup and validation-work accounting
// ---------------------------------------------------------------------------

TEST(Tl2Dedup, ReReadingAStripeRecordsItOnce) {
    const auto tm = Stm::create(
        config::Config::from_string("backend=tl2 contention=none"));
    auto exec = tm->make_executor();
    PaddedVar a;
    exec->atomically([&](Transaction& tx) {
        for (int i = 0; i < 100; ++i) (void)a.value.read(tx);
    });
    exec.reset();  // retiring the context flushes its counters
    EXPECT_EQ(tm->stats().tl2_read_set_entries, 1u)
        << "100 loads of one stripe must record one read-set entry";
}

TEST(Tl2Dedup, ValidationWorkEqualsUniqueStripeCount) {
    // gv1 so the concurrent commit visibly bumps the clock, forcing the
    // outer commit off the rv+1 shortcut and into full validation.
    const auto tm = Stm::create(
        config::Config::from_string("backend=tl2 clock=gv1 contention=none"));
    auto outer = tm->make_executor();
    auto inner = tm->make_executor();
    PaddedVar a;
    PaddedVar b;
    PaddedVar c;
    PaddedVar d;

    bool clock_bumped = false;
    outer->atomically([&](Transaction& tx) {
        for (int i = 0; i < 100; ++i) (void)a.value.read(tx);  // one stripe
        (void)b.value.read(tx);                                // second stripe
        if (!clock_bumped) {
            clock_bumped = true;
            // A writer commit on another executor moves the global clock
            // between the outer begin and the outer commit.
            inner->atomically(
                [&](Transaction& itx) { c.value.write(itx, 7); });
        }
        d.value.write(tx, 1);
    });

    outer.reset();  // retiring the contexts flushes their counters
    inner.reset();
    const StmStats stats = tm->stats();
    EXPECT_EQ(stats.tl2_read_set_entries, 2u)
        << "outer reads two unique stripes (a, b); the inner writer writes "
           "c blind and records no reads";
    EXPECT_EQ(stats.tl2_validation_checks, 2u)
        << "commit validation must examine exactly the unique stripes {a, b}";
}

}  // namespace
}  // namespace tmb::stm
