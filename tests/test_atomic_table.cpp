// Tests for the lock-free AtomicTaglessTable: single-threaded semantic
// equivalence with the reference TaglessTable, and multithreaded stress
// checking the mutual-exclusion invariants under real contention.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "ownership/atomic_tagless_table.hpp"
#include "ownership/tagless_table.hpp"
#include "util/rng.hpp"

namespace tmb::ownership {
namespace {

TableConfig direct(std::uint64_t entries) {
    return {.entries = entries, .hash = util::HashKind::kShiftMask};
}

TEST(AtomicTable, BasicAcquireRelease) {
    AtomicTaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_read(0, 5).ok);
    EXPECT_TRUE(t.acquire_read(1, 5).ok);
    EXPECT_EQ(t.sharers_at(5), 2u);
    EXPECT_FALSE(t.acquire_write(2, 5).ok);
    t.release(0, 5, Mode::kRead);
    t.release(1, 5, Mode::kRead);
    EXPECT_EQ(t.mode_at(5), Mode::kFree);
    EXPECT_TRUE(t.acquire_write(2, 5).ok);
    EXPECT_EQ(t.writer_at(5), 2u);
}

TEST(AtomicTable, SoleReaderUpgrade) {
    AtomicTaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_read(3, 7).ok);
    EXPECT_TRUE(t.acquire_write(3, 7).ok);
    EXPECT_EQ(t.mode_at(7), Mode::kWrite);
    const auto r = t.acquire_read(4, 7);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.conflicting, tx_bit(3));
}

TEST(AtomicTable, FalseConflictOnAlias) {
    AtomicTaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_write(0, 3).ok);
    EXPECT_FALSE(t.acquire_write(1, 3 + 16).ok);  // distinct block, same entry
}

TEST(AtomicTable, ReacquireIdempotent) {
    AtomicTaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_write(0, 9).ok);
    EXPECT_TRUE(t.acquire_write(0, 9).ok);
    EXPECT_TRUE(t.acquire_read(0, 9).ok);
    t.release(0, 9, Mode::kWrite);
    EXPECT_EQ(t.occupied_entries(), 0u);
}

TEST(AtomicTable, ForeignAndDoubleReleaseTolerated) {
    AtomicTaglessTable t(direct(16));
    t.acquire_write(0, 5);
    t.release(1, 5, Mode::kWrite);  // not the owner: no-op
    EXPECT_EQ(t.writer_at(5), 0u);
    EXPECT_EQ(t.mode_at(5), Mode::kWrite);
    t.release(0, 5, Mode::kWrite);
    EXPECT_NO_THROW(t.release(0, 5, Mode::kWrite));
}

TEST(AtomicTable, MatchesReferenceTableOnRandomSequence) {
    // Single-threaded differential test against the reference TaglessTable:
    // identical op sequences must produce identical outcomes throughout.
    AtomicTaglessTable atomic_table(direct(64));
    TaglessTable reference(direct(64));
    util::Xoshiro256 rng{271828};

    std::array<std::vector<std::uint64_t>, 8> held;
    for (int step = 0; step < 20000; ++step) {
        const auto tx = static_cast<TxId>(rng.below(8));
        const auto choice = rng.below(10);
        if (choice < 2 && !held[tx].empty()) {
            for (const auto b : held[tx]) {
                atomic_table.release(tx, b, Mode::kWrite);
                reference.release(tx, b, Mode::kWrite);
            }
            held[tx].clear();
            continue;
        }
        const std::uint64_t block = rng.below(512);
        const bool write = rng.bernoulli(0.4);
        const auto ra = write ? atomic_table.acquire_write(tx, block)
                              : atomic_table.acquire_read(tx, block);
        const auto rr = write ? reference.acquire_write(tx, block)
                              : reference.acquire_read(tx, block);
        ASSERT_EQ(ra.ok, rr.ok) << "step " << step;
        ASSERT_EQ(ra.conflicting, rr.conflicting) << "step " << step;
        if (ra.ok) held[tx].push_back(block);
    }
    for (TxId tx = 0; tx < 8; ++tx) {
        for (const auto b : held[tx]) {
            atomic_table.release(tx, b, Mode::kWrite);
            reference.release(tx, b, Mode::kWrite);
        }
    }
    EXPECT_EQ(atomic_table.occupied_entries(), 0u);
    EXPECT_EQ(reference.occupied_entries(), 0u);

    // The single-writer counter shards must count exactly what the
    // reference counts.
    const TableCounters ca = atomic_table.counters();
    const TableCounters cr = reference.counters();
    EXPECT_EQ(ca.read_acquires, cr.read_acquires);
    EXPECT_EQ(ca.write_acquires, cr.write_acquires);
    EXPECT_EQ(ca.conflicts, cr.conflicts);
    EXPECT_EQ(ca.releases, cr.releases);
}

TEST(AtomicTable, ConcurrentWritersNeverShareAnEntry) {
    // Stress: threads hammer a tiny table; at most one writer may ever hold
    // an entry, verified through a shadow "who owns it" array maintained
    // only by successful acquirers.
    constexpr std::uint64_t kEntries = 8;
    AtomicTaglessTable table(direct(kEntries));
    std::array<std::atomic<int>, kEntries> shadow{};
    for (auto& s : shadow) s.store(-1);
    std::atomic<bool> violation{false};

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            util::Xoshiro256 rng{static_cast<std::uint64_t>(t) + 31};
            for (int i = 0; i < 20000; ++i) {
                const std::uint64_t block = rng.below(kEntries);
                const auto tx = static_cast<TxId>(t);
                if (table.acquire_write(tx, block).ok) {
                    int expected = -1;
                    if (!shadow[block].compare_exchange_strong(expected, t)) {
                        violation.store(true);
                    }
                    // Hold briefly to widen the race window.
                    for (int spin = 0; spin < 8; ++spin) {
                        std::atomic_signal_fence(std::memory_order_seq_cst);
                    }
                    int mine = t;
                    if (!shadow[block].compare_exchange_strong(mine, -1)) {
                        violation.store(true);
                    }
                    table.release(tx, block, Mode::kWrite);
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_FALSE(violation.load()) << "two writers held one entry simultaneously";
    EXPECT_EQ(table.occupied_entries(), 0u);
}

TEST(AtomicTable, ConcurrentReadersCoexistAndExcludeWriters) {
    constexpr std::uint64_t kEntries = 4;
    AtomicTaglessTable table(direct(kEntries));
    std::atomic<bool> violation{false};
    std::array<std::atomic<int>, kEntries> reader_count{};
    std::array<std::atomic<int>, kEntries> writer_count{};

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            util::Xoshiro256 rng{static_cast<std::uint64_t>(t) + 77};
            const auto tx = static_cast<TxId>(t);
            for (int i = 0; i < 15000; ++i) {
                const std::uint64_t block = rng.below(kEntries);
                const bool write = rng.bernoulli(0.3);
                if (write) {
                    if (table.acquire_write(tx, block).ok) {
                        writer_count[block].fetch_add(1);
                        if (writer_count[block].load() > 1 ||
                            reader_count[block].load() > 0) {
                            violation.store(true);
                        }
                        writer_count[block].fetch_sub(1);
                        table.release(tx, block, Mode::kWrite);
                    }
                } else {
                    if (table.acquire_read(tx, block).ok) {
                        reader_count[block].fetch_add(1);
                        if (writer_count[block].load() > 0) violation.store(true);
                        reader_count[block].fetch_sub(1);
                        table.release(tx, block, Mode::kRead);
                    }
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_FALSE(violation.load());
    EXPECT_EQ(table.occupied_entries(), 0u);
}

TEST(AtomicTable, CountersAccumulate) {
    AtomicTaglessTable t(direct(8));
    t.acquire_read(0, 1);
    t.acquire_write(1, 2);
    t.acquire_write(2, 2 + 8);  // alias conflict
    const auto c = t.counters();
    EXPECT_EQ(c.read_acquires, 1u);
    EXPECT_EQ(c.write_acquires, 2u);
    EXPECT_EQ(c.conflicts, 1u);
}

TEST(AtomicTable, PerTxIdCountersAreExactWithThreadPrivateIds) {
    // Counter shards are bumped with a plain load and store, which is exact
    // only while each TxId is used by one thread at a time. Here each thread
    // is its own TxId on a small direct-mapped table, so aliased blocks
    // conflict across threads, and counters() must equal every thread's own
    // tally once they join. The main thread, a TxId of its own, write-holds
    // the last entry throughout, so some acquires conflict on any schedule.
    constexpr std::uint64_t kEntries = 8;
    constexpr int kThreads = 4;
    AtomicTaglessTable table(direct(kEntries));
    std::array<TableCounters, kThreads + 1> tally{};
    const auto main_tx = static_cast<TxId>(kThreads);
    ASSERT_TRUE(table.acquire_write(main_tx, kEntries - 1).ok);
    tally[kThreads].write_acquires = 1;

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            util::Xoshiro256 rng{static_cast<std::uint64_t>(t) + 101};
            const auto tx = static_cast<TxId>(t);
            TableCounters& mine = tally[t];
            std::array<std::pair<std::uint64_t, Mode>, 3> held{};
            while (!go.load()) std::this_thread::yield();
            for (int i = 0; i < 10000; ++i) {
                std::size_t n = 0;
                for (std::size_t k = 0; k < held.size(); ++k) {
                    const std::uint64_t block = rng.below(8 * kEntries);
                    const bool write = rng.bernoulli(0.4);
                    ++(write ? mine.write_acquires : mine.read_acquires);
                    const auto r = write ? table.acquire_write(tx, block)
                                         : table.acquire_read(tx, block);
                    if (!r.ok) {
                        ++mine.conflicts;
                        break;
                    }
                    held[n++] = {block, write ? Mode::kWrite : Mode::kRead};
                }
                for (std::size_t k = 0; k < n; ++k) {
                    table.release(tx, held[k].first, held[k].second);
                    ++mine.releases;
                }
            }
        });
    }
    go.store(true);
    for (auto& th : threads) th.join();
    table.release(main_tx, kEntries - 1, Mode::kWrite);
    tally[kThreads].releases = 1;

    TableCounters expected;
    for (const TableCounters& c : tally) {
        expected.read_acquires += c.read_acquires;
        expected.write_acquires += c.write_acquires;
        expected.conflicts += c.conflicts;
        expected.releases += c.releases;
    }
    const TableCounters got = table.counters();
    EXPECT_GT(expected.conflicts, 0u);
    EXPECT_EQ(got.read_acquires, expected.read_acquires);
    EXPECT_EQ(got.write_acquires, expected.write_acquires);
    EXPECT_EQ(got.conflicts, expected.conflicts);
    EXPECT_EQ(got.releases, expected.releases);
    EXPECT_EQ(table.occupied_entries(), 0u);
}

TEST(AtomicTable, ClearAtQuiescence) {
    AtomicTaglessTable t(direct(8));
    t.acquire_write(0, 1);
    t.clear();
    EXPECT_EQ(t.occupied_entries(), 0u);
    EXPECT_TRUE(t.acquire_write(1, 1).ok);
}

TEST(AtomicTable, RejectsZeroEntries) {
    EXPECT_THROW(AtomicTaglessTable(direct(0)), std::invalid_argument);
}

}  // namespace
}  // namespace tmb::ownership
