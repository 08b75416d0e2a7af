// Tests for src/stm: the transactional-memory runtime across all three
// backends (tagless table, tagged table, TL2). Covers single-thread
// semantics, failure atomicity, multithreaded serializability smoke tests,
// and the paper-relevant property that only the tagless backend reports
// false conflicts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "stm/backend.hpp"
#include "stm/sched_hook.hpp"
#include "stm/stm.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace tmb::stm {
namespace {

StmConfig config_for(BackendKind kind) {
    StmConfig c;
    c.backend = kind;
    c.table.entries = 1u << 16;
    c.contention.policy = ContentionPolicy::kYield;
    return c;
}

class StmAllBackends : public ::testing::TestWithParam<BackendKind> {};

INSTANTIATE_TEST_SUITE_P(Backends, StmAllBackends,
                         ::testing::Values(BackendKind::kTaglessTable,
                                           BackendKind::kTaggedTable,
                                           BackendKind::kTl2),
                         [](const auto& suite_info) {
                             switch (suite_info.param) {
                                 case BackendKind::kTaglessTable: return "Tagless";
                                 case BackendKind::kTaggedTable: return "Tagged";
                                 case BackendKind::kTl2: return "Tl2";
                             }
                             return "Unknown";
                         });

TEST_P(StmAllBackends, ReadYourOwnWrite) {
    Stm tm(config_for(GetParam()));
    TVar<int> x{1};
    tm.atomically([&](Transaction& tx) {
        x.write(tx, 42);
        EXPECT_EQ(x.read(tx), 42);
    });
    EXPECT_EQ(x.unsafe_read(), 42);
}

TEST_P(StmAllBackends, CommitPublishesMultipleVars) {
    Stm tm(config_for(GetParam()));
    TVar<long> a{10}, b{20}, c{30};
    tm.atomically([&](Transaction& tx) {
        a.write(tx, a.read(tx) + 1);
        b.write(tx, b.read(tx) + 2);
        c.write(tx, c.read(tx) + 3);
    });
    EXPECT_EQ(a.unsafe_read(), 11);
    EXPECT_EQ(b.unsafe_read(), 22);
    EXPECT_EQ(c.unsafe_read(), 33);
}

TEST_P(StmAllBackends, ReturnsValueFromBody) {
    Stm tm(config_for(GetParam()));
    TVar<int> x{5};
    const int doubled = tm.atomically([&](Transaction& tx) { return 2 * x.read(tx); });
    EXPECT_EQ(doubled, 10);
}

TEST_P(StmAllBackends, UserExceptionRollsBack) {
    Stm tm(config_for(GetParam()));
    TVar<int> x{7};
    struct Boom {};
    EXPECT_THROW(tm.atomically([&](Transaction& tx) {
        x.write(tx, 99);
        throw Boom{};
    }),
                 Boom);
    EXPECT_EQ(x.unsafe_read(), 7) << "failure atomicity: writes must roll back";
    EXPECT_EQ(tm.stats().commits, 0u);
}

TEST_P(StmAllBackends, StatsCountCommits) {
    Stm tm(config_for(GetParam()));
    TVar<int> x{0};
    for (int i = 0; i < 5; ++i) {
        tm.atomically([&](Transaction& tx) { x.write(tx, x.read(tx) + 1); });
    }
    EXPECT_EQ(tm.stats().commits, 5u);
    EXPECT_EQ(x.unsafe_read(), 5);
}

TEST_P(StmAllBackends, TVarSupportsSmallTypes) {
    Stm tm(config_for(GetParam()));
    TVar<double> d{1.5};
    TVar<char> ch{'a'};
    TVar<bool> flag{false};
    tm.atomically([&](Transaction& tx) {
        d.write(tx, d.read(tx) * 2);
        ch.write(tx, 'z');
        flag.write(tx, true);
    });
    EXPECT_DOUBLE_EQ(d.unsafe_read(), 3.0);
    EXPECT_EQ(ch.unsafe_read(), 'z');
    EXPECT_TRUE(flag.unsafe_read());
}

TEST_P(StmAllBackends, RawWordArrayAccess) {
    Stm tm(config_for(GetParam()));
    alignas(8) std::uint64_t words[16] = {};
    tm.atomically([&](Transaction& tx) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            tx.store(&words[i], i * i);
        }
    });
    tm.atomically([&](Transaction& tx) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            EXPECT_EQ(tx.load(&words[i]), i * i);
        }
    });
}

TEST_P(StmAllBackends, BankTransferInvariantUnderContention) {
    // The classic serializability smoke test: concurrent random transfers
    // preserve the total balance.
    Stm tm(config_for(GetParam()));
    constexpr int kAccounts = 32;
    constexpr long kInitial = 1000;
    std::vector<TVar<long>> accounts(kAccounts);
    for (auto& a : accounts) {
        tm.atomically([&](Transaction& tx) { a.write(tx, kInitial); });
    }

    constexpr int kThreads = 4;
    constexpr int kTransfersPerThread = 300;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            util::Xoshiro256 rng{static_cast<std::uint64_t>(t) + 1};
            for (int i = 0; i < kTransfersPerThread; ++i) {
                const auto from = static_cast<std::size_t>(rng.below(kAccounts));
                auto to = static_cast<std::size_t>(rng.below(kAccounts));
                if (to == from) to = (to + 1) % kAccounts;
                const long amount = static_cast<long>(rng.below(50));
                tm.atomically([&](Transaction& tx) {
                    accounts[from].write(tx, accounts[from].read(tx) - amount);
                    accounts[to].write(tx, accounts[to].read(tx) + amount);
                });
            }
        });
    }
    for (auto& th : threads) th.join();

    const long total = tm.atomically([&](Transaction& tx) {
        long sum = 0;
        for (auto& a : accounts) sum += a.read(tx);
        return sum;
    });
    EXPECT_EQ(total, kAccounts * kInitial);
    const auto stats = tm.stats();
    EXPECT_EQ(stats.commits,
              static_cast<std::uint64_t>(kThreads) * kTransfersPerThread + kAccounts + 1);
}

TEST_P(StmAllBackends, ConcurrentCountersDontLoseUpdates) {
    Stm tm(config_for(GetParam()));
    TVar<long> counter{0};
    constexpr int kThreads = 4;
    constexpr int kIncrements = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i) {
                tm.atomically(
                    [&](Transaction& tx) { counter.write(tx, counter.read(tx) + 1); });
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(counter.unsafe_read(), kThreads * kIncrements);
}

TEST_P(StmAllBackends, MaxAttemptsThrowsTooMuchContention) {
    auto cfg = config_for(GetParam());
    cfg.max_attempts = 3;
    Stm tm(cfg);
    TVar<int> x{0};

    // A body that can never succeed: every attempt requests a retry.
    bool threw = false;
    try {
        tm.atomically([&](Transaction& tx) {
            (void)x.read(tx);
            tx.retry();
        });
    } catch (const TooMuchContention&) {
        threw = true;
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(tm.stats().explicit_retries, 3u);
    EXPECT_EQ(tm.stats().commits, 0u);
    EXPECT_EQ(x.unsafe_read(), 0);
}

TEST_P(StmAllBackends, HistoryChainIsSerializable) {
    // Read-modify-write history check on a single variable: each committed
    // transaction reads x and writes a unique new value. Serializability
    // requires the (read, written) pairs to form one chain from the initial
    // value: every read value is either the initial value or exactly one
    // other transaction's written value, with no duplicates.
    Stm tm(config_for(GetParam()));
    TVar<long> x{0};
    constexpr int kThreads = 4;
    constexpr int kTxPerThread = 200;

    std::vector<std::pair<long, long>> history(
        static_cast<std::size_t>(kThreads * kTxPerThread));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kTxPerThread; ++i) {
                // Unique value per (thread, i): thread in low bits.
                const long next = (static_cast<long>(i) + 1) * kThreads + t + 1;
                const long seen = tm.atomically([&](Transaction& tx) {
                    const long v = x.read(tx);
                    x.write(tx, next);
                    return v;
                });
                history[static_cast<std::size_t>(t * kTxPerThread + i)] = {seen,
                                                                           next};
            }
        });
    }
    for (auto& th : threads) th.join();

    // Chain verification.
    std::set<long> reads, writes;
    for (const auto& [r, w] : history) {
        EXPECT_TRUE(reads.insert(r).second) << "duplicate read of " << r
                                            << ": lost update / non-serializable";
        EXPECT_TRUE(writes.insert(w).second);
    }
    // Every read is the initial value or some transaction's write.
    int initial_reads = 0;
    for (const auto& [r, w] : history) {
        (void)w;
        if (r == 0) {
            ++initial_reads;
        } else {
            EXPECT_TRUE(writes.contains(r)) << "read of never-written " << r;
        }
    }
    EXPECT_EQ(initial_reads, 1) << "exactly one transaction sees the initial value";
    // The final memory value is some write that nobody read (the chain tail).
    EXPECT_FALSE(reads.contains(x.unsafe_read()));
    EXPECT_TRUE(writes.contains(x.unsafe_read()));
}

TEST_P(StmAllBackends, OversubscribedSlotsStillComplete) {
    // More concurrent atomically() calls than transaction slots (62 for the
    // table engine): the pool must block and recycle, never corrupt. Keep
    // thread count moderate but above the limit.
    Stm tm(config_for(GetParam()));
    TVar<long> counter{0};
    constexpr int kThreads = 70;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            tm.atomically(
                [&](Transaction& tx) { counter.write(tx, counter.read(tx) + 1); });
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(counter.unsafe_read(), kThreads);
    EXPECT_EQ(tm.stats().commits, static_cast<std::uint64_t>(kThreads));
}

TEST(StmTagless, ReportsFalseConflictsUnderAliasing) {
    // Two threads writing DISJOINT variables that alias in a tiny tagless
    // table must suffer false conflicts — the paper's pathology live.
    StmConfig cfg = config_for(BackendKind::kTaglessTable);
    cfg.table.entries = 2;  // everything aliases
    Stm tm(cfg);
    // Separate 64-byte blocks (adjacent stack TVars can share one, which
    // would make cross-thread conflicts true, not false); they still alias
    // in the 2-entry table.
    struct alignas(64) Padded { TVar<long> var{0}; };
    Padded pa, pb;
    TVar<long>& a = pa.var;
    TVar<long>& b = pb.var;

    std::thread t1([&] {
        for (int i = 0; i < 400; ++i) {
            tm.atomically([&](Transaction& tx) { a.write(tx, a.read(tx) + 1); });
        }
    });
    std::thread t2([&] {
        for (int i = 0; i < 400; ++i) {
            tm.atomically([&](Transaction& tx) { b.write(tx, b.read(tx) + 1); });
        }
    });
    t1.join();
    t2.join();

    EXPECT_EQ(a.unsafe_read(), 400);
    EXPECT_EQ(b.unsafe_read(), 400);
    const auto stats = tm.stats();
    // With only 2 entries, a and b very likely collide; if they happen to
    // land on distinct entries there are zero conflicts — accept either but
    // require classification sanity: no true conflicts are possible.
    EXPECT_EQ(stats.true_conflicts, 0u)
        << "threads touch disjoint data; every conflict must be false";
}

TEST(StmTagged, NoFalseConflictsEver) {
    StmConfig cfg = config_for(BackendKind::kTaggedTable);
    cfg.table.entries = 2;  // heavy aliasing, but tags disambiguate
    Stm tm(cfg);
    // Separate 64-byte blocks (adjacent stack TVars can share one, which
    // would make cross-thread conflicts true, not false); they still alias
    // in the 2-entry table.
    struct alignas(64) Padded { TVar<long> var{0}; };
    Padded pa, pb;
    TVar<long>& a = pa.var;
    TVar<long>& b = pb.var;

    std::thread t1([&] {
        for (int i = 0; i < 400; ++i) {
            tm.atomically([&](Transaction& tx) { a.write(tx, a.read(tx) + 1); });
        }
    });
    std::thread t2([&] {
        for (int i = 0; i < 400; ++i) {
            tm.atomically([&](Transaction& tx) { b.write(tx, b.read(tx) + 1); });
        }
    });
    t1.join();
    t2.join();

    EXPECT_EQ(a.unsafe_read(), 400);
    EXPECT_EQ(b.unsafe_read(), 400);
    EXPECT_EQ(tm.stats().false_conflicts, 0u);
    EXPECT_EQ(tm.stats().true_conflicts, 0u)
        << "disjoint blocks never truly conflict in a tagged table";
}

TEST(StmTagless, FalseConflictRateExceedsTagged) {
    // Same workload, same small table size: the tagless organization must
    // abort at least as much as the tagged one (and in practice much more).
    auto run = [](BackendKind kind) {
        StmConfig cfg;
        cfg.backend = kind;
        cfg.table.entries = 64;
        cfg.contention.policy = ContentionPolicy::kYield;
        Stm tm(cfg);
        // One var per 64-byte block: packed TVars would let neighbouring
        // quarters share their boundary blocks, making those conflicts true.
        struct alignas(64) Padded { TVar<long> var{0}; };
        std::vector<Padded> vars(256);
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back([&, t] {
                util::Xoshiro256 rng{static_cast<std::uint64_t>(t) * 7 + 1};
                for (int i = 0; i < 250; ++i) {
                    // Each thread works on its own quarter: disjoint data.
                    const std::size_t base = static_cast<std::size_t>(t) * 64;
                    const auto idx = base + static_cast<std::size_t>(rng.below(64));
                    tm.atomically([&](Transaction& tx) {
                        vars[idx].var.write(tx, vars[idx].var.read(tx) + 1);
                    });
                }
            });
        }
        for (auto& th : threads) th.join();
        return tm.stats();
    };

    const auto tagless = run(BackendKind::kTaglessTable);
    const auto tagged = run(BackendKind::kTaggedTable);
    EXPECT_EQ(tagged.false_conflicts, 0u);
    EXPECT_GE(tagless.false_conflicts, tagged.false_conflicts);
    EXPECT_EQ(tagless.true_conflicts, 0u);
    EXPECT_EQ(tagged.true_conflicts, 0u);
}

// ---------------------------------------------------------------------------
// Tagless classification past the footprint's inline array
// ---------------------------------------------------------------------------

/// Runs `fn` at the `nth` commit-time lock acquisition of the installing
/// thread (lazy table engine), with the hook uninstalled meanwhile so the
/// transactions `fn` runs are not intercepted.
class AtLazyCommitLock final : public detail::SchedulerHook {
public:
    AtLazyCommitLock(int nth, std::function<void()> fn)
        : nth_(nth), fn_(std::move(fn)) {}

    void yield(detail::YieldPoint /*point*/, detail::YieldSite site) override {
        if (site != detail::YieldSite::kTableLazyCommit || ++seen_ != nth_) {
            return;
        }
        detail::SchedulerHook* self = detail::install_scheduler_hook(nullptr);
        fn_();
        detail::install_scheduler_hook(self);
    }

private:
    int nth_;
    int seen_ = 0;
    std::function<void()> fn_;
};

class TaglessFootprint : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Disciplines, TaglessFootprint, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "Lazy" : "Eager";
                         });

TEST_P(TaglessFootprint, ClassifiesBlocksPastTheInlineArray) {
    // A holder parks mid-transaction holding more blocks than a footprint
    // publishes lock-free; a second executor, run on the same thread with
    // one attempt, then conflicts with it. Shift-mask hashing makes block
    // i + kEntries an alias of block i, and blocks below kEntries distinct.
    const bool lazy = GetParam();
    constexpr std::uint64_t kEntries = 256;
    constexpr std::size_t kInline = detail::kTaglessInlineBlocks;
    constexpr std::size_t kHeld = kInline + 16;  // blocks [0, kHeld) read
    constexpr std::size_t kSpilled = kInline + 4;
    constexpr std::size_t kUpgradedSpilled = kInline + 8;
    static_assert(kHeld < kEntries);

    StmConfig cfg;
    cfg.backend = BackendKind::kTaglessTable;
    cfg.commit_time_locks = lazy;
    cfg.table.entries = kEntries;
    cfg.table.hash = util::HashKind::kShiftMask;
    cfg.max_attempts = 1;
    cfg.contention.policy = ContentionPolicy::kNone;
    Stm tm(cfg);
    struct alignas(64) Block {
        std::uint64_t word = 0;
    };
    std::vector<Block> blocks(2 * kEntries);
    const auto holder = tm.make_executor();
    const auto contender = tm.make_executor();

    // One single-attempt conflicting access: "true", "false" or "none".
    const auto classify = [&](std::size_t index, bool write) -> std::string {
        auto access = [&](Transaction& tx) {
            std::uint64_t* word = &blocks[index].word;
            if (write) {
                tx.store(word, 1);
            } else {
                (void)tx.load(word);
            }
        };
        const StmStats before = contender->stats();
        EXPECT_THROW(contender->atomically(access), TooMuchContention);
        const StmStats after = contender->stats();
        if (after.true_conflicts == before.true_conflicts + 1 &&
            after.false_conflicts == before.false_conflicts) {
            return "true";
        }
        if (after.false_conflicts == before.false_conflicts + 1 &&
            after.true_conflicts == before.true_conflicts) {
            return "false";
        }
        return "none";
    };
    int probed = 0;
    const auto probe = [&] {
        ++probed;
        EXPECT_EQ(classify(kSpilled, true), "true")
            << "a block acquired after the inline array filled";
        EXPECT_EQ(classify(1 + kEntries, true), "false")
            << "an alias of an inline block";
        EXPECT_EQ(classify(kSpilled + kEntries, true), "false")
            << "an alias of a spilled block";
        EXPECT_EQ(classify(0, false), "true")
            << "an inline block the holder read and then wrote";
        EXPECT_EQ(classify(kUpgradedSpilled, false), "true")
            << "a spilled block the holder read and then wrote";
    };

    // Lazy writes acquire in first-write order at commit, so the third
    // commit-time lock comes after both upgrades.
    AtLazyCommitLock at_third_lock(3, probe);
    struct Uninstall {
        ~Uninstall() { detail::install_scheduler_hook(nullptr); }
    } uninstall;
    if (lazy) detail::install_scheduler_hook(&at_third_lock);
    holder->atomically([&](Transaction& tx) {
        for (std::size_t i = 0; i < kHeld; ++i) (void)tx.load(&blocks[i].word);
        tx.store(&blocks[0].word, 2);
        tx.store(&blocks[kUpgradedSpilled].word, 2);
        if (lazy) {
            tx.store(&blocks[kHeld].word, 2);
        } else {
            probe();
        }
    });

    EXPECT_EQ(probed, 1);
    EXPECT_EQ(holder->stats().commits, 1u);
    EXPECT_EQ(blocks[0].word, 2u);
    EXPECT_EQ(tm.occupied_metadata_entries(), 0u);
}

/// One engine per counting path: TL2's, the table engine's two
/// organizations, and the adaptive wrapper's inner engine.
class ContextCounters : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Engines, ContextCounters,
                         ::testing::Values("tl2", "tagless", "tagged",
                                           "adaptive"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

TEST_P(ContextCounters, AConflictCountsInTheLosersOwnBlock) {
    // A holder's write to a block stands while a contender's single
    // attempt runs into it. The conflict shows in the contender's own
    // stats(); the holder's shows none.
    const auto tm = Stm::create(config::Config::from_string(
        std::string("backend=") + GetParam() +
        " max_attempts=1 contention=none"));
    TVar<std::uint64_t> x{0};
    const auto holder = tm->make_executor();
    const auto contender = tm->make_executor();
    if (tm->config().backend == BackendKind::kTl2) {
        // TL2 locks a write only inside its commit, so the holder's write
        // commits between the contender's read and the contender's commit,
        // whose validation then fails.
        EXPECT_THROW(contender->atomically([&](Transaction& tx) {
                         const std::uint64_t v = x.read(tx);
                         holder->atomically(
                             [&](Transaction& htx) { x.write(htx, 7); });
                         x.write(tx, v + 1);
                     }),
                     TooMuchContention);
    } else {
        holder->atomically([&](Transaction& tx) {
            x.write(tx, 7);  // eager: write ownership until commit
            EXPECT_THROW(contender->atomically(
                             [&](Transaction& ctx) { (void)x.read(ctx); }),
                         TooMuchContention);
        });
    }
    const StmStats lost = contender->stats();
    EXPECT_EQ(lost.commits, 0u);
    EXPECT_EQ(lost.aborts, 1u);
    EXPECT_EQ(lost.true_conflicts, 1u);
    EXPECT_EQ(lost.false_conflicts, 0u);
    const StmStats won = holder->stats();
    EXPECT_EQ(won.commits, 1u);
    EXPECT_EQ(won.true_conflicts + won.false_conflicts, 0u);
    EXPECT_EQ(x.unsafe_read(), 7u);
}

TEST(StmRuntime, ToStringNames) {
    EXPECT_EQ(to_string(BackendKind::kTaglessTable), "tagless-table");
    EXPECT_EQ(to_string(BackendKind::kTaggedTable), "tagged-table");
    EXPECT_EQ(to_string(BackendKind::kTl2), "tl2");
}

TEST(StmRuntime, AbortRateHelper) {
    StmStats s;
    EXPECT_EQ(s.abort_rate(), 0.0);
    s.commits = 3;
    s.aborts = 1;
    EXPECT_DOUBLE_EQ(s.abort_rate(), 0.25);
}

TEST(StmRuntime, SequentialTransactionsReuseSlots) {
    // More sequential atomically() calls than the 64-slot capacity: slots
    // must recycle without blocking.
    Stm tm(config_for(BackendKind::kTaggedTable));
    TVar<int> x{0};
    for (int i = 0; i < 200; ++i) {
        tm.atomically([&](Transaction& tx) { x.write(tx, x.read(tx) + 1); });
    }
    EXPECT_EQ(x.unsafe_read(), 200);
}

TEST(StmRuntime, PooledContextsHoldNoTxId) {
    // Stm::atomically parks its contexts in a pool between calls. Fill the
    // pool from 64 concurrent calls, then take every TxId with Executors: a
    // parked context that kept its TxId would leave make_executor waiting
    // forever.
    for (const char* spec :
         {"backend=table table=tagless", "backend=table table=tagged",
          "backend=adaptive engine=table policy=off"}) {
        SCOPED_TRACE(spec);
        const auto tm = Stm::create(config::Config::from_string(spec));
        const std::uint32_t cap = tm->max_live_executors();
        ASSERT_EQ(cap, 62u);

        // Each call waits inside its body until `cap` calls are inside, so
        // at least `cap` contexts exist at once and all go back to the pool.
        constexpr int kCalls = 64;
        std::atomic<std::uint32_t> inside{0};
        std::vector<std::thread> threads;
        threads.reserve(kCalls);
        for (int t = 0; t < kCalls; ++t) {
            threads.emplace_back([&] {
                bool counted = false;
                tm->atomically([&](Transaction&) {
                    if (!counted) {
                        counted = true;
                        inside.fetch_add(1);
                    }
                    while (inside.load() < cap) std::this_thread::yield();
                });
            });
        }
        for (auto& th : threads) th.join();

        auto executors = std::async(std::launch::async, [&] {
            std::vector<std::unique_ptr<Executor>> out;
            for (std::uint32_t i = 0; i < cap; ++i) {
                out.push_back(tm->make_executor());
            }
            for (auto& exec : out) exec->atomically([](Transaction&) {});
            return out.size();
        });
        if (executors.wait_for(std::chrono::seconds(10)) !=
            std::future_status::ready) {
            // make_executor cannot be cancelled and the future's destructor
            // would join it: report and leave instead of hanging the suite.
            ADD_FAILURE() << "parked contexts pinned TxIds: make_executor "
                             "still waiting after 10 s";
            std::fflush(stdout);
            std::_Exit(EXIT_FAILURE);
        }
        EXPECT_EQ(executors.get(), cap);
        EXPECT_EQ(tm->occupied_metadata_entries(), 0u);
    }
}

TEST(StmRuntime, IndependentInstancesDoNotInterfere) {
    Stm tm1(config_for(BackendKind::kTl2));
    Stm tm2(config_for(BackendKind::kTaggedTable));
    TVar<int> x{0}, y{0};
    tm1.atomically([&](Transaction& tx) { x.write(tx, 1); });
    tm2.atomically([&](Transaction& tx) { y.write(tx, 2); });
    EXPECT_EQ(x.unsafe_read(), 1);
    EXPECT_EQ(y.unsafe_read(), 2);
    EXPECT_EQ(tm1.stats().commits, 1u);
    EXPECT_EQ(tm2.stats().commits, 1u);
}

TEST(Contention, ManagerPolicesAttempts) {
    const ContentionConfig cfg{.policy = ContentionPolicy::kNone};
    ContentionManager cm(cfg, 1);
    EXPECT_EQ(cm.attempts(), 0u);
    cm.on_abort();
    cm.on_abort();
    EXPECT_EQ(cm.attempts(), 2u);
    cm.reset();
    EXPECT_EQ(cm.attempts(), 0u);
}

}  // namespace
}  // namespace tmb::stm
