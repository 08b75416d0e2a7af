// Tests for src/config: key/value parsing, typed getters, and selecting
// components by name (ownership tables, STM backends, simulator and hybrid
// configs) from the same key vocabulary.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "hybrid/hybrid_tm.hpp"
#include "ownership/any_table.hpp"
#include "sim/closed_system.hpp"
#include "sim/open_system.hpp"
#include "sim/trace_alias.hpp"
#include "stm/stm.hpp"

namespace tmb {
namespace {

// ---------------------------------------------------------------------------
// Config parsing
// ---------------------------------------------------------------------------

TEST(Config, FromArgsParsesFlagsAndPositionals) {
    const char* argv[] = {"prog",        "--table=tagged", "--entries=4096",
                          "input.trace", "--model",        "--",
                          "--raw"};
    const auto cfg = config::Config::from_args(7, argv);
    EXPECT_EQ(cfg.get("table", ""), "tagged");
    EXPECT_EQ(cfg.get_u64("entries", 0), 4096u);
    EXPECT_TRUE(cfg.get_bool("model", false));
    ASSERT_EQ(cfg.positional().size(), 2u);
    EXPECT_EQ(cfg.positional()[0], "input.trace");
    EXPECT_EQ(cfg.positional()[1], "--raw");  // after "--": positional
}

TEST(Config, BooleanFlagNeverSwallowsAPositional) {
    // Regression: `alias_explorer --model my.trace` must keep the trace as
    // a positional, not bind it as the value of --model.
    const char* argv[] = {"prog", "--model", "my.trace"};
    const auto cfg = config::Config::from_args(3, argv);
    EXPECT_TRUE(cfg.get_bool("model", false));
    ASSERT_EQ(cfg.positional().size(), 1u);
    EXPECT_EQ(cfg.positional()[0], "my.trace");
}

TEST(Config, FromStringParsesInlineSpecs) {
    const auto cfg =
        config::Config::from_string("backend=tl2, entries=64k\nmodel");
    EXPECT_EQ(cfg.get("backend", ""), "tl2");
    EXPECT_EQ(cfg.get_u64("entries", 0), 65536u);  // "64k" shorthand
    EXPECT_TRUE(cfg.get_bool("model", false));
}

TEST(Config, TypedGettersFallBackAndValidate) {
    const auto cfg = config::Config::from_string(
        "count=12 ratio=0.25 flag=off bad=xyz");
    EXPECT_EQ(cfg.get_u64("count", 7), 12u);
    EXPECT_EQ(cfg.get_u64("missing", 7), 7u);
    EXPECT_DOUBLE_EQ(cfg.get_double("ratio", 1.0), 0.25);
    EXPECT_FALSE(cfg.get_bool("flag", true));
    EXPECT_THROW((void)cfg.get_u64("bad", 0), std::invalid_argument);
    EXPECT_THROW((void)cfg.get_bool("bad", false), std::invalid_argument);
}

TEST(Config, DoubleMustBeTheWholeValueAndFinite) {
    const auto cfg =
        config::Config::from_string("a=2.0x b=1e999 c=inf d=nan e=-1.5e3");
    EXPECT_THROW((void)cfg.get_double("a", 0), std::invalid_argument);
    EXPECT_THROW((void)cfg.get_double("b", 0), std::invalid_argument);
    EXPECT_THROW((void)cfg.get_double("c", 0), std::invalid_argument);
    EXPECT_THROW((void)cfg.get_double("d", 0), std::invalid_argument);
    EXPECT_DOUBLE_EQ(cfg.get_double("e", 0), -1500.0);
}

TEST(Config, U32RejectsValuesAbove32Bits) {
    // 2^32 + 1 used to truncate to 1 (one thread for --threads=4294967297).
    const auto cfg = config::Config::from_string(
        "over=4294967297 max=4294967295 suffixed=4194304k");
    EXPECT_THROW((void)cfg.get_u32("over", 0), std::invalid_argument);
    EXPECT_EQ(cfg.get_u32("max", 0), 4294967295u);
    EXPECT_THROW((void)cfg.get_u32("suffixed", 0), std::invalid_argument);
}

TEST(Config, U64RejectsOutOfRangeValues) {
    // strtoull saturates at 2^64-1 with ERANGE.
    const auto cfg = config::Config::from_string(
        "over=99999999999999999999 max=18446744073709551615");
    EXPECT_THROW((void)cfg.get_u64("over", 0), std::invalid_argument);
    EXPECT_EQ(cfg.get_u64("max", 0), 18446744073709551615u);
}

TEST(Config, U64RejectsSuffixesThatOverflow) {
    // 2^44 m is 2^64, which used to wrap to 0.
    const auto cfg = config::Config::from_string(
        "over=17592186044416m max=17592186044415m k=18014398509481984k");
    EXPECT_THROW((void)cfg.get_u64("over", 0), std::invalid_argument);
    EXPECT_EQ(cfg.get_u64("max", 0), 17592186044415ull << 20);
    EXPECT_THROW((void)cfg.get_u64("k", 0), std::invalid_argument);
}

TEST(Config, FlagOrPositionalNumbersAreChecked) {
    // `birthday_calc 5abc 2 -3 1024x` used to run W=5, C=4294967293, N=1024.
    const char* argv[] = {"prog", "5", "2.5", "3", "--c=9"};
    const auto cli = config::Config::from_args(5, argv);
    EXPECT_EQ(config::opt_u64(cli, "w", 0, 71), 5u);
    EXPECT_DOUBLE_EQ(config::opt_f64(cli, "alpha", 1, 2.0), 2.5);
    EXPECT_EQ(config::opt_u32(cli, "c", 2, 2), 9u);  // the flag wins
    EXPECT_EQ(config::opt_u64(cli, "n", 3, 65536), 65536u);  // none given
    EXPECT_TRUE(cli.unused_keys().empty());

    const char* bad[] = {"prog", "5abc", "2x", "-3", "1024x"};
    const auto junk = config::Config::from_args(5, bad);
    EXPECT_THROW((void)config::opt_u64(junk, "w", 0, 71),
                 std::invalid_argument);
    EXPECT_THROW((void)config::opt_f64(junk, "alpha", 1, 2.0),
                 std::invalid_argument);
    EXPECT_THROW((void)config::opt_u32(junk, "c", 2, 2),
                 std::invalid_argument);
    EXPECT_THROW((void)config::opt_u64(junk, "n", 3, 65536),
                 std::invalid_argument);
}

TEST(Config, TracksUnusedKeysForTypoDiagnostics) {
    const auto cfg = config::Config::from_string("table=tagged tabel=oops");
    (void)cfg.get("table", "");
    const auto unused = cfg.unused_keys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "tabel");
}

TEST(Config, SetOverwritesAndMergeCombines) {
    auto cfg = config::Config::from_string("a=1 b=2");
    cfg.set("a", "10");
    cfg.merge(config::Config::from_string("b=20 c=30"));
    EXPECT_EQ(cfg.get_u64("a", 0), 10u);
    EXPECT_EQ(cfg.get_u64("b", 0), 20u);
    EXPECT_EQ(cfg.get_u64("c", 0), 30u);
    EXPECT_EQ(cfg.to_string(), "a=10 b=20 c=30");
}

// ---------------------------------------------------------------------------
// Ownership tables by name
// ---------------------------------------------------------------------------

TEST(Table, ListsBothOrganizations) {
    EXPECT_EQ(ownership::table_names(),
              (std::vector<std::string>{"tagless", "tagged"}));
}

TEST(Table, MakeTableSelectsOrganizationByName) {
    for (const std::string& name : ownership::table_names()) {
        const auto cfg = config::Config::from_string(
            "table=" + name + " entries=128 hash=shift-mask");
        const auto table = ownership::make_table(cfg);
        ASSERT_NE(table, nullptr);
        EXPECT_EQ(table->entry_count(), 128u);
        // Blocks 3 and 3 + 128 share an entry: only tagless conflicts.
        EXPECT_TRUE(table->acquire_write(0, 3).ok);
        EXPECT_EQ(!table->acquire_write(1, 3 + 128).ok, name == "tagless");
    }
}

TEST(Table, UnknownNameThrowsWithKnownNames) {
    // atomic_tagless and its `atomic` spelling reran Fig. 1 on the STM's
    // lock-free table; the simulators no longer take them.
    for (const char* bad : {"nonesuch", "atomic_tagless", "atomic"}) {
        const auto cfg = config::Config::from_string(
            std::string("table=") + bad);
        try {
            (void)ownership::make_table(cfg);
            ADD_FAILURE() << bad << ": expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("'") + bad + "'"),
                      std::string::npos)
                << what;
            for (const std::string& name : ownership::table_names()) {
                EXPECT_NE(what.find(name), std::string::npos) << what;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// STM backend selection by name
// ---------------------------------------------------------------------------

TEST(StmFactory, CreateSelectsBackendByName) {
    const struct {
        const char* spec;
        stm::BackendKind expected;
    } cases[] = {
        {"backend=tl2", stm::BackendKind::kTl2},
        {"backend=tagged", stm::BackendKind::kTaggedTable},
        {"backend=tagless", stm::BackendKind::kTaglessTable},
        {"backend=table table=tagged", stm::BackendKind::kTaggedTable},
        {"table=tagless", stm::BackendKind::kTaglessTable},  // backend implied
        {"", stm::BackendKind::kTaggedTable},                // default
    };
    for (const auto& c : cases) {
        const auto tm = stm::Stm::create(config::Config::from_string(c.spec));
        EXPECT_EQ(tm->config().backend, c.expected) << c.spec;
    }
}

TEST(StmFactory, ConfigKeysReachTheRuntime) {
    const auto tm = stm::Stm::create(config::Config::from_string(
        "table=tagless entries=2048 block_bytes=32 commit_time_locks=1 "
        "max_attempts=9 contention=none hash=multiplicative"));
    const auto& c = tm->config();
    EXPECT_EQ(c.table.entries, 2048u);
    EXPECT_EQ(c.block_bytes, 32u);
    EXPECT_TRUE(c.commit_time_locks);
    EXPECT_EQ(c.max_attempts, 9u);
    EXPECT_EQ(c.contention.policy, stm::ContentionPolicy::kNone);
    EXPECT_EQ(c.table.hash, util::HashKind::kMultiplicative);
}

TEST(StmFactory, UnknownBackendThrows) {
    EXPECT_THROW(
        (void)stm::Stm::create(config::Config::from_string("backend=bogus")),
        std::invalid_argument);
}

TEST(StmFactory, RejectsTheRetiredAtomicSpellings) {
    // table=tagless already runs on the lock-free table; none of the old
    // names for a separate atomic engine may select anything.
    for (const char* spec :
         {"backend=atomic", "backend=tagless-atomic", "backend=atomic_tagless",
          "backend=table table=atomic_tagless", "table=atomic_tagless",
          "backend=adaptive engine=atomic"}) {
        try {
            (void)stm::stm_config_from(config::Config::from_string(spec));
            ADD_FAILURE() << "accepted " << spec;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("tagless"), std::string::npos)
                << spec << ": " << e.what();
        }
    }
}

TEST(StmFactory, CreatedRuntimeRunsTransactions) {
    const auto tm =
        stm::Stm::create(config::Config::from_string("table=tagged"));
    stm::TVar<long> x{1};
    tm->atomically([&](stm::Transaction& tx) { x.write(tx, x.read(tx) + 41); });
    EXPECT_EQ(x.unsafe_read(), 42);
    const auto stats = tm->stats();
    EXPECT_EQ(stats.commits, 1u);
    // Single uncontended transaction: the retry histogram records one
    // first-attempt commit.
    EXPECT_EQ(stats.attempts_per_commit.total(), 1u);
    EXPECT_EQ(stats.attempts_per_commit.count_at(1), 1u);
    EXPECT_DOUBLE_EQ(stats.mean_attempts(), 1.0);
}

// ---------------------------------------------------------------------------
// Sim / hybrid configs parse from the same key vocabulary
// ---------------------------------------------------------------------------

TEST(SimConfigs, ParseFromSharedKeys) {
    const auto cfg = config::Config::from_string(
        "concurrency=4 footprint=20 entries=8192 table=tagged samples=123 "
        "experiments=77 alpha=1.5 seed=9");
    const auto ta = sim::trace_alias_config_from(cfg);
    EXPECT_EQ(ta.concurrency, 4u);
    EXPECT_EQ(ta.write_footprint, 20u);
    EXPECT_EQ(ta.table_entries, 8192u);
    EXPECT_EQ(ta.table, "tagged");
    EXPECT_EQ(ta.samples, 123u);
    EXPECT_EQ(ta.seed, 9u);

    const auto os = sim::open_system_config_from(cfg);
    EXPECT_EQ(os.experiments, 77u);
    EXPECT_DOUBLE_EQ(os.alpha, 1.5);

    const auto cs = sim::closed_system_config_from(cfg);
    EXPECT_EQ(cs.concurrency, 4u);
}

TEST(SimConfigs, ConfigOverloadsRunTheSimulators) {
    const auto cfg = config::Config::from_string(
        "concurrency=2 footprint=5 entries=512 experiments=50 target=50 seed=3");
    const auto open = sim::run_open_system(cfg);
    EXPECT_EQ(open.experiments, 50u);
    const auto closed = sim::run_closed_system(cfg);
    EXPECT_GT(closed.commits, 0u);
    const auto hybrid = hybrid::run_hybrid_tm(config::Config::from_string(
        "threads=2 table=tagless ticks=1000 seed=3"));
    EXPECT_GT(hybrid.htm_commits + hybrid.stm_commits, 0u);
}

TEST(HybridConfig, ParsesAndRuns) {
    const auto cfg = config::Config::from_string(
        "threads=2 table=tagged entries=4096 large_fraction=1.0 "
        "large_blocks=256 ticks=2000 seed=5");
    const hybrid::HybridConfig c = hybrid::hybrid_config_from(cfg);
    EXPECT_EQ(c.threads, 2u);
    EXPECT_EQ(c.stm_table, "tagged");
    const auto r = hybrid::run_hybrid_tm(c);
    EXPECT_GT(r.stm_commits + r.htm_commits, 0u);
    EXPECT_EQ(r.stm_aborts, 0u);  // tagged fallback, disjoint footprints
}

}  // namespace
}  // namespace tmb
