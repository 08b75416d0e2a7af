// Tests for src/config: key/value parsing, typed getters, and the
// string-keyed component registry that the ownership, stm, hybrid and sim
// layers hang off.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "config/config.hpp"
#include "config/registry.hpp"
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
// Ownership-table registry
// ---------------------------------------------------------------------------

TEST(TableRegistry, BuiltinsAreRegistered) {
    const auto names = ownership::table_names();
    EXPECT_TRUE(std::find(names.begin(), names.end(), "tagless") != names.end());
    EXPECT_TRUE(std::find(names.begin(), names.end(), "tagged") != names.end());
    EXPECT_TRUE(std::find(names.begin(), names.end(), "atomic_tagless") !=
                names.end());
}

TEST(TableRegistry, MakeTableSelectsOrganizationByName) {
    for (const char* name : {"tagless", "tagged", "atomic_tagless"}) {
        const auto cfg = config::Config::from_string(
            std::string("table=") + name + " entries=128");
        const auto table = ownership::make_table(cfg);
        ASSERT_NE(table, nullptr);
        EXPECT_EQ(table->name(), name);
        EXPECT_EQ(table->entry_count(), 128u);
    }
}

TEST(TableRegistry, UnknownNameThrowsWithKnownNames) {
    const auto cfg = config::Config::from_string("table=nonesuch");
    try {
        (void)ownership::make_table(cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("nonesuch"), std::string::npos);
        EXPECT_NE(what.find("tagless"), std::string::npos) << what;
    }
}

TEST(TableRegistry, RuntimeRegistrationExtendsTheAblation) {
    // A "table" that admits everything — registered at runtime, selected by
    // name through the exact code path the benches use.
    class PermissiveTable final : public ownership::AnyTable {
    public:
        ownership::AcquireResult acquire_read(ownership::TxId,
                                              std::uint64_t) override {
            return {.ok = true};
        }
        ownership::AcquireResult acquire_write(ownership::TxId,
                                               std::uint64_t) override {
            return {.ok = true};
        }
        void release(ownership::TxId, std::uint64_t, ownership::Mode) override {}
        std::uint64_t entry_count() const noexcept override { return 1; }
        ownership::TableCounters counters() const noexcept override {
            return {};
        }
        std::uint64_t index_of(std::uint64_t) const noexcept override {
            return 0;
        }
        std::uint64_t occupied_entries() const noexcept override { return 0; }
        ownership::Mode mode_of_block(std::uint64_t) const noexcept override {
            return ownership::Mode::kFree;
        }
        ownership::TxId max_tx() const noexcept override {
            return ownership::kMaxTx;
        }
        void clear() override {}
        std::string_view name() const noexcept override { return "permissive"; }
    };

    ownership::TableRegistry::instance().add(
        "permissive", [](const config::Config&) {
            return std::make_unique<PermissiveTable>();
        });
    const auto table = ownership::make_table(
        config::Config::from_string("table=permissive"));
    EXPECT_EQ(table->name(), "permissive");
    EXPECT_TRUE(table->acquire_write(0, 42).ok);
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
    EXPECT_EQ(os.table, "tagged");

    const auto cs = sim::closed_system_config_from(cfg);
    EXPECT_EQ(cs.concurrency, 4u);
    EXPECT_EQ(cs.table, "tagged");
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
    const hybrid::HybridTm tm(cfg);
    EXPECT_EQ(tm.config().threads, 2u);
    EXPECT_EQ(tm.config().stm_table, "tagged");
    const auto r = tm.run();
    EXPECT_GT(r.stm_commits + r.htm_commits, 0u);
    EXPECT_EQ(r.stm_aborts, 0u);  // tagged fallback, disjoint footprints
}

}  // namespace
}  // namespace tmb
