// Tests for the schedule-exploration harness (src/sched/): replay
// determinism, the serializability oracle's ability to catch deliberately
// broken backends, PCT coverage of the classic write-skew interleaving,
// schedule minimization, and the differential oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "sched/harness.hpp"
#include "sched/schedule.hpp"
#include "stm/sched_hook.hpp"
#include "svc/sched_service.hpp"

namespace tmb::sched {
namespace {

/// Sets one test fault for the scope of a test; always cleared on exit so
/// a failing assertion cannot poison later tests.
struct FaultGuard {
    explicit FaultGuard(std::atomic<bool>& flag) : flag_(flag) {
        flag_.store(true, std::memory_order_relaxed);
    }
    ~FaultGuard() { flag_.store(false, std::memory_order_relaxed); }
    std::atomic<bool>& flag_;
};

config::Config sched_spec(std::string_view spec) {
    return config::Config::from_string(spec);
}

/// A contended all-writer workload on the tagless table with entries >=
/// slots (no aliasing): conflicts are plentiful and all true, so
/// broken-protocol faults surface quickly.
HarnessConfig contended_config() {
    HarnessConfig cfg;
    cfg.backend = "table";
    cfg.table = "tagless";
    cfg.entries = 16;  // >= slots: no aliasing, conflicts are all true
    cfg.threads = 3;
    cfg.txs_per_thread = 3;
    cfg.ops_per_tx = 3;
    cfg.slots = 2;
    cfg.write_fraction = 1.0;
    cfg.read_only_fraction = 0.0;
    cfg.workload_seed = 9;
    return cfg;
}

bool commit_logs_equal(const RunResult& a, const RunResult& b) {
    if (a.commit_log.size() != b.commit_log.size()) return false;
    for (std::size_t i = 0; i < a.commit_log.size(); ++i) {
        const CommitRecord& x = a.commit_log[i];
        const CommitRecord& y = b.commit_log[i];
        if (x.thread != y.thread || x.tx_index != y.tx_index ||
            x.begin_commits != y.begin_commits ||
            x.reads.size() != y.reads.size() ||
            x.writes.size() != y.writes.size()) {
            return false;
        }
        for (std::size_t r = 0; r < x.reads.size(); ++r) {
            if (x.reads[r].slot != y.reads[r].slot ||
                x.reads[r].value != y.reads[r].value) {
                return false;
            }
        }
        for (std::size_t w = 0; w < x.writes.size(); ++w) {
            if (x.writes[w].slot != y.writes[w].slot ||
                x.writes[w].value != y.writes[w].value) {
                return false;
            }
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// Schedule primitives
// ---------------------------------------------------------------------------

TEST(ScheduleString, Base36RoundTrip) {
    for (std::uint32_t t = 0; t < kMaxScheduleThreads; ++t) {
        EXPECT_EQ(char_to_thread(thread_to_char(t)), t);
    }
    EXPECT_THROW((void)char_to_thread('!'), std::invalid_argument);
    EXPECT_THROW((void)char_to_thread('A'), std::invalid_argument);
}

TEST(ScheduleString, NearestRunnableWrapsDeterministically) {
    EXPECT_EQ(nearest_runnable(0b1010, 1), 1u);
    EXPECT_EQ(nearest_runnable(0b1010, 2), 3u);
    EXPECT_EQ(nearest_runnable(0b0010, 3), 1u);  // wraps to the lowest
}

TEST(Schedule, BuiltinsAndUnknown) {
    const std::vector<std::string> names = schedule_names();
    EXPECT_EQ(names,
              (std::vector<std::string>{"rr", "random", "pct", "replay"}));
    for (const std::string& name : names) {
        EXPECT_NE(make_schedule(sched_spec("sched=" + name + " schedule=01"),
                                1),
                  nullptr)
            << name;
    }
    try {
        (void)make_schedule(sched_spec("sched=bogus"), 1);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
        for (const std::string& name : names) {
            EXPECT_NE(what.find(name), std::string::npos) << what;
        }
    }
    // A bare schedule string implies replay.
    EXPECT_NE(make_schedule(sched_spec("schedule=0101"), 1), nullptr);
}

TEST(HarnessConfig, ParsesAndValidates) {
    const auto cfg = harness_config_from(sched_spec(
        "backend=tl2 threads=4 txs=2 ops=5 slots=9 wfrac=0.5 rofrac=0.1 "
        "mode=incr wseed=77"));
    EXPECT_EQ(cfg.backend, "tl2");
    EXPECT_EQ(cfg.threads, 4u);
    EXPECT_EQ(cfg.txs_per_thread, 2u);
    EXPECT_EQ(cfg.ops_per_tx, 5u);
    EXPECT_EQ(cfg.slots, 9u);
    EXPECT_TRUE(cfg.commutative);
    EXPECT_EQ(cfg.workload_seed, 77u);
    EXPECT_THROW((void)harness_config_from(sched_spec("mode=nonesuch")),
                 std::invalid_argument);

    HarnessConfig bad = contended_config();
    bad.slots = kMaxSlots + 1;
    const auto programs = generate_programs(bad);
    auto schedule = make_schedule(sched_spec("sched=rr"), 1);
    EXPECT_THROW((void)run_schedule(bad, programs, *schedule),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replay determinism
// ---------------------------------------------------------------------------

TEST(SchedHarness, ReplayReproducesBitIdenticalRuns) {
    for (const BackendPair& pair : default_backend_pairs()) {
        HarnessConfig cfg;
        pair.apply(cfg);
        cfg.entries = 4;  // slots > entries: tagless aliasing in play
        cfg.slots = 8;
        cfg.write_fraction = 0.7;
        cfg.workload_seed = 5;
        const auto programs = generate_programs(cfg);

        const auto random1 = make_schedule(sched_spec("sched=random"), 321);
        const RunResult original = run_schedule(cfg, programs, *random1);
        EXPECT_FALSE(original.cancelled) << pair.label();
        EXPECT_FALSE(original.schedule.empty()) << pair.label();
        EXPECT_EQ(check_serializable(cfg, programs, original), std::nullopt)
            << pair.label();

        // Same seed => identical run, not just identical hash.
        const auto random2 = make_schedule(sched_spec("sched=random"), 321);
        const RunResult rerun = run_schedule(cfg, programs, *random2);
        EXPECT_EQ(rerun.schedule, original.schedule) << pair.label();
        EXPECT_EQ(rerun.state_hash, original.state_hash) << pair.label();

        // Replaying the recorded pick string reproduces everything.
        config::Config rc;
        rc.set("schedule", original.schedule);
        const auto replay = make_schedule(rc, 0);
        const RunResult replayed = run_schedule(cfg, programs, *replay);
        EXPECT_EQ(replayed.schedule, original.schedule) << pair.label();
        EXPECT_EQ(replayed.state_hash, original.state_hash) << pair.label();
        EXPECT_EQ(replayed.final_state, original.final_state) << pair.label();
        EXPECT_TRUE(commit_logs_equal(replayed, original)) << pair.label();
    }
}

TEST(SchedHarness, StepLimitCancelsAndIsReportedAsViolation) {
    HarnessConfig cfg = contended_config();
    cfg.step_limit = 3;  // far below the steps a full run needs
    const auto programs = generate_programs(cfg);
    auto schedule = make_schedule(sched_spec("sched=rr"), 1);
    const RunResult run = run_schedule(cfg, programs, *schedule);
    EXPECT_TRUE(run.cancelled);
    EXPECT_EQ(run.steps, 3u);
    const auto error = check_serializable(cfg, programs, run);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("step_limit"), std::string::npos) << *error;
}

// ---------------------------------------------------------------------------
// The oracle catches deliberately broken backends
// ---------------------------------------------------------------------------

TEST(SchedOracle, CatchesTableBackendThatIgnoresConflicts) {
    const FaultGuard fault(
        stm::detail::test_faults().ignore_acquire_conflicts);
    const HarnessConfig cfg = contended_config();
    const auto result =
        explore(ProgramSubject(cfg), sched_spec("sched=random"), 60, 13);
    ASSERT_FALSE(result.violations.empty())
        << "a backend that ignores conflicts must violate serializability";
    // Every failure carries a copy-pasteable repro line.
    for (const Violation& v : result.violations) {
        EXPECT_NE(v.message.find("repro:"), std::string::npos);
        EXPECT_NE(v.repro.find("sched_explorer"), std::string::npos);
        EXPECT_NE(v.repro.find("--schedule=" + v.schedule), std::string::npos);
        EXPECT_NE(v.repro.find("--backend=table"), std::string::npos);
    }
}

TEST(SchedOracle, CatchesTaggedBackendThatIgnoresConflicts) {
    const FaultGuard fault(
        stm::detail::test_faults().ignore_acquire_conflicts);
    HarnessConfig cfg = contended_config();
    cfg.table = "tagged";
    const auto result =
        explore(ProgramSubject(cfg), sched_spec("sched=random"), 60, 13);
    EXPECT_FALSE(result.violations.empty());
}

TEST(SchedOracle, CatchesTl2ThatSkipsCommitValidation) {
    const FaultGuard fault(stm::detail::test_faults().skip_tl2_validation);
    HarnessConfig cfg = contended_config();
    cfg.backend = "tl2";
    cfg.write_fraction = 0.6;  // reads + writes: stale reads become visible
    const auto result =
        explore(ProgramSubject(cfg), sched_spec("sched=random"), 200, 17);
    EXPECT_FALSE(result.violations.empty())
        << "TL2 without read-set validation must commit stale reads";
}

TEST(SchedOracle, FaultyScheduleMinimizesAndStillFails) {
    const FaultGuard fault(
        stm::detail::test_faults().ignore_acquire_conflicts);
    const HarnessConfig cfg = contended_config();
    const auto programs = generate_programs(cfg);
    const auto result =
        explore(ProgramSubject(cfg), sched_spec("sched=random"), 60, 13);
    ASSERT_FALSE(result.violations.empty());

    const std::string& original = result.violations.front().schedule;
    const std::string shrunk =
        minimize_schedule(ProgramSubject(cfg), original);
    EXPECT_LE(shrunk.size(), original.size());

    config::Config rc;
    rc.set("schedule", shrunk);
    const auto replay = make_schedule(rc, 0);
    const RunResult run = run_schedule(cfg, programs, *replay);
    EXPECT_TRUE(check_serializable(cfg, programs, run).has_value())
        << "minimized schedule must still fail";
}

TEST(SchedOracle, CleanBackendsPassEverywhere) {
    // The miniature of the CI acceptance sweep: every pair, aliasing-heavy
    // workload, random schedules, zero violations.
    for (const BackendPair& pair : default_backend_pairs()) {
        HarnessConfig cfg;
        pair.apply(cfg);
        cfg.entries = 4;
        cfg.slots = 8;
        cfg.write_fraction = 0.7;
        const auto result =
            explore(ProgramSubject(cfg), sched_spec("sched=random"), 100, 3);
        EXPECT_EQ(result.runs, 100u);
        EXPECT_TRUE(result.violations.empty())
            << pair.label() << ": " << result.violations.front().message;
    }
}

// ---------------------------------------------------------------------------
// Dyn mode: tx_alloc/tx_free churn under the lifetime oracle
// ---------------------------------------------------------------------------

/// A write-heavy dyn workload: every write replaces a heap node, so most
/// scheduler steps sit between an allocation, a free, or a reclamation
/// pass of some virtual thread.
HarnessConfig dyn_config() {
    HarnessConfig cfg = contended_config();
    cfg.dynamic = true;
    cfg.commutative = false;
    cfg.slots = 3;
    cfg.write_fraction = 0.8;
    cfg.read_only_fraction = 0.1;  // doomed *readers* are the UAF risk
    return cfg;
}

TEST(SchedDyn, ConfigParsesAndReproRoundTrips) {
    const auto cfg = harness_config_from(sched_spec("mode=dyn"));
    EXPECT_TRUE(cfg.dynamic);
    EXPECT_FALSE(cfg.commutative);
    EXPECT_NE(repro_flags(cfg).find("--mode=dyn"), std::string::npos);
    EXPECT_EQ(harness_config_from(sched_spec(repro_flags(cfg))).dynamic,
              true);
}

TEST(SchedSpec, ReproFlagsRoundTripForBothSubjects) {
    // Rows: every built-in pair, adaptive with all four of its knobs, and
    // TL2's gv1 clock. Each row's repro flags must parse back into the same
    // config for both subjects, each with its own keys set too (the
    // harness's dyn mode and cache_blocks, the service's max_attempts and
    // shape).
    std::vector<StmSpec> rows;
    for (const BackendPair& pair : default_backend_pairs()) {
        StmSpec spec;
        pair.apply(spec);
        rows.push_back(spec);
    }
    StmSpec adaptive;
    adaptive.backend = "adaptive";
    adaptive.entries = 4;
    adaptive.engine = "table";
    adaptive.policy = "cycle";
    adaptive.epoch = 8;
    adaptive.max_entries = 256;
    rows.push_back(adaptive);
    StmSpec gv1;
    gv1.backend = "tl2";
    gv1.clock = "gv1";
    rows.push_back(gv1);

    for (const StmSpec& spec : rows) {
        HarnessConfig h;
        static_cast<StmSpec&>(h) = spec;
        h.slots = 8;
        h.write_fraction = 0.7;
        h.read_only_fraction = 0.1;
        h.dynamic = true;
        h.workload_seed = 5;
        h.cache_blocks = 0;
        EXPECT_EQ(harness_config_from(sched_spec(repro_flags(h))), h)
            << repro_flags(h);

        svc::SvcHarnessConfig s;
        static_cast<StmSpec&>(s) = spec;
        s.max_attempts = 2;
        s.svc.dispatchers = 2;
        s.svc.deadline_us = 48;
        s.svc.retry_budget = 3;
        const std::string flags = svc::svc_harness_repro_flags(s);
        const auto back = svc::svc_harness_config_from(sched_spec(flags));
        EXPECT_EQ(static_cast<const StmSpec&>(back), spec) << flags;
        EXPECT_EQ(back.max_attempts, s.max_attempts) << flags;
        EXPECT_EQ(svc::svc_harness_repro_flags(back), flags);
    }
}

TEST(SchedSpec, ParentFormatReproLinesStillReplay) {
    // Repro lines verbatim as earlier builds printed them (saved CI
    // artifacts): every key must still be read, and each replay must land
    // on the step count and state hash those builds reported.
    struct Line {
        const char* repro;
        std::uint64_t steps;
        std::uint64_t state_hash;
    };
    const Line lines[] = {
        {"sched_explorer --backend=table --table=tagless --entries=4 "
         "--threads=3 --txs=3 --ops=4 --slots=8 --wfrac=0.7 --rofrac=0.25 "
         "--mode=acc --wseed=1 --schedule=0120120120",
         90, 0x8a7864d61683f335ULL},
        {"sched_explorer --svc=1 --backend=table --table=tagless "
         "--entries=16 --max_attempts=4 --clients=2 --dispatchers=2 "
         "--shards=1 --queue_depth=2 --batch=2 --requests=3 --ops=2 "
         "--slots=8 --rmw=1 --wseed=1 --retry=backoff:3 "
         "--schedule=0123202131023",
         94, 0x197daf38b8be9634ULL},
    };
    for (const Line& line : lines) {
        const std::string repro = line.repro;
        const auto cli = sched_spec(repro.substr(repro.find(' ') + 1));
        const std::string schedule = cli.get("schedule", "");
        const auto subject = svc::make_subject(cli);
        EXPECT_NO_THROW(config::reject_unknown(cli)) << repro;
        const Outcome out = replay(*subject, schedule);
        EXPECT_EQ(out.error, std::nullopt) << repro;
        EXPECT_EQ(out.run.steps, line.steps) << repro;
        EXPECT_EQ(out.run.state_hash, line.state_hash) << repro;
    }
}

TEST(SchedDyn, CleanBackendsPassTheLifetimeOracle) {
    auto pairs = default_backend_pairs();
    pairs.push_back({"adaptive", "tagless", false});
    for (const BackendPair& pair : pairs) {
        HarnessConfig cfg = dyn_config();
        pair.apply(cfg);
        if (pair.backend == "adaptive") {
            cfg.policy = "cycle";  // engine swaps mid-run drain reclamation
            cfg.epoch = 4;
        }
        const auto result =
            explore(ProgramSubject(cfg), sched_spec("sched=random"), 80, 29);
        EXPECT_EQ(result.runs, 80u);
        EXPECT_TRUE(result.violations.empty())
            << pair.label() << ": " << result.violations.front().message;
    }
}

TEST(SchedDyn, ReplayReproducesBitIdenticalRuns) {
    HarnessConfig cfg = dyn_config();
    cfg.backend = "tl2";
    const auto programs = generate_programs(cfg);

    const auto random1 = make_schedule(sched_spec("sched=random"), 77);
    const RunResult original = run_schedule(cfg, programs, *random1);
    EXPECT_FALSE(original.cancelled);
    EXPECT_EQ(original.lifetime_error, std::nullopt);
    EXPECT_EQ(check_serializable(cfg, programs, original), std::nullopt);

    config::Config rc;
    rc.set("schedule", original.schedule);
    const auto replay = make_schedule(rc, 0);
    const RunResult replayed = run_schedule(cfg, programs, *replay);
    EXPECT_EQ(replayed.schedule, original.schedule);
    EXPECT_EQ(replayed.state_hash, original.state_hash);
    EXPECT_EQ(replayed.final_state, original.final_state);
    EXPECT_TRUE(commit_logs_equal(replayed, original));
}

TEST(SchedDyn, EagerReclamationIsCaughtAsLifetimeViolation) {
    // Break the reclaimer on purpose: eager_reclaim releases a committed
    // free immediately, ignoring epoch pins. A doomed reader still holding
    // the old pointer then dereferences a released block — the lifetime
    // oracle must report that (as a violation, not a crash: the observer
    // vetoes the actual double frees).
    // Doomed readers need a backend whose reads do not lock out writers:
    // TL2 and the commit-time (lazy) tables let a writer free a node and
    // commit while a reader still holds the old pointer. (The eager tables
    // protect lifetime as a side effect of encounter-time ownership — the
    // freeing writer self-aborts while any reader holds the slot.)
    const FaultGuard fault(stm::detail::test_faults().eager_reclaim);
    bool caught_lifetime = false;
    for (const BackendPair& pair :
         {BackendPair{"tl2", "", false}, BackendPair{"table", "tagless", true},
          BackendPair{"table", "tagged", true}}) {
        HarnessConfig cfg = dyn_config();
        pair.apply(cfg);
        const auto result =
            explore(ProgramSubject(cfg), sched_spec("sched=random"), 150, 41);
        for (const Violation& v : result.violations) {
            EXPECT_NE(v.repro.find("--mode=dyn"), std::string::npos);
            caught_lifetime |=
                v.message.find("lifetime oracle") != std::string::npos;
        }
    }
    EXPECT_TRUE(caught_lifetime)
        << "reclamation that ignores epoch pins must trip the lifetime "
           "oracle somewhere in the sweep";
}

TEST(SchedDyn, CacheOffSweepPassesTheLifetimeOracle) {
    // The cache-off half of the differential axis the CI fuzz batches
    // sweep: cache_blocks=0 restores the per-commit retire/poll cadence, so
    // the oracle exercises the retire pipeline without magazines in play.
    for (const BackendPair& pair :
         {BackendPair{"tl2", "", false},
          BackendPair{"table", "tagless", false},
          BackendPair{"table", "tagged", true}}) {
        HarnessConfig cfg = dyn_config();
        pair.apply(cfg);
        cfg.cache_blocks = 0;
        EXPECT_NE(repro_flags(cfg).find("--cache_blocks=0"),
                  std::string::npos);
        const auto result =
            explore(ProgramSubject(cfg), sched_spec("sched=random"), 60, 31);
        EXPECT_EQ(result.runs, 60u);
        EXPECT_TRUE(result.violations.empty())
            << pair.label() << ": " << result.violations.front().message;
    }
}

TEST(SchedDyn, LeakyCacheIsCaughtAsLifetimeViolation) {
    // Break the free-block cache on purpose: leaky_cache short-circuits a
    // committed free straight into the context's magazine, skipping epoch
    // retirement and ignoring the observer's veto — exactly what a buggy
    // recycling path would do. The next tx_alloc then hands out a block the
    // lifetime oracle impounded, which must surface as a reported
    // violation with a dyn repro line (not silent reuse).
    const FaultGuard fault(stm::detail::test_faults().leaky_cache);
    HarnessConfig cfg = dyn_config();
    cfg.backend = "tl2";
    const auto result =
        explore(ProgramSubject(cfg), sched_spec("sched=random"), 150, 47);
    bool caught_lifetime = false;
    for (const Violation& v : result.violations) {
        EXPECT_NE(v.repro.find("--mode=dyn"), std::string::npos);
        caught_lifetime |=
            v.message.find("lifetime oracle") != std::string::npos;
    }
    EXPECT_TRUE(caught_lifetime)
        << "a cache that recycles unretired blocks must trip the lifetime "
           "oracle";
}

TEST(SchedDyn, LeakyCacheScheduleMinimizesAndStillFails) {
    const FaultGuard fault(stm::detail::test_faults().leaky_cache);
    HarnessConfig cfg = dyn_config();
    cfg.backend = "tl2";
    const auto programs = generate_programs(cfg);
    const auto result =
        explore(ProgramSubject(cfg), sched_spec("sched=random"), 150, 47);
    ASSERT_FALSE(result.violations.empty());

    const std::string& original = result.violations.front().schedule;
    const std::string shrunk =
        minimize_schedule(ProgramSubject(cfg), original);
    EXPECT_LE(shrunk.size(), original.size());

    config::Config rc;
    rc.set("schedule", shrunk);
    const auto replay = make_schedule(rc, 0);
    const RunResult run = run_schedule(cfg, programs, *replay);
    EXPECT_TRUE(check_serializable(cfg, programs, run).has_value())
        << "minimized leaky-cache schedule must still fail";
}

// ---------------------------------------------------------------------------
// PCT coverage of the classic 2-thread write-skew interleaving
// ---------------------------------------------------------------------------

TEST(SchedPct, CoversWriteSkewWithinBoundedSchedules) {
    // T0: r0 r1 w0; T1: r0 r1 w1 — the write-skew shape. The interesting
    // interleaving overlaps both read phases before either write; a correct
    // backend must then abort (2PL: the write acquire hits the other's read
    // ownership; TL2: commit-time validation fails) and retry. PCT with one
    // priority change must hit it within a small, fixed seed budget.
    HarnessConfig cfg = contended_config();
    cfg.threads = 2;
    cfg.txs_per_thread = 1;
    cfg.ops_per_tx = 3;
    cfg.slots = 2;
    std::vector<std::vector<TxProgram>> programs(2);
    programs[0] = {TxProgram{{{0, false}, {1, false}, {0, true}}}};
    programs[1] = {TxProgram{{{0, false}, {1, false}, {1, true}}}};

    for (const std::string backend : {"table", "tl2"}) {
        cfg.backend = backend;
        bool covered = false;
        for (std::uint64_t seed = 1; seed <= 64 && !covered; ++seed) {
            const auto schedule =
                make_schedule(sched_spec("sched=pct depth=3 steps=16"), seed);
            const RunResult run = run_schedule(cfg, programs, *schedule);
            EXPECT_EQ(check_serializable(cfg, programs, run), std::nullopt)
                << backend << " seed " << seed;
            covered = run.stats.aborts >= 1;
        }
        EXPECT_TRUE(covered)
            << backend
            << ": PCT never produced the conflicting write-skew overlap";
    }
}

// ---------------------------------------------------------------------------
// Differential oracle
// ---------------------------------------------------------------------------

TEST(SchedDifferential, BackendsAgreeAndConflictDirectionHolds) {
    HarnessConfig cfg;
    cfg.commutative = true;
    cfg.entries = 4;  // aliasing: tagless must report false conflicts
    cfg.slots = 8;
    cfg.threads = 3;
    cfg.txs_per_thread = 3;
    cfg.ops_per_tx = 4;
    cfg.write_fraction = 0.7;
    cfg.workload_seed = 21;
    const auto programs = generate_programs(cfg);
    const auto pairs = default_backend_pairs();

    std::uint64_t tagless_false = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::vector<RunResult> runs;
        const auto verdict = run_differential(
            cfg, programs, pairs, sched_spec("sched=random"), seed, &runs);
        EXPECT_EQ(verdict, std::nullopt) << *verdict;
        ASSERT_EQ(runs.size(), pairs.size());
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            if (pairs[i].table == "tagged") {
                EXPECT_EQ(runs[i].stats.false_conflicts, 0u);
            }
            if (pairs[i].table == "tagless") {
                tagless_false += runs[i].stats.false_conflicts;
            }
        }
    }
    EXPECT_GT(tagless_false, 0u)
        << "aliased slots never produced a tagless false conflict";
}

TEST(SchedDifferential, RequiresCommutativeWorkload) {
    HarnessConfig cfg = contended_config();  // mode=acc
    const auto programs = generate_programs(cfg);
    EXPECT_THROW((void)run_differential(cfg, programs,
                                        default_backend_pairs(),
                                        sched_spec("sched=random"), 1),
                 std::invalid_argument);
}

}  // namespace
}  // namespace tmb::sched
