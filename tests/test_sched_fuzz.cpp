// Tests for coverage-guided schedule fuzzing (src/sched/coverage.hpp,
// src/sched/corpus.hpp) and the kill-point oracle: signature determinism,
// mutation-engine validity, ddmin shrinking, corpus selection and
// multi-process claim/merge, guided-vs-random/PCT coverage comparisons,
// fault re-finding budgets, and prefix-consistency under kill points.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "sched/corpus.hpp"
#include "sched/coverage.hpp"
#include "sched/harness.hpp"
#include "sched/schedule.hpp"
#include "stm/sched_hook.hpp"
#include "svc/sched_service.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace tmb::sched {
namespace {

struct FaultGuard {
    explicit FaultGuard(std::atomic<bool>& flag) : flag_(flag) {
        flag_.store(true, std::memory_order_relaxed);
    }
    ~FaultGuard() { flag_.store(false, std::memory_order_relaxed); }
    std::atomic<bool>& flag_;
};

RunResult replay_run(const HarnessConfig& cfg,
                     const std::vector<std::vector<TxProgram>>& programs,
                     const std::string& picks) {
    config::Config rc;
    rc.set("sched", "replay");
    rc.set("schedule", picks);
    const auto sch = make_schedule(rc, 0);
    return run_schedule(cfg, programs, *sch);
}

/// Distinct signatures reached by `count` runs of the named schedule
/// policy. Per-run seeds use the same derivation as fuzz_explore's init
/// phase, so "random at equal budget" is exactly the stream guided started
/// from.
std::uint64_t distinct_signatures(const HarnessConfig& cfg,
                                  std::string_view spec, std::uint64_t count,
                                  std::uint64_t seed) {
    const auto programs = generate_programs(cfg);
    const auto sc = config::Config::from_string(spec);
    CoverageMap map;
    for (std::uint64_t n = 0; n < count; ++n) {
        const auto sch = make_schedule(sc, util::mix64(seed ^ (n + 1)));
        (void)map.insert(run_schedule(cfg, programs, *sch).signature);
    }
    return map.size();
}

std::uint64_t guided_distinct_signatures(const HarnessConfig& cfg,
                                         std::uint64_t budget,
                                         std::uint64_t seed) {
    Corpus corpus;
    FuzzOptions opts;
    opts.budget = budget;
    opts.seed = seed;
    const auto result = fuzz_explore(ProgramSubject(cfg), opts, corpus);
    EXPECT_TRUE(result.violations.empty())
        << result.violations.front().message;
    return corpus.distinct_signatures();
}

/// Runs (1-based) until the first oracle violation under pure random
/// schedules; cap+1 when none found within `cap`.
std::uint64_t random_runs_to_violation(const HarnessConfig& cfg,
                                       std::uint64_t cap,
                                       std::uint64_t seed) {
    const auto programs = generate_programs(cfg);
    const auto sc = config::Config::from_string("sched=random");
    for (std::uint64_t n = 0; n < cap; ++n) {
        const auto sch = make_schedule(sc, util::mix64(seed ^ (n + 1)));
        const auto run = run_schedule(cfg, programs, *sch);
        if (check_serializable(cfg, programs, run)) return n + 1;
    }
    return cap + 1;
}

/// Same, for a guided campaign (stop_at_first reports the run count).
std::uint64_t guided_runs_to_violation(const HarnessConfig& cfg,
                                       std::uint64_t cap,
                                       std::uint64_t seed) {
    Corpus corpus;
    FuzzOptions opts;
    opts.budget = cap;
    opts.seed = seed;
    opts.init = 64;
    opts.stop_at_first = true;
    const auto result = fuzz_explore(ProgramSubject(cfg), opts, corpus);
    return result.violations.empty() ? cap + 1 : result.runs;
}

/// Contended config shared with test_sched.cpp.
HarnessConfig contended_config() {
    HarnessConfig cfg;
    cfg.backend = "table";
    cfg.table = "tagless";
    cfg.entries = 16;
    cfg.threads = 3;
    cfg.txs_per_thread = 3;
    cfg.ops_per_tx = 3;
    cfg.slots = 2;
    cfg.write_fraction = 1.0;
    cfg.read_only_fraction = 0.0;
    cfg.workload_seed = 9;
    return cfg;
}

HarnessConfig dyn_config() {
    HarnessConfig cfg = contended_config();
    cfg.dynamic = true;
    cfg.commutative = false;
    cfg.slots = 3;
    cfg.write_fraction = 0.8;
    cfg.read_only_fraction = 0.1;
    return cfg;
}

/// A sparse dyn workload where the reclamation fault manifests only under
/// rare interleavings: random needs >100 schedules, the coverage gradient
/// (abort and reclaim edges are visible to the signature) leads guided
/// there within a few dozen.
HarnessConfig sparse_dyn_config() {
    HarnessConfig cfg;
    cfg.backend = "tl2";
    cfg.entries = 64;
    cfg.threads = 4;
    cfg.txs_per_thread = 4;
    cfg.ops_per_tx = 2;
    cfg.slots = 32;
    cfg.write_fraction = 0.3;
    cfg.read_only_fraction = 0.5;
    cfg.dynamic = true;
    cfg.workload_seed = 49;
    return cfg;
}

/// Default-shape workload used by the coverage comparisons.
HarnessConfig default_workload(const char* backend, const char* table,
                               bool lazy, bool dynamic) {
    HarnessConfig cfg;
    cfg.backend = backend;
    if (table && *table) cfg.table = table;
    cfg.commit_time_locks = lazy;
    cfg.entries = 16;
    cfg.threads = 3;
    cfg.txs_per_thread = 3;
    cfg.ops_per_tx = 4;
    cfg.slots = 6;
    cfg.write_fraction = 0.6;
    cfg.read_only_fraction = 0.25;
    cfg.workload_seed = 1;
    cfg.dynamic = dynamic;
    return cfg;
}

// ---------------------------------------------------------------------------
// Coverage signatures
// ---------------------------------------------------------------------------

TEST(Coverage, CountClassesAreAflCoarse) {
    EXPECT_EQ(coverage_count_class(0), 0u);
    EXPECT_EQ(coverage_count_class(1), 1u);
    EXPECT_EQ(coverage_count_class(2), 2u);
    EXPECT_EQ(coverage_count_class(3), 3u);
    EXPECT_EQ(coverage_count_class(4), 4u);
    EXPECT_EQ(coverage_count_class(7), 4u);
    EXPECT_EQ(coverage_count_class(8), 5u);
    EXPECT_EQ(coverage_count_class(15), 5u);
    EXPECT_EQ(coverage_count_class(31), 6u);
    EXPECT_EQ(coverage_count_class(127), 7u);
    EXPECT_EQ(coverage_count_class(1u << 30), 8u);

    EXPECT_EQ(coverage_quantize(0), 0u);
    EXPECT_EQ(coverage_quantize(1), 1u);
    EXPECT_EQ(coverage_quantize(2), 2u);
    EXPECT_EQ(coverage_quantize(3), 2u);
    EXPECT_EQ(coverage_quantize(1024), 11u);
}

TEST(Coverage, IdenticalRunsCarryIdenticalSignatures) {
    for (const BackendPair& pair : default_backend_pairs()) {
        HarnessConfig cfg = contended_config();
        pair.apply(cfg);
        const auto programs = generate_programs(cfg);

        const auto sc = config::Config::from_string("sched=random");
        const auto sch = make_schedule(sc, 77);
        const RunResult original = run_schedule(cfg, programs, *sch);
        ASSERT_NE(original.signature, 0u) << pair.label();

        const RunResult again = replay_run(cfg, programs, original.schedule);
        EXPECT_EQ(again.signature, original.signature)
            << pair.label() << ": replay must never report new coverage";
    }
}

TEST(Coverage, DifferentInterleavingsReachManySignatures) {
    const HarnessConfig cfg = contended_config();
    // 50 random runs on a contended workload must spread over many
    // signatures — a constant signature would blind the fuzzer.
    EXPECT_GE(distinct_signatures(cfg, "sched=random", 50, 5), 10u);
}

// ---------------------------------------------------------------------------
// Mutation engine
// ---------------------------------------------------------------------------

TEST(FuzzMutators, EveryMutatorEmitsValidBase36) {
    util::Xoshiro256 rng(3);
    const std::string base = "0120210012012210";
    const std::string partner = "2101201210";
    for (std::uint32_t m = 0; m < kMutatorCount; ++m) {
        for (int rep = 0; rep < 200; ++rep) {
            const auto out = mutate_schedule(base, partner, 3,
                                             static_cast<Mutator>(m), rng);
            ASSERT_TRUE(schedule_valid(out, 3))
                << to_string(static_cast<Mutator>(m)) << " emitted \"" << out
                << '"';
        }
    }
    // Degenerate parents never produce empty or invalid output.
    for (int rep = 0; rep < 100; ++rep) {
        EXPECT_TRUE(schedule_valid(mutate_schedule("", "", 2, rng), 2));
        EXPECT_TRUE(schedule_valid(
            mutate_schedule(base, "", 3, Mutator::kSplice, rng), 3));
        EXPECT_TRUE(schedule_valid(
            mutate_schedule(base, "", 3, Mutator::kCrossover, rng), 3));
    }
    EXPECT_THROW((void)mutate_schedule(base, partner, 0, rng),
                 std::invalid_argument);
    EXPECT_FALSE(schedule_valid("", 3));
    EXPECT_FALSE(schedule_valid("012A", 3));  // uppercase is invalid
    EXPECT_FALSE(schedule_valid("0123", 3));  // pick names thread >= count
}

TEST(FuzzMutators, MutationStreamIsSeedDeterministic) {
    const std::string base = "012021001201";
    const std::string partner = "21012012";
    std::vector<std::string> first;
    std::vector<std::string> second;
    for (auto* out : {&first, &second}) {
        util::Xoshiro256 rng(99);
        for (int rep = 0; rep < 64; ++rep) {
            out->push_back(mutate_schedule(base, partner, 3, rng));
        }
    }
    EXPECT_EQ(first, second);
}

TEST(FuzzMutators, MutantReplayIsDeterministic) {
    const HarnessConfig cfg = contended_config();
    const auto programs = generate_programs(cfg);
    util::Xoshiro256 rng(17);
    const auto mutant = mutate_schedule("0120210012", "2101201", 3, rng);
    const RunResult a = replay_run(cfg, programs, mutant);
    const RunResult b = replay_run(cfg, programs, mutant);
    EXPECT_EQ(a.schedule, b.schedule);
    EXPECT_EQ(a.state_hash, b.state_hash);
    EXPECT_EQ(a.signature, b.signature);
    EXPECT_EQ(a.commit_log.size(), b.commit_log.size());
}

TEST(FuzzMutators, ShrinkPreservesSignatureAndHonorsProbeBudget) {
    // Truncated candidates can livelock (perpetual mutual abort under the
    // round-robin tail); a small step cap keeps each such probe cheap, the
    // same defense fuzz_explore applies via FuzzOptions::step_limit.
    HarnessConfig cfg = contended_config();
    cfg.step_limit = 1u << 12;
    const auto programs = generate_programs(cfg);
    const auto sc = config::Config::from_string("sched=random");
    const auto sch = make_schedule(sc, 23);
    const RunResult run = run_schedule(cfg, programs, *sch);
    ASSERT_FALSE(run.schedule.empty());

    std::uint64_t probes = 0;
    const auto same_signature = [&](const std::string& cand) {
        ++probes;
        return replay_run(cfg, programs, cand).signature == run.signature;
    };
    const std::string shrunk = shrink_schedule(run.schedule, same_signature);
    EXPECT_LE(shrunk.size(), run.schedule.size());
    EXPECT_EQ(replay_run(cfg, programs, shrunk).signature, run.signature)
        << "ddmin must preserve the behavior signature";

    probes = 0;
    (void)shrink_schedule(run.schedule, same_signature, 10);
    EXPECT_LE(probes, 10u);

    // A keep() that rejects the input returns it unchanged.
    const auto never = [](const std::string&) { return false; };
    EXPECT_EQ(shrink_schedule("0120", never), "0120");
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

TEST(Corpus, ObserveDeduplicatesAndSelectionIsDeterministic) {
    Corpus corpus;
    EXPECT_TRUE(corpus.observe(10));
    EXPECT_FALSE(corpus.observe(10));
    corpus.add("010", 10);
    EXPECT_TRUE(corpus.observe(20));
    corpus.add("101", 20);
    EXPECT_EQ(corpus.size(), 2u);
    EXPECT_EQ(corpus.distinct_signatures(), 2u);

    std::vector<std::size_t> first;
    std::vector<std::size_t> second;
    for (auto* out : {&first, &second}) {
        util::Xoshiro256 rng(5);
        for (int i = 0; i < 32; ++i) out->push_back(corpus.select(rng));
    }
    EXPECT_EQ(first, second);

    // Yield weighting: an entry that produced new coverage is selected
    // more often than a barren one.
    corpus.entry(0).yield = 50;
    util::Xoshiro256 rng(5);
    int hits0 = 0;
    for (int i = 0; i < 400; ++i) hits0 += corpus.select(rng) == 0 ? 1 : 0;
    EXPECT_GT(hits0, 300);
}

TEST(Corpus, DirectoryClaimAndMergeRoundTrip) {
    std::string dir = ::testing::TempDir() + "corpus_claim_test";
    std::remove((dir + "/sig-000000000000002a.sched").c_str());
    std::remove((dir + "/sig-0000000000000007.sched").c_str());

    Corpus a(dir);
    ASSERT_TRUE(a.observe(42));
    a.add("0120", 42);
    EXPECT_EQ(a.sync(), 0u) << "nothing to import on first publish";

    Corpus b(dir);
    EXPECT_EQ(b.sync(), 1u) << "b must import a's published entry";
    EXPECT_TRUE(b.seen(42));
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b.entry(0).schedule, "0120");

    // b publishes a second signature; a picks it up.
    ASSERT_TRUE(b.observe(7));
    b.add("1021", 7);
    (void)b.sync();
    EXPECT_EQ(a.sync(), 1u);
    EXPECT_TRUE(a.seen(7));

    // Claims are exclusive: re-publishing signature 42 from a third corpus
    // must not clobber a's file.
    Corpus c(dir);
    (void)c.sync();
    EXPECT_EQ(c.size(), 2u);
}

TEST(Fuzz, SingleJobIsBitReproducible) {
    const HarnessConfig cfg = default_workload("table", "tagless", true, false);
    FuzzOptions opts;
    opts.budget = 300;
    opts.seed = 21;

    std::vector<std::string> schedules[2];
    std::vector<std::uint64_t> signatures[2];
    FuzzResult results[2];
    for (int i = 0; i < 2; ++i) {
        Corpus corpus;
        results[i] = fuzz_explore(ProgramSubject(cfg), opts, corpus);
        for (std::size_t e = 0; e < corpus.size(); ++e) {
            schedules[i].push_back(corpus.entry(e).schedule);
            signatures[i].push_back(corpus.entry(e).signature);
        }
    }
    EXPECT_EQ(results[0].runs, results[1].runs);
    EXPECT_EQ(results[0].new_coverage_mutants, results[1].new_coverage_mutants);
    EXPECT_EQ(results[0].violations.size(), results[1].violations.size());
    EXPECT_EQ(schedules[0], schedules[1])
        << "a --jobs=1 fuzz campaign must be a pure function of --seed";
    EXPECT_EQ(signatures[0], signatures[1]);
}

TEST(Fuzz, ReachesAdaptiveDecisionSites) {
    // Reachability, not luck: under policy=cycle with a 2-commit epoch the
    // rotation visits engine swaps AND table resizes within a run, and the
    // campaign's sites_seen union must prove the fuzzer parked threads at
    // both decision points. A vocabulary regression (site dropped, wrong
    // site id at the swap) fails this even while every oracle stays green.
    HarnessConfig cfg = contended_config();
    cfg.backend = "adaptive";
    cfg.policy = "cycle";
    cfg.epoch = 2;
    cfg.max_entries = 64;
    Corpus corpus;
    FuzzOptions opts;
    opts.budget = 120;
    opts.seed = 17;
    const auto result = fuzz_explore(ProgramSubject(cfg), opts, corpus);
    EXPECT_TRUE(result.violations.empty())
        << result.violations.front().message;
    using stm::detail::YieldSite;
    const auto bit = [](YieldSite s) {
        return std::uint32_t{1} << static_cast<std::uint32_t>(s);
    };
    EXPECT_TRUE(result.sites_seen & bit(YieldSite::kAdaptEngineSwitch))
        << "no run yielded at an engine-switch decision";
    EXPECT_TRUE(result.sites_seen & bit(YieldSite::kAdaptResize))
        << "no run yielded at a table-resize decision";
    EXPECT_TRUE(result.sites_seen & bit(YieldSite::kAdaptSwap));
}

// ---------------------------------------------------------------------------
// Guided vs random vs PCT
// ---------------------------------------------------------------------------

TEST(FuzzGuided, BeatsRandomAndPctOnLazyTablePairs) {
    // Two backend pairs where mutation exploits the commit-lock window
    // structure: guided reaches strictly more distinct behavior signatures
    // than both random and PCT at the same run budget. Seeds and budgets
    // are fixed and these static workloads replay bit-identically across
    // processes, so this is a regression test, not a flaky benchmark.
    // (dyn workloads show a larger guided advantage — ~1.5x on
    // table/tagless/lazy — but allocator addresses make their exact
    // signature counts vary per process, so they are not asserted here.)
    const std::uint64_t budget = 1000;
    const std::uint64_t seed = 7;
    struct Case {
        const char* name;
        HarnessConfig cfg;
    };
    const Case cases[] = {
        {"table/tagless/lazy",
         default_workload("table", "tagless", true, false)},
        {"table/tagged/lazy",
         default_workload("table", "tagged", true, false)},
    };
    for (const Case& c : cases) {
        const auto guided = guided_distinct_signatures(c.cfg, budget, seed);
        const auto random =
            distinct_signatures(c.cfg, "sched=random", budget, seed);
        const auto pct = distinct_signatures(
            c.cfg, "sched=pct depth=3 steps=256", budget, seed);
        EXPECT_GT(guided, random) << c.name;
        EXPECT_GT(guided, pct) << c.name;
    }
}

// ---------------------------------------------------------------------------
// Fault re-finding budgets
// ---------------------------------------------------------------------------

TEST(FuzzGuided, FindsRareReclamationFaultWhereRandomCannot) {
    // eager_reclaim on the sparse dyn workload manifests only under rare
    // interleavings (a doomed reader must span a writer's free and the
    // reclaim poll). Abort/reclaim edges give the signature a real
    // gradient: guided lands within ~25-65 runs where random needs >100.
    const FaultGuard fault(stm::detail::test_faults().eager_reclaim);
    const HarnessConfig cfg = sparse_dyn_config();
    const std::uint64_t budget = 100;
    for (const std::uint64_t seed : {11ull, 22ull}) {
        EXPECT_EQ(random_runs_to_violation(cfg, budget, seed), budget + 1)
            << "random found the fault within " << budget
            << " runs — workload no longer rare, retune the test";
        EXPECT_LE(guided_runs_to_violation(cfg, budget, seed), budget)
            << "guided fuzzing must find the reclamation fault within "
            << budget << " runs";
    }
}

TEST(FuzzGuided, RefindsAllFourFaultsWithinBudgetAndNeverBehindRandom) {
    // Every seeded fault must fall to guided fuzzing, using no more
    // schedules than random needs (guided's init phase IS the random
    // stream, so easy faults tie; the rare reclamation fault is strictly
    // faster, which makes the aggregate strictly smaller). leaky_cache
    // manifests schedule-independently (a leaked block resurfaces at the
    // same alloc in every interleaving), so both find it on run 1 —
    // included for completeness of the four-fault sweep.
    auto& faults = stm::detail::test_faults();
    struct Case {
        const char* name;
        std::atomic<bool>* flag;
        HarnessConfig cfg;
    };
    HarnessConfig tl2_contended = contended_config();
    tl2_contended.backend = "tl2";
    tl2_contended.write_fraction = 0.6;
    HarnessConfig tl2_dyn = dyn_config();
    tl2_dyn.backend = "tl2";
    const Case cases[] = {
        {"ignore_acquire_conflicts", &faults.ignore_acquire_conflicts,
         contended_config()},
        {"skip_tl2_validation", &faults.skip_tl2_validation, tl2_contended},
        {"eager_reclaim", &faults.eager_reclaim, sparse_dyn_config()},
        {"leaky_cache", &faults.leaky_cache, tl2_dyn},
    };
    const std::uint64_t cap = 2000;
    std::uint64_t guided_total = 0;
    std::uint64_t random_total = 0;
    for (const Case& c : cases) {
        const FaultGuard guard(*c.flag);
        const auto guided = guided_runs_to_violation(c.cfg, cap, 11);
        const auto random = random_runs_to_violation(c.cfg, cap, 11);
        EXPECT_LE(guided, cap) << c.name << ": guided must find the fault";
        EXPECT_LE(guided, random) << c.name;
        guided_total += guided;
        random_total += random;
    }
    EXPECT_LT(guided_total, random_total)
        << "across the four faults guided must need strictly fewer "
           "schedules than random";
}

// ---------------------------------------------------------------------------
// Kill-point oracle
// ---------------------------------------------------------------------------

TEST(KillPoint, PrefixConsistentAtEveryStepOnCleanBackends) {
    // tl2 + eager/lazy tables: cancel a recorded run at every step; the
    // commit history up to the kill must replay serially onto the observed
    // memory (no torn commits, no lost committed effects).
    for (const BackendPair& pair :
         {BackendPair{"tl2", "", false}, BackendPair{"table", "tagless", false},
          BackendPair{"table", "tagless", true}}) {
        HarnessConfig cfg = contended_config();
        pair.apply(cfg);
        const auto programs = generate_programs(cfg);

        const auto sc = config::Config::from_string("sched=random");
        const auto sch = make_schedule(sc, 31);
        const RunResult run = run_schedule(cfg, programs, *sch);
        ASSERT_FALSE(run.cancelled);

        const ProgramSubject subject(cfg);
        for (std::uint64_t kill = 1; kill <= run.steps; ++kill) {
            const auto error = replay(subject, run.schedule, kill).error;
            ASSERT_FALSE(error.has_value())
                << pair.label() << " kill at step " << kill << ": " << *error;
        }
    }
}

TEST(KillPoint, KilledRunsReportPartialPrefixes) {
    // Sanity that the oracle is not vacuous: killing mid-run really does
    // cancel (fewer commits than the full run), and a kill past the end
    // degenerates to the full serializability check.
    const HarnessConfig cfg = contended_config();
    const auto programs = generate_programs(cfg);
    const auto sc = config::Config::from_string("sched=random");
    const auto sch = make_schedule(sc, 31);
    const RunResult full = run_schedule(cfg, programs, *sch);
    ASSERT_FALSE(full.cancelled);

    HarnessConfig killed = cfg;
    killed.step_limit = full.steps / 2;
    const RunResult partial = replay_run(killed, programs, full.schedule);
    EXPECT_TRUE(partial.cancelled);
    EXPECT_LT(partial.commit_log.size(), full.commit_log.size());
    EXPECT_FALSE(
        check_prefix_consistent(killed, programs, partial).has_value());

    EXPECT_FALSE(replay(ProgramSubject(cfg), full.schedule, full.steps + 100)
                     .error.has_value());
}

TEST(KillPoint, CatchesFaultyBackendAtSomeKillPoint) {
    const FaultGuard fault(
        stm::detail::test_faults().ignore_acquire_conflicts);
    const HarnessConfig cfg = contended_config();
    const auto programs = generate_programs(cfg);
    const auto result = explore(ProgramSubject(cfg),
                                config::Config::from_string("sched=random"),
                                60, 13);
    ASSERT_FALSE(result.violations.empty());
    const std::string& schedule = result.violations.front().schedule;

    const RunResult run = replay_run(cfg, programs, schedule);
    const ProgramSubject subject(cfg);
    bool caught = false;
    for (std::uint64_t kill = 1; kill <= run.steps && !caught; ++kill) {
        caught = replay(subject, schedule, kill).error.has_value();
    }
    EXPECT_TRUE(caught)
        << "a serializability violation must survive into some killed "
           "prefix of its schedule";
}

// ---------------------------------------------------------------------------
// Repro lines of step-capped fuzz runs
// ---------------------------------------------------------------------------

/// The subject, schedule and kill step a printed repro line names.
struct ParsedRepro {
    std::unique_ptr<Subject> subject;
    std::string schedule;
    std::uint64_t kill_step = 0;
};

ParsedRepro parse_repro(const std::string& line) {
    const std::string tool = "sched_explorer ";
    EXPECT_EQ(line.rfind(tool, 0), 0u) << line;
    const auto cli = config::Config::from_string(line.substr(tool.size()));
    ParsedRepro out;
    out.schedule = cli.get("schedule", "");
    out.kill_step = cli.get_u64("kill_step", 0);
    out.subject = svc::make_subject(cli);
    EXPECT_NO_THROW(config::reject_unknown(cli)) << line;
    return out;
}

TEST(FuzzRepro, CappedRunViolationsReplayVerbatim) {
    // A violation found on a run cut at the fuzz step cap must print a
    // repro line that replays the same cut (--kill_step=<steps>) under the
    // same prefix oracle: parsing it back and replaying it through the core
    // gives the same message at the same step count. Both subjects, with
    // conflicts ignored so the oracles fire; the service runs two
    // dispatchers on two slots, since a single dispatcher has no
    // concurrency for the fault to break.
    const FaultGuard fault(
        stm::detail::test_faults().ignore_acquire_conflicts);
    svc::SvcHarnessConfig service;
    service.svc.dispatchers = 2;
    service.svc.slots = 2;
    struct Case {
        const char* name;
        std::unique_ptr<Subject> subject;
        std::uint64_t step_cap;
    };
    Case cases[] = {
        {"programs", std::make_unique<ProgramSubject>(contended_config()), 16},
        {"service", std::make_unique<svc::ServiceSubject>(service), 40},
    };
    for (const Case& c : cases) {
        Corpus corpus;
        FuzzOptions opts;
        opts.budget = 300;
        opts.seed = 5;
        opts.step_limit = c.step_cap;
        const auto result = fuzz_explore(*c.subject, opts, corpus);
        std::size_t capped = 0;
        for (const Violation& v : result.violations) {
            const ParsedRepro r = parse_repro(v.repro);
            ASSERT_EQ(r.schedule, v.schedule) << v.repro;
            const Outcome again = replay(*r.subject, r.schedule, r.kill_step);
            ASSERT_TRUE(again.error.has_value()) << v.message;
            EXPECT_NE(v.message.find(*again.error + "\n  repro: " + v.repro),
                      std::string::npos)
                << c.name << " replayed: " << *again.error
                << "\n  fuzzed: " << v.message;
            EXPECT_EQ(again.run.steps,
                      r.kill_step != 0 ? r.kill_step : v.schedule.size())
                << v.repro;
            if (r.kill_step != 0) ++capped;
        }
        EXPECT_GT(capped, 0u)
            << c.name << ": no violation came from a run cut at the step cap";
    }
}

}  // namespace
}  // namespace tmb::sched
