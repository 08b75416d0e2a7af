// stm_backend_ablation — google-benchmark comparison of the STM backends on
// live multithreaded workloads (ablation A1 in DESIGN.md).
//
// The paper's argument made operational: with disjoint per-thread data, the
// tagless backend's throughput degrades as the table shrinks (false
// conflicts), while the tagged backend holds steady. TL2 is the classic
// word-STM baseline.
//
// Backends are constructed *by name* (stm::Stm::create), and the
// contended-workload benchmarks are registered dynamically for every
// ownership-table organization the STM engine can mount.
//
// Every row runs Stm::atomically, which borrows a pooled context per call
// and allocates nothing in the steady state, so the rows compare the
// organizations' metadata paths rather than context construction.
#include <benchmark/benchmark.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "config/config.hpp"
#include "ownership/any_table.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"

namespace {

using tmb::stm::Stm;
using tmb::stm::Transaction;
using tmb::stm::TVar;

/// Builds a runtime from an inline spec, e.g. "table=tagless entries=4096".
std::unique_ptr<Stm> make_tm(const std::string& spec) {
    return Stm::create(tmb::config::Config::from_string(spec));
}

/// One cache block per variable: threads then touch fully disjoint blocks,
/// so aliasing is the only possible source of conflicts.
struct alignas(64) PaddedVar {
    TVar<long> value;
};

/// Each of 4 threads increments counters in its own disjoint region —
/// aliasing is the only possible source of conflicts. `spec` is a backend
/// spec (works for table organizations and for tl2 alike); benchmark arg 0,
/// when nonzero, is the ownership-table entry count.
void run_disjoint_workload(benchmark::State& state, const std::string& spec) {
    constexpr int kThreads = 4;
    constexpr int kVarsPerThread = 64;
    constexpr int kTxPerThread = 400;
    std::string full_spec = spec + " contention=yield";
    if (state.range(0) > 0) {
        full_spec += " entries=" + std::to_string(state.range(0));
    }

    for (auto _ : state) {
        const auto tm_owner = make_tm(full_spec);
        Stm& tm = *tm_owner;
        std::vector<PaddedVar> vars(kThreads * kVarsPerThread);
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                tmb::util::Xoshiro256 rng{static_cast<std::uint64_t>(t) + 99};
                for (int i = 0; i < kTxPerThread; ++i) {
                    const std::size_t base =
                        static_cast<std::size_t>(t) * kVarsPerThread;
                    const auto a = base + rng.below(kVarsPerThread);
                    const auto b = base + rng.below(kVarsPerThread);
                    tm.atomically([&](Transaction& tx) {
                        vars[a].value.write(tx, vars[a].value.read(tx) + 1);
                        // Yield mid-transaction so transactions overlap even
                        // on a single hardware thread (otherwise the OS
                        // serializes these short bodies and no conflicts can
                        // ever materialize).
                        std::this_thread::yield();
                        vars[b].value.write(tx, vars[b].value.read(tx) - 1);
                    });
                }
            });
        }
        for (auto& th : threads) th.join();

        const auto stats = tm.stats();
        state.counters["aborts"] = static_cast<double>(stats.aborts);
        state.counters["false_conflicts"] =
            static_cast<double>(stats.false_conflicts);
        state.counters["true_conflicts"] =
            static_cast<double>(stats.true_conflicts);
        state.counters["abort_rate"] = stats.abort_rate();
        state.counters["mean_attempts"] = stats.mean_attempts();
        state.counters["clock_cas_failures"] =
            static_cast<double>(stats.clock_cas_failures);
        state.counters["policy_switches"] =
            static_cast<double>(stats.policy_switches);
        state.counters["table_resizes"] =
            static_cast<double>(stats.table_resizes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kThreads * kTxPerThread);
}

/// TL2 on the same workload (no ownership table; versioned locks).
void BM_Tl2_DisjointThreads(benchmark::State& state) {
    run_disjoint_workload(state, "backend=tl2");
}

BENCHMARK(BM_Tl2_DisjointThreads)->ArgName("entries")->Arg(0)->UseRealTime();

/// The adaptive runtime on the same workload, starting from the small
/// tagless table the entries arg names: the auto policy reads the false-
/// conflict rate and grows (or re-tags) the table online, so the shrinking-
/// table degradation the static tagless rows show should flatten out here.
void BM_Adaptive_DisjointThreads(benchmark::State& state) {
    run_disjoint_workload(state,
                          "backend=adaptive engine=table table=tagless "
                          "policy=auto epoch=128 max_entries=65536");
}

BENCHMARK(BM_Adaptive_DisjointThreads)
    ->ArgName("entries")
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime();

/// Single-thread transaction overhead: the raw cost of the metadata
/// organization with no contention at all. `spec` selects the backend by
/// name; the lazy variants isolate commit-time locking cost.
void run_single_thread(benchmark::State& state, const std::string& spec) {
    const auto tm_owner = make_tm(spec);
    Stm& tm = *tm_owner;
    std::vector<TVar<long>> vars(256);
    tmb::util::Xoshiro256 rng{3};
    for (auto _ : state) {
        const auto a = rng.below(256);
        const auto b = rng.below(256);
        tm.atomically([&](Transaction& tx) {
            vars[a].write(tx, vars[a].read(tx) + 1);
            vars[b].write(tx, vars[b].read(tx) + 1);
        });
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Tagless_SingleThread(benchmark::State& state) {
    run_single_thread(state, "table=tagless entries=64k");
}
void BM_Tagged_SingleThread(benchmark::State& state) {
    run_single_thread(state, "table=tagged entries=64k");
}
void BM_Tl2_SingleThread(benchmark::State& state) {
    run_single_thread(state, "backend=tl2");
}
void BM_TaglessLazy_SingleThread(benchmark::State& state) {
    run_single_thread(state, "table=tagless entries=64k commit_time_locks=1");
}
void BM_TaggedLazy_SingleThread(benchmark::State& state) {
    run_single_thread(state, "table=tagged entries=64k commit_time_locks=1");
}
/// Forwarding cost of the adaptive wrapper with the policy disabled: the
/// delta against BM_Tagless_SingleThread is the per-access price of the
/// epoch layer (one indirection + in-flight bookkeeping).
void BM_AdaptiveOff_SingleThread(benchmark::State& state) {
    run_single_thread(state,
                      "backend=adaptive engine=table table=tagless "
                      "entries=64k policy=off");
}

BENCHMARK(BM_Tagless_SingleThread);
BENCHMARK(BM_Tagged_SingleThread);
BENCHMARK(BM_Tl2_SingleThread);
BENCHMARK(BM_TaglessLazy_SingleThread);
BENCHMARK(BM_TaggedLazy_SingleThread);
BENCHMARK(BM_AdaptiveOff_SingleThread);

}  // namespace

int main(int argc, char** argv) {
    // The contended ablation covers every registered organization the STM
    // engine can mount (external AnyTable registrations are simulator-only:
    // the table backends are compiled against the built-in organizations,
    // so anything stm_config_from cannot map is skipped here).
    for (const std::string& org : tmb::ownership::table_names()) {
        try {
            (void)tmb::stm::stm_config_from(
                tmb::config::Config::from_string("table=" + org));
        } catch (const std::invalid_argument&) {
            continue;
        }
        auto* b = benchmark::RegisterBenchmark(
            ("BM_DisjointThreads/table=" + org).c_str(),
            [org](benchmark::State& state) {
                run_disjoint_workload(state, "table=" + org);
            });
        b->ArgName("entries")->Arg(256)->Arg(4096)->Arg(65536)->UseRealTime();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
