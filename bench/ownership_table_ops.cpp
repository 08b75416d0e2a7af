// ownership_table_ops — google-benchmark microbenchmarks of the two
// ownership-table organizations (ablation A2 in DESIGN.md).
//
// Quantifies §5's claim that tags + chaining cost little in the common case:
// acquire/release throughput of tagless vs tagged tables across load
// factors, and the chain statistics of the tagged design.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "ownership/any_table.hpp"
#include "ownership/atomic_tagless_table.hpp"
#include "ownership/tagged_table.hpp"
#include "util/rng.hpp"

namespace {

using tmb::ownership::AtomicTaglessTable;
using tmb::ownership::Mode;
using tmb::ownership::TableConfig;
using tmb::ownership::TaggedTable;
using tmb::ownership::TxId;

/// Acquire a footprint of `footprint` random blocks then release it,
/// repeatedly — the STM-commit lifecycle at a given table-size ratio. The
/// tagless and tagged rows run an AnyTable resolved by name, so the
/// virtual-dispatch cost is part of what they measure (it is the production
/// configuration: the simulators and tools run tables through the same
/// interface). The atomic_tagless row calls the STM's lock-free tagless
/// table directly.
template <typename Table>
void acquire_release_cycle(benchmark::State& state, Table& table) {
    const auto entries = static_cast<std::uint64_t>(state.range(0));
    const auto footprint = static_cast<std::uint64_t>(state.range(1));
    tmb::util::Xoshiro256 rng{42};
    std::vector<std::uint64_t> blocks(footprint);

    for (auto _ : state) {
        for (auto& b : blocks) {
            // Block space 64x the table → realistic aliasing pressure.
            b = rng.below(entries * 64);
            const bool write = (b & 3) == 0;  // ~alpha = 3 reads per write
            const auto r = write ? table.acquire_write(0, b)
                                 : table.acquire_read(0, b);
            benchmark::DoNotOptimize(r.ok);
        }
        for (const auto b : blocks) table.release(0, b, Mode::kWrite);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(footprint) * 2);
}

TableConfig shape_of(const benchmark::State& state) {
    return {.entries = static_cast<std::uint64_t>(state.range(0))};
}

/// Chain statistics of the tagged table under multi-transaction load: how
/// rare is chaining in practice (§5's "overwhelming majority of entries
/// store 0 or 1 records")?
void BM_TaggedChainProfile(benchmark::State& state) {
    const auto entries = static_cast<std::uint64_t>(state.range(0));
    const auto txns = static_cast<std::uint64_t>(state.range(1));
    const std::uint64_t footprint = 60;  // (1+alpha)*W for W=20, alpha=2

    for (auto _ : state) {
        TaggedTable table(TableConfig{.entries = entries});
        tmb::util::Xoshiro256 rng{7};
        for (TxId tx = 0; tx < txns; ++tx) {
            for (std::uint64_t i = 0; i < footprint; ++i) {
                const std::uint64_t block = rng.below(entries * 64);
                benchmark::DoNotOptimize(
                    (i & 3) ? table.acquire_read(tx, block).ok
                            : table.acquire_write(tx, block).ok);
            }
        }
        const auto h = table.chain_length_histogram();
        state.counters["pct_slots_empty"] =
            100.0 * h.fraction_at(0);
        state.counters["pct_slots_single"] =
            100.0 * h.fraction_at(1);
        state.counters["max_chain"] = static_cast<double>(h.max_value());
        state.counters["alias_traversals"] =
            static_cast<double>(table.alias_traversals());
    }
}

BENCHMARK(BM_TaggedChainProfile)
    ->ArgNames({"entries", "txns"})
    ->Args({4096, 4})
    ->Args({16384, 4})
    ->Args({16384, 16});

}  // namespace

int main(int argc, char** argv) {
    const auto add = [](const std::string& org, auto body) {
        benchmark::RegisterBenchmark(("BM_AcquireRelease/table=" + org).c_str(),
                                     body)
            ->ArgNames({"entries", "footprint"})
            ->Args({4096, 64})
            ->Args({65536, 64})
            ->Args({65536, 256})
            ->Args({1u << 20, 256});
    };
    for (const std::string& org : tmb::ownership::table_names()) {
        add(org, [org](benchmark::State& state) {
            const auto table = tmb::ownership::make_table(org, shape_of(state));
            acquire_release_cycle(state, *table);
        });
    }
    add("atomic_tagless", [](benchmark::State& state) {
        AtomicTaglessTable table(shape_of(state));
        acquire_release_cycle(state, table);
    });
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
