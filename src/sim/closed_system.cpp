#include "sim/closed_system.hpp"

#include <stdexcept>
#include <string>

#include "ownership/atomic_tagless_table.hpp"

namespace tmb::sim {

namespace {

using ownership::Mode;
using ownership::TxId;

struct ThreadState {
    std::vector<std::uint64_t> held_blocks;
    std::uint64_t writes_done = 0;
    std::uint64_t stagger_remaining = 0;  ///< idle ticks before first txn
};

}  // namespace

ClosedSystemConfig closed_system_config_from(const config::Config& cfg) {
    ClosedSystemConfig out;
    out.concurrency = cfg.get_u32("concurrency", out.concurrency);
    out.write_footprint = cfg.get_u64("footprint", out.write_footprint);
    out.alpha = cfg.get_double("alpha", out.alpha);
    out.table_entries = cfg.get_u64("entries", out.table_entries);
    out.target_transactions = cfg.get_u64("target", out.target_transactions);
    out.seed = cfg.get_u64("seed", out.seed);
    return out;
}

ClosedSystemResult run_closed_system(const config::Config& cfg) {
    return run_closed_system(closed_system_config_from(cfg));
}

ClosedSystemResult run_closed_system(const ClosedSystemConfig& config) {
    if (config.write_footprint == 0) {
        throw std::invalid_argument("write_footprint must be > 0");
    }
    if (config.concurrency < 1 || config.concurrency > ownership::kMaxTx) {
        throw std::invalid_argument("concurrency must be in [1, " +
                                    std::to_string(ownership::kMaxTx) + "]");
    }

    // Blocks are drawn uniformly in [0, N), so the identity-like hash keeps
    // the simulation equal to the paper's "assign blocks to random entries"
    // and block b is entry b.
    ownership::AtomicTaglessTable table({.entries = config.table_entries,
                                         .hash = util::HashKind::kShiftMask});
    util::Xoshiro256 rng{config.seed};

    const auto alpha_reads = static_cast<std::uint64_t>(config.alpha);
    const double alpha_frac = config.alpha - static_cast<double>(alpha_reads);

    // One tick = one write-step (α reads + 1 write) for every active thread.
    // A conflict-free thread finishes a transaction every W ticks, so a time
    // budget of ceil(target * W / C) ticks completes `target` transactions.
    const std::uint64_t total_ticks =
        (config.target_transactions * config.write_footprint +
         config.concurrency - 1) /
        config.concurrency;

    std::vector<ThreadState> threads(config.concurrency);
    for (auto& t : threads) {
        // Random stagger within one transaction length.
        t.stagger_remaining = rng.below(config.write_footprint);
        t.held_blocks.reserve(
            static_cast<std::size_t>((1.0 + config.alpha) *
                                     static_cast<double>(config.write_footprint)) + 2);
    }

    ClosedSystemResult result;
    double occupancy_sum = 0.0;
    // Non-free entries, sampled every tick. The table's own count is an
    // O(N) scan, so the simulator counts the Free transitions it causes.
    std::uint64_t occupied = 0;

    auto abort_tx = [&](TxId id) {
        ThreadState& t = threads[id];
        for (std::uint64_t block : t.held_blocks) {
            // A block acquired twice frees its entry on the first release;
            // the second finds the entry Free.
            if (table.mode_at(block) == Mode::kFree) continue;
            table.release(id, block, Mode::kWrite);
            if (table.mode_at(block) == Mode::kFree) --occupied;
        }
        t.held_blocks.clear();
        t.writes_done = 0;
    };

    auto place_block = [&](TxId id, bool is_write) -> bool {
        ThreadState& t = threads[id];
        const std::uint64_t block = rng.below(config.table_entries);
        const bool was_free = table.mode_at(block) == Mode::kFree;
        const auto r = is_write ? table.acquire_write(id, block)
                                : table.acquire_read(id, block);
        if (!r.ok) return false;
        if (was_free) ++occupied;
        t.held_blocks.push_back(block);
        return true;
    };

    for (std::uint64_t tick = 0; tick < total_ticks; ++tick) {
        for (TxId id = 0; id < config.concurrency; ++id) {
            ThreadState& t = threads[id];
            if (t.stagger_remaining > 0) {
                --t.stagger_remaining;
                continue;
            }
            bool conflicted = false;
            std::uint64_t reads = alpha_reads;
            if (alpha_frac > 0.0 && rng.bernoulli(alpha_frac)) ++reads;
            for (std::uint64_t r = 0; r < reads && !conflicted; ++r) {
                if (!place_block(id, /*is_write=*/false)) conflicted = true;
            }
            if (!conflicted && !place_block(id, /*is_write=*/true)) {
                conflicted = true;
            }

            if (conflicted) {
                ++result.conflicts;
                abort_tx(id);  // restart from scratch next tick
                continue;
            }
            if (++t.writes_done == config.write_footprint) {
                // Commit: entries leave the table, next transaction begins.
                ++result.commits;
                abort_tx(id);  // same cleanup; writes_done reset
            }
        }
        occupancy_sum += static_cast<double>(occupied);
    }

    result.mean_occupancy =
        total_ticks ? occupancy_sum / static_cast<double>(total_ticks) : 0.0;
    const double full_footprint =
        (1.0 + config.alpha) * static_cast<double>(config.write_footprint);
    result.actual_concurrency =
        full_footprint > 0.0 ? 2.0 * result.mean_occupancy / full_footprint : 0.0;
    result.expected_occupancy_no_conflicts =
        static_cast<double>(config.concurrency) * full_footprint / 2.0;
    return result;
}

ClosedSystemAverages run_closed_system_averaged(const ClosedSystemConfig& config,
                                                std::uint32_t repeats) {
    if (repeats == 0) repeats = 1;
    ClosedSystemAverages out;
    out.repeats = repeats;
    double occupancy_sum = 0.0;
    double concurrency_sum = 0.0;
    for (std::uint32_t i = 0; i < repeats; ++i) {
        ClosedSystemConfig c = config;
        c.seed = util::mix64(config.seed + 0x51ed2701u + i);
        const ClosedSystemResult r = run_closed_system(c);
        out.total_conflicts += r.conflicts;
        out.total_commits += r.commits;
        occupancy_sum += r.mean_occupancy;
        concurrency_sum += r.actual_concurrency;
        out.expected_occupancy_no_conflicts = r.expected_occupancy_no_conflicts;
    }
    const auto n = static_cast<double>(repeats);
    out.conflicts = static_cast<double>(out.total_conflicts) / n;
    out.commits = static_cast<double>(out.total_commits) / n;
    out.mean_occupancy = occupancy_sum / n;
    out.actual_concurrency = concurrency_sum / n;
    return out;
}

}  // namespace tmb::sim
