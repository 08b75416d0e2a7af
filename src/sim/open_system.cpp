#include "sim/open_system.hpp"

#include <stdexcept>
#include <string>

#include "ownership/atomic_tagless_table.hpp"

namespace tmb::sim {

namespace {

using ownership::AcquireResult;
using ownership::Mode;
using ownership::TxId;

/// Per-transaction bookkeeping for one experiment.
struct TxState {
    std::vector<std::uint64_t> held_blocks;  ///< for release at experiment end
    std::vector<bool> entry_held;            ///< dense bitmap over table entries
    std::vector<std::uint64_t> touched_entries;
    std::uint64_t reads_done = 0;
    std::uint64_t writes_done = 0;
};

}  // namespace

OpenSystemConfig open_system_config_from(const config::Config& cfg) {
    OpenSystemConfig out;
    out.concurrency = cfg.get_u32("concurrency", out.concurrency);
    out.write_footprint = cfg.get_u64("footprint", out.write_footprint);
    out.alpha = cfg.get_double("alpha", out.alpha);
    out.table_entries = cfg.get_u64("entries", out.table_entries);
    out.experiments = cfg.get_u32("experiments", out.experiments);
    out.seed = cfg.get_u64("seed", out.seed);
    out.non_tx_accesses_per_step =
        cfg.get_u32("non_tx_per_step", out.non_tx_accesses_per_step);
    out.non_tx_write_fraction =
        cfg.get_double("non_tx_write_fraction", out.non_tx_write_fraction);
    return out;
}

OpenSystemResult run_open_system(const config::Config& cfg) {
    return run_open_system(open_system_config_from(cfg));
}

OpenSystemResult run_open_system(const OpenSystemConfig& config) {
    if (config.table_entries == 0) {
        throw std::invalid_argument("table_entries must be > 0");
    }
    if (config.concurrency < 2 || config.concurrency > ownership::kMaxTx) {
        throw std::invalid_argument("concurrency must be in [2, " +
                                    std::to_string(ownership::kMaxTx) + "]");
    }

    // Blocks ARE entry indices (the paper assigns blocks to random entries
    // directly): blocks are drawn below N, so under the identity-like hash
    // block b is entry b.
    ownership::AtomicTaglessTable table({.entries = config.table_entries,
                                         .hash = util::HashKind::kShiftMask});

    util::Xoshiro256 rng{config.seed};
    OpenSystemResult result;
    result.experiments = config.experiments;

    const auto alpha_reads = static_cast<std::uint64_t>(config.alpha);
    // Fractional α: carry the remainder as a Bernoulli extra read per step so
    // the long-run reads:writes ratio equals alpha exactly.
    const double alpha_frac = config.alpha - static_cast<double>(alpha_reads);

    std::uint64_t total_placements = 0;
    std::uint64_t total_intra_aliases = 0;

    std::vector<TxState> txs(config.concurrency);
    for (auto& tx : txs) tx.entry_held.resize(config.table_entries, false);

    for (std::uint32_t exp = 0; exp < config.experiments; ++exp) {
        for (auto& tx : txs) {
            tx.held_blocks.clear();
            for (std::uint64_t e : tx.touched_entries) tx.entry_held[e] = false;
            tx.touched_entries.clear();
            tx.reads_done = tx.writes_done = 0;
        }

        bool conflicted = false;
        bool intra_aliased = false;

        // One lock-step round: every transaction reads α new blocks then
        // writes one new block (round-robin, as in the paper).
        auto place_block = [&](TxId id, bool is_write) -> bool {
            TxState& tx = txs[id];
            const std::uint64_t block = rng.below(config.table_entries);
            ++total_placements;
            if (tx.entry_held[block]) {
                ++total_intra_aliases;
                intra_aliased = true;
            }
            const AcquireResult r = is_write ? table.acquire_write(id, block)
                                             : table.acquire_read(id, block);
            if (!r.ok) return false;
            tx.held_blocks.push_back(block);
            if (!tx.entry_held[block]) {
                tx.entry_held[block] = true;
                tx.touched_entries.push_back(block);
            }
            return true;
        };

        bool non_tx_conflicted = false;
        for (std::uint64_t w = 1; w <= config.write_footprint && !conflicted; ++w) {
            for (TxId id = 0; id < config.concurrency && !conflicted; ++id) {
                std::uint64_t reads = alpha_reads;
                if (alpha_frac > 0.0 && rng.bernoulli(alpha_frac)) ++reads;
                for (std::uint64_t r = 0; r < reads && !conflicted; ++r) {
                    if (!place_block(id, /*is_write=*/false)) conflicted = true;
                }
                if (!conflicted && !place_block(id, /*is_write=*/true)) {
                    conflicted = true;
                }
            }
            // Strong isolation: non-transactional probes against the table.
            for (std::uint32_t s = 0;
                 s < config.non_tx_accesses_per_step && !conflicted; ++s) {
                const std::uint64_t block = rng.below(config.table_entries);
                const bool is_write = rng.bernoulli(config.non_tx_write_fraction);
                // A non-transactional access to block b observes entry b.
                const auto mode = table.mode_at(block);
                const bool hit =
                    is_write ? mode != ownership::Mode::kFree
                             : mode == ownership::Mode::kWrite;
                if (hit) {
                    conflicted = true;
                    non_tx_conflicted = true;
                }
            }
        }

        if (conflicted) ++result.conflicted;
        if (non_tx_conflicted) ++result.non_tx_conflicted;
        if (intra_aliased) ++result.intra_aliased;

        // Clean the table for the next experiment (O(footprint), not O(N)).
        for (TxId id = 0; id < config.concurrency; ++id) {
            for (std::uint64_t block : txs[id].held_blocks) {
                table.release(id, block, Mode::kWrite);
            }
        }
    }

    result.intra_alias_block_rate =
        total_placements ? static_cast<double>(total_intra_aliases) /
                               static_cast<double>(total_placements)
                         : 0.0;
    return result;
}

std::vector<OpenSystemResult> sweep_footprint(
    OpenSystemConfig base, const std::vector<std::uint64_t>& footprints) {
    std::vector<OpenSystemResult> out;
    out.reserve(footprints.size());
    for (std::uint64_t w : footprints) {
        base.write_footprint = w;
        // Derive a distinct but deterministic seed per point.
        OpenSystemConfig point = base;
        point.seed = util::mix64(base.seed ^ (w * 0x9e3779b97f4a7c15ULL));
        out.push_back(run_open_system(point));
    }
    return out;
}

}  // namespace tmb::sim
