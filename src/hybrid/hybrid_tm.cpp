#include "hybrid/hybrid_tm.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "util/hash.hpp"

namespace tmb::hybrid {

namespace {

using ownership::Mode;
using ownership::TxId;

enum class Phase { kIdle, kHtm, kStm };

struct ThreadState {
    Phase phase = Phase::kIdle;
    bool is_large = false;
    std::uint64_t footprint = 0;       ///< total blocks this transaction touches
    std::uint64_t progressed = 0;      ///< blocks added so far this attempt
    std::uint64_t block_base = 0;      ///< disjoint per-thread block space
    std::uint64_t txn_seq = 0;         ///< transaction counter (footprint nonce)
    std::vector<std::uint64_t> held;   ///< STM-mode acquired blocks
};

}  // namespace

bool htm_overflows(const cache::CacheGeometry& geometry,
                   std::uint64_t footprint_blocks, std::uint64_t seed) {
    // Replay a locality-realistic footprint: short sequential runs at
    // scattered bases, with each block revisited a few times (revisits hit
    // the cache and cannot evict transactional data prematurely, so a pure
    // new-block replay is sufficient and conservative).
    cache::SetAssociativeCache cache(geometry);
    util::Xoshiro256 rng{util::mix64(seed)};
    std::unordered_map<std::uint64_t, bool> footprint;
    footprint.reserve(footprint_blocks * 2);

    std::uint64_t block = rng();
    std::uint64_t run_left = 0;
    for (std::uint64_t i = 0; i < footprint_blocks; ++i) {
        if (run_left == 0) {
            block = rng();
            run_left = rng.run_length(0.4, 16);
        } else {
            ++block;
        }
        --run_left;
        footprint.emplace(block, true);
        const auto r = cache.access(block);
        if (r.evicted && footprint.contains(*r.evicted)) return true;
    }
    return false;
}

HybridConfig hybrid_config_from(const config::Config& cfg) {
    HybridConfig out;
    out.threads = cfg.get_u32("threads", out.threads);
    out.stm_table = cfg.get("table", out.stm_table);
    out.stm_table_entries = cfg.get_u64("entries", out.stm_table_entries);
    out.mix.large_fraction = cfg.get_double("large_fraction", out.mix.large_fraction);
    out.mix.small_blocks = cfg.get_u64("small_blocks", out.mix.small_blocks);
    out.mix.large_blocks = cfg.get_u64("large_blocks", out.mix.large_blocks);
    out.mix.alpha = cfg.get_double("alpha", out.mix.alpha);
    out.ticks = cfg.get_u64("ticks", out.ticks);
    out.seed = cfg.get_u64("seed", out.seed);
    out.htm_cache.size_bytes =
        cfg.get_u64("cache_kb", out.htm_cache.size_bytes / 1024) * 1024;
    out.htm_cache.ways = cfg.get_u32("cache_ways", out.htm_cache.ways);
    out.htm_cache.block_bytes =
        cfg.get_u32("cache_block", out.htm_cache.block_bytes);
    out.htm_cache.victim_entries =
        cfg.get_u32("victim_entries", out.htm_cache.victim_entries);
    return out;
}

HybridResult run_hybrid_tm(const config::Config& cfg) {
    return run_hybrid_tm(hybrid_config_from(cfg));
}

HybridResult run_hybrid_tm(const HybridConfig& config) {
    if (config.threads == 0 || config.threads > ownership::kMaxTx) {
        throw std::invalid_argument("threads must be in [1, " +
                                    std::to_string(ownership::kMaxTx) + "]");
    }
    config.htm_cache.validate();

    auto table = ownership::make_table(
        config.stm_table,
        {.entries = config.stm_table_entries, .hash = util::HashKind::kMix64});
    util::Xoshiro256 rng{config.seed};

    // Overflow decisions depend only on footprint size and cache geometry;
    // sample them once per size (they are deterministic enough in practice
    // that the paper speaks of "the average maximum size").
    const bool small_overflows =
        htm_overflows(config.htm_cache, config.mix.small_blocks, config.seed ^ 1);
    const bool large_overflows =
        htm_overflows(config.htm_cache, config.mix.large_blocks, config.seed ^ 2);

    std::vector<ThreadState> threads(config.threads);
    for (std::uint32_t t = 0; t < config.threads; ++t) {
        // Disjoint per-thread block spaces: no true conflicts, ever.
        threads[t].block_base = (static_cast<std::uint64_t>(t) + 1) << 40;
    }

    HybridResult result;
    std::uint64_t stm_active_ticks = 0;      // ticks with >= 1 STM transaction
    std::uint64_t stm_committed_blocks = 0;  // footprints of committed STM txns

    auto start_transaction = [&](ThreadState& t) {
        t.is_large = rng.bernoulli(config.mix.large_fraction);
        t.footprint =
            t.is_large ? config.mix.large_blocks : config.mix.small_blocks;
        t.progressed = 0;
        ++t.txn_seq;
        const bool overflows = t.is_large ? large_overflows : small_overflows;
        if (overflows) ++result.overflows;
        t.phase = overflows ? Phase::kStm : Phase::kHtm;
    };

    auto abort_stm = [&](ThreadState& t, TxId id) {
        for (const std::uint64_t b : t.held) table->release(id, b, Mode::kWrite);
        t.held.clear();
        t.progressed = 0;
        ++result.stm_aborts;
    };

    for (std::uint64_t tick = 0; tick < config.ticks; ++tick) {
        std::uint32_t stm_running = 0;
        for (std::uint32_t id = 0; id < config.threads; ++id) {
            ThreadState& t = threads[id];
            if (t.phase == Phase::kIdle) start_transaction(t);

            if (t.phase == Phase::kHtm) {
                // HTM: coherence-based conflict detection on real addresses;
                // disjoint footprints → never conflicts.
                if (++t.progressed >= t.footprint) {
                    ++result.htm_commits;
                    t.phase = Phase::kIdle;
                }
                continue;
            }

            // STM mode: add one block (α reads have already been folded into
            // the footprint; acquisition mode follows the paper's mix — one
            // write per 1+α blocks). Retries of one transaction replay the
            // same footprint; distinct transactions use fresh blocks.
            ++stm_running;
            const std::uint64_t block =
                t.block_base + (t.txn_seq << 20) + t.progressed;
            const bool is_write =
                (t.progressed % (1 + static_cast<std::uint64_t>(config.mix.alpha))) == 0;
            const auto r = is_write ? table->acquire_write(id, block)
                                    : table->acquire_read(id, block);
            if (!r.ok) {
                abort_stm(t, id);  // restart same transaction next tick
                continue;
            }
            t.held.push_back(block);
            if (++t.progressed >= t.footprint) {
                for (const std::uint64_t b : t.held) {
                    table->release(id, b, Mode::kWrite);
                }
                t.held.clear();
                ++result.stm_commits;
                stm_committed_blocks += t.footprint;
                t.phase = Phase::kIdle;
            }
        }
        if (stm_running > 0) ++stm_active_ticks;
    }

    result.stm_effective_concurrency =
        stm_active_ticks ? static_cast<double>(stm_committed_blocks) /
                               static_cast<double>(stm_active_ticks)
                         : 0.0;
    return result;
}

}  // namespace tmb::hybrid
