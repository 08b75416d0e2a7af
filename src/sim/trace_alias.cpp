#include "sim/trace_alias.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "trace/source.hpp"

namespace tmb::sim {

namespace {

using ownership::Mode;
using ownership::TxId;

/// Chunk-buffered pull cursor with wrap-around: the sample loop consumes
/// accesses one at a time; the cursor refills from the stream in
/// kDefaultChunk batches and transparently reopens the stream at
/// end-of-stream. Wraps are counted per sample so a stream that cannot
/// supply the footprint is reported as exhausted instead of looping
/// forever.
class StreamCursor {
public:
    /// Opens a fresh cursor at `offset` (skipped in O(1) for in-memory
    /// sources).
    void open(trace::TraceSource& source, std::size_t index,
              std::uint64_t offset) {
        source_ = &source;
        index_ = index;
        reader_ = source.stream(index);
        if (offset > 0) reader_->skip(offset);
        pos_ = filled_ = 0;
        wraps_ = 0;
        // A sample typically consumes ~footprint*(1+alpha) accesses, far
        // less than a full chunk; start refills small and grow, so the
        // random-offset mode (a fresh cursor per stream per sample) does
        // not copy kDefaultChunk accesses per sample.
        chunk_ = kMinChunk;
    }

    /// Resets the per-sample wrap budget (sequential sampling keeps the
    /// cursor position across samples).
    void begin_sample() noexcept { wraps_ = 0; }

    /// Delivers the next access; false when the stream is exhausted for
    /// this sample (empty stream, or wrapped twice without completing).
    bool next(trace::Access& out) {
        while (pos_ == filled_) {
            if (buf_.size() < trace::kDefaultChunk) {
                buf_.resize(trace::kDefaultChunk);
            }
            filled_ = reader_->next(std::span(buf_).first(chunk_));
            chunk_ = std::min(chunk_ * 2, trace::kDefaultChunk);
            pos_ = 0;
            if (filled_ == 0) {
                if (++wraps_ > 2) return false;
                reader_ = source_->stream(index_);
            }
        }
        out = buf_[pos_++];
        return true;
    }

    // Per-sample experiment state rides along with the cursor.
    std::uint64_t distinct_writes = 0;
    std::unordered_set<std::uint64_t> written;   ///< distinct written blocks
    std::vector<std::uint64_t> acquired_blocks;  ///< for end-of-sample release

    [[nodiscard]] bool done(std::uint64_t target) const noexcept {
        return distinct_writes >= target;
    }

private:
    static constexpr std::size_t kMinChunk = 64;

    trace::TraceSource* source_ = nullptr;
    std::size_t index_ = 0;
    std::unique_ptr<trace::StreamSource> reader_;
    std::vector<trace::Access> buf_;
    std::size_t pos_ = 0;
    std::size_t filled_ = 0;
    std::size_t chunk_ = kMinChunk;
    std::uint32_t wraps_ = 0;
};

/// Shared sample loop. `stream_lengths` selects the sampling mode: non-null
/// enables the paper's random-offset sampling (lengths are needed to draw
/// offsets; in-memory traces only), null means sequential streaming.
TraceAliasResult run_samples(const TraceAliasConfig& config,
                             trace::TraceSource& source,
                             const std::vector<std::uint64_t>* stream_lengths) {
    if (config.concurrency < 2 || config.concurrency > ownership::kMaxTx) {
        throw std::invalid_argument("concurrency must be in [2, " +
                                    std::to_string(ownership::kMaxTx) + "]");
    }
    if (source.stream_count() < config.concurrency) {
        throw std::invalid_argument("trace has fewer streams than concurrency");
    }

    auto table = ownership::make_table(
        config.table,
        {.entries = config.table_entries, .hash = config.hash});

    util::Xoshiro256 rng{config.seed};
    TraceAliasResult result;
    result.samples = config.samples;

    std::vector<StreamCursor> cursors(config.concurrency);
    if (!stream_lengths) {
        for (std::uint32_t c = 0; c < config.concurrency; ++c) {
            cursors[c].open(source, c, 0);
        }
    }

    for (std::uint32_t sample = 0; sample < config.samples; ++sample) {
        for (std::uint32_t c = 0; c < config.concurrency; ++c) {
            auto& cur = cursors[c];
            if (stream_lengths) {
                // Random start offset, leaving room for the footprint to grow.
                const std::uint64_t len = (*stream_lengths)[c];
                cur.open(source, c, len > 1 ? rng.below(len) : 0);
            } else {
                cur.begin_sample();
            }
            cur.distinct_writes = 0;
            cur.written.clear();
            cur.acquired_blocks.clear();
        }

        bool aliased = false;
        bool exhausted = false;

        // Consume the streams round-robin, one access at a time, until every
        // stream has written W distinct blocks or a conflict occurs.
        bool all_done = false;
        while (!aliased && !exhausted && !all_done) {
            all_done = true;
            for (std::uint32_t c = 0; c < config.concurrency; ++c) {
                auto& cur = cursors[c];
                if (cur.done(config.write_footprint)) continue;
                all_done = false;
                trace::Access a;
                if (!cur.next(a)) {
                    exhausted = true;
                    break;
                }
                const auto tx = static_cast<TxId>(c);
                const auto r = a.is_write ? table->acquire_write(tx, a.block)
                                          : table->acquire_read(tx, a.block);
                if (!r.ok) {
                    aliased = true;
                    break;
                }
                cur.acquired_blocks.push_back(a.block);
                if (a.is_write && cur.written.insert(a.block).second) {
                    ++cur.distinct_writes;
                }
            }
        }

        if (aliased) ++result.aliased;
        if (exhausted) ++result.exhausted;

        // O(footprint) cleanup keeps per-sample cost independent of N.
        for (std::uint32_t c = 0; c < config.concurrency; ++c) {
            const auto tx = static_cast<TxId>(c);
            for (std::uint64_t block : cursors[c].acquired_blocks) {
                table->release(tx, block, Mode::kWrite);
            }
        }
    }
    return result;
}

}  // namespace

TraceAliasConfig trace_alias_config_from(const config::Config& cfg) {
    TraceAliasConfig out;
    out.concurrency = cfg.get_u32("concurrency", out.concurrency);
    out.write_footprint = cfg.get_u64("footprint", out.write_footprint);
    out.table_entries = cfg.get_u64("entries", out.table_entries);
    out.hash = util::hash_kind_from_string(
        cfg.get("hash", util::to_string(out.hash)));
    out.table = cfg.get("table", out.table);
    out.samples = cfg.get_u32("samples", out.samples);
    out.seed = cfg.get_u64("seed", out.seed);
    return out;
}

TraceAliasResult run_trace_alias(const config::Config& cfg,
                                 const trace::MultiThreadTrace& trace) {
    return run_trace_alias(trace_alias_config_from(cfg), trace);
}

TraceAliasResult run_trace_alias(const config::Config& cfg,
                                 trace::TraceSource& source) {
    return run_trace_alias(trace_alias_config_from(cfg), source);
}

TraceAliasResult run_trace_alias(const TraceAliasConfig& config,
                                 const trace::MultiThreadTrace& trace) {
    trace::MemoryTraceSource source(trace);
    std::vector<std::uint64_t> lengths;
    lengths.reserve(trace.streams.size());
    for (const auto& s : trace.streams) lengths.push_back(s.size());
    return run_samples(config, source, &lengths);
}

TraceAliasResult run_trace_alias(const TraceAliasConfig& config,
                                 trace::TraceSource& source) {
    return run_samples(config, source, nullptr);
}

}  // namespace tmb::sim
