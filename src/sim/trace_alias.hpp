// trace_alias.hpp — the paper's trace-driven aliasing experiment
// (§2.2, Fig. 2).
//
// The paper populates an N-entry tagless ownership table using C concurrent
// address streams (from a SPECJBB2005 trace with true conflicts removed)
// until every stream has written to W cache blocks; an experiment succeeds
// if no alias-induced conflict occurs first. ~10 000 samples per
// configuration yield an alias likelihood.
//
// Because true conflicts are removed up front, every conflict the tagless
// table reports in this experiment is false by construction; running the
// same streams through a tagged table (which never falsely conflicts)
// doubles as a correctness check and is selected with `table=tagged`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "ownership/any_table.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace tmb::trace {
class TraceSource;
}

namespace tmb::sim {

/// Configuration of one trace-alias data point.
struct TraceAliasConfig {
    std::uint32_t concurrency = 2;       ///< C streams, in [2, ownership::kMaxTx]
    std::uint64_t write_footprint = 10;  ///< W distinct written blocks/stream
    std::uint64_t table_entries = 4096;  ///< N
    util::HashKind hash = util::HashKind::kMix64;
    /// Ownership-table organization: "tagless" or "tagged" (any_table.hpp).
    std::string table = "tagless";
    std::uint32_t samples = 10000;       ///< paper: "roughly 10,000"
    std::uint64_t seed = 1;
};

/// Parses a TraceAliasConfig from string key/values: `concurrency`,
/// `footprint`, `entries`, `hash`, `table`, `samples`, `seed`.
[[nodiscard]] TraceAliasConfig trace_alias_config_from(
    const config::Config& cfg);

/// Result of the Monte Carlo at one configuration.
struct TraceAliasResult {
    std::uint32_t samples = 0;
    std::uint32_t aliased = 0;  ///< samples ending in an alias conflict
    /// Samples abandoned because a stream ran out of accesses before
    /// reaching W writes (should be ~0 with adequately long traces; reported
    /// so benches can detect under-provisioned traces).
    std::uint32_t exhausted = 0;

    [[nodiscard]] double alias_likelihood() const noexcept {
        const std::uint32_t valid = samples - exhausted;
        return valid ? static_cast<double>(aliased) / valid : 0.0;
    }
};

/// Runs the trace-alias experiment on a materialized trace. `trace` must
/// contain at least `config.concurrency` streams and no true conflicts (see
/// trace::remove_true_conflicts); each sample starts every stream at an
/// independent random offset. Internally the streams are consumed
/// chunk-wise through the source layer; this overload only adds the O(1)
/// random repositioning that in-memory streams afford.
[[nodiscard]] TraceAliasResult run_trace_alias(const TraceAliasConfig& config,
                                               const trace::MultiThreadTrace& trace);

/// Streaming overload: consumes any TraceSource chunk-wise in O(chunk)
/// memory, so the experiment runs on traces far larger than RAM. Samples
/// are drawn *sequentially* — each sample continues where the previous one
/// stopped, wrapping to the stream start at end-of-stream — instead of at
/// random offsets (random access would defeat streaming).
[[nodiscard]] TraceAliasResult run_trace_alias(const TraceAliasConfig& config,
                                               trace::TraceSource& source);

/// Config-driven overloads: either organization, selected by `table=` —
/// the paper's ablation with no recompilation.
[[nodiscard]] TraceAliasResult run_trace_alias(const config::Config& cfg,
                                               const trace::MultiThreadTrace& trace);
[[nodiscard]] TraceAliasResult run_trace_alias(const config::Config& cfg,
                                               trace::TraceSource& source);

}  // namespace tmb::sim
