// source.hpp — pull-based streaming access to multithreaded traces.
//
// The paper's experiments are trace-driven, and the north star is scale:
// fully materializing every stream as a std::vector<Access> caps trace size
// by RAM and makes text I/O dominate tool runtime. A TraceSource instead
// exposes a trace as independently pullable per-stream cursors that fill
// caller-provided chunks, so every consumer — the alias experiment, the
// conflict filter, the analyzer, the replay workload — runs in O(chunk)
// memory regardless of trace length. `make_trace_source` constructs them
// *by name*, exactly like tables and backends:
//
//   source=jbb            SPECJBB-like synthetic generator (synthetic.hpp)
//   source=zipf           Zipfian-popularity generator (zipf.hpp)
//   source=spec:<profile> SPEC2000int-like profile generator (spec2000.hpp)
//   source=file:<path>    trace file, text or binary (auto-detected)
//
// MultiThreadTrace remains as the materialize-for-small-inputs adapter:
// wrap one with MemoryTraceSource, or drain a source with materialize().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "trace/trace.hpp"

namespace tmb::trace {

/// Default chunk size (in accesses) consumers pull with; big enough to
/// amortize virtual dispatch and I/O, small enough to stay cache-resident.
inline constexpr std::size_t kDefaultChunk = 4096;

/// Pull cursor over one stream. Single-threaded; created positioned at the
/// start of the stream.
class StreamSource {
public:
    virtual ~StreamSource() = default;

    /// Copies the next accesses of the stream into `out` (up to out.size()
    /// of them) and returns how many were delivered; 0 means end of stream.
    [[nodiscard]] virtual std::size_t next(std::span<Access> out) = 0;

    /// Skips up to `n` accesses; returns how many were skipped (< n only at
    /// end of stream). The default drains chunks; in-memory sources
    /// override with O(1) repositioning.
    virtual std::uint64_t skip(std::uint64_t n);
};

/// A multithreaded trace as independently pullable streams. stream(i)
/// always opens a *fresh* cursor at the start of stream i, so multi-pass
/// consumers just reopen, and cursors for different streams may be consumed
/// from different threads concurrently (each cursor itself is
/// single-threaded; concurrent stream() calls must be externally
/// serialized).
class TraceSource {
public:
    virtual ~TraceSource() = default;

    [[nodiscard]] virtual std::size_t stream_count() const = 0;

    /// Opens a fresh cursor at the start of stream `index`.
    /// Throws std::out_of_range for index >= stream_count().
    [[nodiscard]] virtual std::unique_ptr<StreamSource> stream(
        std::size_t index) = 0;
};

/// In-memory source over a MultiThreadTrace — the adapter that keeps the
/// materialized representation usable wherever a source is expected.
class MemoryTraceSource final : public TraceSource {
public:
    /// Non-owning view; `trace` must outlive the source and its cursors.
    explicit MemoryTraceSource(const MultiThreadTrace& trace);
    /// Owning variant.
    explicit MemoryTraceSource(MultiThreadTrace&& trace);

    [[nodiscard]] std::size_t stream_count() const override;
    [[nodiscard]] std::unique_ptr<StreamSource> stream(
        std::size_t index) override;

private:
    MultiThreadTrace owned_;
    const MultiThreadTrace* trace_;
};

/// Drains every stream of `source` into memory — the small-input adapter
/// for consumers that genuinely need random access.
[[nodiscard]] MultiThreadTrace materialize(TraceSource& source);

/// The source names make_trace_source knows: jbb, zipf, spec, file.
[[nodiscard]] std::vector<std::string> trace_source_names();

/// Creates a source from a Config. Keys:
///   source    jbb | zipf | spec:<profile> | file:<path> (default "jbb").
///             The name is the part before ':' and the rest is its argument;
///             an unknown name throws std::invalid_argument listing
///             trace_source_names()
///   threads   stream count for the generators (default 4)
///   accesses  per-stream length for the generators (default 1M)
///   seed      generator seed (default 1)
///   skew      zipf skew s (default 0.99)
///   profile   spec profile when not given as `spec:<name>` (default "gcc")
[[nodiscard]] std::unique_ptr<TraceSource> make_trace_source(
    const config::Config& cfg);

/// Opens a trace file as a streaming source, auto-detecting the container
/// format by magic bytes (binary_io.hpp) vs text. Each cursor owns its own
/// file handle, so streams can be consumed concurrently.
[[nodiscard]] std::unique_ptr<TraceSource> open_trace_file(
    const std::string& path);

/// Trace container formats.
enum class TraceFormat { kText, kBinary };

/// Picks the on-disk format for `path`: binary for .tbin/.bin extensions,
/// text otherwise.
[[nodiscard]] TraceFormat format_for_path(const std::string& path);

/// Streams `source` into `path` chunk-wise (O(chunk) memory) in `format`.
void save_trace_file(const std::string& path, TraceSource& source,
                     TraceFormat format);

/// Loads a whole trace file of either format — small-input convenience on
/// top of open_trace_file + materialize.
[[nodiscard]] MultiThreadTrace load_trace_file(const std::string& path);

}  // namespace tmb::trace
