// Tests for the streaming trace pipeline: the TraceSource layer, the binary
// container format, and the chunk-wise consumers (filter, analyzer, alias
// experiment).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/trace_alias.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_io.hpp"
#include "trace/conflict_filter.hpp"
#include "trace/source.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "trace/zipf.hpp"
#include "util/rng.hpp"

namespace tmb::trace {
namespace {

config::Config cfg(std::string_view spec) {
    return config::Config::from_string(spec);
}

/// Unique-ish temp path per test; removed in the guard's destructor.
struct TempFile {
    std::string path;
    explicit TempFile(const std::string& name)
        : path((std::filesystem::temp_directory_path() /
                ("tmb_test_" + name + "_" +
                 std::to_string(::getpid())))
                   .string()) {}
    ~TempFile() { std::remove(path.c_str()); }
};

/// Drains one stream cursor with the given chunk size.
Stream drain(StreamSource& reader, std::size_t chunk_size) {
    Stream out;
    std::vector<Access> chunk(chunk_size);
    std::size_t n;
    while ((n = reader.next(chunk)) > 0) {
        out.insert(out.end(), chunk.begin(),
                   chunk.begin() + static_cast<std::ptrdiff_t>(n));
    }
    return out;
}

/// A deliberately nasty random trace: full-range 64-bit blocks, large
/// instr_deltas, repeated blocks (exercises the ring path).
MultiThreadTrace random_trace(std::uint64_t seed, std::size_t streams,
                              std::size_t accesses) {
    util::Xoshiro256 rng{seed};
    MultiThreadTrace t;
    t.streams.resize(streams);
    for (auto& s : t.streams) {
        std::uint64_t prev = 0;
        for (std::size_t i = 0; i < accesses; ++i) {
            std::uint64_t block;
            switch (rng.below(4)) {
                case 0: block = rng();  break;                  // wild jump
                case 1: block = prev + 1; break;                // run
                case 2: block = prev; break;                    // repeat
                default: block = rng.below(1u << 20); break;    // local
            }
            const std::uint32_t instr =
                rng.bernoulli(0.1)
                    ? static_cast<std::uint32_t>(1 + rng.below(1u << 24))
                    : static_cast<std::uint32_t>(1 + rng.below(6));
            s.push_back(Access{block, rng.bernoulli(0.4), instr});
            prev = block;
        }
    }
    return t;
}

// ---------------------------------------------------------------------------
// TraceSource selection by name and generator sources
// ---------------------------------------------------------------------------

TEST(TraceSource, ListsBuiltins) {
    const std::vector<std::string> names = trace_source_names();
    EXPECT_EQ(names, (std::vector<std::string>{"jbb", "zipf", "spec", "file"}));
    TempFile file("lists_builtins");
    save_binary_file(file.path, random_trace(3, 2, 50));
    for (const std::string& name : names) {
        const std::string spec =
            name == "file" ? "source=file:" + file.path : "source=" + name;
        const auto source =
            make_trace_source(cfg(spec + " threads=2 accesses=50"));
        ASSERT_NE(source, nullptr) << name;
        EXPECT_GT(source->stream_count(), 0u) << name;
    }
    try {
        (void)make_trace_source(cfg("source=nonesuch"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'nonesuch'"), std::string::npos) << what;
        for (const std::string& name : names) {
            EXPECT_NE(what.find(name), std::string::npos) << what;
        }
    }
    EXPECT_THROW((void)make_trace_source(cfg("source=jbb:arg")),
                 std::invalid_argument);
    EXPECT_THROW((void)make_trace_source(cfg("source=file")),
                 std::invalid_argument);
}

TEST(TraceSource, JbbMatchesMaterializedGenerator) {
    const auto source = make_trace_source(
        cfg("source=jbb threads=3 accesses=2000 seed=11"));
    ASSERT_EQ(source->stream_count(), 3u);

    SpecJbbLikeParams params;
    params.threads = 3;
    SpecJbbLikeGenerator gen(params, 11);
    for (std::size_t t = 0; t < 3; ++t) {
        const auto reader = source->stream(t);
        EXPECT_EQ(drain(*reader, 333),
                  gen.generate_stream(static_cast<std::uint32_t>(t), 2000))
            << "stream " << t;
    }
}

TEST(TraceSource, ZipfMatchesMaterializedGenerator) {
    const auto source = make_trace_source(
        cfg("source=zipf threads=2 accesses=1500 skew=0.8 seed=13"));
    ZipfTraceParams params;
    params.threads = 2;
    params.skew = 0.8;
    const auto expected = generate_zipf_trace(params, 1500, 13);
    for (std::size_t t = 0; t < 2; ++t) {
        const auto reader = source->stream(t);
        EXPECT_EQ(drain(*reader, 97), expected.streams[t]) << "stream " << t;
    }
}

TEST(TraceSource, SpecStreamZeroMatchesGenerator) {
    const auto source =
        make_trace_source(cfg("source=spec:mcf accesses=1200 seed=17"));
    ASSERT_EQ(source->stream_count(), 1u);
    const auto reader = source->stream(0);
    EXPECT_EQ(drain(*reader, 100),
              generate_spec2000_stream(spec2000_profile("mcf"), 1200, 17));
}

TEST(TraceSource, ChunkSizeDoesNotChangeTheStream) {
    const auto source = make_trace_source(
        cfg("source=jbb threads=1 accesses=5000 seed=19"));
    const auto a = drain(*source->stream(0), 1);
    const auto b = drain(*source->stream(0), 4096);
    const auto c = drain(*source->stream(0), 7);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    EXPECT_EQ(a.size(), 5000u);
}

TEST(TraceSource, SkipMatchesDrainOffset) {
    const auto source = make_trace_source(
        cfg("source=zipf threads=1 accesses=1000 seed=23"));
    const auto full = drain(*source->stream(0), 128);

    const auto reader = source->stream(0);
    EXPECT_EQ(reader->skip(250), 250u);
    const auto rest = drain(*reader, 128);
    ASSERT_EQ(rest.size(), 750u);
    EXPECT_TRUE(std::equal(rest.begin(), rest.end(), full.begin() + 250));

    // Skipping past the end reports the truncated count.
    const auto reader2 = source->stream(0);
    EXPECT_EQ(reader2->skip(5000), 1000u);
}

TEST(TraceSource, MemorySourceRoundTrips) {
    const auto trace = random_trace(29, 3, 400);
    MemoryTraceSource source(trace);
    ASSERT_EQ(source.stream_count(), 3u);
    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_EQ(drain(*source.stream(t), 64), trace.streams[t]);
    }
    EXPECT_EQ(materialize(source).streams, trace.streams);
    EXPECT_THROW((void)source.stream(3), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Binary container: round trips
// ---------------------------------------------------------------------------

TEST(BinaryIo, RoundTripsRandomTraces) {
    // Property test over several nasty random traces: write -> read must be
    // bit-identical, whatever the chunking.
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        const auto original = random_trace(seed, 1 + seed % 4, 600);
        std::stringstream buffer(std::ios::in | std::ios::out |
                                 std::ios::binary);
        write_binary(buffer, original);
        EXPECT_EQ(read_binary(buffer).streams, original.streams)
            << "seed " << seed;
    }
}

TEST(BinaryIo, RoundTripsGeneratorTrace) {
    SpecJbbLikeParams params;
    params.threads = 4;
    params.arena_blocks = 1u << 12;
    const auto original = SpecJbbLikeGenerator(params, 31).generate(2000);
    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    write_binary(buffer, original);
    EXPECT_EQ(read_binary(buffer).streams, original.streams);
}

TEST(BinaryIo, ChunkedWriterMatchesWholeTraceWriter) {
    // Interleaved small chunks must produce a file that decodes to the same
    // trace (codec state is per-stream, not per-block).
    const auto trace = random_trace(37, 2, 500);
    std::stringstream chunked(std::ios::in | std::ios::out | std::ios::binary);
    {
        BinaryTraceWriter writer(chunked, 2);
        for (std::size_t i = 0; i < 500; i += 17) {
            for (std::size_t t = 0; t < 2; ++t) {
                std::span<const Access> s = trace.streams[t];
                writer.write_chunk(
                    t, s.subspan(i, std::min<std::size_t>(17, 500 - i)));
            }
        }
    }
    EXPECT_EQ(read_binary(chunked).streams, trace.streams);
}

TEST(BinaryIo, TextAndBinaryFilesReloadIdentically) {
    const auto trace = random_trace(41, 3, 500);
    TempFile text("roundtrip_text");
    TempFile binary("roundtrip_binary");
    save_text_file(text.path, trace);
    save_binary_file(binary.path, trace);

    EXPECT_FALSE(is_binary_trace_file(text.path));
    EXPECT_TRUE(is_binary_trace_file(binary.path));
    EXPECT_EQ(load_trace_file(text.path).streams, trace.streams);
    EXPECT_EQ(load_trace_file(binary.path).streams, trace.streams);
}

TEST(BinaryIo, PerStreamFileReadersMatchFullRead) {
    const auto trace = random_trace(43, 4, 400);
    TempFile file("stream_readers");
    save_binary_file(file.path, trace);

    const auto source = open_trace_file(file.path);
    ASSERT_EQ(source->stream_count(), 4u);
    for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_EQ(drain(*source->stream(t), 61), trace.streams[t])
            << "stream " << t;
    }
}

TEST(BinaryIo, TextFileStreamReadersMatchFullRead) {
    const auto trace = random_trace(47, 3, 300);
    TempFile file("text_stream_readers");
    save_text_file(file.path, trace);

    const auto source = open_trace_file(file.path);
    ASSERT_EQ(source->stream_count(), 3u);
    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_EQ(drain(*source->stream(t), 53), trace.streams[t])
            << "stream " << t;
    }
}

TEST(BinaryIo, BinaryIsMuchSmallerThanTextOnDefaultJbbTrace) {
    SpecJbbLikeParams params;  // defaults: the fig2 workload
    const auto trace = SpecJbbLikeGenerator(params, 20070609).generate(20000);
    std::ostringstream text;
    write_text(text, trace);
    std::ostringstream binary(std::ios::binary);
    write_binary(binary, trace);
    EXPECT_GE(text.str().size(), 5 * binary.str().size())
        << "text " << text.str().size() << "B vs binary "
        << binary.str().size() << "B";
}

// ---------------------------------------------------------------------------
// Binary container: corruption must throw, never crash or truncate
// ---------------------------------------------------------------------------

std::string valid_binary_blob() {
    const auto trace = random_trace(53, 2, 200);
    std::ostringstream os(std::ios::binary);
    write_binary(os, trace);
    return os.str();
}

void expect_read_throws(const std::string& bytes) {
    std::istringstream is(bytes);
    EXPECT_THROW((void)read_binary(is), std::runtime_error);
}

TEST(BinaryIo, RejectsBadMagic) {
    std::string blob = valid_binary_blob();
    blob[0] = 'X';
    expect_read_throws(blob);
    expect_read_throws("T 2\n0 R 1a\n");  // a text trace is not binary
}

TEST(BinaryIo, RejectsTruncation) {
    const std::string blob = valid_binary_blob();
    // Strict prefixes cut mid-header, mid-block-header and mid-payload must
    // all throw; clean EOF is legal only at a block boundary. (Cut 9 — the
    // file header exactly — parses as a valid empty trace and is not
    // tested here.)
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{4}, std::size_t{8}, std::size_t{10},
          std::size_t{15}, blob.size() - 1}) {
        expect_read_throws(blob.substr(0, cut));
    }
    std::istringstream full(blob);
    EXPECT_NO_THROW((void)read_binary(full));
}

TEST(BinaryIo, RejectsGarbageBlocks) {
    const std::string header = valid_binary_blob().substr(0, 9);
    // stream id out of range (varint 7), 1 record, 1 payload byte.
    expect_read_throws(header + std::string("\x07\x01\x01\x00", 4));
    // zero-record block.
    expect_read_throws(header + std::string("\x00\x00\x01\x00", 4));
    // payload length shorter than 1 byte/record.
    expect_read_throws(header + std::string("\x00\x02\x01\x00", 4));
    // ring reference into an empty ring: head = (0 << 5) | kind 1 = 0x01.
    expect_read_throws(header + std::string("\x00\x01\x01\x01", 4));
}

TEST(BinaryIo, RejectsPayloadLengthMismatch) {
    const std::string header = valid_binary_blob().substr(0, 9);
    // One delta-coded record costs 1 byte but the block declares 2.
    expect_read_throws(header + std::string("\x00\x01\x02\x20\x20", 5));
}

TEST(BinaryIo, TruncationOnExactBlockAndVarintBoundaries) {
    // Two streams with >127 records per block, so both the record-count and
    // the payload-length varints of a block header are multi-byte — cuts
    // can land exactly *between* varints, not just inside one.
    const MultiThreadTrace trace = random_trace(71, 2, 200);
    std::ostringstream os(std::ios::binary);
    std::size_t header_end = 0;
    std::size_t block0_end = 0;
    {
        BinaryTraceWriter writer(os, 2);
        header_end = os.str().size();  // magic + thread-count varint
        writer.write_chunk(0, trace.streams[0]);
        block0_end = os.str().size();
        writer.write_chunk(1, trace.streams[1]);
    }
    const std::string blob = os.str();
    ASSERT_EQ(header_end, 9u);
    ASSERT_LT(block0_end, blob.size());

    // Clean EOF exactly at a block boundary is a legal, shorter trace (a
    // boundary cut is indistinguishable from a file with fewer blocks).
    {
        std::istringstream is(blob.substr(0, block0_end));
        const MultiThreadTrace prefix = read_binary(is);
        ASSERT_EQ(prefix.streams.size(), 2u);
        EXPECT_EQ(prefix.streams[0], trace.streams[0]);
        EXPECT_TRUE(prefix.streams[1].empty());
    }

    // Any cut inside the next block header must throw — including cuts
    // landing exactly on the boundary between two of its varints:
    //   +1  after the stream-id varint (varint boundary)
    //   +2  inside the 2-byte record-count varint
    //   +3  after the record count (varint boundary)
    //   +4  inside the 2-byte payload-length varint
    for (const std::size_t extra :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
        expect_read_throws(blob.substr(0, block0_end + extra));
    }

    // A payload cut is a declared-length mismatch, never a silent prefix.
    expect_read_throws(blob.substr(0, blob.size() - 1));
}

TEST(BinaryIo, WriterRejectsZeroInstrDelta) {
    // instr_delta is stored as instr_delta - 1: a zero would underflow into
    // a record every decoder rejects, so the *writer* must fail fast.
    std::ostringstream os(std::ios::binary);
    BinaryTraceWriter writer(os, 1);
    const Access bad{42, true, 0};
    EXPECT_THROW(writer.write_chunk(0, std::span<const Access>(&bad, 1)),
                 std::runtime_error);
}

TEST(ConflictFilter, StreamCountLimitBoundaries) {
    // One shared written block (a true conflict touching every stream) plus
    // one private block per stream.
    const auto make = [](std::size_t streams) {
        MultiThreadTrace t;
        t.streams.resize(streams);
        for (std::size_t i = 0; i < streams; ++i) {
            t.streams[i].push_back(Access{1000, true, 1});
            t.streams[i].push_back(Access{2000 + i, false, 1});
        }
        return t;
    };

    // One below and exactly at the 64-stream mask limit: the masks must
    // still see every stream (bit 63 included), so the shared block is
    // classified as a conflict in all of them.
    for (const std::size_t n : {std::size_t{63}, std::size_t{64}}) {
        MultiThreadTrace t = make(n);
        EXPECT_TRUE(has_true_conflicts(t)) << n << " streams";
        const auto stats = remove_true_conflicts(t);
        EXPECT_EQ(stats.blocks_removed, 1u) << n << " streams";
        EXPECT_EQ(stats.accesses_before - stats.accesses_after, n);
        EXPECT_FALSE(has_true_conflicts(t));
        for (const auto& s : t.streams) EXPECT_EQ(s.size(), 1u);
    }

    // One above: every entry point rejects loudly instead of wrapping a
    // stream onto someone else's mask bit.
    MultiThreadTrace t65 = make(65);
    EXPECT_THROW((void)has_true_conflicts(t65), std::invalid_argument);
    EXPECT_THROW((void)remove_true_conflicts(t65), std::invalid_argument);

    TrueConflictScanner scanner;
    const Access a{7, true, 1};
    scanner.add(63, std::span<const Access>(&a, 1));  // last valid stream
    EXPECT_FALSE(scanner.has_true_conflicts());
    EXPECT_THROW(scanner.add(64, std::span<const Access>(&a, 1)),
                 std::invalid_argument);
}

TEST(BinaryIo, StreamReaderRejectsCorruptFiles) {
    TempFile file("corrupt_stream");
    {
        std::ofstream os(file.path, std::ios::binary);
        const std::string blob = valid_binary_blob();
        os.write(blob.data(),
                 static_cast<std::streamsize>(blob.size() - 3));  // truncate
    }
    BinaryStreamReader reader(file.path, 1);
    EXPECT_THROW((void)drain(reader, 4096), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Chunk-wise consumers agree with the materialized implementations
// ---------------------------------------------------------------------------

TEST(StreamingConsumers, AnalyzerMatchesMaterialized) {
    const auto source = make_trace_source(
        cfg("source=jbb threads=1 accesses=20000 seed=59"));
    const auto whole = drain(*source->stream(0), 1u << 16);
    const auto expected = analyze_stream(whole);
    const auto reader = source->stream(0);
    const auto streamed = analyze(*reader);

    EXPECT_EQ(streamed.accesses, expected.accesses);
    EXPECT_EQ(streamed.unique_blocks, expected.unique_blocks);
    EXPECT_DOUBLE_EQ(streamed.write_fraction, expected.write_fraction);
    EXPECT_DOUBLE_EQ(streamed.sequential_fraction,
                     expected.sequential_fraction);
    EXPECT_DOUBLE_EQ(streamed.reuse_fraction, expected.reuse_fraction);
    EXPECT_DOUBLE_EQ(streamed.mean_run_length, expected.mean_run_length);
    EXPECT_DOUBLE_EQ(streamed.instr_per_access, expected.instr_per_access);
    EXPECT_EQ(streamed.footprint_at_pow2, expected.footprint_at_pow2);
}

TEST(StreamingConsumers, FilterMatchesMaterialized) {
    SpecJbbLikeParams params;
    params.threads = 4;
    params.arena_blocks = 1u << 12;
    params.shared_blocks = 1u << 8;
    auto materialized = SpecJbbLikeGenerator(params, 61).generate(3000);

    MemoryTraceSource source(materialized);
    MultiThreadTrace filtered;
    filtered.streams.resize(source.stream_count());
    const auto stats = remove_true_conflicts(
        source, [&](std::size_t stream, std::span<const Access> accesses) {
            filtered.streams[stream].insert(filtered.streams[stream].end(),
                                            accesses.begin(), accesses.end());
        });

    const auto in_place_stats = remove_true_conflicts(materialized);
    EXPECT_EQ(filtered.streams, materialized.streams);
    EXPECT_EQ(stats.accesses_before, in_place_stats.accesses_before);
    EXPECT_EQ(stats.accesses_after, in_place_stats.accesses_after);
    EXPECT_EQ(stats.blocks_removed, in_place_stats.blocks_removed);

    MemoryTraceSource clean(filtered);
    EXPECT_FALSE(has_true_conflicts(clean));
}

TEST(StreamingConsumers, FilterRejectsMoreStreamsThanMaskBits) {
    // One classification bit per stream: beyond 64 streams the filter must
    // refuse instead of wrapping bits and silently missing conflicts.
    MultiThreadTrace trace;
    trace.streams.resize(65, {{1, true, 1}});
    EXPECT_THROW((void)remove_true_conflicts(trace), std::invalid_argument);
    MemoryTraceSource source(trace);
    EXPECT_THROW((void)has_true_conflicts(source), std::invalid_argument);

    // 64 streams are exact: every stream writes block 1 -> all removed.
    trace.streams.resize(64);
    auto stats = remove_true_conflicts(trace);
    EXPECT_EQ(stats.accesses_after, 0u);
    EXPECT_EQ(stats.blocks_removed, 1u);
}

TEST(StreamingConsumers, AliasExperimentRunsOnSources) {
    // Tagged tables never alias; with true-conflict-free streams (disjoint
    // zipf universes) a streamed run must report zero.
    const auto source = make_trace_source(
        cfg("source=zipf threads=4 accesses=20000 seed=67"));
    sim::TraceAliasConfig config{.concurrency = 4,
                                 .write_footprint = 10,
                                 .table_entries = 1024,
                                 .table = "tagged",
                                 .samples = 100,
                                 .seed = 5};
    const auto tagged = run_trace_alias(config, *source);
    EXPECT_EQ(tagged.aliased, 0u);
    EXPECT_EQ(tagged.exhausted, 0u);

    // A small tagless table must alias on the same streams.
    config.table = "tagless";
    config.table_entries = 256;
    const auto tagless = run_trace_alias(config, *source);
    EXPECT_GT(tagless.alias_likelihood(), 0.1);
}

TEST(StreamingConsumers, AliasResultsMatchBetweenMemoryAndFileSources) {
    // The sequential-sampling overload must give identical results for the
    // same streams however they are stored (memory vs binary file).
    const auto trace = random_trace(71, 2, 5000);
    TempFile file("alias_file");
    save_binary_file(file.path, trace);

    sim::TraceAliasConfig config{.concurrency = 2,
                                 .write_footprint = 5,
                                 .table_entries = 512,
                                 .samples = 50,
                                 .seed = 9};
    MemoryTraceSource memory(trace);
    const auto from_memory = run_trace_alias(config, memory);
    const auto file_source = open_trace_file(file.path);
    const auto from_file = run_trace_alias(config, *file_source);
    EXPECT_EQ(from_memory.aliased, from_file.aliased);
    EXPECT_EQ(from_memory.exhausted, from_file.exhausted);
}

}  // namespace
}  // namespace tmb::trace
