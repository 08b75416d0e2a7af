#include "trace/source.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "trace/binary_io.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "trace/zipf.hpp"

namespace tmb::trace {

std::uint64_t StreamSource::skip(std::uint64_t n) {
    Access scratch[256];
    std::uint64_t skipped = 0;
    while (skipped < n) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - skipped, std::size(scratch)));
        const std::size_t got = next(std::span(scratch, want));
        if (got == 0) break;
        skipped += got;
    }
    return skipped;
}

namespace {

/// Cursor over one in-memory stream; O(1) skip.
class MemoryStreamReader final : public StreamSource {
public:
    explicit MemoryStreamReader(const Stream& stream) : stream_(&stream) {}

    std::size_t next(std::span<Access> out) override {
        const std::size_t n =
            std::min(out.size(), stream_->size() - pos_);
        std::copy_n(stream_->begin() + static_cast<std::ptrdiff_t>(pos_), n,
                    out.begin());
        pos_ += n;
        return n;
    }

    std::uint64_t skip(std::uint64_t n) override {
        const std::uint64_t left = stream_->size() - pos_;
        const std::uint64_t skipped = std::min(n, left);
        pos_ += static_cast<std::size_t>(skipped);
        return skipped;
    }

private:
    const Stream* stream_;
    std::size_t pos_ = 0;
};

/// Bounds an unbounded generator emitter to `accesses` per stream.
template <typename Emitter>
class BoundedEmitterReader final : public StreamSource {
public:
    BoundedEmitterReader(Emitter emitter, std::uint64_t accesses)
        : emitter_(std::move(emitter)), remaining_(accesses) {}

    std::size_t next(std::span<Access> out) override {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size(), remaining_));
        if (n == 0) return 0;
        emitter_.emit(out.first(n));
        remaining_ -= n;
        return n;
    }

private:
    Emitter emitter_;
    std::uint64_t remaining_;
};

void check_stream_index(std::size_t index, std::size_t count) {
    if (index >= count) {
        throw std::out_of_range("trace source: stream index " +
                                std::to_string(index) + " >= stream count " +
                                std::to_string(count));
    }
}

/// Common generator-source shape keys.
struct GeneratorShape {
    std::uint32_t threads;
    std::uint64_t accesses;
    std::uint64_t seed;
};

GeneratorShape generator_shape(const config::Config& cfg,
                               std::uint32_t default_threads) {
    GeneratorShape shape{
        .threads = cfg.get_u32("threads", default_threads),
        .accesses = cfg.get_u64("accesses", 1u << 20),
        .seed = cfg.get_u64("seed", 1),
    };
    if (shape.threads == 0) {
        throw std::invalid_argument("trace source: threads must be > 0");
    }
    return shape;
}

void reject_source_arg(std::string_view name, std::string_view arg) {
    if (!arg.empty()) {
        throw std::invalid_argument("trace source '" + std::string(name) +
                                    "' takes no ':' argument (got '" +
                                    std::string(arg) + "')");
    }
}

class JbbTraceSource final : public TraceSource {
public:
    JbbTraceSource(SpecJbbLikeParams params, std::uint64_t accesses,
                   std::uint64_t seed)
        : generator_(std::move(params), seed), accesses_(accesses) {}

    std::size_t stream_count() const override {
        return generator_.params().threads;
    }
    std::unique_ptr<StreamSource> stream(std::size_t index) override {
        check_stream_index(index, stream_count());
        return std::make_unique<
            BoundedEmitterReader<SpecJbbLikeGenerator::Emitter>>(
            generator_.stream_emitter(static_cast<std::uint32_t>(index)),
            accesses_);
    }

private:
    SpecJbbLikeGenerator generator_;
    std::uint64_t accesses_;
};

class ZipfTraceSource final : public TraceSource {
public:
    ZipfTraceSource(ZipfTraceParams params, std::uint64_t accesses,
                    std::uint64_t seed)
        : params_(params),
          sampler_(std::make_shared<const ZipfianSampler>(
              params.blocks_per_thread, params.skew)),
          accesses_(accesses),
          seed_(seed) {}

    std::size_t stream_count() const override { return params_.threads; }
    std::unique_ptr<StreamSource> stream(std::size_t index) override {
        check_stream_index(index, stream_count());
        return std::make_unique<BoundedEmitterReader<ZipfStreamEmitter>>(
            ZipfStreamEmitter(sampler_, params_, seed_,
                              static_cast<std::uint32_t>(index)),
            accesses_);
    }

private:
    ZipfTraceParams params_;
    std::shared_ptr<const ZipfianSampler> sampler_;
    std::uint64_t accesses_;
    std::uint64_t seed_;
};

class SpecTraceSource final : public TraceSource {
public:
    SpecTraceSource(const Spec2000Profile& profile, std::uint32_t threads,
                    std::uint64_t accesses, std::uint64_t seed)
        : profile_(profile),
          threads_(threads),
          accesses_(accesses),
          seed_(seed) {}

    std::size_t stream_count() const override { return threads_; }
    std::unique_ptr<StreamSource> stream(std::size_t index) override {
        check_stream_index(index, stream_count());
        // Stream 0 reproduces generate_spec2000_stream(profile, n, seed)
        // exactly; further streams decorrelate through the emitter's own
        // mix64 of seed + index.
        return std::make_unique<BoundedEmitterReader<Spec2000Emitter>>(
            Spec2000Emitter(profile_, seed_ + index), accesses_);
    }

private:
    Spec2000Profile profile_;
    std::uint32_t threads_;
    std::uint64_t accesses_;
    std::uint64_t seed_;
};

/// Cursor over one stream of a text trace file: owns its file handle and
/// scans line-wise, delivering only the target stream's records. Text has
/// no per-stream framing, so each cursor parses the whole file — draining
/// all S streams costs O(S x file). That is the compatibility path; for
/// big many-stream traces, `trace_tool convert` to the binary container,
/// whose block headers let cursors skip foreign streams in O(1).
class TextFileStreamReader final : public StreamSource {
public:
    TextFileStreamReader(const std::string& path, std::size_t stream)
        : is_(path), scanner_((ensure_open(path), is_)), target_(stream) {
        check_stream_index(stream, scanner_.thread_count());
    }

    std::size_t next(std::span<Access> out) override {
        std::size_t filled = 0;
        std::size_t tid = 0;
        Access a;
        while (filled < out.size() && scanner_.next(tid, a)) {
            if (tid == target_) out[filled++] = a;
        }
        return filled;
    }

private:
    void ensure_open(const std::string& path) const {
        if (!is_) throw std::runtime_error("cannot open for reading: " + path);
    }

    std::ifstream is_;
    TextTraceScanner scanner_;
    std::size_t target_;
};

class FileTraceSource final : public TraceSource {
public:
    explicit FileTraceSource(std::string path)
        : path_(std::move(path)), binary_(is_binary_trace_file(path_)) {
        if (binary_) {
            std::ifstream is(path_, std::ios::binary);
            threads_ = read_binary_header(is);
        } else {
            std::ifstream is(path_);
            if (!is) {
                throw std::runtime_error("cannot open for reading: " + path_);
            }
            threads_ = TextTraceScanner(is).thread_count();
        }
    }

    std::size_t stream_count() const override { return threads_; }
    std::unique_ptr<StreamSource> stream(std::size_t index) override {
        check_stream_index(index, threads_);
        if (binary_) return std::make_unique<BinaryStreamReader>(path_, index);
        return std::make_unique<TextFileStreamReader>(path_, index);
    }

private:
    std::string path_;
    bool binary_;
    std::size_t threads_ = 0;
};

}  // namespace

MemoryTraceSource::MemoryTraceSource(const MultiThreadTrace& trace)
    : trace_(&trace) {}

MemoryTraceSource::MemoryTraceSource(MultiThreadTrace&& trace)
    : owned_(std::move(trace)), trace_(&owned_) {}

std::size_t MemoryTraceSource::stream_count() const {
    return trace_->streams.size();
}

std::unique_ptr<StreamSource> MemoryTraceSource::stream(std::size_t index) {
    check_stream_index(index, trace_->streams.size());
    return std::make_unique<MemoryStreamReader>(trace_->streams[index]);
}

MultiThreadTrace materialize(TraceSource& source) {
    MultiThreadTrace trace;
    trace.streams.resize(source.stream_count());
    std::vector<Access> chunk(kDefaultChunk);
    for (std::size_t t = 0; t < trace.streams.size(); ++t) {
        const auto reader = source.stream(t);
        std::size_t n;
        while ((n = reader->next(chunk)) > 0) {
            trace.streams[t].insert(trace.streams[t].end(), chunk.begin(),
                                    chunk.begin() + static_cast<std::ptrdiff_t>(n));
        }
    }
    return trace;
}

std::vector<std::string> trace_source_names() {
    return {"jbb", "zipf", "spec", "file"};
}

std::unique_ptr<TraceSource> make_trace_source(const config::Config& cfg) {
    const std::string spec = cfg.get("source", "jbb");
    const std::size_t colon = spec.find(':');
    const std::string head = spec.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    if (head == "jbb") {
        reject_source_arg("jbb", arg);
        const GeneratorShape shape = generator_shape(cfg, 4);
        SpecJbbLikeParams params;
        params.threads = shape.threads;
        return std::make_unique<JbbTraceSource>(std::move(params),
                                                shape.accesses, shape.seed);
    }
    if (head == "zipf") {
        reject_source_arg("zipf", arg);
        const GeneratorShape shape = generator_shape(cfg, 4);
        ZipfTraceParams params;
        params.threads = shape.threads;
        params.skew = cfg.get_double("skew", params.skew);
        return std::make_unique<ZipfTraceSource>(params, shape.accesses,
                                                 shape.seed);
    }
    if (head == "spec") {
        const GeneratorShape shape = generator_shape(cfg, 1);
        const std::string name = arg.empty() ? cfg.get("profile", "gcc") : arg;
        return std::make_unique<SpecTraceSource>(
            spec2000_profile(name), shape.threads, shape.accesses, shape.seed);
    }
    if (head == "file") {
        const std::string path = arg.empty() ? cfg.get("path", "") : arg;
        if (path.empty()) {
            throw std::invalid_argument(
                "trace source 'file' needs a path (source=file:<path>)");
        }
        return std::make_unique<FileTraceSource>(path);
    }
    throw config::unknown_name("trace source", head, trace_source_names());
}

std::unique_ptr<TraceSource> open_trace_file(const std::string& path) {
    return std::make_unique<FileTraceSource>(path);
}

TraceFormat format_for_path(const std::string& path) {
    const auto ends_with = [&](std::string_view suffix) {
        return path.size() >= suffix.size() &&
               path.compare(path.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
    };
    return ends_with(".tbin") || ends_with(".bin") ? TraceFormat::kBinary
                                                   : TraceFormat::kText;
}

void save_trace_file(const std::string& path, TraceSource& source,
                     TraceFormat format) {
    std::ofstream os(path, format == TraceFormat::kBinary
                               ? std::ios::out | std::ios::binary
                               : std::ios::out);
    if (!os) throw std::runtime_error("cannot open for writing: " + path);

    const std::size_t threads = source.stream_count();
    std::vector<Access> chunk(kDefaultChunk);
    if (format == TraceFormat::kBinary) {
        BinaryTraceWriter writer(os, threads);
        for (std::size_t t = 0; t < threads; ++t) {
            const auto reader = source.stream(t);
            std::size_t n;
            while ((n = reader->next(chunk)) > 0) {
                writer.write_chunk(t, std::span(chunk).first(n));
            }
        }
    } else {
        write_text_header(os, threads);
        for (std::size_t t = 0; t < threads; ++t) {
            const auto reader = source.stream(t);
            std::size_t n;
            while ((n = reader->next(chunk)) > 0) {
                write_text_chunk(os, t, std::span(chunk).first(n));
            }
        }
    }
    if (!os) throw std::runtime_error("write failed: " + path);
}

MultiThreadTrace load_trace_file(const std::string& path) {
    if (is_binary_trace_file(path)) return load_binary_file(path);
    return load_text_file(path);
}

}  // namespace tmb::trace
