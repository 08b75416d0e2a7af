// trace_tool — generate, convert, analyze and filter memory-access traces.
//
// Subcommands (options may be positional, in the order shown, or flags):
//   generate jbb  <out.trace> [threads] [accesses] [seed]
//   generate zipf <out.trace> [threads] [accesses] [skew] [seed]
//   generate spec <profile> <out.trace> [accesses] [seed]
//   convert  <in> <out>                 # text <-> binary (auto-detected)
//   analyze  <in>                       # per-stream locality profile
//   filter   <in> <out>                 # remove true conflicts (paper §2.2)
//   profiles                            # list SPEC2000-like profiles
//
// Flag forms: --threads=N --accesses=N --seed=S --skew=X --format=text|binary
// --to=text|binary.
//
// A flag no subcommand reads, a bad value or an unreadable input exits 2
// with a one-line diagnostic, before any output.
//
// Every stage streams through the trace::TraceSource layer in O(chunk)
// memory, so trace length is bounded by disk, not RAM. Two container
// formats are supported and auto-detected on input by magic bytes: the
// plain-text format of trace/trace_io.hpp and the compact binary format of
// trace/binary_io.hpp (~5x smaller). Output format follows the file
// extension (.tbin/.bin = binary) unless --format= / --to= overrides it.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "trace/analysis.hpp"
#include "trace/binary_io.hpp"
#include "trace/conflict_filter.hpp"
#include "trace/source.hpp"
#include "trace/spec2000.hpp"
#include "trace/trace_io.hpp"

namespace {

using tmb::config::Config;
using tmb::config::opt_f64;
using tmb::config::opt_u64;
using tmb::trace::TraceFormat;

int usage() {
    std::cerr <<
        "usage:\n"
        "  trace_tool generate jbb  <out.trace> [threads=4] [accesses=50000] [seed=1]\n"
        "  trace_tool generate zipf <out.trace> [threads=4] [accesses=50000] [skew=0.99] [seed=1]\n"
        "  trace_tool generate spec <profile> <out.trace> [accesses=50000] [seed=1]\n"
        "  trace_tool convert  <in> <out>   # text <-> binary, input auto-detected\n"
        "  trace_tool analyze  <in>\n"
        "  trace_tool filter   <in> <out>\n"
        "  trace_tool profiles\n"
        "  (numeric options may also be given as --threads= --accesses= "
        "--skew= --seed=;\n   output format: .tbin/.bin extension = binary, "
        "or --format=/--to=text|binary)\n";
    return 2;
}

/// The explicit --format=/--to= flag (synonyms; --format wins), if any.
std::optional<TraceFormat> format_flag(const Config& cli) {
    std::string name = cli.get("format", "");
    const std::string to = cli.get("to", "");
    if (name.empty()) name = to;
    if (name == "text") return TraceFormat::kText;
    if (name == "binary") return TraceFormat::kBinary;
    if (!name.empty()) {
        throw std::invalid_argument("format must be 'text' or 'binary', got '" +
                                    name + "'");
    }
    return std::nullopt;
}

/// Output format for `path`: the flag wins, then the extension.
TraceFormat out_format(const Config& cli, const std::string& path) {
    return format_flag(cli).value_or(tmb::trace::format_for_path(path));
}

const char* format_name(TraceFormat format) {
    return format == TraceFormat::kBinary ? "binary" : "text";
}

int cmd_generate(const Config& cli) {
    const auto& pos = cli.positional();  // generate <kind> <...>
    if (pos.size() < 3) return usage();
    const std::string& kind = pos[1];

    // Build the source spec make_trace_source understands, then stream it to
    // disk chunk-wise — no materialization, so --accesses=1e9 is fine.
    Config src;
    std::string out;
    std::string what;
    if (kind == "jbb" || kind == "zipf") {
        out = pos[2];
        src.set("source", kind);
        const auto threads = opt_u64(cli, "threads", 3, 4);
        std::size_t next = 4;
        src.set("threads", std::to_string(threads));
        src.set("accesses", std::to_string(opt_u64(cli, "accesses", next++, 50000)));
        if (kind == "zipf") {
            // Full round-trip precision: std::to_string would truncate the
            // skew to 6 decimal places.
            std::ostringstream skew;
            skew.precision(17);
            skew << opt_f64(cli, "skew", next++, 0.99);
            src.set("skew", skew.str());
        }
        src.set("seed", std::to_string(opt_u64(cli, "seed", next, 1)));
        what = std::to_string(threads) + " threads, " +
               (kind == "jbb" ? "SPECJBB-like" : "zipf skew " + src.get("skew", ""));
    } else if (kind == "spec") {
        if (pos.size() < 4) return usage();
        out = pos[3];
        src.set("source", "spec:" + pos[2]);
        src.set("threads", std::to_string(opt_u64(cli, "threads", 99, 1)));
        src.set("accesses", std::to_string(opt_u64(cli, "accesses", 4, 50000)));
        src.set("seed", std::to_string(opt_u64(cli, "seed", 5, 1)));
        what = "profile " + pos[2];
    } else {
        return usage();
    }
    const TraceFormat format = out_format(cli, out);
    tmb::config::reject_unknown(cli);

    const auto source = tmb::trace::make_trace_source(src);
    tmb::trace::save_trace_file(out, *source, format);
    std::cout << "wrote " << out << " (" << source->stream_count()
              << " streams x " << src.get("accesses", "") << " accesses, "
              << what << ", " << format_name(format) << ")\n";
    return 0;
}

int cmd_convert(const Config& cli) {
    const auto& pos = cli.positional();
    if (pos.size() < 3) return usage();
    const std::string& in = pos[1];
    const std::string& out = pos[2];

    const bool in_binary = tmb::trace::is_binary_trace_file(in);
    // Default direction: the other format (that is what "convert" means);
    // --format=/--to= pins it explicitly.
    const TraceFormat format = format_flag(cli).value_or(
        in_binary ? TraceFormat::kText : TraceFormat::kBinary);
    tmb::config::reject_unknown(cli);

    const auto source = tmb::trace::open_trace_file(in);
    tmb::trace::save_trace_file(out, *source, format);
    std::cout << "converted " << in << " (" << format_name(in_binary
                  ? TraceFormat::kBinary : TraceFormat::kText)
              << ") -> " << out << " (" << format_name(format) << ", "
              << source->stream_count() << " streams)\n";
    return 0;
}

int cmd_analyze(const Config& cli) {
    if (cli.positional().size() < 2) return usage();
    tmb::config::reject_unknown(cli);
    const auto source = tmb::trace::open_trace_file(cli.positional()[1]);

    // One drain answers both questions: each chunk feeds the per-stream
    // profile and the cross-stream conflict scanner (which is capped at the
    // filter's 64-stream bound — beyond that, skip the check, not analyze).
    const bool check_conflicts = source->stream_count() <= 64;
    tmb::trace::TrueConflictScanner conflicts;
    std::size_t total = 0;
    std::vector<tmb::trace::Access> chunk(tmb::trace::kDefaultChunk);
    for (std::size_t t = 0; t < source->stream_count(); ++t) {
        const auto reader = source->stream(t);
        tmb::trace::StreamAnalyzer analyzer;
        std::size_t n;
        while ((n = reader->next(chunk)) > 0) {
            const std::span<const tmb::trace::Access> filled(chunk.data(), n);
            analyzer.add(filled);
            if (check_conflicts) conflicts.add(t, filled);
        }
        const auto profile = analyzer.finish();
        total += profile.accesses;
        std::cout << "\n--- stream " << t << " ---\n"
                  << tmb::trace::to_string(profile);
    }
    std::cout << "\ntrace: " << source->stream_count() << " streams, "
              << total << " accesses\n";
    if (check_conflicts && conflicts.has_true_conflicts()) {
        std::cout << "NOTE: trace contains true conflicts; run 'filter' "
                     "before the alias experiment.\n";
    }
    return 0;
}

int cmd_filter(const Config& cli) {
    const auto& pos = cli.positional();
    if (pos.size() < 3) return usage();
    const TraceFormat format = out_format(cli, pos[2]);
    tmb::config::reject_unknown(cli);
    const auto source = tmb::trace::open_trace_file(pos[1]);

    std::ofstream os(pos[2], format == TraceFormat::kBinary
                                 ? std::ios::out | std::ios::binary
                                 : std::ios::out);
    if (!os) throw std::runtime_error("cannot open for writing: " + pos[2]);

    tmb::trace::ConflictFilterStats stats;
    if (format == TraceFormat::kBinary) {
        tmb::trace::BinaryTraceWriter writer(os, source->stream_count());
        stats = tmb::trace::remove_true_conflicts(
            *source, [&](std::size_t stream, auto accesses) {
                writer.write_chunk(stream, accesses);
            });
    } else {
        tmb::trace::write_text_header(os, source->stream_count());
        stats = tmb::trace::remove_true_conflicts(
            *source, [&](std::size_t stream, auto accesses) {
                tmb::trace::write_text_chunk(os, stream, accesses);
            });
    }
    if (!os) throw std::runtime_error("write failed: " + pos[2]);
    std::cout << "removed " << stats.blocks_removed << " truly-shared blocks ("
              << stats.accesses_before - stats.accesses_after << " of "
              << stats.accesses_before << " accesses); wrote " << pos[2]
              << " (" << format_name(format) << ")\n";
    return 0;
}

int cmd_profiles(const Config& cli) {
    tmb::config::reject_unknown(cli);
    for (const auto& p : tmb::trace::spec2000_profiles()) {
        std::cout << p.name << ": p_new=" << p.p_new_block
                  << " run_continue=" << p.run_continue
                  << " scatter=" << p.scatter_fraction
                  << " write_frac=" << p.write_block_fraction << '\n';
    }
    return 0;
}

int trace_tool_main(int argc, char** argv) {
    const Config cli = Config::from_args(argc, argv);
    if (cli.positional().empty()) return usage();
    const std::string& cmd = cli.positional().front();
    if (cmd == "generate") return cmd_generate(cli);
    if (cmd == "convert") return cmd_convert(cli);
    if (cmd == "analyze") return cmd_analyze(cli);
    if (cmd == "filter") return cmd_filter(cli);
    if (cmd == "profiles") return cmd_profiles(cli);
    return usage();
}

}  // namespace

int main(int argc, char** argv) {
    return tmb::config::guarded_main(trace_tool_main, argc, argv);
}
