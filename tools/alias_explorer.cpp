// alias_explorer — run the paper's §2.2 aliasing experiment on any trace
// file, with every knob exposed through the config layer.
//
// usage:
//   alias_explorer <trace-file> [options]
//     --concurrency=C      streams used (default 2)
//     --footprint=W        distinct written blocks per stream (default 20)
//     --entries=N          ownership-table entries (default 65536; "64k" ok)
//     --samples=K          Monte Carlo samples (default 10000)
//     --hash=KIND          shift-mask | multiplicative | mix64 (default mix64)
//     --table=NAME         tagless (default) | tagged (expects 0 aliases)
//     --seed=S
//     --model              also print the analytical prediction
//
// All options map straight onto sim::trace_alias_config_from, so this tool
// accepts exactly the keys the simulators and benches accept. The trace —
// text or binary, auto-detected — is consumed chunk-wise through the
// streaming source layer, so it may be far larger than RAM; samples are
// drawn sequentially through the streams (see sim/trace_alias.hpp). The
// trace must be true-conflict-free (trace_tool filter); the tool warns
// otherwise, since true conflicts would be misattributed to aliasing. A bad
// or unknown flag, or a missing trace, exits 2 with a one-line diagnostic.
#include <iostream>
#include <stdexcept>

#include "config/config.hpp"
#include "core/conflict_model.hpp"
#include "sim/trace_alias.hpp"
#include "trace/analysis.hpp"
#include "trace/conflict_filter.hpp"
#include "trace/source.hpp"

int explorer_main(int argc, char** argv) {
    const auto cli = tmb::config::Config::from_args(argc, argv);
    if (cli.positional().empty()) {
        throw std::invalid_argument(
            "usage: alias_explorer <trace-file> [--concurrency=C] "
            "[--footprint=W] [--entries=N] [--samples=K] [--hash=KIND] "
            "[--table=NAME] [--seed=S] [--model]");
    }

    tmb::sim::TraceAliasConfig config = tmb::sim::trace_alias_config_from(cli);
    if (!cli.has("concurrency")) config.concurrency = 2;
    if (!cli.has("footprint")) config.write_footprint = 20;
    if (!cli.has("entries")) config.table_entries = 65536;
    const bool with_model = cli.get_bool("model", false);
    tmb::config::reject_unknown(cli);

    const auto source = tmb::trace::open_trace_file(cli.positional().front());
    if (tmb::trace::has_true_conflicts(*source)) {
        std::cerr << "WARNING: trace has true conflicts; results will "
                     "overstate aliasing (run trace_tool filter).\n";
    }

    const auto result = run_trace_alias(config, *source);
    std::cout << "config: C=" << config.concurrency
              << " W=" << config.write_footprint
              << " N=" << config.table_entries
              << " hash=" << tmb::util::to_string(config.hash)
              << " table=" << config.table
              << " samples=" << result.samples << '\n';
    std::cout << "alias likelihood: " << 100.0 * result.alias_likelihood()
              << "%  (" << result.aliased << '/'
              << result.samples - result.exhausted << " samples";
    if (result.exhausted > 0) {
        std::cout << ", " << result.exhausted
                  << " exhausted — trace too short for this footprint";
    }
    std::cout << ")\n";

    if (with_model) {
        // Estimate alpha from the first stream for the model overlay.
        const auto reader = source->stream(0);
        const auto profile = tmb::trace::analyze(*reader);
        const tmb::core::ModelParams p{.alpha = profile.alpha,
                                       .table_entries = config.table_entries};
        const double predicted =
            1.0 - tmb::core::commit_probability_product(
                      p, config.concurrency, config.write_footprint);
        std::cout << "model (i.i.d. product form, alpha=" << profile.alpha
                  << "): " << 100.0 * predicted << "%\n";
    }
    return 0;
}

int main(int argc, char** argv) {
    return tmb::config::guarded_main(explorer_main, argc, argv);
}
