// perfbench — the repository benchmark binary.
//
//   perfbench --workload=replay_tagless|stamp_tl2|svc_open --seed=N
//             --seconds=S --trace=0|1 [--scale=X]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
// carrying every end-to-end metric (--trace=0) or every per-layer metric
// (--trace=1). Exits 1 when any correctness check failed, 2 on bad flags.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "config/config.hpp"

namespace {

int bench_main(int argc, char** argv) {
    const auto cfg = tmb::config::Config::from_args(argc, argv);
    perfbench::Options opt;
    opt.workload = cfg.get("workload", "");
    opt.seed = cfg.get_u64("seed", opt.seed);
    opt.seconds = cfg.get_double("seconds", opt.seconds);
    opt.trace = cfg.get_bool("trace", opt.trace);
    opt.scale = cfg.get_double("scale", opt.scale);
    tmb::config::reject_unknown(cfg);
    if (!(opt.seconds > 0.0) || !(opt.scale > 0.0)) {
        throw std::invalid_argument("perfbench: --seconds and --scale must be > 0");
    }
    if (opt.workload != "replay_tagless" && opt.workload != "stamp_tl2" &&
        opt.workload != "svc_open") {
        throw std::invalid_argument(
            "perfbench: --workload must be replay_tagless, stamp_tl2 or svc_open");
    }

    perfbench::Outcome out = opt.workload == "svc_open" ? perfbench::run_service(opt)
                                                        : perfbench::run_engine(opt);

    const perfbench::Kind kind =
        opt.trace ? perfbench::Kind::kPerLayer : perfbench::Kind::kEndToEnd;
    std::string metrics;
    for (const perfbench::MetricSpec& m : perfbench::kMetrics) {
        if (m.kind != kind) continue;
        const auto it = out.values.find(m.name);
        double v = it == out.values.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            out.check_failures.push_back("metric " + std::string(m.name) + " is not finite");
            v = 0.0;
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (!metrics.empty()) metrics += ", ";
        metrics += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + std::string(m.unit) + "\"}";
    }
    for (const std::string& f : out.check_failures) {
        std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.check_failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    return out.check_failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    return tmb::config::guarded_main(bench_main, argc, argv);
}
