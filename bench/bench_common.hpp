// bench_common.hpp — shared driver plumbing for the figure-reproduction
// binaries.
//
// Every bench prints the same rows/series the corresponding paper figure
// plots, using fixed seeds for bit-for-bit reproducibility. Components are
// constructed *by name* from string keys, so `--table=tagged` or
// `--backend=tl2` re-runs a figure under a different organization with no
// recompilation. The open- and closed-system figures (fig4-fig6,
// ext_strong_isolation, ext_alpha_sensitivity) take no `--table=`: their
// blocks are entry indices, so every organization counts the same
// conflicts.
//
// Shared flags (parsed into a config::Config by Runner):
//   --table=NAME       ownership-table organization (tagless | tagged)
//   --backend=NAME     STM backend (tl2 | table | tagless | tagged | adaptive)
//   --entries=N        ownership-table slots (accepts "64k")
//   --scale=X          sample-count multiplier (overrides TMB_SCALE)
//   --csv=DIR          mirror every printed table to DIR/<name>.csv
//   --json=FILE        machine-readable dump of every table → BENCH_*.json
//
// Environment fallbacks kept for compatibility: TMB_SCALE (sample scaling)
// and TMB_CSV (CSV directory).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/config.hpp"
#include "util/table_printer.hpp"

namespace tmb::bench {

namespace detail {
/// The multiplier Runner reads from --scale or TMB_SCALE; 0 = not set.
inline double& scale_override() {
    static double scale = 0.0;
    return scale;
}
}  // namespace detail

/// Multiplies a paper-default sample count by --scale / TMB_SCALE (default
/// 1.0; a value <= 0 means 1.0), with a floor of 50 so results stay
/// meaningful. A count past 32 bits is an error, not a wrapped cast.
[[nodiscard]] inline std::uint32_t scaled(std::uint32_t paper_default) {
    double scale = detail::scale_override();
    if (scale <= 0.0) scale = 1.0;
    const double n = static_cast<double>(paper_default) * scale;
    if (n > static_cast<double>(std::numeric_limits<std::uint32_t>::max())) {
        throw std::invalid_argument(
            "--scale/TMB_SCALE " + std::to_string(scale) + " times " +
            std::to_string(paper_default) + " samples exceeds 4294967295");
    }
    return n < 50.0 ? 50u : static_cast<std::uint32_t>(n);
}

/// Per-bench driver: parses the CLI into a Config, prints the header, and
/// mirrors every emitted table to CSV (--csv / TMB_CSV) and to one JSON
/// document (--json) for the perf trajectory.
class Runner {
public:
    Runner(std::string bench_name, int argc, const char* const* argv)
        : name_(std::move(bench_name)),
          cfg_(config::Config::from_args(argc, argv)) {
        if (cfg_.has("scale")) {
            detail::scale_override() = cfg_.get_double("scale", 1.0);
        } else if (const char* env = std::getenv("TMB_SCALE")) {
            // The flag's checked parse: "0.01abc" is an error, not 0.01.
            config::Config env_cfg;
            env_cfg.set("TMB_SCALE", env);
            detail::scale_override() = env_cfg.get_double("TMB_SCALE", 1.0);
        }
        json_path_ = cfg_.get("json", "");
        csv_dir_ = cfg_.get("csv", "");
        if (csv_dir_.empty()) {
            if (const char* env = std::getenv("TMB_CSV")) csv_dir_ = env;
        }
    }

    Runner(const Runner&) = delete;
    Runner& operator=(const Runner&) = delete;

    ~Runner() { write_json(); }

    /// The parsed command line; benches read their organization overrides
    /// (`--table=`, `--backend=`, `--entries=`, ...) from here.
    [[nodiscard]] const config::Config& cfg() const noexcept { return cfg_; }
    [[nodiscard]] config::Config& cfg() noexcept { return cfg_; }

    void header(const std::string& title, const std::string& paper_ref) const {
        std::cout << "==============================================================\n"
                  << title << "\n"
                  << "(reproduces " << paper_ref << ")\n"
                  << "==============================================================\n";
    }

    /// Bench epilogue — `return runner.done();` from the bench body. Rejects
    /// flags nothing consumed (a typo like `--tabel=` must not silently run
    /// the default organization); guarded_main turns the throw into exit 2.
    [[nodiscard]] int done() const {
        config::reject_unknown(cfg_);
        return 0;
    }

    /// Renders `table` to stdout and mirrors it to CSV and JSON sinks.
    void emit(const std::string& name, const util::TablePrinter& table) {
        table.render(std::cout);
        if (!csv_dir_.empty()) {
            const std::string path = csv_dir_ + "/" + name + ".csv";
            std::ofstream os(path);
            if (os) {
                table.render_csv(os);
            } else {
                std::cerr << "csv: cannot write " << path << '\n';
            }
        }
        if (!json_path_.empty()) tables_.emplace_back(name, table);
    }

private:
    void write_json() const {
        if (json_path_.empty()) return;
        std::ofstream os(json_path_);
        if (!os) {
            std::cerr << "json: cannot write " << json_path_ << '\n';
            return;
        }
        os << "{\"bench\": " << util::TablePrinter::json_quote(name_)
           << ",\n \"config\": "
           << util::TablePrinter::json_quote(cfg_.to_string())
           << ",\n \"tables\": {";
        for (std::size_t i = 0; i < tables_.size(); ++i) {
            if (i) os << ',';
            os << "\n  " << util::TablePrinter::json_quote(tables_[i].first)
               << ": ";
            tables_[i].second.render_json(os);
        }
        os << "\n }\n}\n";
    }

    std::string name_;
    config::Config cfg_;
    std::string json_path_;
    std::string csv_dir_;
    std::vector<std::pair<std::string, util::TablePrinter>> tables_;
};

}  // namespace tmb::bench
