// config.hpp — string key/value configuration shared by every layer.
//
// The paper's central experiment is an ablation across metadata
// *organizations* (tagless vs tagged tables, HTM overflow vs pure STM), so
// every driver — simulators, the STM runtime, the hybrid-TM model, benches,
// examples and tools — must be generic over the organization it runs. A
// `Config` is the one currency they all accept: a flat, ordered map of
// string keys to string values, parsed from command-line `--key=value`
// flags or from inline `"key=value key2=value2"` strings, with typed
// getters and unused-key diagnostics.
//
// Components are then constructed *by name*: each layer's factory holds
// the fixed list of names it knows (`ownership::make_table(cfg)` reads
// `table=`, `exec::make_workload(cfg)` reads `workload=`,
// `trace::make_trace_source(cfg)` reads `source=`, `sched::make_schedule`
// reads `sched=`) and throws `unknown_name` for anything else.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tmb::config {

/// Flat string key/value configuration with typed accessors.
///
/// Keys are case-sensitive; values are stored verbatim. Every `get*` call
/// marks its key as *used*, so drivers can report flags they did not
/// understand (`unused_keys()`), catching typos like `--tabel=tagged`.
class Config {
public:
    Config() = default;

    /// Parses command-line arguments. Recognized shapes:
    ///   --key=value   --flag   (stored as "true")
    /// Arguments not starting with `--` are collected as positionals.
    /// A literal `--` ends flag parsing (the rest are positionals).
    [[nodiscard]] static Config from_args(int argc, const char* const* argv);

    /// Parses an inline spec: whitespace- and/or comma-separated
    /// `key=value` tokens ("backend=tl2 entries=4096"). Tokens without
    /// '=' are stored as boolean flags ("true").
    [[nodiscard]] static Config from_string(std::string_view spec);

    /// Sets (or overwrites) a key.
    void set(std::string_view key, std::string_view value);

    /// True when `key` is present (does not mark it used).
    [[nodiscard]] bool has(std::string_view key) const noexcept;

    // --- typed getters (all mark the key used) ---------------------------
    // A number must be the whole value and fit its type: get_u64 takes
    // decimal, 0x hex or a k/m suffix ("64k"); get_double must be finite.
    [[nodiscard]] std::string get(std::string_view key,
                                  std::string_view fallback) const;
    [[nodiscard]] std::uint64_t get_u64(std::string_view key,
                                        std::uint64_t fallback) const;
    [[nodiscard]] std::uint32_t get_u32(std::string_view key,
                                        std::uint32_t fallback) const;
    [[nodiscard]] double get_double(std::string_view key,
                                    double fallback) const;
    /// Accepts 1/0, true/false, yes/no, on/off (case-insensitive).
    [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

    /// Value without a fallback; nullopt when absent.
    [[nodiscard]] std::optional<std::string> get_optional(
        std::string_view key) const;

    /// Positional (non-flag) arguments, in order.
    [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
        return positional_;
    }

    /// Keys present but never read through a getter. Call after the driver
    /// consumed everything it understands; anything left is likely a typo.
    [[nodiscard]] std::vector<std::string> unused_keys() const;

    /// All keys, in insertion order.
    [[nodiscard]] std::vector<std::string> keys() const;

    /// Canonical "key=value key2=value2" rendering (insertion order), for
    /// logging and JSON provenance.
    [[nodiscard]] std::string to_string() const;

    /// Merge: every entry of `overrides` replaces/extends this config.
    void merge(const Config& overrides);

private:
    struct Entry {
        std::string key;
        std::string value;
        mutable bool used = false;
    };

    [[nodiscard]] const Entry* find(std::string_view key) const noexcept;
    Entry* find(std::string_view key) noexcept;

    std::vector<Entry> entries_;  // insertion-ordered; small N, linear scan
    std::vector<std::string> positional_;
};

/// The error a by-name factory throws for a name it does not know: it
/// names the bad value and lists the known ones, e.g. "unknown table
/// 'nonesuch' (known: tagless, tagged)".
[[nodiscard]] std::invalid_argument unknown_name(
    std::string_view kind, std::string_view name,
    const std::vector<std::string>& known);

/// Runs a program body, translating std::exception escapes — config typos,
/// unknown component names — into a one-line stderr message and exit code 2
/// instead of std::terminate. Benches and examples wrap their mains in this
/// so `--table=nonesuch` is a clean diagnostic, not a core dump.
int guarded_main(int (*body)(int, char**), int argc, char** argv);

/// Throws std::invalid_argument naming every key never consumed by a getter.
/// Call after the driver has read everything it understands, so a misspelled
/// flag (`--tabel=tagged`) fails loudly instead of silently running the
/// defaults. Paired with guarded_main this is a clean exit 2.
void reject_unknown(const Config& cfg);

}  // namespace tmb::config
