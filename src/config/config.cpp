#include "config/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace tmb::config {

namespace {

[[nodiscard]] std::string lower(std::string_view s) {
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

/// The positional at `index` as a one-key `key=value` config (empty when
/// there is none), so that it goes through the flag's checked getter.
[[nodiscard]] Config positional(const Config& cli, std::string_view key,
                                std::size_t index) {
    Config out;
    const auto& pos = cli.positional();
    if (index < pos.size()) out.set(key, pos[index]);
    return out;
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
    Config cfg;
    bool flags_done = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (flags_done || arg.empty() || arg[0] != '-' ||
            !arg.starts_with("--")) {
            cfg.positional_.emplace_back(arg);
            continue;
        }
        if (arg == "--") {
            flags_done = true;
            continue;
        }
        const std::string_view body = arg.substr(2);
        const auto eq = body.find('=');
        if (eq != std::string_view::npos) {
            cfg.set(body.substr(0, eq), body.substr(eq + 1));
        } else {
            // Bare flag → boolean. Values always use `--key=value`: binding
            // the next token would silently swallow positionals after
            // boolean flags (`--model my.trace`).
            cfg.set(body, "true");
        }
    }
    return cfg;
}

Config Config::from_string(std::string_view spec) {
    Config cfg;
    std::size_t pos = 0;
    const auto is_sep = [](char c) {
        return c == ' ' || c == '\t' || c == '\n' || c == ',' || c == ';';
    };
    while (pos < spec.size()) {
        while (pos < spec.size() && is_sep(spec[pos])) ++pos;
        std::size_t end = pos;
        while (end < spec.size() && !is_sep(spec[end])) ++end;
        if (end > pos) {
            std::string_view token = spec.substr(pos, end - pos);
            if (token.starts_with("--")) token.remove_prefix(2);
            const auto eq = token.find('=');
            if (eq != std::string_view::npos) {
                cfg.set(token.substr(0, eq), token.substr(eq + 1));
            } else {
                cfg.set(token, "true");
            }
        }
        pos = end;
    }
    return cfg;
}

void Config::set(std::string_view key, std::string_view value) {
    if (Entry* e = find(key)) {
        e->value = std::string(value);
        return;
    }
    entries_.push_back(Entry{std::string(key), std::string(value)});
}

bool Config::has(std::string_view key) const noexcept {
    return find(key) != nullptr;
}

const Config::Entry* Config::find(std::string_view key) const noexcept {
    for (const Entry& e : entries_) {
        if (e.key == key) return &e;
    }
    return nullptr;
}

Config::Entry* Config::find(std::string_view key) noexcept {
    for (Entry& e : entries_) {
        if (e.key == key) return &e;
    }
    return nullptr;
}

std::string Config::get(std::string_view key, std::string_view fallback) const {
    if (const Entry* e = find(key)) {
        e->used = true;
        return e->value;
    }
    return std::string(fallback);
}

std::optional<std::string> Config::get_optional(std::string_view key) const {
    if (const Entry* e = find(key)) {
        e->used = true;
        return e->value;
    }
    return std::nullopt;
}

std::uint64_t Config::get_u64(std::string_view key,
                              std::uint64_t fallback) const {
    const Entry* e = find(key);
    if (!e) return fallback;
    e->used = true;
    const std::string& v = e->value;
    const auto fail = [&](const std::string& what) {
        return std::invalid_argument("config: key '" + std::string(key) +
                                     "' " + what + ": '" + v + "'");
    };
    // strtoull silently wraps negatives to huge values; reject them with the
    // proper diagnostic instead.
    if (v.find('-') != std::string::npos) {
        throw fail("is not a non-negative integer");
    }
    errno = 0;
    char* end = nullptr;
    const std::uint64_t out = std::strtoull(v.c_str(), &end, 0);
    if (end == v.c_str()) throw fail("is not an integer");
    if (errno == ERANGE) throw fail("is out of range");
    if (*end == '\0') return out;
    // Size suffixes: "64k" and "1m".
    const std::string rest = lower(end);
    const int shift = rest == "k" ? 10 : rest == "m" ? 20 : 0;
    if (shift == 0) throw fail("has trailing characters");
    if (out > (std::numeric_limits<std::uint64_t>::max() >> shift)) {
        throw fail("is out of range");
    }
    return out << shift;
}

std::uint32_t Config::get_u32(std::string_view key,
                              std::uint32_t fallback) const {
    const std::uint64_t out = get_u64(key, fallback);
    if (out > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument("config: key '" + std::string(key) +
                                    "' is out of range for 32 bits: '" +
                                    find(key)->value + "'");
    }
    return static_cast<std::uint32_t>(out);
}

double Config::get_double(std::string_view key, double fallback) const {
    const Entry* e = find(key);
    if (!e) return fallback;
    e->used = true;
    char* end = nullptr;
    const double out = std::strtod(e->value.c_str(), &end);
    if (end == e->value.c_str() || *end != '\0' || !std::isfinite(out)) {
        throw std::invalid_argument("config: key '" + std::string(key) +
                                    "' is not a finite number: '" +
                                    e->value + "'");
    }
    return out;
}

bool Config::get_bool(std::string_view key, bool fallback) const {
    const Entry* e = find(key);
    if (!e) return fallback;
    e->used = true;
    const std::string v = lower(e->value);
    if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
    if (v == "0" || v == "false" || v == "no" || v == "off") return false;
    throw std::invalid_argument("config: key '" + std::string(key) +
                                "' is not a boolean: '" + e->value + "'");
}

std::vector<std::string> Config::unused_keys() const {
    std::vector<std::string> out;
    for (const Entry& e : entries_) {
        if (!e.used) out.push_back(e.key);
    }
    return out;
}

std::vector<std::string> Config::keys() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.key);
    return out;
}

std::string Config::to_string() const {
    std::string out;
    for (const Entry& e : entries_) {
        if (!out.empty()) out += ' ';
        out += e.key;
        out += '=';
        out += e.value;
    }
    return out;
}

std::invalid_argument unknown_name(std::string_view kind,
                                   std::string_view name,
                                   const std::vector<std::string>& known) {
    std::string list;
    for (const std::string& n : known) {
        if (!list.empty()) list += ", ";
        list += n;
    }
    return std::invalid_argument("unknown " + std::string(kind) + " '" +
                                 std::string(name) + "' (known: " + list +
                                 ")");
}

void reject_unknown(const Config& cfg) {
    const auto unused = cfg.unused_keys();
    if (unused.empty()) return;
    std::string message = "unknown option";
    if (unused.size() > 1) message += 's';
    for (const std::string& key : unused) message += " --" + key;
    throw std::invalid_argument(message);
}

std::uint64_t opt_u64(const Config& cli, std::string_view key,
                      std::size_t index, std::uint64_t fallback) {
    if (cli.has(key)) return cli.get_u64(key, fallback);
    return positional(cli, key, index).get_u64(key, fallback);
}

std::uint32_t opt_u32(const Config& cli, std::string_view key,
                      std::size_t index, std::uint32_t fallback) {
    if (cli.has(key)) return cli.get_u32(key, fallback);
    return positional(cli, key, index).get_u32(key, fallback);
}

double opt_f64(const Config& cli, std::string_view key, std::size_t index,
               double fallback) {
    if (cli.has(key)) return cli.get_double(key, fallback);
    return positional(cli, key, index).get_double(key, fallback);
}

int guarded_main(int (*body)(int, char**), int argc, char** argv) {
    try {
        return body(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}

void Config::merge(const Config& overrides) {
    for (const Entry& e : overrides.entries_) set(e.key, e.value);
    positional_.insert(positional_.end(), overrides.positional_.begin(),
                       overrides.positional_.end());
}

}  // namespace tmb::config
