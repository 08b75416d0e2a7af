// registry.hpp — string-keyed factory registry behind every pluggable
// component.
//
// One `Registry<T, Args...>` instance exists per interface type: factories
// are registered under a short name ("tagless", "zipf", ...) and resolved at
// runtime from a `Config`, so ownership tables, workloads, schedules and
// trace sources are selected by `--table=` / `--workload=` / `--sched=` /
// `--source=` flags without recompilation (the config-driven
// component-factory style of hardware simulators like HybridSim).
//
// Built-in factories are registered eagerly by each layer's factory
// function (e.g. ownership::make_table bootstraps the table registry on
// first use); external code can add organizations at runtime:
//
//   config::Registry<ownership::AnyTable>::instance().add(
//       "my_table", [](const config::Config& cfg) { ...; });
//
// Lookup failures throw with the list of known names, so a typo in a flag
// is a one-line diagnosis rather than a silent default.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/config.hpp"

namespace tmb::config {

/// Factory registry for interface `T`. `Args...` are extra construction
/// parameters threaded through `create` (e.g. the schedule registry passes
/// the run's seed).
template <typename T, typename... Args>
class Registry {
public:
    using Factory = std::function<std::unique_ptr<T>(const Config&, Args...)>;

    /// The process-wide instance for this interface type.
    [[nodiscard]] static Registry& instance() {
        static Registry registry;
        return registry;
    }

    /// Registers (or replaces) a factory under `name`.
    void add(std::string name, Factory factory) {
        const std::scoped_lock lock(mutex_);
        for (auto& [existing, f] : factories_) {
            if (existing == name) {
                f = std::move(factory);
                return;
            }
        }
        factories_.emplace_back(std::move(name), std::move(factory));
    }

    /// Registers `factory` only when `name` is still unclaimed. Built-in
    /// bootstraps use this so an external registration made before the
    /// layer's first use is never silently clobbered.
    void add_default(std::string name, Factory factory) {
        const std::scoped_lock lock(mutex_);
        for (const auto& [existing, f] : factories_) {
            if (existing == name) return;
        }
        factories_.emplace_back(std::move(name), std::move(factory));
    }

    [[nodiscard]] bool contains(std::string_view name) const {
        const std::scoped_lock lock(mutex_);
        for (const auto& [existing, f] : factories_) {
            if (existing == name) return true;
        }
        return false;
    }

    /// Instantiates the component registered under `name`.
    /// Throws std::invalid_argument listing known names when absent.
    [[nodiscard]] std::unique_ptr<T> create(std::string_view name,
                                            const Config& cfg,
                                            Args... args) const {
        Factory factory;
        {
            const std::scoped_lock lock(mutex_);
            for (const auto& [existing, f] : factories_) {
                if (existing == name) {
                    factory = f;
                    break;
                }
            }
        }
        if (!factory) {
            std::string known;
            for (const std::string& n : names()) {
                if (!known.empty()) known += ", ";
                known += n;
            }
            throw std::invalid_argument("registry: unknown component '" +
                                        std::string(name) + "' (known: " +
                                        known + ")");
        }
        return factory(cfg, std::forward<Args>(args)...);
    }

    /// Registered names, in registration order.
    [[nodiscard]] std::vector<std::string> names() const {
        const std::scoped_lock lock(mutex_);
        std::vector<std::string> out;
        out.reserve(factories_.size());
        for (const auto& [name, f] : factories_) out.push_back(name);
        return out;
    }

private:
    Registry() = default;

    mutable std::mutex mutex_;
    std::vector<std::pair<std::string, Factory>> factories_;
};

}  // namespace tmb::config
