// adaptive_stm.hpp — public face of the contention-adaptive runtime.
//
// The machinery lives behind `backend=adaptive`, built by the same engine
// factory as every other backend, so most callers never include this header:
//
//   auto tm = stm::Stm::create(config::Config::from_string(
//       "backend=adaptive engine=table table=tagless entries=1024 "
//       "policy=auto epoch=512"));
//
// AdaptiveStm is a thin convenience wrapper for code that wants the
// adaptive runtime by type rather than by string: it pins backend=adaptive,
// forwards transactions, and exposes the live engine description.
//
// Epoch protocol (implemented in adaptive_stm.cpp):
//
//   1. Every committed transaction advances the current epoch's counters.
//      Every N commits (an epoch boundary) the policy (adapt/policy.hpp)
//      examines the epoch sample; a switch decision is *staged* —
//      published as a pending config, never applied in the commit path.
//   2. A beginning transaction that sees a pending switch stands back
//      (yielding) instead of entering the engine; when the last in-flight
//      transaction drains, one beginner performs the swap: asserts the old
//      engine's metadata is fully released (occupied_metadata_entries()==0
//      — quiescence is a hard invariant, not a hope), builds the new engine
//      from the staged config, and republishes.
//   3. Contexts lazily rebind: each holds a shared_ptr to the epoch it was
//      created under, so the old engine outlives its last context even
//      after the swap, and no transaction ever spans two engines.
//
// Every swap passes a kPolicySwitch scheduler yield point, so the sched
// harness explores transitions like any other interleaving and the
// serializability oracle checks runs that switch engines mid-schedule.
#pragma once

#include <memory>
#include <string>

#include "config/config.hpp"
#include "stm/stm.hpp"

namespace tmb::adapt {

/// The contention-adaptive STM: an stm::Stm pinned to backend=adaptive.
class AdaptiveStm {
public:
    /// Builds from the usual key set (stm_config_from) with backend forced
    /// to adaptive; `engine=`, `policy=`, `epoch=`, `max_entries=` select
    /// the wrapped engine and policy.
    explicit AdaptiveStm(const config::Config& cfg);

    /// Runs `fn` transactionally on the currently mounted engine.
    template <typename F>
    decltype(auto) atomically(F&& fn) {
        return stm_->atomically(std::forward<F>(fn));
    }

    /// The underlying runtime (for make_executor etc.).
    [[nodiscard]] stm::Stm& stm() noexcept { return *stm_; }

    /// Live engine shape, e.g. "adaptive(table=tagged entries=16384
    /// locks=eager epoch=3)" — changes when the policy switches.
    [[nodiscard]] std::string describe() const {
        return stm_->backend_description();
    }

    [[nodiscard]] stm::StmStats stats() const noexcept {
        return stm_->stats();
    }

private:
    std::unique_ptr<stm::Stm> stm_;
};

}  // namespace tmb::adapt
