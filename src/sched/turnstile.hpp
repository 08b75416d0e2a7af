// turnstile.hpp — the cooperative one-thread-at-a-time baton under the
// exploration core's drive loop (sched/explore.cpp), which every subject
// runs on.
//
// Exactly one party — the scheduler or one worker — holds the baton at any
// moment. Semaphore handoff gives the happens-before edges that make the
// workers' plain accesses to shared run state race-free (and TSan-clean)
// despite no further locking. Workers park inside a SchedulerHook yield;
// the scheduler runs one worker per grant(), from its parked yield point to
// its next one (or to completion).
//
// Cancellation protocol: cancel() sets a flag, then the scheduler grants
// every still-runnable worker exactly one wake-up; each throws
// HarnessCancelled out of its next yield and unwinds. A yield reached while
// *unwinding* (cancel already set on entry) throws immediately without
// parking, so no worker can ever park with nobody left to grant it.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <semaphore>
#include <vector>

#include "stm/sched_hook.hpp"

namespace tmb::sched {

/// Thrown into a virtual thread at its next yield point when the run is
/// cancelled (step budget exhausted). Never escapes the run driver.
struct HarnessCancelled {};

/// Semaphore turnstile: see header comment for the protocol.
class Turnstile {
public:
    explicit Turnstile(std::uint32_t n) : workers_(n) {}

    // --- worker side -----------------------------------------------------

    /// Yields from a worker's hook: parks the worker and wakes the
    /// scheduler. Throws HarnessCancelled when the run was cancelled while
    /// parked — or already cancelled on entry (see header).
    void worker_yield(std::uint32_t id, stm::detail::YieldPoint point,
                      stm::detail::YieldSite site) {
        if (cancel_.load(std::memory_order_relaxed)) throw HarnessCancelled{};
        workers_[id].last_point = point;
        workers_[id].last_site = site;
        scheduler_go_.release();
        workers_[id].go.acquire();
        if (cancel_.load(std::memory_order_relaxed)) throw HarnessCancelled{};
    }

    /// Marks a worker done (normally or with `error`) and wakes the
    /// scheduler one last time.
    void worker_finish(std::uint32_t id, std::exception_ptr error) {
        workers_[id].error = std::move(error);
        workers_[id].finished = true;
        scheduler_go_.release();
    }

    // --- scheduler side --------------------------------------------------

    /// Waits until all n workers have reached their first yield point (each
    /// release is one worker parking — or finishing instantly).
    void await_parked(std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) scheduler_go_.acquire();
    }

    /// Runs worker `id` for one step: from its parked yield point to its
    /// next one (or to completion).
    void grant(std::uint32_t id) {
        workers_[id].go.release();
        scheduler_go_.acquire();
    }

    void cancel() { cancel_.store(true, std::memory_order_relaxed); }

    [[nodiscard]] bool finished(std::uint32_t id) const {
        return workers_[id].finished;
    }
    [[nodiscard]] stm::detail::YieldPoint last_point(std::uint32_t id) const {
        return workers_[id].last_point;
    }
    [[nodiscard]] stm::detail::YieldSite last_site(std::uint32_t id) const {
        return workers_[id].last_site;
    }
    [[nodiscard]] std::exception_ptr error(std::uint32_t id) const {
        return workers_[id].error;
    }

private:
    struct Worker {
        std::binary_semaphore go{0};
        stm::detail::YieldPoint last_point = stm::detail::YieldPoint::kTxBegin;
        stm::detail::YieldSite last_site = stm::detail::YieldSite::kRunBegin;
        bool finished = false;
        std::exception_ptr error;
    };

    std::vector<Worker> workers_;
    /// Counting, not binary: during startup all N workers release once
    /// each (racing freely to their first yield point) before await_parked
    /// drains them — a binary semaphore's max would be exceeded (UB).
    std::counting_semaphore<64> scheduler_go_{0};
    std::atomic<bool> cancel_{false};
};

/// The per-worker SchedulerHook: forwards every runtime yield point into
/// the turnstile.
class WorkerHook final : public stm::detail::SchedulerHook {
public:
    WorkerHook(Turnstile& ts, std::uint32_t id) : ts_(ts), id_(id) {}

    void yield(stm::detail::YieldPoint point,
               stm::detail::YieldSite site) override {
        ts_.worker_yield(id_, point, site);
    }

private:
    Turnstile& ts_;
    std::uint32_t id_;
};

}  // namespace tmb::sched
