// queue.hpp — the service front door: sharded, bounded, mutex-striped
// submission rings, plus the eventcount idle dispatchers park on.
//
// Admission control lives here: try_push on a full shard fails immediately
// (the caller counts an explicit rejection) instead of blocking or growing
// — the queue is the only buffer between clients and dispatchers, so its
// capacity bounds both memory and queueing delay by construction.
//
// Locking discipline: each shard has its own mutex, held only across the
// O(1) ring operation — never across a scheduler yield point. Under the
// deterministic turnstile (svc/sched_service.cpp) only one virtual thread
// runs at a time, so a thread parked at a yield while holding a shard lock
// would deadlock the whole run; callers therefore yield strictly outside
// these methods. Under real threads the same discipline keeps the critical
// sections a handful of instructions.
//
// Spin, then sleep: a dispatcher that finds every ring empty first polls a
// work hint for up to kSpin (queue.cpp) and returns as soon as it is set:
// when requests arrive microseconds apart the next push usually lands
// inside the spin, where a futex sleep and wake would have cost that
// request about as long again.
// The hint reads each shard's head and tail and the closed flag with
// relaxed loads and takes no mutex. head and tail are atomics for that
// reason only: they are still written under the shard mutex, so the ring
// protocol and FIFO order do not depend on the hint. It is only a hint: a
// stale "non-empty" costs the caller one more pass over the rings, whose
// pops take the mutex, and a push the spin misses is still caught by the
// eventcount below, so neither loses a wakeup.
//
// Eventcount: after the spin, the dispatcher parks on a 32-bit generation
// word (a futex) and holds no lock while parked. park() announces itself in
// a waiter count, fences, reads the generation and re-probes the rings and
// the closed flag under the shard mutexes; only if there is still nothing
// to do does it wait for the generation to move. A successful try_push
// fences and loads the waiter count, and only when someone is announced
// bumps the generation and wakes one waiter — with nobody parked a push
// pays one fence and one load. The two fences form a Dekker pair: either
// the push sees the announced waiter, or the re-probe sees the push, so no
// wakeup is lost; a bump between the parker's read and its wait makes the
// wait return at once. close() bumps the generation and wakes every
// waiter. The park timeout therefore only bounds a lost wakeup. TSan does
// not model standalone fences (GCC warns under -fsanitize=thread), but it
// still sees the pair ordered: the push and the re-probe take the same
// shard mutex, which is why the re-probe does not use the hint.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace tmb::svc {

/// One client operation in flight. The op list a request performs is
/// derived deterministically from `seed` (svc/service.cpp), so the request
/// itself stays a fixed-size POD in the ring.
struct Request {
    std::uint64_t id = 0;           ///< globally unique (client-major order)
    std::uint32_t client = 0;       ///< submitting client index
    std::uint64_t seed = 0;         ///< derives the transactional op list
    std::uint64_t submit_at = 0;    ///< clock at submission (us or steps)
    std::uint64_t deadline_at = 0;  ///< absolute deadline; 0 = none
};

/// Why SubmitQueues::park returned.
enum class ParkResult : std::uint8_t {
    kWorkSeen,  ///< work or close() seen before sleeping (spin or re-probe)
    kWoken,     ///< reached FUTEX_WAIT; a wake, EINTR or an earlier bump
                ///< of the generation ended it
    kTimedOut,  ///< reached FUTEX_WAIT and slept for the whole timeout
};

class SubmitQueues {
public:
    SubmitQueues(std::uint32_t shards, std::uint32_t depth)
        : depth_(depth == 0 ? 1 : depth) {
        shards_.reserve(shards == 0 ? 1 : shards);
        for (std::uint32_t s = 0; s < (shards == 0 ? 1 : shards); ++s) {
            shards_.push_back(std::make_unique<Shard>());
            shards_.back()->ring.resize(depth_);
        }
    }

    /// False when the shard is full (admission rejection) or intake is
    /// closed (shutdown began). Never blocks beyond the shard mutex; wakes
    /// one parked dispatcher when one is announced.
    bool try_push(std::uint32_t shard, const Request& r) {
        {
            Shard& sh = *shards_[shard % shards_.size()];
            const std::lock_guard<std::mutex> lock(sh.mu);
            if (closed_.load(std::memory_order_relaxed)) return false;
            const std::uint64_t tail = sh.tail.load(std::memory_order_relaxed);
            if (tail - sh.head.load(std::memory_order_relaxed) == depth_) {
                return false;
            }
            sh.ring[tail % depth_] = r;
            sh.tail.store(tail + 1, std::memory_order_relaxed);
        }
        // Pairs with the fence in park(): see the header comment.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (waiters_.load(std::memory_order_relaxed) != 0) wake(1);
        return true;
    }

    /// False when the shard is empty.
    bool try_pop(std::uint32_t shard, Request& out) {
        Shard& sh = *shards_[shard % shards_.size()];
        const std::lock_guard<std::mutex> lock(sh.mu);
        const std::uint64_t head = sh.head.load(std::memory_order_relaxed);
        if (sh.tail.load(std::memory_order_relaxed) == head) return false;
        out = sh.ring[head % depth_];
        sh.head.store(head + 1, std::memory_order_relaxed);
        return true;
    }

    /// Stops intake: every subsequent try_push fails, and every parked
    /// dispatcher wakes. Requests already queued stay poppable — the drain
    /// protocol empties them.
    void close() {
        closed_.store(true, std::memory_order_seq_cst);
        wake(kWakeAll);
    }
    [[nodiscard]] bool closed() const {
        return closed_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] bool all_empty() const {
        for (const auto& sh : shards_) {
            const std::lock_guard<std::mutex> lock(sh->mu);
            if (!sh->empty()) return false;
        }
        return true;
    }

    /// Waits while every ring is empty and intake is open: spins on the
    /// work hint for up to kSpin, then sleeps until a push or close() wakes
    /// the caller or `timeout` passes. Returns kWorkSeen without sleeping
    /// when the spin or the re-probe finds work or intake closed.
    ParkResult park(std::chrono::nanoseconds timeout);

    [[nodiscard]] std::uint32_t shards() const {
        return static_cast<std::uint32_t>(shards_.size());
    }
    [[nodiscard]] std::uint32_t depth() const { return depth_; }
    /// Total requests the rings can hold — the in-flight bound the
    /// kill-point conservation oracle checks against.
    [[nodiscard]] std::uint64_t capacity() const {
        return std::uint64_t{depth_} * shards_.size();
    }
    /// Dispatchers announced in park() right now (past the spin, possibly
    /// not yet asleep).
    [[nodiscard]] std::uint32_t parked() const {
        return waiters_.load(std::memory_order_seq_cst);
    }

private:
    struct Shard {
        mutable std::mutex mu;
        std::vector<Request> ring;
        // Written only under `mu`; atomic so the work hint may read them
        // without it (see the header comment).
        std::atomic<std::uint64_t> head{0};  ///< pop position (monotonic)
        std::atomic<std::uint64_t> tail{0};  ///< push position (monotonic)

        [[nodiscard]] bool empty() const {
            return tail.load(std::memory_order_relaxed) ==
                   head.load(std::memory_order_relaxed);
        }
    };

    static constexpr int kWakeAll = std::numeric_limits<int>::max();
    /// Bumps the generation and wakes up to `n` parked dispatchers.
    void wake(int n);
    /// Lock-free and possibly stale: some ring looked non-empty or intake
    /// looked closed.
    [[nodiscard]] bool work_hint() const;
    /// Polls work_hint() for up to kSpin; true as soon as it is set.
    [[nodiscard]] bool spin_for_work() const;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::uint32_t depth_;
    std::atomic<bool> closed_{false};
    // The eventcount: written by parks and wakes only, so it gets its own
    // cache line away from the read-mostly fields above.
    alignas(64) std::atomic<std::uint32_t> generation_{0};
    std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace tmb::svc
