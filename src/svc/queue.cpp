// queue.cpp — SubmitQueues' spin phase and the futex calls behind its
// eventcount (see the header comment in queue.hpp for the protocol).
#include "svc/queue.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>

#include "util/bits.hpp"

namespace tmb::svc {

namespace {

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the generation word must be a plain 32-bit futex word");

long futex(std::atomic<std::uint32_t>& word, int op, std::uint32_t val,
           const timespec* timeout) {
    return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
                   op | FUTEX_PRIVATE_FLAG, val, timeout, nullptr, 0);
}

// The spin lasts no longer than the park-and-wake round trip it avoids:
// about 4 us on a 4-vCPU x86 host, the median request latency svc_open
// saves when its dispatchers stop sleeping between requests. A spin that
// finds nothing then wastes at most what parking would have cost the next
// request.
constexpr auto kSpin = std::chrono::microseconds(5);
// Hint probes per clock read: the deadline needs no finer check.
constexpr int kProbesPerClockRead = 8;

}  // namespace

bool SubmitQueues::work_hint() const {
    if (closed_.load(std::memory_order_relaxed)) return true;
    for (const auto& sh : shards_) {
        if (!sh->empty()) return true;
    }
    return false;
}

bool SubmitQueues::spin_for_work() const {
    const auto until = std::chrono::steady_clock::now() + kSpin;
    do {
        for (int i = 0; i < kProbesPerClockRead; ++i) {
            if (work_hint()) return true;
            util::cpu_relax();
        }
    } while (std::chrono::steady_clock::now() < until);
    return false;
}

ParkResult SubmitQueues::park(std::chrono::nanoseconds timeout) {
    if (spin_for_work()) return ParkResult::kWorkSeen;
    waiters_.fetch_add(1, std::memory_order_relaxed);
    // Pairs with the fence in try_push(): see the header comment.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    ParkResult result = ParkResult::kWorkSeen;
    if (all_empty() && !closed()) {
        const auto secs =
            std::chrono::duration_cast<std::chrono::seconds>(timeout);
        timespec rel{};
        rel.tv_sec = static_cast<std::time_t>(secs.count());
        rel.tv_nsec = static_cast<long>((timeout - secs).count());
        // Returns at once (EAGAIN) if a wake bumped the generation after
        // the read above; a wake or EINTR is not a timeout.
        result = futex(generation_, FUTEX_WAIT, gen, &rel) == -1 &&
                         errno == ETIMEDOUT
                     ? ParkResult::kTimedOut
                     : ParkResult::kWoken;
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return result;
}

void SubmitQueues::wake(int n) {
    generation_.fetch_add(1, std::memory_order_release);
    futex(generation_, FUTEX_WAKE, static_cast<std::uint32_t>(n), nullptr);
}

}  // namespace tmb::svc
