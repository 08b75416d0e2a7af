// queue.cpp — the futex calls behind SubmitQueues' eventcount (see the
// header comment in queue.hpp for the protocol).
#include "svc/queue.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>

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

}  // namespace

bool SubmitQueues::park(std::chrono::nanoseconds timeout) {
    waiters_.fetch_add(1, std::memory_order_relaxed);
    // Pairs with the fence in try_push(): see the header comment.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    bool timed_out = false;
    if (all_empty() && !closed()) {
        const auto secs =
            std::chrono::duration_cast<std::chrono::seconds>(timeout);
        timespec rel{};
        rel.tv_sec = static_cast<std::time_t>(secs.count());
        rel.tv_nsec = static_cast<long>((timeout - secs).count());
        // Returns at once (EAGAIN) if a wake bumped the generation after
        // the read above; a wake or EINTR is not a timeout.
        timed_out = futex(generation_, FUTEX_WAIT, gen, &rel) == -1 &&
                    errno == ETIMEDOUT;
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return timed_out;
}

void SubmitQueues::wake(int n) {
    generation_.fetch_add(1, std::memory_order_release);
    futex(generation_, FUTEX_WAKE, static_cast<std::uint32_t>(n), nullptr);
}

}  // namespace tmb::svc
