// slot_pool.hpp — internal: bitmask-based pool of transaction slot ids.
//
// Table backends identify live transactions by small ids (holder-bitmap
// indices). The pool hands out the lowest free id and blocks (yielding)
// when all are in flight. By default it hands out the ownership tables'
// one TxId range, [0, ownership::kMaxTx).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>

#include "ownership/ownership.hpp"

namespace tmb::stm::detail {

class SlotPool {
public:
    /// `capacity` <= 64: number of usable slot ids [0, capacity).
    explicit SlotPool(std::uint32_t capacity = ownership::kMaxTx) noexcept
        : unusable_(capacity >= 64 ? 0 : ~((std::uint64_t{1} << capacity) - 1)) {}

    [[nodiscard]] ownership::TxId acquire() noexcept {
        for (;;) {
            std::uint64_t used = used_.load(std::memory_order_relaxed);
            const std::uint64_t occupied = used | unusable_;
            if (~occupied != 0) {
                const auto slot =
                    static_cast<ownership::TxId>(std::countr_one(occupied));
                if (used_.compare_exchange_weak(used,
                                                used | (std::uint64_t{1} << slot),
                                                std::memory_order_acquire)) {
                    return slot;
                }
                continue;
            }
            std::this_thread::yield();
        }
    }

    void release(ownership::TxId slot) noexcept {
        used_.fetch_and(~(std::uint64_t{1} << slot), std::memory_order_release);
    }

private:
    std::uint64_t unusable_;
    std::atomic<std::uint64_t> used_{0};
};

}  // namespace tmb::stm::detail
