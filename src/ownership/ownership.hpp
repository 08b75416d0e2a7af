// ownership.hpp — common vocabulary for ownership tables.
//
// A word-based STM tracks per-block read/write permissions in a hashed
// *ownership table* (paper §2.1, Fig. 1). Transactions acquire read or write
// ownership of the entry their block hashes to; conflicting acquisitions
// force an abort. Two organizations are implemented, one class each:
//
//   * `AtomicTaglessTable` (Fig. 1): no tags; all blocks hashing to an entry
//     are indistinguishable → aliasing causes FALSE conflicts (the paper's
//     subject). One atomic word per entry, updated lock-free.
//   * `TaggedTable` (Fig. 7): tags + chaining; aliases get separate records
//     → no false conflicts, occasional chains. One spin lock per slot.
//
// Both expose the same acquire/release interface (the `OwnershipTable`
// concept below), safe on real threads, so the STM (on real threads), the
// simulators and the benches (single-threaded) run the same two classes.
#pragma once

#include <concepts>
#include <cstdint>

#include "util/hash.hpp"

namespace tmb::ownership {

/// Transaction identifier. Both organizations take TxIds [0, kMaxTx): the
/// tagless entry word spends two of its 64 bits on the mode and the other
/// 62 on the sharer bitmap (atomic_tagless_table.hpp). That is far beyond
/// the paper's experiments (C <= 8); the STM engine, its SlotPool and every
/// simulator check against this one cap.
using TxId = std::uint32_t;
inline constexpr TxId kMaxTx = 62;

/// Entry/record access mode.
enum class Mode : std::uint8_t { kFree = 0, kRead = 1, kWrite = 2 };

/// Outcome of an acquire operation.
struct AcquireResult {
    bool ok = false;
    /// Bitmap of transactions (bit i = TxId i) that hold the entry/record in
    /// a conflicting mode. Empty when ok.
    std::uint64_t conflicting = 0;

    [[nodiscard]] explicit operator bool() const noexcept { return ok; }
};

/// Table configuration shared by both organizations.
struct TableConfig {
    std::uint64_t entries = 4096;  ///< number of first-level slots (N)
    util::HashKind hash = util::HashKind::kMix64;
};

/// The shape every ownership-table organization satisfies. Acquire calls are
/// idempotent per (tx, block): re-acquiring a held permission succeeds
/// without extra bookkeeping. `release(tx, block, mode)` must be called once
/// per distinct (block, strongest-mode) the transaction acquired; releasing
/// a write that was upgraded from a read releases everything. Acquire and
/// release are thread-safe; `occupied_entries()` (an O(N) scan) and
/// `clear()` are for quiescent points. Tables count nothing: a caller that
/// wants counts keeps them (the STM into the transaction's StmStats block,
/// the simulators into their results).
template <typename T>
concept OwnershipTable = requires(T t, const T ct, TxId tx, std::uint64_t block) {
    { t.acquire_read(tx, block) } -> std::same_as<AcquireResult>;
    { t.acquire_write(tx, block) } -> std::same_as<AcquireResult>;
    { t.release(tx, block, Mode::kRead) } -> std::same_as<void>;
    { ct.entry_count() } -> std::convertible_to<std::uint64_t>;
    { ct.occupied_entries() } -> std::convertible_to<std::uint64_t>;
    { t.clear() } -> std::same_as<void>;
};

/// Bit helper for holder bitmaps.
[[nodiscard]] constexpr std::uint64_t tx_bit(TxId tx) noexcept {
    return std::uint64_t{1} << (tx & 63);
}

}  // namespace tmb::ownership
