// atomic_tagless_table.hpp — a lock-free concurrent tagless ownership table.
//
// `TaglessTable` is the faithful single-threaded model of paper Fig. 1 used
// by the simulators. This class is the concurrent variant the STM's tagless
// engine runs on: each entry is a single atomic word manipulated with CAS,
// so transactions on different threads acquire and release entries without
// any shared lock.
//
// Entry word layout (64 bits):
//   bits 63..62  mode: 0 = Free, 1 = Read, 2 = Write
//   bits 61..0   Read:  sharer bitmap (one bit per TxId; ids 0..61)
//                Write: writer TxId
//
// The single-word layout is exactly why tagless tables appeal to STM
// implementers (paper §2.1: no tags, no chains, one CAS per acquire) — and
// it changes nothing about their false-conflict pathology, which this class
// inherits by construction. An acquire or a read release is one locked
// instruction; a write release is a plain store.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "ownership/ownership.hpp"

namespace tmb::ownership {

/// Maximum concurrent transactions for the atomic table (sharer bitmap is
/// 62 bits wide; two bits of the word encode the mode).
inline constexpr TxId kMaxAtomicTx = 62;

class AtomicTaglessTable {
public:
    explicit AtomicTaglessTable(TableConfig config);

    AtomicTaglessTable(const AtomicTaglessTable&) = delete;
    AtomicTaglessTable& operator=(const AtomicTaglessTable&) = delete;

    /// Lock-free; linearizes at a successful CAS (or at the load that
    /// observes a conflicting state). Throws std::out_of_range when
    /// `tx >= kMaxAtomicTx`: a TxId of 62 or 63 would set a mode bit in the
    /// entry word instead of a sharer bit, silently corrupting the entry.
    AcquireResult acquire_read(TxId tx, std::uint64_t block);
    AcquireResult acquire_write(TxId tx, std::uint64_t block);
    /// A read release clears the sharer bit with a CAS. A write release is
    /// a release store of the free word: only the writer ever changes a
    /// write-held entry, as long as a TxId names one transaction on one
    /// thread at a time. Releasing an entry `tx` does not hold (an alias
    /// already released, or another TxId's) is a no-op.
    void release(TxId tx, std::uint64_t block, Mode mode);

    [[nodiscard]] std::uint64_t index_of(std::uint64_t block) const noexcept;

    [[nodiscard]] std::uint64_t entry_count() const noexcept { return config_.entries; }
    [[nodiscard]] const TableConfig& config() const noexcept { return config_; }
    /// Sums the per-TxId shards. Exact while each TxId is used by one
    /// thread at a time (see CounterShard); two threads sharing a TxId may
    /// lose counts, and a lost count never touches an entry word.
    [[nodiscard]] TableCounters counters() const noexcept;
    [[nodiscard]] std::uint64_t occupied_entries() const noexcept;
    /// Largest number of concurrently live transactions: the sharer bitmap
    /// is only 62 bits wide, so TxIds 62 and 63 are NOT usable here even
    /// though other organizations accept them.
    [[nodiscard]] TxId max_tx() const noexcept { return kMaxAtomicTx; }

    /// Not thread-safe; call only at quiescent points.
    void clear();

    // Inspection for tests (racy by nature; exact only when quiescent).
    [[nodiscard]] Mode mode_at(std::uint64_t index) const noexcept;
    /// Permission state a non-transactional access to `block` would observe.
    [[nodiscard]] Mode mode_of_block(std::uint64_t block) const noexcept {
        return mode_at(index_of(block));
    }
    [[nodiscard]] std::uint64_t sharers_at(std::uint64_t index) const noexcept;
    [[nodiscard]] TxId writer_at(std::uint64_t index) const noexcept;

private:
    static constexpr std::uint64_t kModeShift = 62;
    static constexpr std::uint64_t kPayloadMask = (std::uint64_t{1} << 62) - 1;
    static constexpr std::uint64_t kFreeWord = 0;

    [[nodiscard]] static constexpr std::uint64_t pack(Mode mode,
                                                      std::uint64_t payload) {
        return (static_cast<std::uint64_t>(mode) << kModeShift) |
               (payload & kPayloadMask);
    }
    [[nodiscard]] static constexpr Mode mode_of(std::uint64_t word) {
        return static_cast<Mode>(word >> kModeShift);
    }
    [[nodiscard]] static constexpr std::uint64_t payload_of(std::uint64_t word) {
        return word & kPayloadMask;
    }

    /// Per-TxId statistics shard: counters are bumped on every acquire, so
    /// a single shared set would ping-pong one cache line between all
    /// threads; each transaction writes its own line instead and counters()
    /// sums at read time. Single writer: only the thread holding TxId `tx`
    /// writes shard `tx` (the STM's SlotPool hands a TxId over through a
    /// release/acquire pair; the simulators are single-threaded), so a
    /// bump is a relaxed load plus store, not a locked add. Sized kMaxTx
    /// (not kMaxAtomicTx) so release() — which tolerates any TxId — can
    /// index with `tx & 63` unconditionally.
    struct alignas(64) CounterShard {
        std::atomic<std::uint64_t> read_acquires{0};
        std::atomic<std::uint64_t> write_acquires{0};
        std::atomic<std::uint64_t> conflicts{0};
        std::atomic<std::uint64_t> releases{0};
    };

    TableConfig config_;
    util::BlockHasher hasher_;
    std::vector<std::atomic<std::uint64_t>> entries_;
    std::array<CounterShard, kMaxTx> counter_shards_;
};

static_assert(OwnershipTable<AtomicTaglessTable>);

}  // namespace tmb::ownership
