// atomic_tagless_table.hpp — the tagless ownership table of paper Fig. 1.
//
// Each entry is {mode, owner-or-sharers}; the accessed address is NOT
// recorded, so all blocks hashing to an entry share its permission state.
// Cross-transaction aliasing with at least one writer is conservatively a
// conflict — the false conflicts whose rate the paper models.
//
// This is the one tagless class: the STM's tagless engine runs it on real
// threads, and `make_table("tagless")`, the open- and closed-system
// simulators, trace-alias and the hybrid-TM model run it single-threaded.
// Each entry is a single atomic word manipulated with CAS, so transactions
// on different threads acquire and release entries without any shared
// lock.
//
// Entry word layout (64 bits):
//   bits 63..62  mode: 0 = Free, 1 = Read, 2 = Write
//   bits 61..0   Read:  sharer bitmap (one bit per TxId; ids 0..61, hence
//                       ownership::kMaxTx = 62)
//                Write: writer TxId
//
// The single-word layout is exactly why tagless tables appeal to STM
// implementers (paper §2.1: no tags, no chains, one CAS per acquire) — and
// it changes nothing about their false-conflict pathology, which this class
// inherits by construction. An acquire or a read release is one locked
// instruction; a write release is a plain store. The table counts nothing
// (ownership.hpp): an acquire touches its entry word and nothing else, and
// `occupied_entries()` is an O(N) scan, so a caller that samples occupancy
// often (the closed-system simulator) counts it itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "ownership/ownership.hpp"

namespace tmb::ownership {

class AtomicTaglessTable {
public:
    explicit AtomicTaglessTable(TableConfig config);

    AtomicTaglessTable(const AtomicTaglessTable&) = delete;
    AtomicTaglessTable& operator=(const AtomicTaglessTable&) = delete;

    /// Lock-free; linearizes at a successful CAS (or at the load that
    /// observes a conflicting state). Throws std::out_of_range when
    /// `tx >= kMaxTx`: a TxId of 62 or 63 would set a mode bit in the
    /// entry word instead of a sharer bit, silently corrupting the entry.
    AcquireResult acquire_read(TxId tx, std::uint64_t block);
    AcquireResult acquire_write(TxId tx, std::uint64_t block);
    /// A read release clears the sharer bit with a CAS. A write release is
    /// a release store of the free word: only the writer ever changes a
    /// write-held entry, as long as a TxId names one transaction on one
    /// thread at a time. Releasing an entry `tx` does not hold (an alias
    /// already released, or another TxId's) is a no-op.
    void release(TxId tx, std::uint64_t block, Mode mode);

    [[nodiscard]] std::uint64_t entry_count() const noexcept { return config_.entries; }
    [[nodiscard]] const TableConfig& config() const noexcept { return config_; }
    /// Non-free entries; an O(N) scan, exact only when quiescent.
    [[nodiscard]] std::uint64_t occupied_entries() const noexcept;

    /// Not thread-safe; call only at quiescent points.
    void clear();

    // Inspection (racy by nature; exact only when quiescent). The
    // simulators read mode_at(block): they draw blocks below N under the
    // shift-mask hash, so block b is entry b.
    [[nodiscard]] Mode mode_at(std::uint64_t index) const noexcept;
    [[nodiscard]] std::uint64_t sharers_at(std::uint64_t index) const noexcept;
    [[nodiscard]] TxId writer_at(std::uint64_t index) const noexcept;

private:
    static constexpr std::uint64_t kModeShift = 62;
    static constexpr std::uint64_t kPayloadMask = (std::uint64_t{1} << 62) - 1;
    static constexpr std::uint64_t kFreeWord = 0;

    [[nodiscard]] std::uint64_t index_of(std::uint64_t block) const noexcept;

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

    TableConfig config_;
    util::BlockHasher hasher_;
    std::vector<std::atomic<std::uint64_t>> entries_;
};

static_assert(OwnershipTable<AtomicTaglessTable>);

}  // namespace tmb::ownership
