// tagless_table.hpp — the tagless ownership table of paper Fig. 1.
//
// Each entry is {mode, owner-or-sharers}; the accessed address is NOT
// recorded, so all blocks hashing to an entry share its permission state.
// Cross-transaction aliasing with at least one writer is conservatively a
// conflict — the false conflicts whose rate the paper models.
//
// Concurrency note: this class is the *organization* under study and is
// single-threaded: the simulators drive it directly, and it is the
// reference model AtomicTaglessTable is tested against. The STM runs the
// same organization on AtomicTaglessTable (one CAS per acquire, no lock).
#pragma once

#include <cstdint>
#include <vector>

#include "ownership/ownership.hpp"

namespace tmb::ownership {

class TaglessTable {
public:
    explicit TaglessTable(TableConfig config);

    /// Acquires read permission on the entry `block` hashes to.
    /// Fails iff another transaction holds the entry in Write mode.
    AcquireResult acquire_read(TxId tx, std::uint64_t block);

    /// Acquires write permission on the entry `block` hashes to.
    /// Fails iff any other transaction holds the entry (read or write).
    /// Upgrades a sole-reader hold by `tx` itself.
    AcquireResult acquire_write(TxId tx, std::uint64_t block);

    /// Releases `tx`'s hold on the entry `block` hashes to. Multiple blocks
    /// of one transaction aliasing to one entry share a single hold, so
    /// release is idempotent per entry; call at commit/abort time only.
    /// `mode` is accepted for interface parity and ignored (the entry knows).
    void release(TxId tx, std::uint64_t block, Mode mode);

    /// Entry index for a block (exposed so experiments can reason about
    /// aliasing without duplicating the hash).
    [[nodiscard]] std::uint64_t index_of(std::uint64_t block) const noexcept;

    /// Inspection (tests / stats).
    [[nodiscard]] Mode mode_at(std::uint64_t index) const noexcept;
    /// Permission state a non-transactional access to `block` would observe
    /// — the entry's mode, since a tagless entry speaks for every aliasing
    /// block (the strong-isolation hazard of paper §6).
    [[nodiscard]] Mode mode_of_block(std::uint64_t block) const noexcept {
        return mode_at(index_of(block));
    }
    [[nodiscard]] std::uint64_t sharers_at(std::uint64_t index) const noexcept;
    [[nodiscard]] TxId writer_at(std::uint64_t index) const noexcept;
    /// Number of non-Free entries; O(1) (maintained incrementally so the
    /// closed-system simulator can sample occupancy every tick).
    [[nodiscard]] std::uint64_t occupied_entries() const noexcept { return occupied_; }

    [[nodiscard]] std::uint64_t entry_count() const noexcept { return config_.entries; }
    [[nodiscard]] const TableConfig& config() const noexcept { return config_; }
    [[nodiscard]] TableCounters counters() const noexcept { return counters_; }

    /// Resets all entries to Free (counters are preserved).
    void clear();

private:
    struct Entry {
        Mode mode = Mode::kFree;
        TxId writer = 0;
        std::uint64_t sharers = 0;  ///< bitmap of reading transactions
    };

    TableConfig config_;
    util::BlockHasher hasher_;
    std::vector<Entry> entries_;
    TableCounters counters_;
    std::uint64_t occupied_ = 0;
};

static_assert(OwnershipTable<TaglessTable>);

}  // namespace tmb::ownership
