// tagged_table.hpp — the tagged, chaining ownership table of paper Fig. 7.
//
// Each first-level slot holds either zero, one (inline), or several
// (chained) *ownership records*, each tagged with the block it describes.
// Distinct blocks that alias in the hash therefore get distinct records and
// never produce false conflicts; the cost is an occasional chain traversal.
//
// The paper's space optimization — storing only the tag bits not implied by
// the slot index and block offset (e.g. 14 bits on a 32-bit machine with
// 64-byte blocks and a 4096-entry table) — is computed by
// `core::residual_tag_bits` (core/space_model.hpp); the in-memory
// representation keeps the full block address for simplicity, which
// changes no observable behaviour.
//
// Storage mirrors Fig. 7's record-or-pointer union: each slot holds its
// first record INLINE (§5: "the overwhelming majority of entries store 0 or
// 1 records", so the common acquire touches one 40-byte slot and allocates
// nothing) and spills chained records into a lazily allocated
// overflow vector whose capacity is retained after release — steady-state
// acquire/release cycles are allocation-free even under chaining.
//
// The STM runs this one tagged class on real threads; `make_table("tagged")`,
// trace-alias and the hybrid-TM model run it single-threaded. An acquire or
// release holds only its block's slot's spin lock, with no scheduler yield
// point inside: per slot, not per block, since a slot's blocks share its
// inline record and overflow vector. The table counts nothing; its scans
// (`occupied_entries`, `chained_slots`, `chain_length_histogram`) and
// `clear()` take no lock, so call them only at quiescent points.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ownership/ownership.hpp"
#include "util/histogram.hpp"

namespace tmb::ownership {

class TaggedTable {
public:
    explicit TaggedTable(TableConfig config);

    /// Acquire read permission on `block`'s own record. Fails iff another
    /// transaction holds a Write record for this exact block.
    AcquireResult acquire_read(TxId tx, std::uint64_t block);

    /// Acquire write permission on `block`'s own record. Fails iff any other
    /// transaction holds this exact block (read or write).
    AcquireResult acquire_write(TxId tx, std::uint64_t block);

    /// Releases `tx`'s hold on `block`'s record; empty records are unlinked.
    void release(TxId tx, std::uint64_t block, Mode mode);

    // --- inspection (scans, exact only when quiescent) ---
    [[nodiscard]] std::uint64_t entry_count() const noexcept { return config_.entries; }
    [[nodiscard]] const TableConfig& config() const noexcept { return config_; }
    /// Live ownership records — the tagged analog of a tagless table's
    /// occupied entries (each held block has its own record, chained records
    /// counted individually).
    [[nodiscard]] std::uint64_t occupied_entries() const noexcept;
    /// Slots currently holding >= 2 records (i.e. actually chained).
    [[nodiscard]] std::uint64_t chained_slots() const noexcept;
    /// Distribution of records per slot over the whole table.
    [[nodiscard]] util::Histogram chain_length_histogram() const;

    void clear();

private:
    struct Record {
        std::uint64_t block = 0;   ///< full tag (see header comment)
        Mode mode = Mode::kFree;
        TxId writer = 0;
        std::uint64_t sharers = 0;
    };
    /// One first-level entry: the first record inline (live iff its mode is
    /// not kFree), chained records in `overflow` (allocated on first chain,
    /// buffer kept across releases). Invariant: overflow is non-empty only
    /// while the inline record is live (release promotes a chained record
    /// into a freed inline slot). `locked` guards both.
    struct Slot {
        Record first;
        std::unique_ptr<std::vector<Record>> overflow;
        std::atomic<bool> locked{false};

        void lock() noexcept;
        void unlock() noexcept { locked.store(false, std::memory_order_release); }

        [[nodiscard]] std::uint64_t live() const noexcept {
            return (first.mode != Mode::kFree ? 1u : 0u) +
                   (overflow ? overflow->size() : 0u);
        }
    };

    [[nodiscard]] std::uint64_t index_of(std::uint64_t block) const noexcept;
    Record* find(Slot& slot, std::uint64_t block);
    Record& find_or_create(Slot& slot, std::uint64_t block);
    void remove(Slot& slot, Record& record);

    TableConfig config_;
    util::BlockHasher hasher_;
    std::vector<Slot> slots_;
};

static_assert(OwnershipTable<TaggedTable>);

}  // namespace tmb::ownership
