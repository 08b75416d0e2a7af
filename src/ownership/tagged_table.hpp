// tagged_table.hpp — the tagged, chaining ownership table of paper Fig. 7.
//
// Each first-level slot holds either zero, one (inline), or several
// (chained) *ownership records*, each tagged with the block it describes.
// Distinct blocks that alias in the hash therefore get distinct records and
// never produce false conflicts; the cost is an occasional chain traversal.
//
// The paper's space optimization — storing only the tag bits not implied by
// the slot index and block offset (e.g. 14 bits on a 32-bit machine with
// 64-byte blocks and a 4096-entry table) — is reported by `tag_bits()`; the
// in-memory representation keeps the full block address for simplicity,
// which changes no observable behaviour.
//
// Storage mirrors Fig. 7's record-or-pointer union: each slot holds its
// first record INLINE (§5: "the overwhelming majority of entries store 0 or
// 1 records", so the common acquire touches exactly one cache line and
// allocates nothing) and spills chained records into a lazily allocated
// overflow vector whose capacity is retained after release — steady-state
// acquire/release cycles are allocation-free even under chaining.
#pragma once

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

    [[nodiscard]] std::uint64_t index_of(std::uint64_t block) const noexcept;

    /// Permission state a non-transactional access to `block` would observe:
    /// the mode of `block`'s own record, kFree when none exists. Aliasing
    /// blocks have separate records, so (unlike a tagless table) an alias
    /// never makes a non-transactional access appear conflicting.
    [[nodiscard]] Mode mode_of_block(std::uint64_t block) const noexcept;

    /// Residual tag width for a given architecture address width and block
    /// size — the paper's §5 space-overhead argument.
    [[nodiscard]] unsigned tag_bits(unsigned address_bits,
                                    unsigned block_offset_bits) const noexcept;

    // --- inspection ---
    [[nodiscard]] std::uint64_t entry_count() const noexcept { return config_.entries; }
    [[nodiscard]] const TableConfig& config() const noexcept { return config_; }
    [[nodiscard]] TableCounters counters() const noexcept { return counters_; }
    [[nodiscard]] std::uint64_t record_count() const noexcept { return live_records_; }
    /// Live ownership records — the tagged analog of a tagless table's
    /// occupied entries (each held block has its own record, chained records
    /// counted individually). O(1); lets occupancy-sampling simulators run
    /// any organization through one interface.
    [[nodiscard]] std::uint64_t occupied_entries() const noexcept {
        return live_records_;
    }
    /// Slots currently holding >= 2 records (i.e. actually chained).
    [[nodiscard]] std::uint64_t chained_slots() const noexcept;
    /// Distribution of records per slot over the whole table.
    [[nodiscard]] util::Histogram chain_length_histogram() const;
    /// Total record-comparison steps performed by acquires (probe cost).
    [[nodiscard]] std::uint64_t probe_steps() const noexcept { return probe_steps_; }
    /// Acquires that had to look past the first record (alias traversals).
    [[nodiscard]] std::uint64_t alias_traversals() const noexcept {
        return alias_traversals_;
    }

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
    /// into a freed inline slot).
    struct Slot {
        Record first;
        std::unique_ptr<std::vector<Record>> overflow;

        [[nodiscard]] std::uint64_t live() const noexcept {
            return (first.mode != Mode::kFree ? 1u : 0u) +
                   (overflow ? overflow->size() : 0u);
        }
    };

    Record* find(Slot& slot, std::uint64_t block);
    Record& find_or_create(Slot& slot, std::uint64_t block);
    void remove(Slot& slot, Record& record);

    TableConfig config_;
    util::BlockHasher hasher_;
    std::vector<Slot> slots_;
    TableCounters counters_;
    std::uint64_t live_records_ = 0;
    std::uint64_t probe_steps_ = 0;
    std::uint64_t alias_traversals_ = 0;
};

static_assert(OwnershipTable<TaggedTable>);

}  // namespace tmb::ownership
