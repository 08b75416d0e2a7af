#include "ownership/tagged_table.hpp"

#include <mutex>
#include <stdexcept>

#include "util/bits.hpp"

namespace tmb::ownership {

TaggedTable::TaggedTable(TableConfig config)
    : config_(config), hasher_(config.hash, config.entries), slots_(config.entries) {
    if (config_.entries == 0) throw std::invalid_argument("table must have entries");
}

/// Test-and-test-and-set: a waiter spins on loads, not exchanges, so it
/// leaves the slot's cache line with the holder until its release store.
void TaggedTable::Slot::lock() noexcept {
    while (locked.exchange(true, std::memory_order_acquire)) {
        while (locked.load(std::memory_order_relaxed)) util::cpu_relax();
    }
}

std::uint64_t TaggedTable::index_of(std::uint64_t block) const noexcept {
    return hasher_(block);
}

TaggedTable::Record* TaggedTable::find(Slot& slot, std::uint64_t block) {
    if (slot.first.mode == Mode::kFree) return nullptr;  // empty slot
    if (slot.first.block == block) return &slot.first;
    if (slot.overflow) {
        for (Record& r : *slot.overflow) {
            if (r.block == block) return &r;
        }
    }
    return nullptr;
}

TaggedTable::Record& TaggedTable::find_or_create(Slot& slot, std::uint64_t block) {
    if (Record* r = find(slot, block)) return *r;
    if (slot.first.mode == Mode::kFree) {
        slot.first = Record{.block = block};
        return slot.first;
    }
    if (!slot.overflow) slot.overflow = std::make_unique<std::vector<Record>>();
    slot.overflow->push_back(Record{.block = block});
    return slot.overflow->back();
}

/// Unlinks a freed record. Chained records swap-remove (order within a
/// chain is not observable); a freed inline record promotes the chain tail
/// so the "overflow implies inline live" invariant holds. Buffers persist.
void TaggedTable::remove(Slot& slot, Record& record) {
    if (&record == &slot.first) {
        if (slot.overflow && !slot.overflow->empty()) {
            slot.first = slot.overflow->back();
            slot.overflow->pop_back();
        } else {
            slot.first = Record{};
        }
        return;
    }
    record = slot.overflow->back();
    slot.overflow->pop_back();
}

AcquireResult TaggedTable::acquire_read(TxId tx, std::uint64_t block) {
    Slot& slot = slots_[index_of(block)];
    const std::lock_guard guard(slot);
    Record& r = find_or_create(slot, block);
    switch (r.mode) {
        case Mode::kFree:
            r.mode = Mode::kRead;
            r.sharers = tx_bit(tx);
            return {.ok = true};
        case Mode::kRead:
            r.sharers |= tx_bit(tx);
            return {.ok = true};
        case Mode::kWrite:
            if (r.writer == tx) return {.ok = true};
            return {.ok = false, .conflicting = tx_bit(r.writer)};
    }
    return {.ok = false};
}

AcquireResult TaggedTable::acquire_write(TxId tx, std::uint64_t block) {
    Slot& slot = slots_[index_of(block)];
    const std::lock_guard guard(slot);
    Record& r = find_or_create(slot, block);
    switch (r.mode) {
        case Mode::kFree:
            r.mode = Mode::kWrite;
            r.writer = tx;
            r.sharers = 0;
            return {.ok = true};
        case Mode::kRead: {
            const std::uint64_t others = r.sharers & ~tx_bit(tx);
            if (others == 0) {
                r.mode = Mode::kWrite;
                r.writer = tx;
                r.sharers = 0;
                return {.ok = true};
            }
            return {.ok = false, .conflicting = others};
        }
        case Mode::kWrite:
            if (r.writer == tx) return {.ok = true};
            return {.ok = false, .conflicting = tx_bit(r.writer)};
    }
    return {.ok = false};
}

void TaggedTable::release(TxId tx, std::uint64_t block, Mode /*mode*/) {
    Slot& slot = slots_[index_of(block)];
    const std::lock_guard guard(slot);
    Record* r = find(slot, block);
    if (r == nullptr) return;  // tolerated: release of an unknown block
    bool now_free = false;
    if (r->mode == Mode::kRead) {
        r->sharers &= ~tx_bit(tx);
        if (r->sharers == 0) now_free = true;
    } else if (r->mode == Mode::kWrite && r->writer == tx) {
        now_free = true;
    }
    if (now_free) remove(slot, *r);
}

std::uint64_t TaggedTable::occupied_entries() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : slots_) n += s.live();
    return n;
}

std::uint64_t TaggedTable::chained_slots() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : slots_) n += s.live() >= 2 ? 1u : 0u;
    return n;
}

util::Histogram TaggedTable::chain_length_histogram() const {
    util::Histogram h(32);
    for (const auto& s : slots_) h.add(s.live());
    return h;
}

void TaggedTable::clear() {
    for (auto& s : slots_) {
        s.first = Record{};
        if (s.overflow) s.overflow->clear();  // buffer retained
    }
}

}  // namespace tmb::ownership
