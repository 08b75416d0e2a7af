#include "ownership/tagless_table.hpp"

#include <bit>
#include <stdexcept>

namespace tmb::ownership {

TaglessTable::TaglessTable(TableConfig config)
    : config_(config), hasher_(config.hash, config.entries) {
    if (config_.entries == 0) throw std::invalid_argument("table must have entries");
    entries_.resize(config_.entries);
}

std::uint64_t TaglessTable::index_of(std::uint64_t block) const noexcept {
    return hasher_(block);
}

AcquireResult TaglessTable::acquire_read(TxId tx, std::uint64_t block) {
    Entry& e = entries_[index_of(block)];
    switch (e.mode) {
        case Mode::kFree:
            e.mode = Mode::kRead;
            e.sharers = tx_bit(tx);
            ++occupied_;
            return {.ok = true};
        case Mode::kRead:
            e.sharers |= tx_bit(tx);
            return {.ok = true};
        case Mode::kWrite:
            if (e.writer == tx) return {.ok = true};  // own write covers reads
            return {.ok = false, .conflicting = tx_bit(e.writer)};
    }
    return {.ok = false};
}

AcquireResult TaglessTable::acquire_write(TxId tx, std::uint64_t block) {
    Entry& e = entries_[index_of(block)];
    switch (e.mode) {
        case Mode::kFree:
            e.mode = Mode::kWrite;
            e.writer = tx;
            e.sharers = 0;
            ++occupied_;
            return {.ok = true};
        case Mode::kRead: {
            const std::uint64_t others = e.sharers & ~tx_bit(tx);
            if (others == 0) {
                // Sole reader (us, or entry left with stale zero sharers):
                // upgrade in place.
                e.mode = Mode::kWrite;
                e.writer = tx;
                e.sharers = 0;
                return {.ok = true};
            }
            return {.ok = false, .conflicting = others};
        }
        case Mode::kWrite:
            if (e.writer == tx) return {.ok = true};
            return {.ok = false, .conflicting = tx_bit(e.writer)};
    }
    return {.ok = false};
}

void TaglessTable::release(TxId tx, std::uint64_t block, Mode /*mode*/) {
    Entry& e = entries_[index_of(block)];
    switch (e.mode) {
        case Mode::kFree:
            return;  // tolerated: alias of an already-released hold
        case Mode::kRead:
            e.sharers &= ~tx_bit(tx);
            if (e.sharers == 0) {
                e.mode = Mode::kFree;
                --occupied_;
            }
            return;
        case Mode::kWrite:
            if (e.writer == tx) {
                e.mode = Mode::kFree;
                e.writer = 0;
                e.sharers = 0;
                --occupied_;
            }
            return;
    }
}

Mode TaglessTable::mode_at(std::uint64_t index) const noexcept {
    return entries_[index].mode;
}

std::uint64_t TaglessTable::sharers_at(std::uint64_t index) const noexcept {
    const Entry& e = entries_[index];
    return e.mode == Mode::kRead
               ? static_cast<std::uint64_t>(std::popcount(e.sharers))
               : 0;
}

TxId TaglessTable::writer_at(std::uint64_t index) const noexcept {
    const Entry& e = entries_[index];
    return e.mode == Mode::kWrite ? e.writer : 0;
}

void TaglessTable::clear() {
    for (auto& e : entries_) e = Entry{};
    occupied_ = 0;
}

}  // namespace tmb::ownership
