#include "ownership/atomic_tagless_table.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace tmb::ownership {

AtomicTaglessTable::AtomicTaglessTable(TableConfig config)
    : config_(config),
      hasher_(config.hash, config.entries),
      entries_(config.entries) {
    if (config_.entries == 0) throw std::invalid_argument("table must have entries");
    for (auto& e : entries_) e.store(kFreeWord, std::memory_order_relaxed);
}

std::uint64_t AtomicTaglessTable::index_of(std::uint64_t block) const noexcept {
    return hasher_(block);
}

namespace {

[[noreturn, gnu::cold, gnu::noinline]] void throw_tx_out_of_range(TxId tx) {
    throw std::out_of_range(
        "AtomicTaglessTable: TxId " + std::to_string(tx) +
        " exceeds the atomic table's capacity of " +
        std::to_string(kMaxAtomicTx) +
        " (two bits of the entry word encode the mode)");
}

/// TxIds 62 and 63 would alias the mode bits of the entry word (tx_bit(62)
/// = 1<<62 lands in the mode field), silently corrupting the entry; fail
/// fast instead. The test stays inline; building the message does not.
inline void check_tx(TxId tx) {
    if (tx >= kMaxAtomicTx) [[unlikely]] throw_tx_out_of_range(tx);
}

/// Counter bump for a single-writer shard (see CounterShard): a relaxed
/// load and store, not a locked read-modify-write.
inline void bump(std::atomic<std::uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
}

}  // namespace

AcquireResult AtomicTaglessTable::acquire_read(TxId tx, std::uint64_t block) {
    check_tx(tx);
    bump(counter_shards_[tx].read_acquires);
    std::atomic<std::uint64_t>& entry = entries_[index_of(block)];
    std::uint64_t word = entry.load(std::memory_order_acquire);
    for (;;) {
        switch (mode_of(word)) {
            case Mode::kFree:
                if (entry.compare_exchange_weak(word, pack(Mode::kRead, tx_bit(tx)),
                                                std::memory_order_acq_rel)) {
                    return {.ok = true};
                }
                break;  // word reloaded; retry
            case Mode::kRead: {
                const std::uint64_t desired =
                    pack(Mode::kRead, payload_of(word) | tx_bit(tx));
                if (desired == word ||
                    entry.compare_exchange_weak(word, desired,
                                                std::memory_order_acq_rel)) {
                    return {.ok = true};
                }
                break;
            }
            case Mode::kWrite: {
                const auto writer = static_cast<TxId>(payload_of(word));
                if (writer == tx) return {.ok = true};
                bump(counter_shards_[tx].conflicts);
                return {.ok = false, .conflicting = tx_bit(writer)};
            }
        }
    }
}

AcquireResult AtomicTaglessTable::acquire_write(TxId tx, std::uint64_t block) {
    check_tx(tx);
    bump(counter_shards_[tx].write_acquires);
    std::atomic<std::uint64_t>& entry = entries_[index_of(block)];
    std::uint64_t word = entry.load(std::memory_order_acquire);
    for (;;) {
        switch (mode_of(word)) {
            case Mode::kFree:
                if (entry.compare_exchange_weak(word, pack(Mode::kWrite, tx),
                                                std::memory_order_acq_rel)) {
                    return {.ok = true};
                }
                break;
            case Mode::kRead: {
                const std::uint64_t others = payload_of(word) & ~tx_bit(tx);
                if (others != 0) {
                    bump(counter_shards_[tx].conflicts);
                    return {.ok = false, .conflicting = others};
                }
                if (entry.compare_exchange_weak(word, pack(Mode::kWrite, tx),
                                                std::memory_order_acq_rel)) {
                    return {.ok = true};  // sole-reader upgrade
                }
                break;
            }
            case Mode::kWrite: {
                const auto writer = static_cast<TxId>(payload_of(word));
                if (writer == tx) return {.ok = true};
                bump(counter_shards_[tx].conflicts);
                return {.ok = false, .conflicting = tx_bit(writer)};
            }
        }
    }
}

void AtomicTaglessTable::release(TxId tx, std::uint64_t block, Mode /*mode*/) {
    bump(counter_shards_[tx & 63].releases);
    std::atomic<std::uint64_t>& entry = entries_[index_of(block)];
    std::uint64_t word = entry.load(std::memory_order_acquire);
    for (;;) {
        switch (mode_of(word)) {
            case Mode::kFree:
                return;  // aliased double-release: tolerated
            case Mode::kRead: {
                const std::uint64_t remaining = payload_of(word) & ~tx_bit(tx);
                if (remaining == payload_of(word)) return;  // not a sharer
                const std::uint64_t desired =
                    remaining == 0 ? kFreeWord : pack(Mode::kRead, remaining);
                if (entry.compare_exchange_weak(word, desired,
                                                std::memory_order_acq_rel)) {
                    return;
                }
                break;
            }
            case Mode::kWrite:
                // Only the writer changes a write-held entry (a conflicting
                // acquire only reads it, another TxId's release returns
                // here), so the writer frees it with a plain release store.
                if (static_cast<TxId>(payload_of(word)) == tx) {
                    entry.store(kFreeWord, std::memory_order_release);
                }
                return;
        }
    }
}

TableCounters AtomicTaglessTable::counters() const noexcept {
    TableCounters out;
    for (const CounterShard& shard : counter_shards_) {
        out.read_acquires += shard.read_acquires.load(std::memory_order_relaxed);
        out.write_acquires += shard.write_acquires.load(std::memory_order_relaxed);
        out.conflicts += shard.conflicts.load(std::memory_order_relaxed);
        out.releases += shard.releases.load(std::memory_order_relaxed);
    }
    return out;
}

std::uint64_t AtomicTaglessTable::occupied_entries() const noexcept {
    std::uint64_t n = 0;
    for (const auto& e : entries_) {
        n += mode_of(e.load(std::memory_order_relaxed)) != Mode::kFree ? 1u : 0u;
    }
    return n;
}

void AtomicTaglessTable::clear() {
    for (auto& e : entries_) e.store(kFreeWord, std::memory_order_relaxed);
}

Mode AtomicTaglessTable::mode_at(std::uint64_t index) const noexcept {
    return mode_of(entries_[index].load(std::memory_order_acquire));
}

std::uint64_t AtomicTaglessTable::sharers_at(std::uint64_t index) const noexcept {
    const std::uint64_t word = entries_[index].load(std::memory_order_acquire);
    return mode_of(word) == Mode::kRead
               ? static_cast<std::uint64_t>(std::popcount(payload_of(word)))
               : 0;
}

TxId AtomicTaglessTable::writer_at(std::uint64_t index) const noexcept {
    const std::uint64_t word = entries_[index].load(std::memory_order_acquire);
    return mode_of(word) == Mode::kWrite ? static_cast<TxId>(payload_of(word)) : 0;
}

}  // namespace tmb::ownership
