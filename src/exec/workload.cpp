#include "exec/workload.hpp"

#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "stm/thashmap.hpp"
#include "stm/tqueue.hpp"
#include "trace/source.hpp"
#include "trace/zipf.hpp"
#include "util/hash.hpp"

namespace tmb::exec {

namespace {

/// Upper bound on per-operation accesses (sizes the stack-local operand
/// buffers). Out-of-range values are rejected, never clamped — a silent
/// clamp would mislabel every reported measurement.
constexpr std::uint32_t kMaxTxSize = 64;

void check_tx_size(std::uint32_t tx_size) {
    if (tx_size == 0 || tx_size > kMaxTxSize) {
        throw std::invalid_argument("tx_size must be in [1, " +
                                    std::to_string(kMaxTxSize) + "]");
    }
}

/// Commutative per-slot digest so the hash is independent of which thread
/// wrote last (values are compared only at quiescence).
[[nodiscard]] std::uint64_t slot_digest(std::uint64_t index,
                                        std::uint64_t value) {
    return util::mix64((index + 1) * 0x9e3779b97f4a7c15ULL ^ value);
}

// ---------------------------------------------------------------------------
// counters — uniform increments over a large array (low-contention baseline)
// ---------------------------------------------------------------------------

class CounterArrayWorkload final : public Workload {
public:
    CounterArrayWorkload(std::uint64_t slots, std::uint32_t tx_size)
        : slots_(slots), tx_size_(tx_size) {
        if (slots == 0) throw std::invalid_argument("workload slots must be > 0");
        check_tx_size(tx_size);
    }

    std::string_view name() const noexcept override { return "counters"; }

    void op(stm::Executor& exec, util::Xoshiro256& rng) override {
        // Operands are drawn before the transaction so a retry re-runs the
        // same logical operation (and rng advances once per op, not once
        // per attempt).
        std::uint64_t picks[kMaxTxSize];
        for (std::uint32_t i = 0; i < tx_size_; ++i) {
            picks[i] = rng.below(slots_.size());
        }
        exec.atomically([&](stm::Transaction& tx) {
            for (std::uint32_t i = 0; i < tx_size_; ++i) {
                auto& slot = slots_[picks[i]];
                slot.write(tx, slot.read(tx) + 1);
            }
        });
    }

    void verify(std::uint64_t committed_ops) const override {
        std::uint64_t sum = 0;
        for (const auto& s : slots_) sum += s.unsafe_read();
        const std::uint64_t expected = committed_ops * tx_size_;
        if (sum != expected) {
            throw std::runtime_error(
                "counters invariant violated: slot sum " + std::to_string(sum) +
                " != ops * tx_size " + std::to_string(expected));
        }
    }

    std::uint64_t state_hash() const override {
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            h += slot_digest(i, slots_[i].unsafe_read());
        }
        return h;
    }

private:
    std::vector<stm::TVar<std::uint64_t>> slots_;
    std::uint32_t tx_size_;
};

// ---------------------------------------------------------------------------
// zipf — skewed accesses; hot blocks pin hot ownership-table entries
// ---------------------------------------------------------------------------

class ZipfWorkload final : public Workload {
public:
    ZipfWorkload(std::uint64_t slots, std::uint32_t tx_size, double skew)
        : slots_(slots), sampler_(slots, skew), tx_size_(tx_size) {
        check_tx_size(tx_size);
    }

    std::string_view name() const noexcept override { return "zipf"; }

    void op(stm::Executor& exec, util::Xoshiro256& rng) override {
        // tx_size-1 reads plus one increment, all Zipf-distributed: the
        // sampler is shared and immutable, so concurrent sampling is safe.
        std::uint64_t picks[kMaxTxSize];
        for (std::uint32_t i = 0; i < tx_size_; ++i) {
            picks[i] = sampler_.sample(rng);
        }
        exec.atomically([&](stm::Transaction& tx) {
            std::uint64_t acc = 0;
            for (std::uint32_t i = 0; i + 1 < tx_size_; ++i) {
                acc += slots_[picks[i]].read(tx);
            }
            (void)acc;
            auto& hot = slots_[picks[tx_size_ - 1]];
            hot.write(tx, hot.read(tx) + 1);
        });
    }

    void verify(std::uint64_t committed_ops) const override {
        std::uint64_t sum = 0;
        for (const auto& s : slots_) sum += s.unsafe_read();
        if (sum != committed_ops) {
            throw std::runtime_error(
                "zipf invariant violated: slot sum " + std::to_string(sum) +
                " != committed ops " + std::to_string(committed_ops));
        }
    }

    std::uint64_t state_hash() const override {
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            h += slot_digest(i, slots_[i].unsafe_read());
        }
        return h;
    }

private:
    std::vector<stm::TVar<std::uint64_t>> slots_;
    trace::ZipfianSampler sampler_;
    std::uint32_t tx_size_;
};

// ---------------------------------------------------------------------------
// bank — transfers between random accounts; conservation invariant
// ---------------------------------------------------------------------------

class BankWorkload final : public Workload {
public:
    static constexpr std::int64_t kInitialBalance = 1000;

    explicit BankWorkload(std::uint64_t accounts) : accounts_(accounts) {
        if (accounts < 2) throw std::invalid_argument("bank needs >= 2 accounts");
        for (auto& a : accounts_) a.unsafe_write(kInitialBalance);
    }

    std::string_view name() const noexcept override { return "bank"; }

    void op(stm::Executor& exec, util::Xoshiro256& rng) override {
        const std::uint64_t from = rng.below(accounts_.size());
        std::uint64_t to = rng.below(accounts_.size() - 1);
        if (to >= from) ++to;  // uniform over accounts != from
        const auto amount = static_cast<std::int64_t>(rng.uniform(1, 10));
        exec.atomically([&](stm::Transaction& tx) {
            accounts_[from].write(tx, accounts_[from].read(tx) - amount);
            accounts_[to].write(tx, accounts_[to].read(tx) + amount);
        });
    }

    void verify(std::uint64_t /*committed_ops*/) const override {
        std::int64_t total = 0;
        for (const auto& a : accounts_) total += a.unsafe_read();
        const auto expected =
            static_cast<std::int64_t>(accounts_.size()) * kInitialBalance;
        if (total != expected) {
            throw std::runtime_error(
                "bank invariant violated: total balance " +
                std::to_string(total) + " != " + std::to_string(expected));
        }
    }

    std::uint64_t state_hash() const override {
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < accounts_.size(); ++i) {
            h += slot_digest(
                i, static_cast<std::uint64_t>(accounts_[i].unsafe_read()));
        }
        return h;
    }

private:
    std::vector<stm::TVar<std::int64_t>> accounts_;
};

// ---------------------------------------------------------------------------
// replay — stream a trace source through the STM with real threads
// ---------------------------------------------------------------------------

class ReplayWorkload final : public Workload {
public:
    /// Replay transactions can be much larger than the RNG workloads'
    /// stack-buffered ops; cursors buffer on the heap.
    static constexpr std::uint32_t kMaxReplayTxSize = 4096;

    ReplayWorkload(std::shared_ptr<trace::TraceSource> source,
                   std::uint64_t slots, std::uint32_t accesses_per_tx)
        : slots_(slots),
          slot_of_(util::HashKind::kMix64, slots),
          source_(std::move(source)),
          accesses_per_tx_(accesses_per_tx),
          id_(next_instance_id()) {
        if (slots == 0) throw std::invalid_argument("workload slots must be > 0");
        if (accesses_per_tx_ == 0 || accesses_per_tx_ > kMaxReplayTxSize) {
            throw std::invalid_argument(
                "replay tx_size must be in [1, " +
                std::to_string(kMaxReplayTxSize) + "]");
        }
        if (source_->stream_count() == 0) {
            throw std::invalid_argument("replay source has no streams");
        }
    }

    std::string_view name() const noexcept override { return "replay"; }

    void op(stm::Executor& exec, util::Xoshiro256& rng) override {
        (void)rng;  // operands come from the trace, not the RNG
        Cursor& cur = cursor();
        fill(cur);
        exec.atomically([&](stm::Transaction& tx) {
            for (const Op& o : cur.ops) {
                auto& slot = slots_[o.slot];
                if (o.is_write) {
                    slot.write(tx, slot.read(tx) + 1);
                } else {
                    (void)slot.read(tx);
                }
            }
        });
        // Counted only after the commit, so aborted attempts never count.
        cur.writes_replayed += cur.writes;
    }

    void verify(std::uint64_t /*committed_ops*/) const override {
        std::uint64_t sum = 0;
        for (const auto& s : slots_) sum += s.unsafe_read();
        // Cursors of earlier runs' threads stay in the map, so this covers
        // every write replayed over the workload's lifetime, like the slots.
        std::uint64_t expected = 0;
        {
            const std::scoped_lock lock(mu_);
            for (const auto& [id, cur] : cursors_) expected += cur->writes_replayed;
        }
        if (sum != expected) {
            throw std::runtime_error(
                "replay invariant violated: slot sum " + std::to_string(sum) +
                " != replayed writes " + std::to_string(expected));
        }
    }

    std::uint64_t state_hash() const override {
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            h += slot_digest(i, slots_[i].unsafe_read());
        }
        return h;
    }

private:
    /// One trace access resolved to a TVar slot (the 64-bit block address
    /// space is hashed down onto the slot array).
    struct Op {
        std::uint64_t slot;
        bool is_write;
    };

    /// Per-thread replay cursor: one stream plus its chunk buffers. Only
    /// its thread writes it; verify() reads it at quiescence.
    struct Cursor {
        std::unique_ptr<trace::StreamSource> reader;
        std::size_t stream_index = 0;
        std::vector<trace::Access> buf;
        std::vector<Op> ops;
        std::uint32_t writes = 0;           ///< writes in `ops`
        std::uint64_t writes_replayed = 0;  ///< writes of committed ops
    };

    static std::uint64_t next_instance_id() {
        static std::atomic<std::uint64_t> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed);
    }

    /// Binds the calling thread to a cursor on first use: threads claim
    /// streams in arrival order (stream = claim index mod stream count), so
    /// a 1-thread run deterministically replays stream 0. The thread-local
    /// cache keyed by a unique instance id keeps the mutex off the steady
    /// state.
    Cursor& cursor() {
        thread_local std::uint64_t cached_id = ~std::uint64_t{0};
        thread_local Cursor* cached = nullptr;
        if (cached_id == id_ && cached) return *cached;
        const std::scoped_lock lock(mu_);
        auto& slot = cursors_[std::this_thread::get_id()];
        if (!slot) {
            slot = std::make_unique<Cursor>();
            slot->stream_index = next_stream_++ % source_->stream_count();
            slot->reader = source_->stream(slot->stream_index);
        }
        cached_id = id_;
        cached = slot.get();
        return *slot;
    }

    /// Pulls the next accesses_per_tx_ accesses (wrapping at end of stream)
    /// and pre-resolves them to slot operations, so the transaction body —
    /// which may re-execute on conflict — does no source I/O.
    void fill(Cursor& cur) {
        cur.buf.resize(accesses_per_tx_);
        std::size_t have = 0;
        bool reopened = false;
        while (have < accesses_per_tx_) {
            const std::size_t n = cur.reader->next(
                std::span(cur.buf).subspan(have));
            if (n == 0) {
                if (reopened) {
                    throw std::runtime_error(
                        "replay: source stream " +
                        std::to_string(cur.stream_index) + " is empty");
                }
                {
                    // stream() calls must be serialized (source.hpp);
                    // wrapping is rare (once per stream drain).
                    const std::scoped_lock lock(mu_);
                    cur.reader = source_->stream(cur.stream_index);
                }
                reopened = true;
                continue;
            }
            reopened = false;
            have += n;
        }
        cur.ops.clear();
        cur.writes = 0;
        for (const trace::Access& a : cur.buf) {
            cur.ops.push_back(Op{slot_of_(a.block), a.is_write});
            cur.writes += a.is_write ? 1 : 0;
        }
    }

    std::vector<stm::TVar<std::uint64_t>> slots_;
    util::BlockHasher slot_of_;  ///< block -> slot: mix64, then mask or %
    std::shared_ptr<trace::TraceSource> source_;
    std::uint32_t accesses_per_tx_;
    std::uint64_t id_;
    mutable std::mutex mu_;
    std::unordered_map<std::thread::id, std::unique_ptr<Cursor>> cursors_;
    std::size_t next_stream_ = 0;
};

// ---------------------------------------------------------------------------
// vacation — STAMP-style reservation system over transactional hash maps
// ---------------------------------------------------------------------------

/// Three resource classes (cars / flights / rooms), each with an
/// availability table (resource id -> free capacity) and a booking table
/// (customer id -> active bookings in that class). Operations:
///
///   reserve (45%) — an itinerary of `queries` (class, resource) picks for
///       one customer: each pick with free capacity is decremented and
///       booked (booking rows are inserted on first booking — tx_alloc).
///   cancel (45%)  — the same customer releases up to `queries` bookings;
///       a booking row that reaches zero is erased (tx_free), and the
///       capacity is returned to a random resource of the class.
///   update (10%)  — STAMP's table maintenance: one availability row is
///       erased and re-inserted with its value, churning a node through
///       the tx_free/tx_alloc pipeline without changing state.
///
/// Conservation invariant, per class: sum of free capacity plus sum of
/// active bookings equals rows * kCapacity — any lost or doubled update,
/// and any node dropped or resurrected by broken reclamation, breaks it.
class VacationWorkload final : public Workload {
public:
    static constexpr std::uint32_t kClasses = 3;
    static constexpr long kCapacity = 16;
    static constexpr std::uint32_t kMaxQueries = 8;

    VacationWorkload(std::uint64_t rows, std::uint64_t customers,
                     std::uint32_t queries)
        : rows_(rows), customers_(customers), queries_(queries) {
        if (rows == 0) throw std::invalid_argument("vacation rows must be > 0");
        if (customers == 0) {
            throw std::invalid_argument("vacation customers must be > 0");
        }
        if (queries == 0 || queries > kMaxQueries) {
            throw std::invalid_argument("vacation queries must be in [1, " +
                                        std::to_string(kMaxQueries) + "]");
        }
    }

    std::string_view name() const noexcept override { return "vacation"; }

    void prepare(stm::Stm& stm) override {
        for (std::uint32_t c = 0; c < kClasses; ++c) {
            avail_[c] = std::make_unique<Table>(stm, rows_ * 2);
            booked_[c] = std::make_unique<Table>(stm, customers_ * 2);
            for (std::uint64_t id = 0; id < rows_; ++id) {
                avail_[c]->put(static_cast<long>(id), kCapacity);
            }
        }
    }

    void op(stm::Executor& exec, util::Xoshiro256& rng) override {
        if (!avail_[0]) {
            throw std::logic_error("vacation: op() before prepare()");
        }
        // Operands are drawn before the transaction so a retry re-runs the
        // same logical operation.
        const std::uint64_t kind = rng.below(100);
        const long customer = static_cast<long>(rng.below(customers_));
        std::uint32_t cls[kMaxQueries];
        long res[kMaxQueries];
        for (std::uint32_t i = 0; i < queries_; ++i) {
            cls[i] = static_cast<std::uint32_t>(rng.below(kClasses));
            res[i] = static_cast<long>(rng.below(rows_));
        }
        if (kind < 45) {
            exec.atomically([&](stm::Transaction& tx) {
                for (std::uint32_t i = 0; i < queries_; ++i) {
                    Table& avail = *avail_[cls[i]];
                    const auto free = avail.get_in(tx, res[i]);
                    if (free && *free > 0) {
                        avail.add_in(tx, res[i], -1);
                        booked_[cls[i]]->add_in(tx, customer, 1);
                    }
                }
            });
        } else if (kind < 90) {
            exec.atomically([&](stm::Transaction& tx) {
                for (std::uint32_t i = 0; i < queries_; ++i) {
                    Table& booked = *booked_[cls[i]];
                    const auto active = booked.get_in(tx, customer);
                    if (active && *active > 0) {
                        if (*active == 1) {
                            booked.erase_in(tx, customer);
                        } else {
                            booked.add_in(tx, customer, -1);
                        }
                        avail_[cls[i]]->add_in(tx, res[i], 1);
                    }
                }
            });
        } else {
            exec.atomically([&](stm::Transaction& tx) {
                Table& avail = *avail_[cls[0]];
                const auto value = avail.get_in(tx, res[0]);
                if (value) {
                    avail.erase_in(tx, res[0]);
                    avail.put_in(tx, res[0], *value);
                }
            });
        }
    }

    void verify(std::uint64_t /*committed_ops*/) const override {
        for (std::uint32_t c = 0; c < kClasses; ++c) {
            long total = 0;
            bool negative = false;
            avail_[c]->unsafe_for_each([&](long, long v) {
                total += v;
                negative |= v < 0;
            });
            booked_[c]->unsafe_for_each([&](long, long v) {
                total += v;
                negative |= v < 0;
            });
            const long expected = static_cast<long>(rows_) * kCapacity;
            if (negative || total != expected) {
                throw std::runtime_error(
                    "vacation invariant violated in class " +
                    std::to_string(c) + ": available + booked " +
                    std::to_string(total) + " != capacity " +
                    std::to_string(expected) +
                    (negative ? " (negative entry)" : ""));
            }
        }
    }

    std::uint64_t state_hash() const override {
        std::uint64_t h = 0;
        for (std::uint32_t c = 0; c < kClasses; ++c) {
            const std::uint64_t tag = (c + 1) * 0x100000000ULL;
            avail_[c]->unsafe_for_each([&](long k, long v) {
                h += slot_digest(tag + static_cast<std::uint64_t>(k),
                                 static_cast<std::uint64_t>(v));
            });
            booked_[c]->unsafe_for_each([&](long k, long v) {
                h += slot_digest(tag * 7 + static_cast<std::uint64_t>(k),
                                 static_cast<std::uint64_t>(v));
            });
        }
        return h;
    }

private:
    using Table = stm::THashMap<long, long>;

    std::uint64_t rows_;
    std::uint64_t customers_;
    std::uint32_t queries_;
    std::array<std::unique_ptr<Table>, kClasses> avail_;
    std::array<std::unique_ptr<Table>, kClasses> booked_;
};

// ---------------------------------------------------------------------------
// kmeans — STAMP-style clustering kernel with accumulator-rebuild churn
// ---------------------------------------------------------------------------

/// Points (drawn per op from the thread's RNG) are assigned to the nearest
/// of k centroids; each assignment bumps the cluster's count and coordinate
/// sum in transactional maps (rows appear via tx_alloc). A periodic
/// recenter transaction folds every cluster's accumulators into its
/// centroid, moves them into the absorbed totals, and erases the rows
/// (tx_free) — so the maps are rebuilt from scratch continuously.
///
/// Invariant: live accumulator totals plus absorbed totals equal the
/// committed assignment count / coordinate sum.
class KmeansWorkload final : public Workload {
public:
    static constexpr std::uint32_t kMaxClusters = 32;

    KmeansWorkload(std::uint32_t clusters, std::uint32_t recenter_every,
                   std::uint64_t space)
        : k_(clusters),
          recenter_every_(recenter_every),
          space_(space),
          centroids_(clusters == 0 ? 1 : clusters) {
        if (clusters == 0 || clusters > kMaxClusters) {
            throw std::invalid_argument("kmeans clusters must be in [1, " +
                                        std::to_string(kMaxClusters) + "]");
        }
        if (recenter_every == 0) {
            throw std::invalid_argument("kmeans recenter_every must be > 0");
        }
        if (space == 0) throw std::invalid_argument("kmeans space must be > 0");
        for (std::uint32_t c = 0; c < k_; ++c) {
            // Spread initial centroids evenly over the coordinate space.
            centroids_[c].unsafe_write(static_cast<long>(
                (2 * static_cast<std::uint64_t>(c) + 1) * space_ / (2 * k_)));
        }
    }

    std::string_view name() const noexcept override { return "kmeans"; }

    void prepare(stm::Stm& stm) override {
        counts_ = std::make_unique<Table>(stm, k_ * 2);
        sums_ = std::make_unique<Table>(stm, k_ * 2);
    }

    void op(stm::Executor& exec, util::Xoshiro256& rng) override {
        if (!counts_) throw std::logic_error("kmeans: op() before prepare()");
        const bool recenter = rng.below(recenter_every_) == 0;
        const long point = static_cast<long>(rng.below(space_));
        if (recenter) {
            exec.atomically([&](stm::Transaction& tx) {
                for (std::uint32_t c = 0; c < k_; ++c) {
                    const long key = static_cast<long>(c);
                    const auto count = counts_->get_in(tx, key);
                    if (!count) continue;
                    const long sum = sums_->get_in(tx, key).value_or(0);
                    centroids_[c].write(tx, sum / *count);
                    counts_->erase_in(tx, key);
                    sums_->erase_in(tx, key);
                    absorbed_count_.write(tx, absorbed_count_.read(tx) + *count);
                    absorbed_sum_.write(tx, absorbed_sum_.read(tx) + sum);
                }
            });
            return;
        }
        exec.atomically([&](stm::Transaction& tx) {
            std::uint32_t nearest = 0;
            long best = std::numeric_limits<long>::max();
            for (std::uint32_t c = 0; c < k_; ++c) {
                const long d = std::labs(centroids_[c].read(tx) - point);
                if (d < best) {
                    best = d;
                    nearest = c;
                }
            }
            counts_->add_in(tx, static_cast<long>(nearest), 1);
            sums_->add_in(tx, static_cast<long>(nearest), point);
        });
        // Published only after the commit, so aborted attempts never count.
        assigns_.fetch_add(1, std::memory_order_relaxed);
        point_sum_.fetch_add(static_cast<std::uint64_t>(point),
                             std::memory_order_relaxed);
    }

    void verify(std::uint64_t /*committed_ops*/) const override {
        long live_count = 0;
        long live_sum = 0;
        counts_->unsafe_for_each([&](long, long v) { live_count += v; });
        sums_->unsafe_for_each([&](long, long v) { live_sum += v; });
        const long total_count =
            live_count + absorbed_count_.unsafe_read();
        const long total_sum = live_sum + absorbed_sum_.unsafe_read();
        const auto expected_count =
            static_cast<long>(assigns_.load(std::memory_order_relaxed));
        const auto expected_sum =
            static_cast<long>(point_sum_.load(std::memory_order_relaxed));
        if (total_count != expected_count || total_sum != expected_sum) {
            throw std::runtime_error(
                "kmeans invariant violated: assignments " +
                std::to_string(total_count) + "/" +
                std::to_string(expected_count) + ", coordinate sum " +
                std::to_string(total_sum) + "/" +
                std::to_string(expected_sum));
        }
    }

    std::uint64_t state_hash() const override {
        std::uint64_t h = 0;
        counts_->unsafe_for_each([&](long k, long v) {
            h += slot_digest(static_cast<std::uint64_t>(k) + 1,
                             static_cast<std::uint64_t>(v));
        });
        sums_->unsafe_for_each([&](long k, long v) {
            h += slot_digest(static_cast<std::uint64_t>(k) + 1000,
                             static_cast<std::uint64_t>(v));
        });
        for (std::uint32_t c = 0; c < k_; ++c) {
            h += slot_digest(c + 2000, static_cast<std::uint64_t>(
                                           centroids_[c].unsafe_read()));
        }
        h += slot_digest(3000, static_cast<std::uint64_t>(
                                   absorbed_count_.unsafe_read()));
        h += slot_digest(3001,
                         static_cast<std::uint64_t>(absorbed_sum_.unsafe_read()));
        return h;
    }

private:
    using Table = stm::THashMap<long, long>;

    std::uint32_t k_;
    std::uint32_t recenter_every_;
    std::uint64_t space_;
    std::vector<stm::TVar<long>> centroids_;
    stm::TVar<long> absorbed_count_{0};
    stm::TVar<long> absorbed_sum_{0};
    std::unique_ptr<Table> counts_;
    std::unique_ptr<Table> sums_;
    std::atomic<std::uint64_t> assigns_{0};
    std::atomic<std::uint64_t> point_sum_{0};
};

// ---------------------------------------------------------------------------
// pipeline — intruder-style staged packet processing over queues
// ---------------------------------------------------------------------------

/// A three-stage packet pipeline in the mold of STAMP's intruder: stage
/// boundaries are bounded transactional queues, so every operation moves a
/// packet (a queue node — tx_alloc on push, tx_free on pop) through
/// allocator-heavy handoffs:
///
///   decode    — inject a fresh packet (flow id + payload) into the decoded
///               queue; dropped (not injected) when the queue is full.
///   analyze   — pop one decoded packet, bump its flow's live counter in
///               the flows map (rows appear via tx_alloc), and forward it
///               to the analyzed queue; if that queue is full the packet is
///               retired directly (the overflow path skips the map).
///   rebalance — pop one analyzed packet, decrement its flow counter
///               (erasing the row — tx_free — when it reaches zero), and
///               retire it into transactional totals.
///
/// Every op commits exactly one transaction (pops of empty queues commit as
/// no-ops). Conservation invariant: packets injected == packets still in
/// the two queues + packets retired, the same for payload sums, and the
/// flows map's live counters must equal the analyzed queue's per-flow
/// content. A block dropped, resurrected, or double-freed by a broken
/// allocator breaks one of them.
class PipelineWorkload final : public Workload {
public:
    /// Payload values live below this bound; a packet word is
    /// flow * kPayloadSpace + payload.
    static constexpr long kPayloadSpace = 1L << 20;

    PipelineWorkload(std::uint64_t capacity, std::uint64_t flows)
        : capacity_(capacity), flow_count_(flows) {
        if (capacity == 0) {
            throw std::invalid_argument("pipeline capacity must be > 0");
        }
        if (flows == 0 || flows > 4096) {
            throw std::invalid_argument("pipeline flows must be in [1, 4096]");
        }
    }

    std::string_view name() const noexcept override { return "pipeline"; }

    void prepare(stm::Stm& stm) override {
        decoded_ = std::make_unique<Queue>(stm, capacity_);
        analyzed_ = std::make_unique<Queue>(stm, capacity_);
        flows_ = std::make_unique<Table>(stm, flow_count_ * 2);
    }

    void op(stm::Executor& exec, util::Xoshiro256& rng) override {
        if (!decoded_) throw std::logic_error("pipeline: op() before prepare()");
        // Operands are drawn before the transaction so a retry re-runs the
        // same logical operation.
        const std::uint64_t kind = rng.below(3);
        const long flow = static_cast<long>(rng.below(flow_count_));
        const long payload = static_cast<long>(
            rng.below(static_cast<std::uint64_t>(kPayloadSpace)));
        if (kind == 0) {  // decode
            const long packet = flow * kPayloadSpace + payload;
            const bool pushed = exec.atomically([&](stm::Transaction& tx) {
                return decoded_->try_push_in(tx, packet);
            });
            // Published only after the commit, so aborted attempts never
            // count; a full-queue drop never entered the pipeline at all.
            if (pushed) {
                injected_.fetch_add(1, std::memory_order_relaxed);
                injected_sum_.fetch_add(static_cast<std::uint64_t>(payload),
                                        std::memory_order_relaxed);
            }
        } else if (kind == 1) {  // analyze
            exec.atomically([&](stm::Transaction& tx) {
                const auto packet = decoded_->try_pop_in(tx);
                if (!packet) return;
                if (analyzed_->try_push_in(tx, *packet)) {
                    flows_->add_in(tx, *packet / kPayloadSpace, 1);
                } else {
                    retire_in(tx, *packet);  // overflow: retire directly
                }
            });
        } else {  // rebalance
            exec.atomically([&](stm::Transaction& tx) {
                const auto packet = analyzed_->try_pop_in(tx);
                if (!packet) return;
                const long f = *packet / kPayloadSpace;
                const auto live = flows_->get_in(tx, f);
                if (live && *live <= 1) {
                    flows_->erase_in(tx, f);
                } else {
                    flows_->add_in(tx, f, -1);
                }
                retire_in(tx, *packet);
            });
        }
    }

    void verify(std::uint64_t /*committed_ops*/) const override {
        std::uint64_t in_decoded = 0, decoded_sum = 0;
        decoded_->unsafe_for_each([&](long v) {
            ++in_decoded;
            decoded_sum += static_cast<std::uint64_t>(v % kPayloadSpace);
        });
        std::uint64_t in_analyzed = 0, analyzed_sum = 0;
        std::unordered_map<long, long> analyzed_flows;
        analyzed_->unsafe_for_each([&](long v) {
            ++in_analyzed;
            analyzed_sum += static_cast<std::uint64_t>(v % kPayloadSpace);
            ++analyzed_flows[v / kPayloadSpace];
        });
        const auto retired =
            static_cast<std::uint64_t>(retired_count_.unsafe_read());
        const std::uint64_t accounted = in_decoded + in_analyzed + retired;
        const std::uint64_t injected =
            injected_.load(std::memory_order_relaxed);
        if (accounted != injected) {
            throw std::runtime_error(
                "pipeline invariant violated: " + std::to_string(accounted) +
                " packets accounted for (" + std::to_string(in_decoded) +
                " decoded + " + std::to_string(in_analyzed) + " analyzed + " +
                std::to_string(retired) + " retired) != " +
                std::to_string(injected) + " injected");
        }
        const std::uint64_t sum_accounted =
            decoded_sum + analyzed_sum +
            static_cast<std::uint64_t>(retired_sum_.unsafe_read());
        if (sum_accounted != injected_sum_.load(std::memory_order_relaxed)) {
            throw std::runtime_error(
                "pipeline invariant violated: payload sum " +
                std::to_string(sum_accounted) + " != injected sum " +
                std::to_string(
                    injected_sum_.load(std::memory_order_relaxed)));
        }
        // The flows map must mirror the analyzed queue's live content.
        std::uint64_t flow_rows = 0;
        bool flows_ok = true;
        flows_->unsafe_for_each([&](long k, long v) {
            ++flow_rows;
            const auto it = analyzed_flows.find(k);
            flows_ok &= it != analyzed_flows.end() && it->second == v;
        });
        if (!flows_ok || flow_rows != analyzed_flows.size()) {
            throw std::runtime_error(
                "pipeline invariant violated: flows map (" +
                std::to_string(flow_rows) +
                " rows) does not mirror the analyzed queue (" +
                std::to_string(analyzed_flows.size()) + " live flows)");
        }
    }

    std::uint64_t state_hash() const override {
        // Queue content is position-sensitive; the traversal order is
        // deterministic for the 1-thread determinism contract.
        std::uint64_t h = 0;
        std::uint64_t pos = 0;
        decoded_->unsafe_for_each([&](long v) {
            h += slot_digest(++pos, static_cast<std::uint64_t>(v));
        });
        pos = 1u << 20;
        analyzed_->unsafe_for_each([&](long v) {
            h += slot_digest(++pos, static_cast<std::uint64_t>(v));
        });
        flows_->unsafe_for_each([&](long k, long v) {
            h += slot_digest((std::uint64_t{1} << 21) +
                                 static_cast<std::uint64_t>(k),
                             static_cast<std::uint64_t>(v));
        });
        h += slot_digest(std::uint64_t{1} << 22,
                         static_cast<std::uint64_t>(
                             retired_count_.unsafe_read()));
        h += slot_digest((std::uint64_t{1} << 22) + 1,
                         static_cast<std::uint64_t>(retired_sum_.unsafe_read()));
        return h;
    }

private:
    using Queue = stm::TQueue<long>;
    using Table = stm::THashMap<long, long>;

    void retire_in(stm::Transaction& tx, long packet) {
        retired_count_.write(tx, retired_count_.read(tx) + 1);
        retired_sum_.write(tx, retired_sum_.read(tx) + packet % kPayloadSpace);
    }

    std::uint64_t capacity_;
    std::uint64_t flow_count_;
    std::unique_ptr<Queue> decoded_;
    std::unique_ptr<Queue> analyzed_;
    std::unique_ptr<Table> flows_;
    stm::TVar<long> retired_count_{0};
    stm::TVar<long> retired_sum_{0};
    std::atomic<std::uint64_t> injected_{0};
    std::atomic<std::uint64_t> injected_sum_{0};
};

}  // namespace

// ---------------------------------------------------------------------------
// phases — rotating contention regimes for the adaptive runtime
// ---------------------------------------------------------------------------

PhaseWorkload::PhaseWorkload(std::uint64_t slots, std::uint32_t tx_size,
                             std::uint32_t scan_tx_size, double skew,
                             std::uint64_t phase_ops,
                             std::uint32_t yield_every)
    : slots_(slots),
      sampler_(slots, skew),
      tx_size_(tx_size),
      scan_tx_size_(scan_tx_size),
      phase_ops_(phase_ops),
      yield_every_(yield_every) {
    if (slots == 0) throw std::invalid_argument("workload slots must be > 0");
    check_tx_size(tx_size);
    check_tx_size(scan_tx_size);
}

void PhaseWorkload::set_phase(std::uint32_t phase) {
    phase_.store(phase % kPhases, std::memory_order_relaxed);
}

std::uint32_t PhaseWorkload::phase() const noexcept {
    if (phase_ops_ == 0) return phase_.load(std::memory_order_relaxed);
    return static_cast<std::uint32_t>(
        (ops_issued_.load(std::memory_order_relaxed) / phase_ops_) % kPhases);
}

void PhaseWorkload::op(stm::Executor& exec, util::Xoshiro256& rng) {
    const std::uint32_t ph =
        phase_ops_ == 0
            ? phase_.load(std::memory_order_relaxed)
            : static_cast<std::uint32_t>(
                  (ops_issued_.fetch_add(1, std::memory_order_relaxed) /
                   phase_ops_) %
                  kPhases);
    // Operands drawn before the transaction: a retry re-runs the same
    // logical operation, and rng advances once per op.
    std::uint64_t picks[kMaxTxSize];
    std::uint32_t n = 0;
    std::uint64_t writes = 0;
    const std::uint32_t yield_every = yield_every_;
    const auto maybe_yield = [yield_every](std::uint32_t i) {
        if (yield_every != 0 && (i + 1) % yield_every == 0) {
            std::this_thread::yield();
        }
    };
    switch (ph) {
        case 0:  // uniform increments, small footprint
            n = tx_size_;
            writes = tx_size_;
            for (std::uint32_t i = 0; i < n; ++i) {
                picks[i] = rng.below(slots_.size());
            }
            exec.atomically([&](stm::Transaction& tx) {
                for (std::uint32_t i = 0; i < n; ++i) {
                    auto& slot = slots_[picks[i]];
                    slot.write(tx, slot.read(tx) + 1);
                    maybe_yield(i);
                }
            });
            break;
        case 1:  // Zipf hot spot: one hot increment *first* (an eager
                 // engine then holds the hot block across the rest of the
                 // body; lazy acquisition shrinks the window to the commit),
                 // then Zipf reads.
            n = tx_size_;
            writes = 1;
            for (std::uint32_t i = 0; i < n; ++i) {
                picks[i] = sampler_.sample(rng);
            }
            exec.atomically([&](stm::Transaction& tx) {
                auto& hot = slots_[picks[0]];
                hot.write(tx, hot.read(tx) + 1);
                maybe_yield(0);
                std::uint64_t acc = 0;
                for (std::uint32_t i = 1; i < n; ++i) {
                    acc += slots_[picks[i]].read(tx);
                    maybe_yield(i);
                }
                (void)acc;
            });
            break;
        default:  // scan: large uniform footprint, one increment
            n = scan_tx_size_;
            writes = 1;
            for (std::uint32_t i = 0; i < n; ++i) {
                picks[i] = rng.below(slots_.size());
            }
            exec.atomically([&](stm::Transaction& tx) {
                std::uint64_t acc = 0;
                for (std::uint32_t i = 0; i + 1 < n; ++i) {
                    acc += slots_[picks[i]].read(tx);
                    maybe_yield(i);
                }
                (void)acc;
                auto& last = slots_[picks[n - 1]];
                last.write(tx, last.read(tx) + 1);
            });
            break;
    }
    // Post-commit: the attempt that reaches here committed exactly once.
    increments_.fetch_add(writes, std::memory_order_relaxed);
}

void PhaseWorkload::verify(std::uint64_t committed_ops) const {
    (void)committed_ops;  // increments per op vary by phase
    std::uint64_t sum = 0;
    for (const auto& s : slots_) sum += s.unsafe_read();
    const std::uint64_t expected = increments_.load(std::memory_order_relaxed);
    if (sum != expected) {
        throw std::runtime_error(
            "phases invariant violated: slot sum " + std::to_string(sum) +
            " != committed increments " + std::to_string(expected));
    }
}

std::uint64_t PhaseWorkload::state_hash() const {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        h += slot_digest(i, slots_[i].unsafe_read());
    }
    return h;
}

std::vector<std::string> workload_names() {
    return {"counters", "zipf",     "bank",   "replay",
            "phases",   "vacation", "kmeans", "pipeline"};
}

std::unique_ptr<Workload> make_workload(const config::Config& cfg) {
    const std::string name = cfg.get("workload", "counters");
    if (name == "counters") {
        return std::make_unique<CounterArrayWorkload>(
            cfg.get_u64("slots", 1u << 16), cfg.get_u32("tx_size", 4));
    }
    if (name == "zipf") {
        return std::make_unique<ZipfWorkload>(
            cfg.get_u64("slots", 1u << 16), cfg.get_u32("tx_size", 4),
            cfg.get_double("skew", 0.99));
    }
    if (name == "bank") {
        return std::make_unique<BankWorkload>(cfg.get_u64("accounts", 1024));
    }
    if (name == "replay") {
        std::shared_ptr<trace::TraceSource> source =
            trace::make_trace_source(cfg);
        return std::make_unique<ReplayWorkload>(
            std::move(source), cfg.get_u64("slots", 1u << 16),
            cfg.get_u32("tx_size", 16));
    }
    if (name == "phases") {
        auto w = std::make_unique<PhaseWorkload>(
            cfg.get_u64("slots", 1u << 16), cfg.get_u32("tx_size", 4),
            cfg.get_u32("scan_tx", 32), cfg.get_double("skew", 0.99),
            cfg.get_u64("phase_ops", 0), cfg.get_u32("yield_every", 0));
        w->set_phase(cfg.get_u32("phase", 0));
        return w;
    }
    if (name == "vacation") {
        return std::make_unique<VacationWorkload>(
            cfg.get_u64("rows", 128), cfg.get_u64("customers", 64),
            cfg.get_u32("queries", 2));
    }
    if (name == "kmeans") {
        return std::make_unique<KmeansWorkload>(
            cfg.get_u32("clusters", 8), cfg.get_u32("recenter_every", 64),
            cfg.get_u64("space", 1024));
    }
    if (name == "pipeline") {
        return std::make_unique<PipelineWorkload>(
            cfg.get_u64("capacity", 256), cfg.get_u64("flows", 64));
    }
    throw config::unknown_name("workload", name, workload_names());
}

}  // namespace tmb::exec
