#include "sched/schedule.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace tmb::sched {

std::uint32_t nearest_runnable(std::uint64_t runnable,
                               std::uint32_t want) noexcept {
    want &= 63;
    const std::uint64_t at_or_after = runnable >> want;
    if (at_or_after != 0) {
        return want + static_cast<std::uint32_t>(std::countr_zero(at_or_after));
    }
    return static_cast<std::uint32_t>(std::countr_zero(runnable));
}

char thread_to_char(std::uint32_t thread) noexcept {
    return thread < 10 ? static_cast<char>('0' + thread)
                       : static_cast<char>('a' + (thread - 10));
}

std::uint32_t char_to_thread(char c) {
    if (c >= '0' && c <= '9') return static_cast<std::uint32_t>(c - '0');
    if (c >= 'a' && c <= 'z') return static_cast<std::uint32_t>(c - 'a' + 10);
    throw std::invalid_argument(std::string("schedule string: invalid pick '") +
                                c + "' (want [0-9a-z])");
}

namespace {

/// Deterministic baseline: thread (step mod live) in index order.
class RoundRobinSchedule final : public Schedule {
public:
    std::uint32_t pick(std::uint64_t runnable, std::uint64_t step) override {
        const auto live =
            static_cast<std::uint32_t>(std::popcount(runnable));
        std::uint32_t nth = static_cast<std::uint32_t>(step % live);
        std::uint64_t mask = runnable;
        while (nth--) mask &= mask - 1;
        return static_cast<std::uint32_t>(std::countr_zero(mask));
    }
};

/// Uniform over runnable threads.
class RandomSchedule final : public Schedule {
public:
    explicit RandomSchedule(std::uint64_t seed) : rng_(seed) {}

    std::uint32_t pick(std::uint64_t runnable, std::uint64_t) override {
        const auto live =
            static_cast<std::uint64_t>(std::popcount(runnable));
        std::uint64_t nth = rng_.below(live);
        std::uint64_t mask = runnable;
        while (nth--) mask &= mask - 1;
        return static_cast<std::uint32_t>(std::countr_zero(mask));
    }

private:
    util::Xoshiro256 rng_;
};

/// PCT (probabilistic concurrency testing): random per-thread priorities,
/// d-1 random change points; each step runs the highest-priority runnable
/// thread. Adaptation for abort/retry STMs: an abort demotes the aborting
/// thread below everyone (in PCT terms, an abort is an involuntary yield) —
/// otherwise two transactions that keep aborting each other under a fixed
/// priority order would retry forever.
class PctSchedule final : public Schedule {
public:
    PctSchedule(std::uint64_t seed, std::uint32_t depth, std::uint64_t steps)
        : rng_(seed) {
        for (auto& p : priority_) p = 0;
        for (std::uint32_t d = 1; d < depth; ++d) {
            change_points_.push_back(rng_.below(std::max<std::uint64_t>(steps, 1)));
        }
        std::sort(change_points_.begin(), change_points_.end());
    }

    std::uint32_t pick(std::uint64_t runnable, std::uint64_t step) override {
        while (change_index_ < change_points_.size() &&
               step >= change_points_[change_index_]) {
            ++change_index_;
            demote(top_runnable(runnable));
        }
        return top_runnable(runnable);
    }

    void observe(std::uint32_t thread, Event event) override {
        if (event == Event::kAbort) demote(thread);
    }

private:
    [[nodiscard]] std::uint32_t top_runnable(std::uint64_t runnable) {
        std::uint32_t best = static_cast<std::uint32_t>(std::countr_zero(runnable));
        for (std::uint64_t mask = runnable; mask != 0; mask &= mask - 1) {
            const auto t = static_cast<std::uint32_t>(std::countr_zero(mask));
            if (priority(t) > priority(best)) best = t;
        }
        return best;
    }

    /// Priorities are assigned lazily on first sight (the schedule does not
    /// know the thread count up front) — a fresh random rank well above the
    /// demotion floor.
    [[nodiscard]] std::int64_t priority(std::uint32_t t) {
        if (priority_[t] == 0) {
            priority_[t] = static_cast<std::int64_t>(rng_.uniform(1, 1u << 20));
        }
        return priority_[t];
    }

    void demote(std::uint32_t t) { priority_[t] = --floor_; }

    util::Xoshiro256 rng_;
    std::array<std::int64_t, 64> priority_{};  // 0 = unassigned
    std::int64_t floor_ = -1;                  // next demotion rank
    std::vector<std::uint64_t> change_points_;
    std::size_t change_index_ = 0;
};

/// Follows a recorded pick string; round-robin past its end.
class ReplaySchedule final : public Schedule {
public:
    explicit ReplaySchedule(std::string picks) : picks_(std::move(picks)) {
        for (const char c : picks_) (void)char_to_thread(c);  // validate early
    }

    std::uint32_t pick(std::uint64_t runnable, std::uint64_t step) override {
        if (pos_ < picks_.size()) {
            const std::uint32_t want = char_to_thread(picks_[pos_++]);
            return nearest_runnable(runnable, want);
        }
        return fallback_.pick(runnable, step);
    }

private:
    std::string picks_;
    std::size_t pos_ = 0;
    RoundRobinSchedule fallback_;
};

}  // namespace

std::vector<std::string> schedule_names() {
    return {"rr", "random", "pct", "replay"};
}

// ---------------------------------------------------------------------------
// Mutation engine
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] char random_pick(std::uint32_t threads, util::Xoshiro256& rng) {
    return thread_to_char(static_cast<std::uint32_t>(rng.below(threads)));
}

/// Fresh random picks, length in [1, cap].
[[nodiscard]] std::string random_picks(std::uint32_t threads,
                                       std::uint64_t cap,
                                       util::Xoshiro256& rng) {
    std::string out;
    const std::uint64_t len = 1 + rng.below(std::max<std::uint64_t>(cap, 1));
    out.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) out.push_back(random_pick(threads, rng));
    return out;
}

}  // namespace

std::string_view to_string(Mutator m) noexcept {
    switch (m) {
        case Mutator::kFlip: return "flip";
        case Mutator::kTruncateExtend: return "truncate-extend";
        case Mutator::kSplice: return "splice";
        case Mutator::kShuffleRegion: return "shuffle-region";
        case Mutator::kCrossover: return "crossover";
    }
    return "unknown";
}

bool schedule_valid(const std::string& schedule,
                    std::uint32_t threads) noexcept {
    if (schedule.empty()) return false;
    for (const char c : schedule) {
        const bool digit = c >= '0' && c <= '9';
        const bool lower = c >= 'a' && c <= 'z';
        if (!digit && !lower) return false;
        const auto t = static_cast<std::uint32_t>(
            digit ? c - '0' : c - 'a' + 10);
        if (t >= threads) return false;
    }
    return true;
}

std::string mutate_schedule(const std::string& base, const std::string& partner,
                            std::uint32_t threads, Mutator m,
                            util::Xoshiro256& rng) {
    if (threads == 0 || threads > kMaxScheduleThreads) {
        throw std::invalid_argument("mutate_schedule: bad thread count");
    }
    // Degenerate parents: nothing to cut or splice — emit fresh picks.
    if (base.empty()) return random_picks(threads, 32, rng);
    const bool two_parent = m == Mutator::kSplice || m == Mutator::kCrossover;
    if (two_parent && partner.empty()) m = Mutator::kTruncateExtend;

    std::string out = base;
    switch (m) {
        case Mutator::kFlip: {
            const std::uint64_t flips =
                1 + rng.below(std::max<std::uint64_t>(out.size() / 8, 1));
            for (std::uint64_t i = 0; i < flips; ++i) {
                out[rng.below(out.size())] = random_pick(threads, rng);
            }
            break;
        }
        case Mutator::kTruncateExtend: {
            out.resize(1 + rng.below(out.size()));  // keep a nonempty prefix
            out += random_picks(threads, base.size() + 16, rng);
            break;
        }
        case Mutator::kSplice: {
            const std::size_t i = rng.below(out.size());
            const std::size_t j = rng.below(partner.size());
            out.resize(i);
            out.append(partner, j, partner.npos);
            if (out.empty()) out.push_back(random_pick(threads, rng));
            break;
        }
        case Mutator::kShuffleRegion: {
            // The PCT analogy: permuting one region reorders which thread
            // wins each contended step without disturbing the rest of the
            // run — a localized priority change.
            const std::size_t i = rng.below(out.size());
            const std::size_t len = std::min<std::size_t>(
                out.size() - i, 2 + rng.below(14));
            for (std::size_t k = len; k > 1; --k) {  // Fisher-Yates
                std::swap(out[i + k - 1], out[i + rng.below(k)]);
            }
            break;
        }
        case Mutator::kCrossover: {
            const std::size_t block = 1 + rng.below(8);
            out.clear();
            const std::size_t longest = std::max(base.size(), partner.size());
            for (std::size_t i = 0; i < longest; i += block) {
                const std::string& src = ((i / block) % 2 == 0) ? base : partner;
                if (i < src.size()) {
                    out.append(src, i, std::min(block, src.size() - i));
                }
            }
            if (out.empty()) out.push_back(random_pick(threads, rng));
            break;
        }
    }
    return out;
}

std::string mutate_schedule(const std::string& base, const std::string& partner,
                            std::uint32_t threads, util::Xoshiro256& rng) {
    const auto m = static_cast<Mutator>(rng.below(kMutatorCount));
    return mutate_schedule(base, partner, threads, m, rng);
}

std::string shrink_schedule(
    std::string schedule, const std::function<bool(const std::string&)>& keep,
    std::uint64_t max_probes) {
    std::uint64_t probes = 0;
    const auto probe = [&](const std::string& candidate) {
        ++probes;
        return keep(candidate);
    };
    if (schedule.empty() || !probe(schedule)) return schedule;

    std::size_t chunk = std::max<std::size_t>(schedule.size() / 2, 1);
    for (;;) {
        for (std::size_t i = 0; i < schedule.size();) {
            if (max_probes != 0 && probes >= max_probes) return schedule;
            std::string candidate = schedule;
            candidate.erase(i, chunk);
            if (candidate.size() < schedule.size() && probe(candidate)) {
                schedule = std::move(candidate);  // keep shrinking at i
            } else {
                i += chunk;
            }
        }
        if (chunk == 1) break;
        chunk /= 2;
    }
    return schedule;
}

std::unique_ptr<Schedule> make_schedule(const config::Config& cfg,
                                        std::uint64_t seed) {
    // An explicit pick string wins: `--schedule=0120` alone means replay.
    const std::string kind =
        cfg.get("sched", cfg.has("schedule") ? "replay" : "random");
    if (kind == "rr") return std::make_unique<RoundRobinSchedule>();
    if (kind == "random") return std::make_unique<RandomSchedule>(seed);
    if (kind == "pct") {
        return std::make_unique<PctSchedule>(seed, cfg.get_u32("depth", 3),
                                             cfg.get_u64("steps", 256));
    }
    if (kind == "replay") {
        return std::make_unique<ReplaySchedule>(cfg.get("schedule", ""));
    }
    throw config::unknown_name("schedule", kind, schedule_names());
}

}  // namespace tmb::sched
