// schedule.hpp — interleaving policies for the schedule-exploration harness.
//
// A Schedule decides, at every scheduling step, which runnable virtual
// thread executes next. The harness (harness.hpp) records every pick as one
// base-36 character, so any explored run — random, PCT or hand-written —
// collapses to a compact string that replays bit-for-bit:
//
//   "0121020" ≡ step thread 0, then 1, then 2, then 1, ...
//
// `make_schedule` constructs schedules by name, exactly like tables and
// backends:
//
//   sched=rr       round-robin (the deterministic baseline)
//   sched=random   uniform over runnable threads from `seed`
//   sched=pct      PCT priority scheduling (Burckhardt et al.): random
//                  priorities, `depth`-1 priority-change points, and — the
//                  adaptation for abort/retry STMs, where no thread ever
//                  blocks — demote a thread whenever it aborts, so the
//                  conflict victim's blocker gets to finish. Without the
//                  demotion rule strict priorities livelock two mutually
//                  aborting transactions forever.
//   sched=replay   follow `schedule=<string>` exactly; past its end, fall
//                  back to round-robin (only reachable when the replay
//                  config differs from the recording config)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/config.hpp"

namespace tmb::util {
class Xoshiro256;
}

namespace tmb::sched {

/// Largest virtual-thread count a schedule string can name: one base-36
/// digit (0-9, a-z) per pick.
inline constexpr std::uint32_t kMaxScheduleThreads = 36;

/// Feedback the harness reports after each step, so adaptive schedules
/// (PCT's abort demotion) stay livelock-free.
enum class Event : std::uint8_t { kAbort, kCommit, kThreadDone };

/// One interleaving policy. Instances are single-run state machines: the
/// harness creates a fresh Schedule per explored run.
class Schedule {
public:
    virtual ~Schedule() = default;

    /// Returns the virtual thread (bit index) to run next. `runnable` is a
    /// nonzero bitmask of unfinished threads; `step` counts picks so far.
    /// Must return a set bit of `runnable`.
    [[nodiscard]] virtual std::uint32_t pick(std::uint64_t runnable,
                                             std::uint64_t step) = 0;

    /// Observes the outcome of the step granted to `thread`.
    virtual void observe(std::uint32_t thread, Event event) {
        (void)thread;
        (void)event;
    }
};

/// The set-bit of `runnable` at or cyclically after `want` — the
/// deterministic adjustment used when a replayed pick names a finished
/// thread.
[[nodiscard]] std::uint32_t nearest_runnable(std::uint64_t runnable,
                                             std::uint32_t want) noexcept;

/// Base-36 encoding of thread indices for schedule strings.
[[nodiscard]] char thread_to_char(std::uint32_t thread) noexcept;
/// Decodes one schedule character; throws std::invalid_argument on anything
/// outside [0-9a-z].
[[nodiscard]] std::uint32_t char_to_thread(char c);

/// The schedule names make_schedule knows: rr, random, pct, replay.
[[nodiscard]] std::vector<std::string> schedule_names();

// ---------------------------------------------------------------------------
// Schedule-string mutation (the fuzzing substrate)
// ---------------------------------------------------------------------------
//
// A recorded base-36 pick string is a perfect mutation substrate: any
// string whose characters name threads below the workload's thread count
// is a valid schedule (replay adjusts picks that name finished threads via
// nearest_runnable, and runs past the string's end fall back to
// round-robin). The mutators below therefore only ever emit characters in
// [0, threads) and never emit an empty string.

/// The mutation operators the guided fuzzer draws from.
enum class Mutator : std::uint8_t {
    kFlip = 0,            ///< rewrite a few random picks
    kTruncateExtend = 1,  ///< cut at a random point, extend with fresh picks
    kSplice = 2,          ///< prefix of the base + suffix of the partner
    kShuffleRegion = 3,   ///< shuffle the picks inside one region
    kCrossover = 4,       ///< alternate blocks of base and partner
};
inline constexpr std::uint32_t kMutatorCount = 5;

[[nodiscard]] std::string_view to_string(Mutator m) noexcept;

/// Applies `m` to `base` (using `partner` as the second parent for splice
/// and crossover; an empty partner degrades those to truncate-and-extend).
/// Always returns a non-empty string of picks in [0, threads).
[[nodiscard]] std::string mutate_schedule(const std::string& base,
                                          const std::string& partner,
                                          std::uint32_t threads, Mutator m,
                                          util::Xoshiro256& rng);

/// Applies an rng-chosen mutator.
[[nodiscard]] std::string mutate_schedule(const std::string& base,
                                          const std::string& partner,
                                          std::uint32_t threads,
                                          util::Xoshiro256& rng);

/// True when every pick of `schedule` is a valid base-36 thread index
/// below `threads` (the syntactic validity every mutant must preserve).
[[nodiscard]] bool schedule_valid(const std::string& schedule,
                                  std::uint32_t threads) noexcept;

/// Greedy ddmin-style chunk removal: repeatedly drops substrings of
/// `schedule` while `keep(candidate)` stays true, probing at most
/// `max_probes` candidates (0 = unlimited). Returns the shortest string
/// found; the input unchanged when keep(schedule) is false. This is the
/// engine under both failure minimization (keep = "still violates") and
/// corpus-entry shrinking (keep = "same coverage signature").
[[nodiscard]] std::string shrink_schedule(
    std::string schedule, const std::function<bool(const std::string&)>& keep,
    std::uint64_t max_probes = 0);

/// Creates the schedule named by `sched=` (default "random"). Keys:
///   sched      rr | random | pct | replay (any other name throws
///              std::invalid_argument listing schedule_names())
///   schedule   pick string (replay; also implies sched=replay when set)
///   depth      PCT priority-change points + 1 (default 3)
///   steps      PCT's estimate of the run's step count, over which change
///              points are sampled (default 256)
[[nodiscard]] std::unique_ptr<Schedule> make_schedule(const config::Config& cfg,
                                                      std::uint64_t seed);

}  // namespace tmb::sched
