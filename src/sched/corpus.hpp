// corpus.hpp — the guided-fuzzing corpus and the fuzz loop itself.
//
// A Corpus holds the schedule strings that each first reached a distinct
// behavior signature (sched/coverage.hpp), ranked by *yield*: how many
// further distinct signatures that entry's mutants went on to reach. The
// fuzz loop (fuzz_explore) seeds the corpus with a handful of random runs,
// then repeatedly picks a base entry (yield-weighted), mutates its
// schedule string (sched/schedule.hpp mutators), replays the mutant under
// the subject's oracle (sched/explore.hpp: the prefix oracle when the run
// hits the step cap), and keeps it iff its signature is new — optionally
// ddmin-shrinking the kept string to the shortest prefix-free form that
// still reproduces the signature. One loop serves every subject.
//
// Multi-process sharing: when a corpus directory is set, each entry is
// published as `sig-<16-hex-signature>.sched` claimed with
// open(O_CREAT|O_EXCL) — exactly one worker wins each signature's file,
// the rest skip it — and sync() imports files other workers published.
// Workers never lock anything; the claim is the filename itself.
//
// Determinism: with a single job, everything — corpus order, selection,
// mutation — is a pure function of FuzzOptions::seed (test-asserted).
// With multiple jobs the *set* of signatures found is stable in practice
// but the corpus contents depend on which worker wins each claim race;
// only single-job runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/coverage.hpp"
#include "sched/explore.hpp"
#include "util/rng.hpp"

namespace tmb::sched {

/// One corpus member: the first schedule observed to reach `signature`.
struct CorpusEntry {
    std::string schedule;
    std::uint64_t signature = 0;
    std::uint64_t yield = 0;   ///< new signatures first reached by its mutants
    std::uint64_t trials = 0;  ///< times selected as a mutation base
};

/// The signature-deduplicated schedule corpus. Entries keep insertion
/// order (determinism); the CoverageMap inside also tracks signatures
/// observed but not retained (duplicates, imports).
class Corpus {
public:
    /// `dir` empty ⇒ in-memory only; otherwise sync() publishes/imports
    /// entries through that directory (created if missing).
    explicit Corpus(std::string dir = "");

    /// Registers a signature observation; true when it was unseen.
    bool observe(std::uint64_t signature);
    [[nodiscard]] bool seen(std::uint64_t signature) const;

    /// Retains `schedule` as the representative of `signature`. Call only
    /// after observe(signature) returned true.
    void add(std::string schedule, std::uint64_t signature);

    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
    [[nodiscard]] const CorpusEntry& entry(std::size_t i) const {
        return entries_[i];
    }
    [[nodiscard]] CorpusEntry& entry(std::size_t i) { return entries_[i]; }
    [[nodiscard]] std::uint64_t distinct_signatures() const noexcept {
        return map_.size();
    }

    /// Yield-weighted deterministic selection (weight 1 + min(4·yield, 63)).
    /// Requires a non-empty corpus.
    [[nodiscard]] std::size_t select(util::Xoshiro256& rng) const;

    /// Publishes unpublished entries (O_CREAT|O_EXCL claims) and imports
    /// files other workers published, in sorted filename order. Returns the
    /// number of imported entries; no-op (0) without a directory.
    std::size_t sync();

    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

private:
    std::string dir_;
    CoverageMap map_;
    std::vector<CorpusEntry> entries_;
    std::size_t published_ = 0;  ///< entries_[0..published_) are on disk
};

/// Knobs of one guided-fuzzing campaign.
struct FuzzOptions {
    std::uint64_t budget = 10000;  ///< total harness runs (mutants + shrink
                                   ///  probes + kill-point replays)
    std::uint64_t seed = 1;        ///< drives everything (see header note)
    std::uint64_t init = 32;       ///< random seeding runs before mutation
    std::uint64_t sync_every = 512;  ///< runs between corpus-dir syncs
    bool shrink = true;              ///< ddmin-shrink retained entries
    std::uint64_t shrink_probes = 24;  ///< probe cap per retained entry
    std::uint64_t kill_every = 0;  ///< every N runs, one kill-point check
                                   ///  at a random step (0 = off)
    /// Step cap per fuzz run (0 = inherit the subject's). Mutants can land
    /// on livelocking interleavings — two threads perpetually abort-retrying
    /// each other under a periodic tail — which are legal behaviors (the STM
    /// guarantees no such liveness property under adversarial scheduling)
    /// but would burn the full default budget (2^20 steps) per run. The
    /// fuzzer cancels them early and prefix-checks instead.
    std::uint64_t step_limit = std::uint64_t{1} << 14;
    /// Stop as soon as any violation is recorded (FuzzResult::runs then
    /// reports how many runs the campaign needed to find it).
    bool stop_at_first = false;
};

/// Aggregate of one fuzz_explore campaign.
struct FuzzResult {
    std::uint64_t runs = 0;         ///< harness runs executed (= budget spent)
    std::uint64_t kill_checks = 0;  ///< kill-point oracle invocations
    std::uint64_t new_coverage_mutants = 0;  ///< mutants with a new signature
    std::vector<Violation> violations;
    stm::StmStats stats;  ///< merged over all runs
    /// OR of every run's RunResult::sites_seen — which YieldSites the whole
    /// campaign reached (reachability assertions for new decision sites).
    std::uint32_t sites_seen = 0;
};

/// Coverage-guided schedule fuzzing over `subject`. The caller owns
/// `corpus` (pre-seeded or empty; pass one constructed with a directory to
/// share across processes). Every run is oracle-checked (a run cut at the
/// step cap by the prefix oracle); violations carry repro lines like
/// explore()'s.
[[nodiscard]] FuzzResult fuzz_explore(const Subject& subject,
                                      const FuzzOptions& opts, Corpus& corpus);

}  // namespace tmb::sched
