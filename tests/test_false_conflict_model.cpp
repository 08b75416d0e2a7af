// Property test for the paper's central quantitative claim, run through the
// ownership tables selected by name:
//
//   For IDENTICAL traces of disjoint per-stream write sets,
//     * the tagged table (Fig. 7) reports zero conflicts — every conflict
//       it could report would be false, and tags eliminate false conflicts;
//     * the tagless table (Fig. 1) reports alias conflicts at the rate the
//       birthday machinery (core/birthday.hpp) predicts:
//         lambda = C(C-1) W^2 / 2N  cross-stream colliding pairs,
//         P(conflict) ~= 1 - exp(-lambda).
//
// The closed form follows from core/birthday.hpp's expected_collision_pairs:
// among C*W uniform balls there are E_all = C(C*W, 2)/N colliding pairs in
// expectation; C * C(W, 2)/N of them are intra-stream (same transaction —
// idempotent re-acquire, not a conflict); the difference is exactly
// C(C-1)W^2/2N. The Poisson approximation then gives the per-sample
// conflict probability.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "config/config.hpp"
#include "core/birthday.hpp"
#include "ownership/any_table.hpp"
#include "util/rng.hpp"

namespace tmb {
namespace {

struct SampleTrace {
    /// blocks[c] = the W distinct blocks stream c writes, in order.
    std::vector<std::vector<std::uint64_t>> blocks;
};

/// Draws C streams of W blocks from disjoint per-stream universes: no two
/// streams ever share a block, so every conflict any table reports is false
/// by construction.
SampleTrace make_disjoint_trace(std::uint32_t c, std::uint64_t w,
                                util::Xoshiro256& rng) {
    SampleTrace trace;
    trace.blocks.resize(c);
    for (std::uint32_t s = 0; s < c; ++s) {
        auto& stream = trace.blocks[s];
        stream.reserve(w);
        const std::uint64_t universe_base = (std::uint64_t{s} + 1) << 40;
        for (std::uint64_t i = 0; i < w; ++i) {
            // 2^36 possible blocks per stream: repeats are negligible and a
            // repeat within a stream is idempotent anyway.
            stream.push_back(universe_base + rng.below(1ull << 36));
        }
    }
    return trace;
}

/// Creates a table of the named organization through make_table — the
/// same construction path the simulators and benches use.
std::unique_ptr<ownership::AnyTable> make_table(const std::string& organization,
                                                std::uint64_t entries) {
    config::Config cfg;
    cfg.set("table", organization);
    cfg.set("entries", std::to_string(entries));
    cfg.set("hash", "mix64");  // the model's i.i.d. idealization
    return ownership::make_table(cfg);
}

/// Replays `trace` round-robin (the paper's lock-step population) into
/// `table`; true iff any acquire conflicts. Releases everything it acquired
/// so the table is reusable across samples (O(footprint) cleanup).
bool replay_conflicts(ownership::AnyTable& table, const SampleTrace& trace) {
    const std::uint32_t c = static_cast<std::uint32_t>(trace.blocks.size());
    const std::uint64_t w = trace.blocks.front().size();
    bool conflicted = false;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> acquired;
    acquired.reserve(c * w);
    for (std::uint64_t i = 0; i < w && !conflicted; ++i) {
        for (std::uint32_t s = 0; s < c; ++s) {
            if (!table.acquire_write(s, trace.blocks[s][i]).ok) {
                conflicted = true;
                break;
            }
            acquired.emplace_back(s, trace.blocks[s][i]);
        }
    }
    for (const auto& [s, block] : acquired) {
        table.release(s, block, ownership::Mode::kWrite);
    }
    EXPECT_EQ(table.occupied_entries(), 0u);
    return conflicted;
}

/// lambda = C(C-1) W^2 / 2N via the birthday helpers (see header comment).
double expected_cross_pairs(std::uint32_t c, std::uint64_t w,
                            std::uint64_t n) {
    const double all = core::expected_collision_pairs(c * w, n);
    const double intra = static_cast<double>(c) *
                         core::expected_collision_pairs(w, n);
    return all - intra;
}

struct GridPoint {
    std::uint32_t c;
    std::uint64_t w;
    std::uint64_t n;
    std::uint32_t samples;
};

class FalseConflictModel : public ::testing::TestWithParam<GridPoint> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, FalseConflictModel,
    ::testing::Values(GridPoint{2, 32, 1u << 14, 6000},
                      GridPoint{4, 16, 1u << 14, 6000},
                      GridPoint{2, 48, 1u << 15, 6000}),
    [](const auto& info) {
        return "C" + std::to_string(info.param.c) + "_W" +
               std::to_string(info.param.w) + "_N" +
               std::to_string(info.param.n);
    });

TEST_P(FalseConflictModel, TaglessMatchesBirthdayTaggedReportsNone) {
    const auto [c, w, n, samples] = GetParam();
    util::Xoshiro256 rng{0xb1e7d4a7ULL ^ (c * 131) ^ (w << 16) ^ n};

    const auto tagless = make_table("tagless", n);
    const auto tagged = make_table("tagged", n);

    std::uint32_t tagless_conflicted = 0;
    for (std::uint32_t s = 0; s < samples; ++s) {
        const auto trace = make_disjoint_trace(c, w, rng);
        // IDENTICAL trace through both organizations.
        if (replay_conflicts(*tagless, trace)) ++tagless_conflicted;
        EXPECT_FALSE(replay_conflicts(*tagged, trace))
            << "tagged table reported a conflict for disjoint streams "
               "(sample "
            << s << ")";
    }
    // Tagged never conflicted, so its conflict counter stayed at zero — the
    // satellite claim "zero false conflicts" in counter form.
    EXPECT_EQ(tagged->counters().conflicts, 0u);

    const double lambda = expected_cross_pairs(c, w, n);
    const double predicted = 1.0 - std::exp(-lambda);
    const double measured =
        static_cast<double>(tagless_conflicted) / static_cast<double>(samples);

    // Tolerance: +-25% relative, plus 4-sigma binomial noise floor.
    const double sigma =
        std::sqrt(predicted * (1.0 - predicted) / samples);
    const double tolerance = 0.25 * predicted + 4.0 * sigma;
    EXPECT_NEAR(measured, predicted, tolerance)
        << "C=" << c << " W=" << w << " N=" << n
        << " lambda=" << lambda << " samples=" << samples;
    // And the rate must be genuinely nonzero — the pathology exists.
    EXPECT_GT(tagless_conflicted, 0u);
}

/// The same equivalence the paper leans on: the exact birthday collision
/// probability and its exp approximation agree in the sparse regime the
/// grid above exercises.
TEST(FalseConflictModel, BirthdayApproxIsTightInTheSparseRegime) {
    for (const std::uint64_t balls : {32u, 64u, 96u}) {
        const double exact =
            core::birthday_collision_probability(balls, 1u << 14);
        const double approx = core::birthday_collision_approx(balls, 1u << 14);
        EXPECT_NEAR(exact, approx, 0.01) << balls;
    }
}

}  // namespace
}  // namespace tmb
