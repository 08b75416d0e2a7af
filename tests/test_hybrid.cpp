// Tests for the hybrid-TM simulator: overflow routing, the paper's
// serialization conclusion for tagless fallback, and tagged-fallback
// immunity.
#include <gtest/gtest.h>

#include "hybrid/hybrid_tm.hpp"

namespace tmb::hybrid {
namespace {

HybridConfig base_config() {
    HybridConfig c;
    c.threads = 4;
    c.mix.large_fraction = 0.2;
    c.mix.small_blocks = 16;
    c.mix.large_blocks = 256;
    c.ticks = 30000;
    c.seed = 11;
    return c;
}

TEST(HtmOverflow, SmallFitsLargeOverflows) {
    const cache::CacheGeometry g{};  // 512 blocks
    EXPECT_FALSE(htm_overflows(g, 16, 1));
    EXPECT_FALSE(htm_overflows(g, 32, 1));
    EXPECT_TRUE(htm_overflows(g, 400, 1));
    EXPECT_TRUE(htm_overflows(g, 512, 1));
}

TEST(HtmOverflow, OverflowThresholdNearPaperUtilization) {
    // §2.3: overflow typically occurs around 2/5 of the 512-block capacity.
    const cache::CacheGeometry g{};
    std::uint64_t first_overflow = 0;
    for (std::uint64_t blocks = 32; blocks <= 512; blocks += 16) {
        bool any = false;
        for (std::uint64_t seed = 0; seed < 5; ++seed) {
            any = any || htm_overflows(g, blocks, seed);
        }
        if (any) {
            first_overflow = blocks;
            break;
        }
    }
    EXPECT_GT(first_overflow, 96u);
    EXPECT_LT(first_overflow, 400u);
}

TEST(Hybrid, SmallOnlyWorkloadStaysInHtm) {
    auto c = base_config();
    c.mix.large_fraction = 0.0;
    const auto r = run_hybrid_tm(c);
    EXPECT_EQ(r.overflows, 0u);
    EXPECT_EQ(r.stm_commits, 0u);
    EXPECT_EQ(r.stm_aborts, 0u);
    // 4 threads, 16-block txns, 30000 ticks → 4*30000/16 = 7500 commits.
    EXPECT_NEAR(static_cast<double>(r.htm_commits), 7500.0, 10.0);
}

TEST(Hybrid, LargeTransactionsFallBackToStm) {
    auto c = base_config();
    c.stm_table = "tagged";
    const auto r = run_hybrid_tm(c);
    EXPECT_GT(r.overflows, 0u);
    EXPECT_GT(r.stm_commits, 0u);
    EXPECT_GT(r.htm_commits, 0u);
}

TEST(Hybrid, TaggedFallbackNeverAborts) {
    auto c = base_config();
    c.stm_table = "tagged";
    c.stm_table_entries = 1024;  // tiny: chains, but no false conflicts
    const auto r = run_hybrid_tm(c);
    EXPECT_GT(r.stm_commits, 0u);
    EXPECT_EQ(r.stm_aborts, 0u)
        << "workload is conflict-free; tagged tables must not abort";
    // All overflowed transactions progress: effective concurrency near the
    // average number of concurrently running STM transactions (> 1 here).
    EXPECT_GT(r.stm_effective_concurrency, 0.9);
}

TEST(Hybrid, TaglessFallbackAbortsAndSerializes) {
    auto c = base_config();
    c.threads = 8;
    c.mix.large_fraction = 1.0;  // everything overflows: the paper's §6 nightmare
    c.stm_table = "tagless";
    c.stm_table_entries = 1u << 14;  // W=256/(1+α): Eq.8 says certain conflict
    const auto r = run_hybrid_tm(c);
    EXPECT_GT(r.stm_aborts, r.stm_commits)
        << "aliasing should dominate at this table size";
    // The paper's conclusion: effective concurrency of overflowed
    // transactions approaches 1.
    EXPECT_LT(r.stm_effective_concurrency, 2.5);

    // Same setup, tagged: full concurrency, zero aborts.
    c.stm_table = "tagged";
    const auto tagged = run_hybrid_tm(c);
    EXPECT_EQ(tagged.stm_aborts, 0u);
    EXPECT_GT(tagged.stm_effective_concurrency,
              r.stm_effective_concurrency * 2);
    EXPECT_GT(tagged.stm_commits, r.stm_commits);
}

TEST(Hybrid, BiggerTaglessTableHelpsButSublinearly) {
    auto c = base_config();
    c.threads = 4;
    c.mix.large_fraction = 1.0;
    c.stm_table = "tagless";
    std::vector<double> abort_ratio;
    for (const std::uint64_t n : {1u << 14, 1u << 16, 1u << 18}) {
        c.stm_table_entries = n;
        abort_ratio.push_back(run_hybrid_tm(c).stm_abort_ratio());
    }
    EXPECT_GT(abort_ratio[0], abort_ratio[1]);
    EXPECT_GT(abort_ratio[1], abort_ratio[2]);
}

TEST(Hybrid, DeterministicForSeed) {
    const auto c = base_config();
    const auto a = run_hybrid_tm(c);
    const auto b = run_hybrid_tm(c);
    EXPECT_EQ(a.htm_commits, b.htm_commits);
    EXPECT_EQ(a.stm_commits, b.stm_commits);
    EXPECT_EQ(a.stm_aborts, b.stm_aborts);
}

TEST(Hybrid, RejectsBadConfig) {
    auto c = base_config();
    c.threads = 0;
    EXPECT_THROW((void)run_hybrid_tm(c), std::invalid_argument);
    c = base_config();
    c.threads = ownership::kMaxTx + 1;
    EXPECT_THROW((void)run_hybrid_tm(c), std::invalid_argument);
}

TEST(Hybrid, ThroughputHelpers) {
    auto c = base_config();
    c.mix.large_fraction = 0.0;
    const auto r = run_hybrid_tm(c);
    EXPECT_NEAR(r.htm_throughput(c),
                1000.0 * static_cast<double>(r.htm_commits) / 30000.0, 1e-9);
    EXPECT_EQ(r.stm_throughput(c), 0.0);
    EXPECT_EQ(r.stm_abort_ratio(), 0.0);
}

}  // namespace
}  // namespace tmb::hybrid
