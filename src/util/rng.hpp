// rng.hpp — deterministic pseudo-random number generation for all Monte
// Carlo paths in the reproduction.
//
// Everything that samples randomness in this repository takes an explicit
// 64-bit seed so every figure in the paper can be regenerated bit-for-bit.
// We use splitmix64 for seed expansion (it is a bijective mixer, so distinct
// seeds give independent-looking streams) and xoshiro256** as the workhorse
// generator (fast, 256-bit state, passes BigCrush).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace tmb::util {

/// One splitmix64 step: advances `state` and returns a mixed 64-bit value.
/// Used to expand a single user seed into generator state.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
///
/// Satisfies std::uniform_random_bit_generator so it can drive <random>
/// distributions, but the methods below (uniform / below / bernoulli) are
/// preferred: they are deterministic across standard library
/// implementations, which matters for reproducible figures.
class Xoshiro256 {
public:
    using result_type = std::uint64_t;

    /// Seeds via splitmix64 expansion of `seed`.
    explicit Xoshiro256(std::uint64_t seed = 0xdeadbeefcafef00dULL) noexcept;

    [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
    [[nodiscard]] static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    // The draws below are defined inline: trace generators make several
    // per emitted access, so an out-of-line call would cost more than the
    // arithmetic.

    result_type operator()() noexcept {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /// Uniform integer in [0, bound). bound must be > 0.
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Uniform integer in [lo, hi] inclusive.
    [[nodiscard]] std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) noexcept {
        return lo + below(hi - lo + 1);
    }

    /// Uniform double in [0, 1) with 53 bits of randomness.
    [[nodiscard]] double uniform01() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// True with probability p (clamped to [0,1]).
    [[nodiscard]] bool bernoulli(double p) noexcept {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform01() < p;
    }

    /// Geometric-ish run length: 1 + Geometric(p_stop); mean 1/p_stop.
    /// Used by the trace generators for spatial run lengths.
    [[nodiscard]] std::uint64_t run_length(double p_stop, std::uint64_t cap) noexcept {
        if (p_stop >= 1.0 || cap <= 1) return 1;
        std::uint64_t n = 1;
        while (n < cap && !bernoulli(p_stop)) ++n;
        return n;
    }

    /// Equivalent to the xoshiro jump function: advances 2^128 steps, giving
    /// a non-overlapping substream. Useful for per-thread generators.
    void jump() noexcept;

    /// Derives an independent child generator (seeded from this one's output).
    [[nodiscard]] Xoshiro256 split() noexcept;

private:
    std::array<std::uint64_t, 4> s_{};
};

}  // namespace tmb::util
