// bits.hpp — small bit-manipulation helpers shared by the hash functions,
// ownership tables and the cache simulator, and the spin-wait hint.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

namespace tmb::util {

/// True iff `x` is a (nonzero) power of two.
[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
    return x != 0 && (x & (x - 1)) == 0;
}

/// Smallest power of two >= x (x = 0 maps to 1).
[[nodiscard]] constexpr std::uint64_t next_pow2(std::uint64_t x) noexcept {
    if (x <= 1) return 1;
    return std::uint64_t{1} << (64 - std::countl_zero(x - 1));
}

/// log2 of a power of two.
[[nodiscard]] constexpr unsigned log2_pow2(std::uint64_t x) noexcept {
    return static_cast<unsigned>(std::countr_zero(x));
}

/// Mask with the low `n` bits set (n <= 63).
[[nodiscard]] constexpr std::uint64_t low_mask(unsigned n) noexcept {
    return (std::uint64_t{1} << n) - 1;
}

/// Spin-wait hint for a loop that polls a word another core will write.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

}  // namespace tmb::util
