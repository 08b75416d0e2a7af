// hash.hpp — address-to-ownership-table-entry hash functions.
//
// The paper maps (virtual) block addresses into an N-entry ownership table
// by hashing. The choice of hash affects how correlated address runs (which
// are common in real traces) spread across the table: a simple shift-mask
// maps consecutive blocks to consecutive entries, while a mixing hash
// scatters them. Both are provided so experiments can quantify the
// difference; the paper's §4 discussion of consecutive addresses mapping to
// consecutive entries corresponds to `ShiftMaskHash`.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/bits.hpp"

namespace tmb::util {

/// Hash family selector, usable as a runtime knob in benches and tests.
enum class HashKind {
    kShiftMask,       ///< drop block-offset bits, mask by table size (identity-like)
    kMultiplicative,  ///< Knuth multiplicative hashing (golden-ratio constant)
    kMix64,           ///< full 64-bit finalizer (splitmix64-style avalanche)
};

[[nodiscard]] std::string_view to_string(HashKind kind) noexcept;

/// Inverse of to_string, for runtime `--hash=` flags. Accepts the canonical
/// names plus the short aliases "shift", "mult" and "mix"; throws
/// std::invalid_argument on anything else.
[[nodiscard]] HashKind hash_kind_from_string(std::string_view name);

/// Stateless mixers. All take the *block address* (byte address already
/// shifted right by the block-offset bits) and the table size N.
/// N must be a power of two for kShiftMask; the others accept any N > 0.
[[nodiscard]] std::uint64_t hash_shift_mask(std::uint64_t block, std::uint64_t n) noexcept;
[[nodiscard]] std::uint64_t hash_multiplicative(std::uint64_t block, std::uint64_t n) noexcept;
[[nodiscard]] std::uint64_t hash_mix64(std::uint64_t block, std::uint64_t n) noexcept;

/// Dispatch on the runtime kind.
[[nodiscard]] std::uint64_t hash_block(HashKind kind, std::uint64_t block,
                                       std::uint64_t n) noexcept;

/// The raw 64-bit avalanche mixer underlying kMix64 (also useful as a
/// general-purpose integer hash in tests). Inline: BlockHasher runs it on
/// every ownership-table lookup.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Precomputed block → index hasher for one table shape. `hash_block`
/// redoes the power-of-two test (and, failing it, a 64-bit divide) on every
/// call; ownership tables sit on the STM's per-access fast path, so they
/// resolve the shape once at construction and the per-access cost collapses
/// to mix + mask for power-of-two tables.
class BlockHasher {
public:
    BlockHasher() noexcept : BlockHasher(HashKind::kMix64, 1) {}
    BlockHasher(HashKind kind, std::uint64_t n) noexcept
        : kind_(kind),
          n_(n),
          pow2_(is_pow2(n)),
          mask_(n - 1),
          mult_shift_(pow2_ && n > 1 ? 64 - log2_pow2(n) : 64) {}

    [[nodiscard]] std::uint64_t operator()(std::uint64_t block) const noexcept {
        switch (kind_) {
            case HashKind::kShiftMask:
                return pow2_ ? (block & mask_) : (block % n_);
            case HashKind::kMultiplicative: {
                const std::uint64_t mixed = block * 0x9e3779b97f4a7c15ULL;
                if (!pow2_) return mixed % n_;
                return mult_shift_ == 64 ? 0 : (mixed >> mult_shift_);
            }
            case HashKind::kMix64:
                break;
        }
        const std::uint64_t mixed = mix64(block);
        return pow2_ ? (mixed & mask_) : (mixed % n_);
    }

private:
    HashKind kind_;
    std::uint64_t n_;
    bool pow2_;
    std::uint64_t mask_;
    unsigned mult_shift_;
};

}  // namespace tmb::util
