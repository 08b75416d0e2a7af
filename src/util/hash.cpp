#include "util/hash.hpp"

#include <stdexcept>
#include <string>

#include "util/bits.hpp"

namespace tmb::util {

std::string_view to_string(HashKind kind) noexcept {
    switch (kind) {
        case HashKind::kShiftMask: return "shift-mask";
        case HashKind::kMultiplicative: return "multiplicative";
        case HashKind::kMix64: return "mix64";
    }
    return "unknown";
}

HashKind hash_kind_from_string(std::string_view name) {
    if (name == "shift" || name == "shift-mask" || name == "shift_mask") {
        return HashKind::kShiftMask;
    }
    if (name == "mult" || name == "multiplicative") {
        return HashKind::kMultiplicative;
    }
    if (name == "mix" || name == "mix64") return HashKind::kMix64;
    throw std::invalid_argument("unknown hash kind '" + std::string(name) +
                                "' (known: shift-mask, multiplicative, mix64)");
}

// The formulas live in BlockHasher::operator() (hash.hpp) — the hot-path
// form the ownership tables use; these free functions are thin one-shot
// wrappers so there is exactly one implementation to test and evolve.

std::uint64_t hash_shift_mask(std::uint64_t block, std::uint64_t n) noexcept {
    return BlockHasher(HashKind::kShiftMask, n)(block);
}

std::uint64_t hash_multiplicative(std::uint64_t block, std::uint64_t n) noexcept {
    return BlockHasher(HashKind::kMultiplicative, n)(block);
}

std::uint64_t hash_mix64(std::uint64_t block, std::uint64_t n) noexcept {
    return BlockHasher(HashKind::kMix64, n)(block);
}

std::uint64_t hash_block(HashKind kind, std::uint64_t block, std::uint64_t n) noexcept {
    return BlockHasher(kind, n)(block);
}

}  // namespace tmb::util
