#include "util/rng.hpp"

namespace tmb::util {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64_next(sm);
    // All-zero state is the one invalid state for xoshiro; splitmix64 cannot
    // produce four zero outputs in a row, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x1ULL;
}

void Xoshiro256::jump() noexcept {
    static constexpr std::uint64_t kJump[] = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t jump_word : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (jump_word & (std::uint64_t{1} << b)) {
                s0 ^= s_[0];
                s1 ^= s_[1];
                s2 ^= s_[2];
                s3 ^= s_[3];
            }
            (void)(*this)();
        }
    }
    s_ = {s0, s1, s2, s3};
}

Xoshiro256 Xoshiro256::split() noexcept {
    return Xoshiro256{(*this)()};
}

}  // namespace tmb::util
