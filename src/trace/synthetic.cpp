#include "trace/synthetic.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/hash.hpp"

namespace tmb::trace {

SpecJbbLikeGenerator::SpecJbbLikeGenerator(SpecJbbLikeParams params,
                                           std::uint64_t seed)
    : params_(std::move(params)), seed_(seed) {
    if (params_.threads == 0) throw std::invalid_argument("threads must be > 0");
    if (params_.arena_blocks == 0) throw std::invalid_argument("arena_blocks must be > 0");
    if (params_.strides.empty()) throw std::invalid_argument("strides must be non-empty");
}

SpecJbbLikeGenerator::Emitter::Emitter(const SpecJbbLikeParams& params,
                                       std::uint64_t seed,
                                       std::uint32_t thread_id)
    // Per-thread independent RNG stream: mix the seed with the thread id so
    // streams are reproducible independently of generation order.
    : params_(params),
      rng_(util::mix64(seed ^ (0x9e3779b97f4a7c15ULL * (thread_id + 1)))),
      // Arena layout: [shared pool][thread 0 arena][thread 1 arena]...
      arena_base_(params.shared_blocks +
                  static_cast<std::uint64_t>(thread_id) * params.arena_blocks) {
    recent_.reserve(params_.reuse_window);
    run_block_ = arena_base_ + rng_.below(params_.arena_blocks);
}

void SpecJbbLikeGenerator::Emitter::remember(std::uint64_t block) {
    if (params_.reuse_window == 0) return;
    if (recent_.size() < params_.reuse_window) {
        recent_.push_back(block);
    } else {
        recent_[recent_next_] = block;
        if (++recent_next_ == recent_.size()) recent_next_ = 0;
    }
}

std::size_t SpecJbbLikeGenerator::Emitter::emit(std::span<Access> out) {
    for (Access& slot : out) {
        std::uint64_t block;
        if (run_remaining_ > 0) {
            // Continue the current spatial run, wrapping inside the arena.
            // run_block_ always sits in the arena, so the offset reaches
            // arena_blocks only when the stride steps past its end.
            std::uint64_t offset = run_block_ + run_stride_ - arena_base_;
            if (offset >= params_.arena_blocks) offset %= params_.arena_blocks;
            --run_remaining_;
            block = arena_base_ + offset;
            run_block_ = block;
        } else if (!recent_.empty() && rng_.bernoulli(params_.reuse_fraction)) {
            // Temporal reuse of a recently touched block.
            block = recent_[rng_.below(recent_.size())];
        } else if (rng_.bernoulli(params_.shared_fraction)) {
            // Shared-pool access (potential true conflict, filtered later).
            block = rng_.below(std::max<std::uint64_t>(params_.shared_blocks, 1));
        } else {
            // Start a fresh spatial run at a random arena location.
            run_block_ = arena_base_ + rng_.below(params_.arena_blocks);
            run_stride_ = params_.strides[rng_.below(params_.strides.size())];
            run_remaining_ =
                rng_.run_length(1.0 - params_.run_continue, params_.max_run) - 1;
            block = run_block_;
        }
        remember(block);

        const bool is_write = rng_.bernoulli(params_.write_fraction);
        const auto instr_delta = static_cast<std::uint32_t>(
            1 + rng_.below(2 * std::max<std::uint32_t>(params_.mean_instr_per_access, 1) - 1));
        slot = Access{block, is_write, instr_delta};
    }
    return out.size();
}

SpecJbbLikeGenerator::Emitter SpecJbbLikeGenerator::stream_emitter(
    std::uint32_t thread_id) const {
    return Emitter(params_, seed_, thread_id);
}

Stream SpecJbbLikeGenerator::generate_stream(std::uint32_t thread_id,
                                             std::size_t accesses) {
    Stream out(accesses);
    stream_emitter(thread_id).emit(out);
    return out;
}

MultiThreadTrace SpecJbbLikeGenerator::generate(std::size_t accesses_per_thread) {
    MultiThreadTrace trace;
    trace.streams.reserve(params_.threads);
    for (std::uint32_t t = 0; t < params_.threads; ++t) {
        trace.streams.push_back(generate_stream(t, accesses_per_thread));
    }
    return trace;
}

std::size_t unique_blocks(std::span<const Access> stream) {
    std::vector<std::uint64_t> blocks;
    blocks.reserve(stream.size());
    for (const auto& a : stream) blocks.push_back(a.block);
    std::sort(blocks.begin(), blocks.end());
    return static_cast<std::size_t>(
        std::unique(blocks.begin(), blocks.end()) - blocks.begin());
}

std::size_t write_count(std::span<const Access> stream) {
    std::size_t n = 0;
    for (const auto& a : stream) n += a.is_write ? 1 : 0;
    return n;
}

std::uint64_t instruction_count(std::span<const Access> stream, std::size_t n) {
    std::uint64_t total = 0;
    const std::size_t limit = std::min(n, stream.size());
    for (std::size_t i = 0; i < limit; ++i) total += stream[i].instr_delta;
    return total;
}

}  // namespace tmb::trace
