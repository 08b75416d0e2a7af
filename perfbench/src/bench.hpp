// bench.hpp — shared pieces of the repository benchmark: options, the
// metric table, one run's outcome, and the clocks every workload uses.
//
// Every metric the benchmark can report is named once, in kMetrics, with
// its unit. A workload records values for the metrics that apply to it;
// the result line carries every end-to-end metric (untraced run) or every
// per-layer metric (traced run), and a per-layer metric that does not apply
// to the workload reads 0 (README.md lists which apply where).
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measured time, split across sub-runs
    bool trace = false;     ///< per-layer run instead of the end-to-end run
    double scale = 1.0;     ///< work per sub-run and warm-up (self-test: tiny)
};

enum class Kind { kEndToEnd, kPerLayer };

struct MetricSpec {
    std::string_view name;
    std::string_view unit;
    Kind kind;
};

inline constexpr MetricSpec kMetrics[] = {
    // End-to-end (untraced run).
    {"throughput", "1/s", Kind::kEndToEnd},
    {"p50_us", "us", Kind::kEndToEnd},
    {"setup_s", "s", Kind::kEndToEnd},
    // Per-layer (traced run). p99_us and failed_share are end-to-end
    // quantities reported here without a bound: on a shared 4-vCPU host
    // the service's p99 follows hypervisor wake-up stalls, not the code,
    // and failed_share is 0 on a healthy run (README.md).
    {"p99_us", "us", Kind::kPerLayer},
    {"failed_share", "share", Kind::kPerLayer},
    {"exec.cpu_per_wall", "ratio", Kind::kPerLayer},
    {"exec.packed_runs", "count", Kind::kPerLayer},
    {"exec.op_us.p50", "us", Kind::kPerLayer},
    {"exec.op_us.p99", "us", Kind::kPerLayer},
    {"stm.abort_share", "share", Kind::kPerLayer},
    {"stm.mean_attempts", "1/commit", Kind::kPerLayer},
    {"stm.begin_ns", "ns", Kind::kPerLayer},
    {"stm.load_ns", "ns", Kind::kPerLayer},
    {"stm.store_ns", "ns", Kind::kPerLayer},
    {"stm.commit_ns", "ns", Kind::kPerLayer},
    {"stm.wasted_share", "share", Kind::kPerLayer},
    {"stm.clock_cas_failures_per_kcommit", "1/kcommit", Kind::kPerLayer},
    {"stm.tl2_validation_per_commit", "1/commit", Kind::kPerLayer},
    {"ownership.false_conflicts_per_kcommit", "1/kcommit", Kind::kPerLayer},
    {"ownership.true_conflicts_per_kcommit", "1/kcommit", Kind::kPerLayer},
    {"ownership.false_conflict_share", "share", Kind::kPerLayer},
    {"txalloc.cache_hit_share", "share", Kind::kPerLayer},
    {"txalloc.mutex_per_commit", "1/commit", Kind::kPerLayer},
    {"txalloc.allocs_per_commit", "1/commit", Kind::kPerLayer},
    {"txalloc.reclaimed_per_commit", "1/commit", Kind::kPerLayer},
    {"trace.next_ns", "ns", Kind::kPerLayer},
    {"trace.next_share", "share", Kind::kPerLayer},
    {"trace.overhead_share", "share", Kind::kPerLayer},
    {"trace.span_coverage", "share", Kind::kPerLayer},
    {"svc.latency_samples", "count", Kind::kPerLayer},
    {"svc.idle_polls_per_req", "1/req", Kind::kPerLayer},
    {"svc.idle_share", "share", Kind::kPerLayer},
    {"svc.batch_us.p50", "us", Kind::kPerLayer},
    {"svc.batch_us.p99", "us", Kind::kPerLayer},
    {"svc.queue_wait_us", "us", Kind::kPerLayer},
    {"svc.batch_fill", "1/batch", Kind::kPerLayer},
    {"svc.retry_share", "share", Kind::kPerLayer},
    {"svc.first_try_conflict_share", "share", Kind::kPerLayer},
    {"svc.backoff_ms", "ms/s", Kind::kPerLayer},
    {"svc.reject_queue_share", "share", Kind::kPerLayer},
    {"svc.timeout_share", "share", Kind::kPerLayer},
    {"svc.drain_ms", "ms", Kind::kPerLayer},
    {"svc.gen_lag_us.p50", "us", Kind::kPerLayer},
    {"svc.gen_lag_us.p99", "us", Kind::kPerLayer},
    {"svc.offered_per_s", "1/s", Kind::kPerLayer},
};

/// One invocation's result: metric values by name plus the failure ledger
/// behind the result line's `attempted` / `failed` / `correct`.
struct Outcome {
    std::map<std::string, double, std::less<>> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> check_failures;  ///< empty = every check held

    void set(std::string_view name, double value) {
        values[std::string(name)] = value;
    }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/// Process CPU time (all threads), for CPU/wall around a run.
[[nodiscard]] inline double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] inline double ratio(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
}

Outcome run_engine(const Options& opt);
Outcome run_service(const Options& opt);

}  // namespace perfbench
