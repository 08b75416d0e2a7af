// service.hpp — the live service front-end: clients → sharded bounded
// queues → dispatcher threads batching requests into transactions.
//
// The robustness contract, in one place:
//
//   * Admission control — the submission rings (svc/queue.hpp) are the only
//     buffer in the system and they are bounded; a full shard rejects the
//     request explicitly. Memory and queueing delay cannot grow without
//     bound no matter the arrival rate.
//   * Deadlines — each request carries an absolute deadline; a dispatcher
//     triages expired requests out at dequeue time (they are never
//     executed) and counts them as timeouts.
//   * Retry with backoff — the STM retries conflicts internally up to
//     `max_attempts`; when it gives up (TooMuchContention) the dispatcher
//     retries the whole batch with exponential backoff up to
//     `retry_budget`, then rejects. Exhaustion is a counted rejection,
//     never a hang.
//   * Conservation — every submitted request ends in exactly one bucket:
//     completed, rejected (admission or retry), or timed out. The ledger
//     (`ServiceReport::ledger_ok`) is checked after every drain, and the
//     kill-point oracle (svc/sched_service.hpp) checks the relaxed
//     in-flight form at every step.
//   * Clean shutdown — stop intake (queues close when the last client
//     finishes, which wakes every parked dispatcher) → dispatchers drain
//     the rings → executors retire → reclaim_drain → ledger check.
//
// The same Service object runs under two drivers through the SvcEnv
// interface: real threads and a wall clock (run_service, production mode),
// or the deterministic turnstile with a virtual step clock
// (svc/sched_service.cpp). All loop bodies yield through
// stm::detail::scheduler_yield — free when no hook is installed.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "stm/stm.hpp"
#include "svc/queue.hpp"
#include "util/hash.hpp"
#include "util/latency_histogram.hpp"

namespace tmb::svc {

/// Degraded-mode injection, parsed from `svc_fault=` (comma-separated):
///   stall_dispatcher:<ms>  each dispatcher stalls once after its first
///                          commit (sleep in production, extra yields under
///                          the turnstile)
///   drop_response          responses of requests with id % 4 == 3 are
///                          dropped after commit (the request still resolves
///                          — committed-but-unacknowledged accounting)
///   slow_shard:<n>         touching shard n costs an extra idle + yield
///   abort_attempts:<n>     the first n execute attempts of every batch
///                          fail as injected conflicts (deterministic
///                          retry-budget testing; no STM involvement)
struct SvcFault {
    std::uint32_t stall_dispatcher_ms = 0;
    bool drop_response = false;
    std::int64_t slow_shard = -1;
    std::uint32_t abort_attempts = 0;
};

[[nodiscard]] SvcFault svc_fault_from(const std::string& spec);
[[nodiscard]] std::string to_string(const SvcFault& fault);

/// Parses `retry=none|backoff:<budget>` for svc_config_from and the
/// scheduled service's svc_harness_config_from. The budget is a whole
/// decimal number below 2^32; anything else throws std::invalid_argument.
[[nodiscard]] std::uint32_t retry_budget_from(const std::string& spec);

/// Service shape, parsed from the same string-keyed Config vocabulary as
/// every other driver (see svc_config_from for the key list).
struct SvcConfig {
    std::uint32_t clients = 4;
    std::uint32_t dispatchers = 2;
    std::uint32_t shards = 0;       ///< 0 = one per dispatcher
    std::uint32_t queue_depth = 64; ///< per shard (admission bound)
    std::uint32_t batch = 8;        ///< max requests folded into one tx
    bool open_arrival = false;      ///< open: paced; closed: window of 1
    double arrival_per_sec = 0.0;   ///< total offered rate (open only)
    std::uint64_t deadline_us = 0;  ///< relative deadline; 0 = none
    std::uint32_t retry_budget = 0; ///< dispatcher-level retries per batch
    std::uint64_t backoff_cap_us = 1000;  ///< exponential backoff ceiling
    std::uint64_t requests_per_client = 1000;
    std::uint32_t ops_per_request = 4;
    std::uint32_t slots = 1024;     ///< shared words the requests touch
    bool rmw = true;  ///< read-modify-write ops; false = blind stores
    std::uint64_t seed = 1;
    SvcFault fault{};

    [[nodiscard]] std::uint32_t shard_count() const {
        return shards == 0 ? dispatchers : shards;
    }
};

/// Keys: clients, dispatchers, shards, queue_depth, batch,
/// arrival=open:<rate>|closed, deadline_us, retry=none|backoff:<budget>,
/// backoff_cap_us, requests, ops, slots, rmw, seed, svc_fault=<spec>.
[[nodiscard]] SvcConfig svc_config_from(const config::Config& cfg);

/// `--key=value` flags reproducing `cfg` (repro lines, svc_load echo).
[[nodiscard]] std::string svc_repro_flags(const SvcConfig& cfg);

/// Request-conservation counters. Single-writer per thread; merged at join.
struct SvcCounters {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;        ///< admitted into a ring
    std::uint64_t rejected_queue = 0;  ///< admission control said no
    std::uint64_t rejected_retry = 0;  ///< retry budget exhausted
    std::uint64_t timed_out = 0;       ///< expired before execution
    std::uint64_t completed = 0;       ///< committed in some batch
    std::uint64_t responded = 0;       ///< response delivered
    std::uint64_t dropped_responses = 0;  ///< drop_response fault ate it
    std::uint64_t retries = 0;         ///< dispatcher-level batch retries
    std::uint64_t batches = 0;         ///< committed batches
    std::uint64_t first_try_conflicts = 0;  ///< batches whose 1st try aborted
    std::uint64_t stalls = 0;          ///< stall_dispatcher firings
    // Idle dispatchers; outside the ledger. Under steady load a lost wakeup
    // shows up as park timeouts.
    std::uint64_t parks = 0;           ///< SvcEnv::park calls
    std::uint64_t park_timeouts = 0;   ///< parks that ended by timeout

    void merge(const SvcCounters& o) {
        submitted += o.submitted;
        accepted += o.accepted;
        rejected_queue += o.rejected_queue;
        rejected_retry += o.rejected_retry;
        timed_out += o.timed_out;
        completed += o.completed;
        responded += o.responded;
        dropped_responses += o.dropped_responses;
        retries += o.retries;
        batches += o.batches;
        first_try_conflicts += o.first_try_conflicts;
        stalls += o.stalls;
        parks += o.parks;
        park_timeouts += o.park_timeouts;
    }
    /// Requests that reached a terminal bucket.
    [[nodiscard]] std::uint64_t resolved() const {
        return completed + rejected_queue + rejected_retry + timed_out;
    }
};

/// One committed batch, for the deterministic oracle's serial replay
/// (recorded only when SvcEnv::record_commits() is true).
struct SvcSlotValue {
    std::uint32_t slot = 0;
    std::uint64_t value = 0;
};
struct SvcCommit {
    std::uint32_t dispatcher = 0;
    std::vector<std::uint64_t> request_ids;  ///< execution order
    std::vector<SvcSlotValue> reads;   ///< op order across requests (rmw)
    std::vector<SvcSlotValue> writes;  ///< op order across requests
};

/// Environment a Service runs against: wall clock, sleeps and futex parks
/// in production, virtual step clock + yields under the deterministic
/// turnstile.
class SvcEnv {
public:
    virtual ~SvcEnv() = default;
    /// Monotonic clock: microseconds in production, scheduler steps under
    /// the turnstile. Deadlines and latencies are measured in its unit.
    [[nodiscard]] virtual std::uint64_t now() = 0;
    /// Dispatcher-level retry backoff before attempt `attempt` (1-based).
    virtual void backoff(std::uint32_t attempt) = 0;
    /// A short wait with nothing to do: the closed-loop client's window
    /// wait and the slow_shard fault.
    virtual void idle() = 0;
    /// Every ring is empty: park the dispatcher on the queues' eventcount
    /// until a push or close() wakes it. Returns true when the park ended
    /// by timeout instead. Since close() wakes every parked dispatcher, the
    /// 1 ms timeout only bounds a lost wakeup, so it is not a config key.
    virtual bool park(SubmitQueues& q) {
        return q.park(std::chrono::milliseconds(1));
    }
    /// Open-arrival pacing: block until now() >= t.
    virtual void pace_until(std::uint64_t t) = 0;
    /// stall_dispatcher fault body.
    virtual void stall(std::uint32_t ms) = 0;
    /// Record SvcCommit entries (deterministic oracle mode only).
    [[nodiscard]] virtual bool record_commits() const { return false; }
};

/// Aggregate of one service run, after drain.
struct ServiceReport {
    SvcCounters counters;
    util::LatencyHistogram latency;  ///< responded requests, env clock units
    stm::StmStats stm;
    double elapsed_seconds = 0.0;
    bool ledger_ok = false;
    std::string ledger_note;  ///< first imbalance, empty when ledger_ok
};

/// Deterministic request-derivation helpers — shared by the execution path
/// and the oracle's serial replay (they must agree bit-for-bit).
[[nodiscard]] inline std::uint64_t svc_request_seed(std::uint64_t cfg_seed,
                                                    std::uint64_t id) {
    return util::mix64(cfg_seed ^ util::mix64(id + 1));
}
[[nodiscard]] inline std::uint32_t svc_op_slot(std::uint64_t seed,
                                               std::uint32_t i,
                                               std::uint32_t slots) {
    return static_cast<std::uint32_t>(util::mix64(seed ^ (0x51D7ULL + i)) %
                                      slots);
}
[[nodiscard]] inline std::uint64_t svc_op_value(std::uint64_t seed,
                                                std::uint32_t i,
                                                std::uint64_t read, bool rmw) {
    return rmw ? util::mix64(read ^ seed ^ (i + 1))
               : util::mix64(seed ^ ((i + 1) * 0x9e3779b97f4a7c15ULL));
}

/// The service proper. Construction creates one Executor per dispatcher
/// sequentially (dispatcher d binds TxId d — the determinism contract the
/// turnstile driver relies on). `arena` must hold cfg.slots 64-byte blocks
/// (slot s lives at arena + s*8), zeroed by the caller.
class Service {
public:
    Service(SvcConfig cfg, stm::Stm& tm, SvcEnv& env, std::uint64_t* arena);
    ~Service();

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// Worker bodies. Run each on its own thread (real or virtual); every
    /// blocking moment goes through env/scheduler_yield. client_loop
    /// returns after its submission budget; the *last* client to finish
    /// closes intake. dispatcher_loop returns once intake is closed and
    /// the rings are empty.
    void client_loop(std::uint32_t client);
    void dispatcher_loop(std::uint32_t dispatcher);

    /// After every loop returned (or was cancelled) and the threads are
    /// joined: retires executors, drains reclamation, merges counters and
    /// histograms, and audits the conservation ledger. `complete` = the
    /// run drained normally (strict ledger); false = killed mid-flight
    /// (relaxed in-flight bounds). Call exactly once.
    [[nodiscard]] ServiceReport finish(bool complete);

    // --- deterministic-driver accessors ---
    [[nodiscard]] const std::vector<SvcCommit>& commit_log() const {
        return commit_log_;
    }
    [[nodiscard]] std::size_t commit_count() const {
        return commit_log_.size();
    }
    [[nodiscard]] const SvcConfig& config() const { return cfg_; }
    [[nodiscard]] const SubmitQueues& queues() const { return queues_; }
    /// Upper bound on requests in flight at any instant (kill-mode ledger):
    /// ring capacity + one batch per dispatcher + one submission-in-
    /// progress per client.
    [[nodiscard]] std::uint64_t in_flight_bound() const {
        return queues_.capacity() +
               std::uint64_t{cfg_.dispatchers} * cfg_.batch + cfg_.clients;
    }

private:
    struct ClientState;
    struct DispatcherState;

    void resolve(const Request& r);  ///< closed-loop window release
    void run_batch(std::uint32_t dispatcher, std::vector<Request>& batch);
    [[nodiscard]] std::string audit(const SvcCounters& c, bool complete) const;
    [[nodiscard]] std::uint64_t* slot_addr(std::uint32_t slot) const {
        return arena_ + std::size_t{slot} * 8;  // 64-byte stride: 1 block/slot
    }

    SvcConfig cfg_;
    stm::Stm& tm_;
    SvcEnv& env_;
    std::uint64_t* arena_;
    SubmitQueues queues_;
    std::vector<std::unique_ptr<ClientState>> clients_;
    std::vector<std::unique_ptr<DispatcherState>> dispatchers_;
    std::vector<SvcCommit> commit_log_;
    std::atomic<std::uint32_t> clients_done_{0};
    std::uint64_t started_at_ = 0;
    bool finished_ = false;
};

/// Production driver: real threads, wall clock. Parses the full key set
/// (STM keys + svc keys) from `cfg`, runs the service to completion, and
/// returns the drained report. Latencies are in microseconds.
[[nodiscard]] ServiceReport run_service(const config::Config& cfg);

}  // namespace tmb::svc
