#include "svc/service.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>

#include "stm/sched_hook.hpp"

namespace tmb::svc {

namespace {

using stm::detail::scheduler_yield;
using stm::detail::YieldPoint;
using stm::detail::YieldSite;

/// A whole decimal string: no sign, no space, nothing after the digits,
/// and no value past 2^64-1.
[[nodiscard]] std::uint64_t parse_u64(const std::string& s,
                                      const std::string& what) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (std::isdigit(static_cast<unsigned char>(s[0])) == 0 || *end != '\0' ||
        errno == ERANGE) {
        throw std::invalid_argument("svc: bad number in " + what + ": '" + s +
                                    "'");
    }
    return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Config plumbing
// ---------------------------------------------------------------------------

SvcFault svc_fault_from(const std::string& spec) {
    SvcFault out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = std::min(spec.find(',', pos), spec.size());
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty() || tok == "none") continue;
        const std::size_t colon = tok.find(':');
        const std::string name = tok.substr(0, colon);
        const std::string arg =
            colon == std::string::npos ? "" : tok.substr(colon + 1);
        if (name == "stall_dispatcher") {
            out.stall_dispatcher_ms =
                static_cast<std::uint32_t>(parse_u64(arg, "stall_dispatcher"));
        } else if (name == "drop_response") {
            out.drop_response = true;
        } else if (name == "slow_shard") {
            out.slow_shard =
                static_cast<std::int64_t>(parse_u64(arg, "slow_shard"));
        } else if (name == "abort_attempts") {
            out.abort_attempts =
                static_cast<std::uint32_t>(parse_u64(arg, "abort_attempts"));
        } else {
            throw std::invalid_argument(
                "svc_fault: unknown fault '" + name +
                "' (known: stall_dispatcher:<ms>, drop_response, "
                "slow_shard:<n>, abort_attempts:<n>)");
        }
    }
    return out;
}

std::string to_string(const SvcFault& fault) {
    std::string out;
    const auto append = [&](const std::string& tok) {
        if (!out.empty()) out += ",";
        out += tok;
    };
    if (fault.stall_dispatcher_ms != 0) {
        append("stall_dispatcher:" + std::to_string(fault.stall_dispatcher_ms));
    }
    if (fault.drop_response) append("drop_response");
    if (fault.slow_shard >= 0) {
        append("slow_shard:" + std::to_string(fault.slow_shard));
    }
    if (fault.abort_attempts != 0) {
        append("abort_attempts:" + std::to_string(fault.abort_attempts));
    }
    return out.empty() ? "none" : out;
}

std::uint32_t retry_budget_from(const std::string& spec) {
    if (spec == "none") return 0;
    if (spec.rfind("backoff:", 0) == 0) {
        const std::uint64_t budget = parse_u64(spec.substr(8), "retry");
        if (budget <= std::numeric_limits<std::uint32_t>::max()) {
            return static_cast<std::uint32_t>(budget);
        }
    }
    throw std::invalid_argument(
        "svc: retry must be 'none' or 'backoff:<budget>' with a budget "
        "below 2^32, got '" + spec + "'");
}

SvcConfig svc_config_from(const config::Config& cfg) {
    SvcConfig out;
    out.clients = cfg.get_u32("clients", out.clients);
    out.dispatchers = cfg.get_u32("dispatchers", out.dispatchers);
    out.shards = cfg.get_u32("shards", out.shards);
    out.queue_depth = cfg.get_u32("queue_depth", out.queue_depth);
    out.batch = cfg.get_u32("batch", out.batch);
    const std::string arrival = cfg.get("arrival", "closed");
    if (arrival == "closed") {
        out.open_arrival = false;
    } else if (arrival.rfind("open:", 0) == 0) {
        out.open_arrival = true;
        const char* rate = arrival.c_str() + 5;
        char* end = nullptr;
        out.arrival_per_sec = std::strtod(rate, &end);
        if (end == rate || *end != '\0' ||
            !std::isfinite(out.arrival_per_sec) ||
            !(out.arrival_per_sec > 0)) {
            throw std::invalid_argument("svc: arrival=open:<rate> needs a "
                                        "positive finite rate, got '" +
                                        arrival + "'");
        }
    } else {
        throw std::invalid_argument(
            "svc: arrival must be 'closed' or 'open:<rate>', got '" + arrival +
            "'");
    }
    out.deadline_us = cfg.get_u64("deadline_us", out.deadline_us);
    out.retry_budget = retry_budget_from(cfg.get("retry", "none"));
    out.backoff_cap_us = cfg.get_u64("backoff_cap_us", out.backoff_cap_us);
    out.requests_per_client = cfg.get_u64("requests", out.requests_per_client);
    out.ops_per_request = cfg.get_u32("ops", out.ops_per_request);
    out.slots = cfg.get_u32("slots", out.slots);
    out.rmw = cfg.get_bool("rmw", out.rmw);
    out.seed = cfg.get_u64("seed", out.seed);
    out.fault = svc_fault_from(cfg.get("svc_fault", ""));
    return out;
}

std::string svc_repro_flags(const SvcConfig& cfg) {
    std::string out = "--clients=" + std::to_string(cfg.clients) +
                      " --dispatchers=" + std::to_string(cfg.dispatchers) +
                      " --shards=" + std::to_string(cfg.shards) +
                      " --queue_depth=" + std::to_string(cfg.queue_depth) +
                      " --batch=" + std::to_string(cfg.batch);
    if (cfg.open_arrival) {
        out += " --arrival=open:" + std::to_string(cfg.arrival_per_sec);
    }
    if (cfg.deadline_us != 0) {
        out += " --deadline_us=" + std::to_string(cfg.deadline_us);
    }
    if (cfg.retry_budget != 0) {
        out += " --retry=backoff:" + std::to_string(cfg.retry_budget);
    }
    if (cfg.backoff_cap_us != SvcConfig{}.backoff_cap_us) {
        out += " --backoff_cap_us=" + std::to_string(cfg.backoff_cap_us);
    }
    out += " --requests=" + std::to_string(cfg.requests_per_client) +
           " --ops=" + std::to_string(cfg.ops_per_request) +
           " --slots=" + std::to_string(cfg.slots) +
           " --rmw=" + std::string(cfg.rmw ? "1" : "0") +
           " --seed=" + std::to_string(cfg.seed);
    const std::string fault = to_string(cfg.fault);
    if (fault != "none") out += " --svc_fault=" + fault;
    return out;
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

struct Service::ClientState {
    SvcCounters counters;
    /// Closed-loop window: requests of this client admitted but not yet
    /// resolved. Written by the client (admit) and dispatchers (resolve).
    std::atomic<std::uint64_t> outstanding{0};
};

struct Service::DispatcherState {
    SvcCounters counters;
    util::LatencyHistogram latency;
    std::unique_ptr<stm::Executor> exec;
    std::uint32_t cursor = 0;  ///< round-robin shard scan start
    bool stalled = false;      ///< stall_dispatcher fired already
};

Service::Service(SvcConfig cfg, stm::Stm& tm, SvcEnv& env,
                 std::uint64_t* arena)
    : cfg_(cfg),
      tm_(tm),
      env_(env),
      arena_(arena),
      queues_(cfg.shard_count(), cfg.queue_depth) {
    if (cfg_.clients == 0 || cfg_.dispatchers == 0) {
        throw std::invalid_argument("svc: clients and dispatchers must be >= 1");
    }
    if (cfg_.dispatchers > tm_.max_live_executors()) {
        throw std::invalid_argument(
            "svc: dispatchers=" + std::to_string(cfg_.dispatchers) +
            " exceeds the backend's capacity of " +
            std::to_string(tm_.max_live_executors()));
    }
    if (cfg_.slots == 0 || cfg_.batch == 0 || cfg_.ops_per_request == 0 ||
        cfg_.requests_per_client == 0) {
        throw std::invalid_argument(
            "svc: slots, batch, ops, requests must all be >= 1");
    }
    clients_.reserve(cfg_.clients);
    for (std::uint32_t c = 0; c < cfg_.clients; ++c) {
        clients_.push_back(std::make_unique<ClientState>());
    }
    dispatchers_.reserve(cfg_.dispatchers);
    // Executors are created sequentially so dispatcher d always binds
    // TxId d — the determinism contract the turnstile driver relies on.
    for (std::uint32_t d = 0; d < cfg_.dispatchers; ++d) {
        dispatchers_.push_back(std::make_unique<DispatcherState>());
        dispatchers_.back()->exec = tm_.make_executor();
        dispatchers_.back()->cursor = d % queues_.shards();
    }
    started_at_ = env_.now();
}

Service::~Service() = default;

void Service::resolve(const Request& r) {
    if (!cfg_.open_arrival) {
        clients_[r.client]->outstanding.fetch_sub(1,
                                                  std::memory_order_release);
    }
}

void Service::client_loop(std::uint32_t client) {
    ClientState& st = *clients_[client];
    // Open arrival: the total offered rate splits evenly across clients,
    // phase-shifted so submissions interleave instead of thundering.
    const std::uint64_t interval =
        cfg_.open_arrival
            ? static_cast<std::uint64_t>(1e6 * cfg_.clients /
                                         cfg_.arrival_per_sec)
            : 0;
    for (std::uint64_t k = 0; k < cfg_.requests_per_client; ++k) {
        if (cfg_.open_arrival) {
            if (interval != 0) {
                env_.pace_until(started_at_ + k * interval +
                                (interval * client) / cfg_.clients);
            }
        } else {
            // Closed loop, window of 1: wait for the previous request to
            // resolve before offering the next.
            while (st.outstanding.load(std::memory_order_acquire) != 0) {
                scheduler_yield(YieldPoint::kSvcSubmit, YieldSite::kSvcEnqueue);
                env_.idle();
            }
        }
        Request r;
        r.id = std::uint64_t{client} * cfg_.requests_per_client + k;
        r.client = client;
        r.seed = svc_request_seed(cfg_.seed, r.id);
        r.submit_at = env_.now();
        r.deadline_at =
            cfg_.deadline_us != 0 ? r.submit_at + cfg_.deadline_us : 0;
        const auto shard = static_cast<std::uint32_t>(r.id % queues_.shards());
        ++st.counters.submitted;
        // The kill-point window between "counted submitted" and the push is
        // deliberate: a run killed here leaves the request in flight, which
        // the conservation oracle's clients term covers.
        scheduler_yield(YieldPoint::kSvcSubmit, YieldSite::kSvcEnqueue);
        if (cfg_.fault.slow_shard >= 0 &&
            shard == static_cast<std::uint32_t>(cfg_.fault.slow_shard)) {
            scheduler_yield(YieldPoint::kSvcSubmit, YieldSite::kSvcEnqueue);
            env_.idle();
        }
        if (!cfg_.open_arrival) {
            st.outstanding.fetch_add(1, std::memory_order_release);
        }
        if (queues_.try_push(shard, r)) {
            ++st.counters.accepted;
        } else {
            ++st.counters.rejected_queue;
            if (!cfg_.open_arrival) {
                st.outstanding.fetch_sub(1, std::memory_order_release);
            }
        }
    }
    // The last client out closes intake: shutdown begins.
    if (clients_done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        cfg_.clients) {
        queues_.close();
    }
}

void Service::dispatcher_loop(std::uint32_t dispatcher) {
    DispatcherState& st = *dispatchers_[dispatcher];
    const std::uint32_t nshards = queues_.shards();
    std::vector<Request> batch;
    batch.reserve(cfg_.batch);
    for (;;) {
        scheduler_yield(YieldPoint::kSvcDispatch, YieldSite::kSvcDequeue);
        batch.clear();
        for (std::uint32_t probe = 0;
             probe < nshards && batch.size() < cfg_.batch; ++probe) {
            const std::uint32_t shard = (st.cursor + probe) % nshards;
            if (cfg_.fault.slow_shard >= 0 &&
                shard == static_cast<std::uint32_t>(cfg_.fault.slow_shard)) {
                scheduler_yield(YieldPoint::kSvcDispatch,
                                YieldSite::kSvcDequeue);
                env_.idle();
            }
            Request r;
            while (batch.size() < cfg_.batch && queues_.try_pop(shard, r)) {
                batch.push_back(r);
            }
        }
        st.cursor = (st.cursor + 1) % nshards;
        if (batch.empty()) {
            // Drain protocol: intake closed + rings empty = done. Requests
            // other dispatchers already popped are theirs to resolve.
            if (queues_.closed() && queues_.all_empty()) return;
            ++st.counters.parks;
            if (env_.park(queues_)) ++st.counters.park_timeouts;
            continue;
        }
        run_batch(dispatcher, batch);
    }
}

void Service::run_batch(std::uint32_t dispatcher, std::vector<Request>& batch) {
    DispatcherState& st = *dispatchers_[dispatcher];
    // Deadline triage at dispatch: expired requests are never executed.
    const std::uint64_t now = env_.now();
    std::size_t keep = 0;
    for (const Request& r : batch) {
        if (r.deadline_at != 0 && now > r.deadline_at) {
            scheduler_yield(YieldPoint::kSvcDispatch, YieldSite::kSvcRespond);
            ++st.counters.timed_out;
            resolve(r);
        } else {
            batch[keep++] = r;
        }
    }
    batch.resize(keep);
    if (batch.empty()) return;

    const bool record = env_.record_commits();
    SvcCommit rec;
    rec.dispatcher = dispatcher;
    std::uint32_t attempt = 0;
    for (;;) {
        try {
            // abort_attempts fault: deterministic injected conflicts ahead
            // of any STM work — the retry-budget path without real
            // contention.
            if (attempt < cfg_.fault.abort_attempts) {
                throw stm::TooMuchContention(attempt + 1);
            }
            st.exec->atomically([&](stm::Transaction& tx) {
                // Re-executed per attempt: only the successful attempt's
                // records survive.
                rec.request_ids.clear();
                rec.reads.clear();
                rec.writes.clear();
                for (const Request& r : batch) {
                    if (record) rec.request_ids.push_back(r.id);
                    for (std::uint32_t i = 0; i < cfg_.ops_per_request; ++i) {
                        const std::uint32_t slot =
                            svc_op_slot(r.seed, i, cfg_.slots);
                        std::uint64_t v = 0;
                        if (cfg_.rmw) {
                            v = tx.load(slot_addr(slot));
                            if (record) rec.reads.push_back({slot, v});
                        }
                        const std::uint64_t nv =
                            svc_op_value(r.seed, i, v, cfg_.rmw);
                        tx.store(slot_addr(slot), nv);
                        if (record) rec.writes.push_back({slot, nv});
                    }
                }
            });
            break;  // committed
        } catch (const stm::TooMuchContention&) {
            if (attempt == 0) ++st.counters.first_try_conflicts;
            if (attempt >= cfg_.retry_budget) {
                // Budget exhausted: the whole batch is rejected — counted,
                // resolved, never hung.
                for (const Request& r : batch) {
                    scheduler_yield(YieldPoint::kSvcDispatch,
                                    YieldSite::kSvcRespond);
                    ++st.counters.rejected_retry;
                    resolve(r);
                }
                return;
            }
            ++attempt;
            ++st.counters.retries;
            env_.backoff(attempt);
        }
    }

    // Committed. No yield point runs between the backend's commit and this
    // push, so commit-log position is commit order (same argument as the
    // sched harness).
    ++st.counters.batches;
    if (record) {
        commit_log_.push_back(std::move(rec));
        rec = SvcCommit{};
    }
    const std::uint64_t done_at = env_.now();
    for (const Request& r : batch) {
        // One yield per response: a kill can land after the commit but
        // before any individual acknowledgment — the committed-but-
        // unacknowledged window the conservation oracle bounds.
        scheduler_yield(YieldPoint::kSvcDispatch, YieldSite::kSvcRespond);
        ++st.counters.completed;
        if (cfg_.fault.drop_response && r.id % 4 == 3) {
            ++st.counters.dropped_responses;
        } else {
            ++st.counters.responded;
            st.latency.record(done_at - r.submit_at);
        }
        resolve(r);
    }
    if (cfg_.fault.stall_dispatcher_ms != 0 && !st.stalled) {
        st.stalled = true;
        ++st.counters.stalls;
        env_.stall(cfg_.fault.stall_dispatcher_ms);
    }
}

ServiceReport Service::finish(bool complete) {
    if (finished_) {
        throw std::logic_error("svc: Service::finish called twice");
    }
    finished_ = true;
    ServiceReport rep;
    rep.stm = tm_.stats();
    for (auto& d : dispatchers_) {
        rep.stm.merge(d->exec->stats());
        rep.counters.merge(d->counters);
        rep.latency.merge(d->latency);
        // Quiesce the backend: retire the dispatcher's context so buffered
        // retired blocks reach the reclamation shards before the drain.
        d->exec.reset();
    }
    for (auto& c : clients_) rep.counters.merge(c->counters);
    tm_.reclaim_drain();
    rep.elapsed_seconds =
        static_cast<double>(env_.now() - started_at_) / 1e6;
    rep.ledger_note = audit(rep.counters, complete);
    rep.ledger_ok = rep.ledger_note.empty();
    return rep;
}

std::string Service::audit(const SvcCounters& c, bool complete) const {
    const auto eq = [](std::uint64_t a, std::uint64_t b, const char* what) {
        return a == b ? std::string()
                      : std::string(what) + ": " + std::to_string(a) +
                            " != " + std::to_string(b);
    };
    if (complete) {
        if (auto e = eq(c.submitted, c.accepted + c.rejected_queue,
                        "submitted != accepted + rejected_queue");
            !e.empty()) {
            return e;
        }
        if (auto e =
                eq(c.accepted, c.completed + c.rejected_retry + c.timed_out,
                   "accepted != completed + rejected_retry + timed_out");
            !e.empty()) {
            return e;
        }
        if (auto e = eq(c.completed, c.responded + c.dropped_responses,
                        "completed != responded + dropped_responses");
            !e.empty()) {
            return e;
        }
        for (std::uint32_t i = 0; i < cfg_.clients; ++i) {
            const std::uint64_t w =
                clients_[i]->outstanding.load(std::memory_order_acquire);
            if (w != 0) {
                return "client " + std::to_string(i) + " window still holds " +
                       std::to_string(w) + " requests after drain";
            }
        }
        if (const std::uint64_t held = tm_.occupied_metadata_entries()) {
            return "ownership table not quiescent after drain: " +
                   std::to_string(held) + " entries still held";
        }
        return {};
    }
    // Killed mid-flight: exact balance is impossible, but nothing may be
    // lost or duplicated, and in-flight counts stay within the structural
    // bounds (rings + dispatcher batches + submissions in progress).
    const std::uint64_t admitted = c.accepted + c.rejected_queue;
    if (admitted > c.submitted) {
        return "admission outcomes exceed submissions";
    }
    if (c.submitted - admitted > cfg_.clients) {
        return "more submissions in limbo than clients";
    }
    const std::uint64_t settled = c.completed + c.rejected_retry + c.timed_out;
    if (settled > c.accepted) {
        return "settled requests exceed accepted";
    }
    const std::uint64_t dispatcher_window =
        std::uint64_t{cfg_.dispatchers} * cfg_.batch;
    if (c.accepted - settled > queues_.capacity() + dispatcher_window) {
        return "in-flight " + std::to_string(c.accepted - settled) +
               " exceeds ring capacity + dispatcher batches (" +
               std::to_string(queues_.capacity() + dispatcher_window) + ")";
    }
    if (c.responded + c.dropped_responses > c.completed) {
        return "responses exceed completions";
    }
    if (c.completed - (c.responded + c.dropped_responses) >
        dispatcher_window) {
        return "more unacknowledged completions than one batch per "
               "dispatcher";
    }
    return {};
}

// ---------------------------------------------------------------------------
// Production driver
// ---------------------------------------------------------------------------

namespace {

class WallClockEnv final : public SvcEnv {
public:
    explicit WallClockEnv(std::uint64_t backoff_cap_us)
        : cap_us_(backoff_cap_us == 0 ? 1 : backoff_cap_us),
          t0_(std::chrono::steady_clock::now()) {}

    std::uint64_t now() override {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0_)
                .count());
    }
    void backoff(std::uint32_t attempt) override {
        const std::uint64_t us = std::min<std::uint64_t>(
            cap_us_, std::uint64_t{4} << std::min(attempt, 24u));
        std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
    void idle() override {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    void pace_until(std::uint64_t t) override {
        std::this_thread::sleep_until(t0_ + std::chrono::microseconds(t));
    }
    void stall(std::uint32_t ms) override {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }

private:
    std::uint64_t cap_us_;
    std::chrono::steady_clock::time_point t0_;
};

}  // namespace

ServiceReport run_service(const config::Config& cfg) {
    const SvcConfig sc = svc_config_from(cfg);
    const auto tm = stm::Stm::create(cfg);

    // 64-byte-aligned arena: one conflict block per slot, zero-initialized.
    std::vector<std::uint64_t> storage(std::size_t{sc.slots} * 8 + 8, 0);
    auto base = reinterpret_cast<std::uintptr_t>(storage.data());
    base = (base + 63) & ~std::uintptr_t{63};
    auto* arena = reinterpret_cast<std::uint64_t*>(base);

    WallClockEnv env(sc.backoff_cap_us);
    Service svc(sc, *tm, env, arena);

    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(sc.clients + sc.dispatchers);
    threads.reserve(sc.clients + sc.dispatchers);
    for (std::uint32_t c = 0; c < sc.clients; ++c) {
        threads.emplace_back([&svc, &errors, c] {
            try {
                svc.client_loop(c);
            } catch (...) {
                errors[c] = std::current_exception();
            }
        });
    }
    for (std::uint32_t d = 0; d < sc.dispatchers; ++d) {
        threads.emplace_back([&svc, &errors, &sc, d] {
            try {
                svc.dispatcher_loop(d);
            } catch (...) {
                errors[sc.clients + d] = std::current_exception();
            }
        });
    }
    for (auto& th : threads) th.join();
    for (auto& err : errors) {
        if (err) std::rethrow_exception(err);
    }
    return svc.finish(/*complete=*/true);
}

}  // namespace tmb::svc
