// engine.cpp — the two execution-engine workloads, replay_tagless and
// stamp_tl2, driven through exec::ParallelRunner.
//
// An invocation sets up (timed, kSetupReps times), warms the threads up,
// then repeats fixed-budget run() calls until the measured time is spent.
// Every run() checks the workload invariant, ownership-table quiescence and
// an empty reclamation backlog, and throws when one fails.
//
// The untraced run wraps the registry workload in a Probe that times one
// op in kSampleEvery, for the latency percentiles. The traced run spends
// half its time on that same rig (the overhead baseline) and half on a
// traced one: a Probe timing every op around either the registry workload
// (stamp_tl2) or TracedReplay, the benchmark's own replay body, which
// stamps begin, each load and store, commit, aborted attempts and trace
// reads (replay_tagless).
//
// A sub-run whose process CPU/wall stays below half the thread count ran
// with its threads packed onto fewer cores than it has; it is reported and
// left out of every median and aggregate (README.md, "Packed runs").
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "config/config.hpp"
#include "exec/parallel_runner.hpp"
#include "exec/workload.hpp"
#include "stm/stm.hpp"
#include "trace/source.hpp"
#include "util/hash.hpp"
#include "util/latency_histogram.hpp"

namespace perfbench {

namespace {

using tmb::util::LatencyHistogram;

constexpr std::uint32_t kThreads = 4;
constexpr std::uint32_t kSampleEvery = 8;  ///< untraced latency sampling

struct EngineSpec {
    std::string_view name;
    std::string_view config;       ///< registry keys (backend, workload, ...)
    std::uint64_t ops_per_thread;  ///< fixed budget of one sub-run
    double warmup_s;               ///< untimed run() calls before measuring
    double units_per_op;           ///< throughput units per committed op
};

// replay_tagless: the paper's setting (tagless table, real threads). The
// throughput unit is replayed accesses, tx_size per committed op.
// stamp_tl2: vacation on TL2 — tx_alloc/tx_free, epoch reclamation and
// TL2 validation, no ownership table. It needs the longer warm-up: its
// threads stayed packed through two ~0.5 s runs (README.md).
constexpr EngineSpec kEngines[] = {
    {"replay_tagless",
     "workload=replay source=jbb tx_size=16 backend=table table=tagless", 8000,
     1.5, 16.0},
    {"stamp_tl2", "workload=vacation backend=tl2", 150000, 2.0, 1.0},
};

/// Per-thread state slots. run() spawns fresh threads; each claims the
/// next slot on its first op after new_run(), so slot i is private to one
/// thread for the whole run and the main thread reads the slots only after
/// join.
template <typename Lane>
class Lanes {
public:
    explicit Lanes(std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) {
            lanes_.push_back(std::make_unique<Lane>());
        }
    }
    void new_run() {
        next_.store(0, std::memory_order_relaxed);
        ++generation_;
    }
    Lane& mine() {
        thread_local const void* owner = nullptr;
        thread_local std::uint64_t generation = 0;
        thread_local Lane* lane = nullptr;
        if (owner != this || generation != generation_) {
            const std::uint32_t i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= lanes_.size()) {
                throw std::logic_error("perfbench: more threads than lanes");
            }
            owner = this;
            generation = generation_;
            lane = lanes_[i].get();
        }
        return *lane;
    }
    std::vector<std::unique_ptr<Lane>>& all() { return lanes_; }

private:
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::atomic<std::uint32_t> next_{0};
    std::uint64_t generation_ = 0;
};

// ---------------------------------------------------------------------------
// Probe — times Workload::op from outside
// ---------------------------------------------------------------------------

struct alignas(64) ProbeLane {
    std::uint64_t ops = 0;
    std::uint64_t timed_ns = 0;
    LatencyHistogram op_ns;
};

class Probe final : public tmb::exec::Workload {
public:
    Probe(std::unique_ptr<tmb::exec::Workload> inner, std::uint32_t every)
        : inner_(std::move(inner)), every_(every), lanes_(kThreads) {}

    std::string_view name() const noexcept override { return inner_->name(); }
    void prepare(tmb::stm::Stm& stm) override { inner_->prepare(stm); }
    void op(tmb::stm::Executor& exec, tmb::util::Xoshiro256& rng) override {
        ProbeLane& l = lanes_.mine();
        if (++l.ops % every_ != 0) {
            inner_->op(exec, rng);
            return;
        }
        const std::uint64_t t0 = now_ns();
        inner_->op(exec, rng);
        const std::uint64_t d = now_ns() - t0;
        l.op_ns.record(d);
        l.timed_ns += d;
    }
    void verify(std::uint64_t committed_ops) const override {
        inner_->verify(committed_ops);
    }
    std::uint64_t state_hash() const override { return inner_->state_hash(); }

    void new_run() {
        lanes_.new_run();
        for (auto& l : lanes_.all()) *l = ProbeLane{};
    }
    /// Folds this run's lanes into `hist` / `timed_ns`.
    void collect(LatencyHistogram& hist, std::uint64_t& timed_ns) {
        for (auto& l : lanes_.all()) {
            hist.merge(l->op_ns);
            timed_ns += l->timed_ns;
        }
    }
private:
    std::unique_ptr<tmb::exec::Workload> inner_;
    std::uint32_t every_;
    Lanes<ProbeLane> lanes_;
};

// ---------------------------------------------------------------------------
// TracedReplay — the registry replay body, stamped at every STM boundary
// ---------------------------------------------------------------------------

/// Span totals of one run (summed over lanes).
struct ReplaySpans {
    std::uint64_t txs = 0, loads = 0, stores = 0, next_calls = 0;
    std::uint64_t begin_ns = 0, load_ns = 0, store_ns = 0, commit_ns = 0;
    std::uint64_t wasted_ns = 0, next_ns = 0;
    std::uint64_t op_ns = 0;  ///< the traced ops, end to end

    void add(const ReplaySpans& o) {
        txs += o.txs;
        loads += o.loads;
        stores += o.stores;
        next_calls += o.next_calls;
        begin_ns += o.begin_ns;
        load_ns += o.load_ns;
        store_ns += o.store_ns;
        commit_ns += o.commit_ns;
        wasted_ns += o.wasted_ns;
        next_ns += o.next_ns;
        op_ns += o.op_ns;
    }
    [[nodiscard]] std::uint64_t covered_ns() const {
        return begin_ns + load_ns + store_ns + commit_ns + wasted_ns + next_ns;
    }
};

/// Same semantics as the registry's `replay` workload: each thread replays
/// its own stream, tx_size consecutive accesses per transaction; a read
/// loads the access's slot and a write increments it. Invariant: the slot
/// sum equals the committed writes. One op in kTraceEvery per thread is
/// stamped at every boundary; stamping every access of every op cost a
/// third of the throughput.
class TracedReplay final : public tmb::exec::Workload {
public:
    explicit TracedReplay(const tmb::config::Config& cfg)
        : source_(tmb::trace::make_trace_source(cfg)),
          words_(cfg.get_u64("slots", 1u << 16), 0),
          tx_size_(cfg.get_u32("tx_size", 16)),
          lanes_(kThreads) {
        if (source_->stream_count() == 0) {
            throw std::invalid_argument("perfbench: replay source has no streams");
        }
    }

    std::string_view name() const noexcept override { return "traced_replay"; }

    void op(tmb::stm::Executor& exec, tmb::util::Xoshiro256&) override {
        Lane& l = lanes_.mine();
        if (++l.op_count % kTraceEvery != 0) {
            fill(l, nullptr);
            exec.atomically([&](tmb::stm::Transaction& tx) {
                for (const Op& o : l.ops) {
                    std::uint64_t* w = &words_[o.slot];
                    const std::uint64_t v = tx.load(w);
                    if (o.is_write) tx.store(w, v + 1);
                }
            });
            writes_.fetch_add(l.writes, std::memory_order_relaxed);
            return;
        }
        ReplaySpans sp;
        const std::uint64_t t_op = now_ns();
        fill(l, &sp);
        const std::uint64_t t_call = now_ns();
        std::uint64_t first_enter = 0, last_enter = 0, t_exit = 0;
        ReplaySpans attempt;
        exec.atomically([&](tmb::stm::Transaction& tx) {
            last_enter = now_ns();
            if (first_enter == 0) first_enter = last_enter;
            attempt = ReplaySpans{};  // an aborted attempt's spans are waste
            for (const Op& o : l.ops) {
                std::uint64_t* w = &words_[o.slot];
                const std::uint64_t t0 = now_ns();
                const std::uint64_t v = tx.load(w);
                const std::uint64_t t1 = now_ns();
                attempt.load_ns += t1 - t0;
                ++attempt.loads;
                if (o.is_write) {
                    tx.store(w, v + 1);
                    attempt.store_ns += now_ns() - t1;
                    ++attempt.stores;
                }
            }
            t_exit = now_ns();
        });
        const std::uint64_t t_ret = now_ns();
        writes_.fetch_add(l.writes, std::memory_order_relaxed);
        sp.add(attempt);
        sp.txs = 1;
        sp.begin_ns = first_enter - t_call;
        sp.commit_ns = t_ret - t_exit;
        sp.wasted_ns = last_enter - first_enter;
        sp.op_ns = t_ret - t_op;
        l.spans.add(sp);
    }

    void verify(std::uint64_t) const override {
        std::uint64_t sum = 0;
        for (const std::uint64_t w : words_) sum += w;
        const std::uint64_t expected = writes_.load(std::memory_order_relaxed);
        if (sum != expected) {
            throw std::runtime_error(
                "traced replay invariant violated: slot sum " +
                std::to_string(sum) + " != committed writes " +
                std::to_string(expected));
        }
    }
    std::uint64_t state_hash() const override {
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < words_.size(); ++i) {
            h += tmb::util::mix64(i ^ words_[i]);
        }
        return h;
    }

    void new_run() {
        lanes_.new_run();
        for (auto& l : lanes_.all()) l->spans = ReplaySpans{};
    }
    void collect(ReplaySpans& out) {
        for (auto& l : lanes_.all()) out.add(l->spans);
    }

private:
    struct Op {
        std::uint64_t slot;
        bool is_write;
    };
    /// Cursor state persists across runs (lane i replays stream i, and
    /// wraps at its end); spans are reset per run.
    struct alignas(64) Lane {
        std::unique_ptr<tmb::trace::StreamSource> reader;
        std::size_t stream = 0;
        std::vector<tmb::trace::Access> buf;
        std::vector<Op> ops;
        std::uint64_t writes = 0;
        std::uint64_t op_count = 0;
        ReplaySpans spans;
    };

    static constexpr std::uint64_t kTraceEvery = 4;

    /// Pulls the next tx_size accesses (reopening the stream at its end)
    /// and resolves them to slots; times each read into `sp` when given.
    void fill(Lane& l, ReplaySpans* sp) {
        if (!l.reader) open(l);
        l.buf.resize(tx_size_);
        std::size_t have = 0;
        bool reopened = false;
        while (have < tx_size_) {
            const std::uint64_t t0 = sp ? now_ns() : 0;
            const std::size_t n = l.reader->next(std::span(l.buf).subspan(have));
            if (sp) {
                sp->next_ns += now_ns() - t0;
                ++sp->next_calls;
            }
            if (n == 0) {
                if (reopened) throw std::runtime_error("perfbench: empty stream");
                open(l);
                reopened = true;
                continue;
            }
            reopened = false;
            have += n;
        }
        l.ops.clear();
        l.writes = 0;
        for (const tmb::trace::Access& a : l.buf) {
            l.ops.push_back(Op{tmb::util::mix64(a.block) % words_.size(), a.is_write});
            l.writes += a.is_write ? 1 : 0;
        }
    }
    void open(Lane& l) {
        // TraceSource::stream calls must be serialized.
        const std::scoped_lock lock(mu_);
        if (!l.reader) {
            l.stream = next_stream_++ % source_->stream_count();
        }
        l.reader = source_->stream(l.stream);
    }

    std::unique_ptr<tmb::trace::TraceSource> source_;
    std::vector<std::uint64_t> words_;
    std::uint32_t tx_size_;
    Lanes<Lane> lanes_;
    std::atomic<std::uint64_t> writes_{0};
    std::mutex mu_;
    std::size_t next_stream_ = 0;
};

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// A runner plus the benchmark's handles into its workload.
struct Rig {
    std::unique_ptr<tmb::exec::ParallelRunner> runner;
    Probe* probe = nullptr;
    TracedReplay* replay = nullptr;  ///< traced replay body, else null
};

struct SubRun {
    double wall = 0.0;
    double cpu_per_wall = 0.0;
    double throughput = 0.0;
    bool packed = false;
    tmb::stm::StmStats stats;
    std::uint64_t allocs = 0, reclaimed = 0;
    LatencyHistogram op_ns;
    std::uint64_t timed_ns = 0;
    ReplaySpans spans;
};

Rig make_rig(const tmb::config::Config& cfg, bool traced,
             std::string_view workload) {
    Rig rig;
    std::unique_ptr<tmb::exec::Workload> body;
    if (traced && workload == "replay_tagless") {
        auto replay = std::make_unique<TracedReplay>(cfg);
        rig.replay = replay.get();
        body = std::move(replay);
    } else {
        body = tmb::exec::make_workload(cfg);
    }
    auto probe = std::make_unique<Probe>(std::move(body), traced ? 1 : kSampleEvery);
    rig.probe = probe.get();
    rig.runner = std::make_unique<tmb::exec::ParallelRunner>(
        tmb::exec::parallel_config_from(cfg), tmb::stm::Stm::create(cfg),
        std::move(probe));
    return rig;
}

/// One checked run() of `rig`. Throws what run() throws.
SubRun sub_run(Rig& rig, double units_per_op) {
    rig.probe->new_run();
    if (rig.replay) rig.replay->new_run();
    tmb::stm::Stm& stm = rig.runner->stm();
    const tmb::stm::ReclaimStats before = stm.reclaim_stats();
    const std::uint64_t checks_before = stm.stats().tl2_validation_checks;
    const double cpu0 = cpu_seconds();
    const tmb::exec::ParallelResult r = rig.runner->run();
    const double cpu = cpu_seconds() - cpu0;
    const tmb::stm::ReclaimStats after = stm.reclaim_stats();

    SubRun s;
    s.wall = r.elapsed_seconds;
    s.cpu_per_wall = ratio(cpu, s.wall);
    s.packed = s.cpu_per_wall < 0.5 * kThreads;
    s.throughput = ratio(static_cast<double>(r.stats.commits) * units_per_op, s.wall);
    s.stats = r.stats;
    // TL2 contexts flush their validation count into the instance block
    // when they retire, after the runner took its snapshot.
    s.stats.tl2_validation_checks = stm.stats().tl2_validation_checks - checks_before;
    s.allocs = after.tx_allocs - before.tx_allocs;
    s.reclaimed = after.reclaimed - before.reclaimed;
    rig.probe->collect(s.op_ns, s.timed_ns);
    if (rig.replay) rig.replay->collect(s.spans);
    return s;
}

/// Sub-runs that count: the spread ones, or all of them when every one
/// stayed packed (the run then says so).
std::vector<const SubRun*> counted(const std::vector<SubRun>& runs) {
    std::vector<const SubRun*> out;
    for (const SubRun& s : runs) {
        if (!s.packed) out.push_back(&s);
    }
    if (out.empty()) {
        for (const SubRun& s : runs) out.push_back(&s);
    }
    return out;
}

std::vector<double> throughputs(const std::vector<const SubRun*>& runs) {
    std::vector<double> out;
    for (const SubRun* s : runs) out.push_back(s->throughput);
    return out;
}

void report_packing(std::string_view label, const std::vector<SubRun>& runs) {
    std::size_t packed = 0;
    std::string cpu;
    for (const SubRun& s : runs) {
        packed += s.packed ? 1 : 0;
        char buf[16];
        std::snprintf(buf, sizeof buf, "%s%.2f", cpu.empty() ? "" : " ", s.cpu_per_wall);
        cpu += buf;
    }
    std::printf("%.*s: %zu sub-runs, %zu packed (left out%s); cpu/wall: %s\n",
                static_cast<int>(label.size()), label.data(), runs.size(), packed,
                packed == runs.size() && packed != 0 ? " — ALL PACKED, reported as measured" : "",
                cpu.c_str());
}

/// Per-layer metrics of the traced sub-runs.
void layer_metrics(const std::vector<const SubRun*>& runs, Outcome& out) {
    tmb::stm::StmStats st;
    LatencyHistogram op_ns;
    ReplaySpans spans;
    std::uint64_t allocs = 0, reclaimed = 0, timed_ns = 0;
    std::vector<double> cpu_per_wall;
    double thread_seconds = 0.0;
    for (const SubRun* s : runs) {
        st.merge(s->stats);
        op_ns.merge(s->op_ns);
        spans.add(s->spans);
        allocs += s->allocs;
        reclaimed += s->reclaimed;
        timed_ns += s->timed_ns;
        cpu_per_wall.push_back(s->cpu_per_wall);
        thread_seconds += s->wall * kThreads;
    }
    const auto commits = static_cast<double>(st.commits);
    const auto op_time = static_cast<double>(timed_ns);
    out.set("exec.cpu_per_wall", median(cpu_per_wall));
    out.set("exec.op_us.p50", static_cast<double>(op_ns.percentile(0.50)) / 1e3);
    out.set("exec.op_us.p99", static_cast<double>(op_ns.percentile(0.99)) / 1e3);
    out.set("stm.abort_share", st.abort_rate());
    out.set("stm.mean_attempts", st.mean_attempts());
    out.set("stm.clock_cas_failures_per_kcommit",
            1e3 * ratio(static_cast<double>(st.clock_cas_failures), commits));
    out.set("stm.tl2_validation_per_commit",
            ratio(static_cast<double>(st.tl2_validation_checks), commits));
    out.set("ownership.false_conflicts_per_kcommit",
            1e3 * ratio(static_cast<double>(st.false_conflicts), commits));
    out.set("ownership.true_conflicts_per_kcommit",
            1e3 * ratio(static_cast<double>(st.true_conflicts), commits));
    out.set("ownership.false_conflict_share",
            ratio(static_cast<double>(st.false_conflicts),
                  static_cast<double>(st.false_conflicts + st.true_conflicts)));
    out.set("txalloc.cache_hit_share",
            ratio(static_cast<double>(st.alloc_cache_hits),
                  static_cast<double>(st.alloc_cache_hits + st.alloc_cache_misses)));
    out.set("txalloc.mutex_per_commit",
            ratio(static_cast<double>(st.domain_mutex_acquires), commits));
    out.set("txalloc.allocs_per_commit", ratio(static_cast<double>(allocs), commits));
    out.set("txalloc.reclaimed_per_commit", ratio(static_cast<double>(reclaimed), commits));
    if (spans.txs != 0) {
        const auto txs = static_cast<double>(spans.txs);
        out.set("stm.begin_ns", static_cast<double>(spans.begin_ns) / txs);
        out.set("stm.load_ns", ratio(static_cast<double>(spans.load_ns),
                                     static_cast<double>(spans.loads)));
        out.set("stm.store_ns", ratio(static_cast<double>(spans.store_ns),
                                      static_cast<double>(spans.stores)));
        out.set("stm.commit_ns", static_cast<double>(spans.commit_ns) / txs);
        const auto traced_op = static_cast<double>(spans.op_ns);
        out.set("stm.wasted_share", ratio(static_cast<double>(spans.wasted_ns), traced_op));
        out.set("trace.next_ns", ratio(static_cast<double>(spans.next_ns),
                                       static_cast<double>(spans.next_calls)));
        out.set("trace.next_share", ratio(static_cast<double>(spans.next_ns), traced_op));
        // Child spans of the traced op spans.
        out.set("trace.span_coverage",
                ratio(static_cast<double>(spans.covered_ns()), traced_op));
    } else {
        // The op span is the deepest one: its share of thread time.
        out.set("trace.span_coverage", ratio(op_time / 1e9, thread_seconds));
    }
}

}  // namespace

Outcome run_engine(const Options& opt) {
    const EngineSpec* spec = nullptr;
    for (const EngineSpec& e : kEngines) {
        if (e.name == opt.workload) spec = &e;
    }
    if (spec == nullptr) {
        throw std::invalid_argument("perfbench: unknown engine workload");
    }
    auto cfg = tmb::config::Config::from_string(spec->config);
    cfg.set("threads", std::to_string(kThreads));
    cfg.set("seed", std::to_string(opt.seed));
    cfg.set("ops", std::to_string(std::max<std::uint64_t>(
                       1, static_cast<std::uint64_t>(
                              static_cast<double>(spec->ops_per_thread) * opt.scale))));

    Outcome out;
    // Set-up: Stm construction, workload construction and prepare, and the
    // trace-source open, through the all-flags constructor. One is timed
    // after every sub-run and the median reported, so set-up samples the
    // host over the whole run, as throughput does; timed back to back at
    // start, the median moved ~40% between processes.
    std::vector<double> setup;
    const auto time_setup = [&] {
        const auto t0 = Clock::now();
        const tmb::exec::ParallelRunner runner(cfg);
        setup.push_back(seconds_since(t0));
    };
    time_setup();

    // One rig at a time: warm up, then checked sub-runs for `budget`
    // seconds. Two rigs alive at once ran ~10% apart even when identical
    // (heap layout), so the traced run measures the untraced baseline
    // first and builds the traced rig after the baseline rig is gone.
    const auto measure = [&](bool traced, double budget, std::vector<SubRun>& runs) {
        Rig rig = make_rig(cfg, traced, opt.workload);
        const auto w0 = Clock::now();
        do {
            ++out.attempted;
            (void)sub_run(rig, spec->units_per_op);
            time_setup();
        } while (seconds_since(w0) < spec->warmup_s * opt.scale);
        double measured = 0.0;
        while (measured < budget) {
            ++out.attempted;
            runs.push_back(sub_run(rig, spec->units_per_op));
            measured += runs.back().wall;
            time_setup();
        }
    };
    std::vector<SubRun> base_runs, traced_runs;
    try {
        measure(false, opt.trace ? opt.seconds / 2 : opt.seconds, base_runs);
        if (opt.trace) measure(true, opt.seconds / 2, traced_runs);
    } catch (const std::exception& e) {
        // A check failure ends measurement; the metrics below are what was
        // measured before it.
        out.check_failures.push_back(e.what());
        ++out.failed;
    }
    out.set("setup_s", median(setup));

    report_packing("untraced", base_runs);
    const auto base_counted = counted(base_runs);
    const double base_thr = median(throughputs(base_counted));
    // Latency percentiles per sub-run, then their median.
    std::vector<double> p50, p99;
    std::uint64_t samples = 0;
    for (const SubRun* s : base_counted) {
        p50.push_back(static_cast<double>(s->op_ns.percentile(0.50)) / 1e3);
        p99.push_back(static_cast<double>(s->op_ns.percentile(0.99)) / 1e3);
        samples += s->op_ns.count();
    }
    out.set("throughput", base_thr);
    out.set("p50_us", median(p50));
    out.set("p99_us", median(p99));
    std::printf("untraced: throughput %.0f/s, op latency p50 %.3f us p99 %.3f us "
                "over %llu sampled ops (1 in %u)\n",
                base_thr, out.values["p50_us"], out.values["p99_us"],
                static_cast<unsigned long long>(samples), kSampleEvery);

    if (opt.trace) {
        report_packing("traced", traced_runs);
        const auto traced_counted = counted(traced_runs);
        layer_metrics(traced_counted, out);
        std::size_t packed = 0;
        for (const auto* runs : {&base_runs, &traced_runs}) {
            for (const SubRun& s : *runs) packed += s.packed ? 1 : 0;
        }
        out.set("exec.packed_runs", static_cast<double>(packed));
        const double traced_thr = median(throughputs(traced_counted));
        out.set("trace.overhead_share", 1.0 - ratio(traced_thr, base_thr));
        std::printf("traced: throughput %.0f/s against %.0f/s untraced\n",
                    traced_thr, base_thr);
    }
    out.set("failed_share", ratio(static_cast<double>(out.failed),
                                  static_cast<double>(out.attempted)));
    return out;
}

}  // namespace perfbench
