// sched_explorer — deterministic schedule exploration with a
// serializability oracle and a differential oracle, over two subjects: the
// STM backends running generated transaction programs, and (--svc=1) the
// service front-end. One set of modes serves both (sched/explore.hpp).
//
// Explore (default): run N schedules per backend×table pair, oracle-check
// every run, and print a copy-pasteable repro line for every failure.
//
//   sched_explorer --schedules=100000 --seed=7
//   sched_explorer --backend=table --table=tagless --schedules=5000
//   sched_explorer --sched=pct --depth=3 --schedules=2000
//
// Replay: re-run one recorded schedule string and report its state hash —
// the line a failing CI run prints is directly runnable:
//
//   sched_explorer --backend=tl2 --threads=3 ... --schedule=0120211
//   sched_explorer ... --schedule=0120211 --minimize
//
// Differential (programs only): replay the same schedule seeds across
// every pair and require identical final state (commutative workload) plus
// the paper's false-conflict direction (tagged = 0 ≤ tagless):
//
//   sched_explorer --diff --schedules=200
//
// Fuzz: coverage-guided exploration (sched/corpus.hpp) — mutate recorded
// pick strings, keep mutants that reach new behavior signatures, spend the
// whole budget where the coverage gradient points:
//
//   sched_explorer --fuzz --schedules=200000 --seed=7
//   sched_explorer --fuzz --corpus=corpus.d --jobs=4 --kill_every=64
//
// --corpus=<dir> persists the corpus, one subdirectory per pair (and
// shares it between --jobs=N forked workers via atomic file claims);
// --kill_every=N interleaves kill-point checks (cancel the run at a random
// step, assert the commit history is a per-thread prefix whose serial
// replay reproduces memory). With --jobs=1 a fuzz campaign is
// bit-reproducible from --seed; with more jobs the signature *set* is
// stable but claim races make corpus contents worker-dependent.
//
// Kill-point replay: --schedule=<picks> --kill_step=S replays one schedule
// cancelled at step S under the prefix-consistency oracle. A violation the
// fuzzer finds on a run cut at its step cap carries --kill_step too.
//
// Service subject: --svc=1 swaps the transaction programs for the live
// service front-end (svc/sched_service.hpp) — clients, queues, dispatchers
// — under the same turnstile and the same pairs. Every mode but --diff
// works on it; the oracle becomes request conservation + commit-log serial
// replay:
//
//   sched_explorer --svc=1 --schedules=2000 --seed=7
//   sched_explorer --svc=1 --fuzz --jobs=2 --schedules=5000 --kill_every=32
//   sched_explorer --svc=1 --clients=2 --dispatchers=2 --retry=backoff:3 \
//                  --schedule=01232021 --kill_step=17
//
// Each mode reads only its own flags besides the subject's keys, --svc,
// --fault and --out; any other flag exits 2. explore: --schedules --seed
// --sched --depth --steps --minimize; diff: the same but --minimize; fuzz:
// --schedules --seed --corpus --jobs --init --sync_every --shrink
// --shrink_probes --kill_every; replay: --schedule, --kill_step|--minimize.
//
// Fault injection: --fault=<name> arms one of the deliberate test faults
// (ignore_acquire_conflicts | skip_tl2_validation | eager_reclaim |
// leaky_cache) for the whole process — CI uses this to assert the oracles
// still CATCH broken implementations (the run must exit 1 with repro
// lines; a clean exit means the oracle went blind).
//
// Exit codes: 0 = all runs serializable; 1 = violations (repro lines on
// stdout, also appended to --out=<file> when given — deduplicated, so
// replayed batches do not pile up duplicate lines); 2 = config error.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>

#include <fstream>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "config/config.hpp"
#include "sched/corpus.hpp"
#include "sched/harness.hpp"
#include "stm/sched_hook.hpp"
#include "svc/sched_service.hpp"

namespace {

using tmb::config::Config;
using tmb::sched::BackendPair;
using tmb::sched::Subject;

/// The pairs to sweep: the explicit --backend/--table selection when given,
/// every built-in pair otherwise.
std::vector<BackendPair> selected_pairs(const Config& cli) {
    if (!cli.has("backend") && !cli.has("table")) {
        return tmb::sched::default_backend_pairs();
    }
    BackendPair pair;
    pair.backend = cli.get("backend", "table");
    if (pair.backend == "table" || pair.backend == "adaptive") {
        pair.table = cli.get("table", "tagless");
    }
    pair.commit_time_locks = cli.get_bool("commit_time_locks", false);
    return {pair};
}

/// Appends repro lines to --out=<file>, deduplicated by the full line:
/// the file is pre-read on open, so re-running a batch (or several batches
/// against one file) never piles up duplicate repro lines for the same
/// schedule string + config.
class ReproSink {
public:
    explicit ReproSink(const std::string& path) {
        if (path.empty()) return;
        std::ifstream existing(path);
        for (std::string line; std::getline(existing, line);) {
            seen_.insert(line);
        }
        file_.open(path, std::ios::app);
    }

    void write(const std::string& line) {
        if (!file_.is_open() || !seen_.insert(line).second) return;
        file_ << line << '\n';
        file_.flush();
    }

private:
    std::ofstream file_;
    std::unordered_set<std::string> seen_;
};

void report(std::ostream& os, const std::vector<tmb::sched::Violation>& found,
            ReproSink& sink) {
    for (const auto& v : found) {
        os << "VIOLATION: " << v.message << '\n';
        sink.write(v.repro);
    }
}

/// Arms one deliberate fault for the whole process so CI can assert the
/// oracles catch it (expected exit code: 1).
void arm_fault(const std::string& fault) {
    if (fault.empty()) return;
    auto& faults = tmb::stm::detail::test_faults();
    if (fault == "ignore_acquire_conflicts") {
        faults.ignore_acquire_conflicts.store(true);
    } else if (fault == "skip_tl2_validation") {
        faults.skip_tl2_validation.store(true);
    } else if (fault == "eager_reclaim") {
        faults.eager_reclaim.store(true);
    } else if (fault == "leaky_cache") {
        faults.leaky_cache.store(true);
    } else {
        throw std::invalid_argument("unknown --fault=" + fault);
    }
}

/// Schedule-policy keys (explore and diff) consumed by make_schedule.
Config schedule_policy(const Config& cli) {
    Config sched_cfg;
    sched_cfg.set("sched", cli.get("sched", "random"));
    sched_cfg.set("depth", std::to_string(cli.get_u64("depth", 3)));
    sched_cfg.set("steps", std::to_string(cli.get_u64("steps", 256)));
    return sched_cfg;
}

void print_minimized(const Subject& subject, const std::string& schedule) {
    const auto shrunk = tmb::sched::minimize_schedule(subject, schedule);
    std::cout << "  minimized " << schedule.size() << " -> " << shrunk.size()
              << " picks\n  repro: "
              << tmb::sched::repro_line(subject.repro_flags(), shrunk) << '\n';
}

int replay_mode(const Config& cli, const Subject& subject,
                const std::string& picks, ReproSink& sink) {
    const std::uint64_t kill_step = cli.get_u64("kill_step", 0);
    const bool minimize = kill_step == 0 && cli.get_bool("minimize", false);
    tmb::config::reject_unknown(cli);

    // --kill_step cuts the replay at that step and demands a prefix-
    // consistent commit history.
    std::string detail;
    const auto out = tmb::sched::replay(subject, picks, kill_step, &detail);
    std::cout << "replayed " << out.run.steps << " steps, " << detail
              << ", state hash 0x" << std::hex << out.run.state_hash
              << std::dec << '\n';
    const std::string oracle =
        kill_step == 0 ? "oracle"
                       : "kill-point (step " + std::to_string(kill_step) + ")";
    if (!out.error) {
        std::cout << oracle << ": consistent\n";
        return 0;
    }
    report(std::cout,
           {tmb::sched::make_violation(
               subject, out.run.schedule,
               kill_step == 0 ? *out.error : oracle + ": " + *out.error,
               kill_step)},
           sink);
    if (minimize) print_minimized(subject, picks);
    return 1;
}

int diff_mode(const Config& cli, ReproSink& sink) {
    tmb::sched::HarnessConfig cfg = tmb::sched::harness_config_from(cli);
    // Differential mode needs commutative writes.
    if (!cli.has("mode")) cfg.commutative = true;
    const std::uint64_t schedules = cli.get_u64("schedules", 1000);
    const std::uint64_t seed = cli.get_u64("seed", 1);
    const Config sched_cfg = schedule_policy(cli);
    const auto pairs = selected_pairs(cli);
    tmb::config::reject_unknown(cli);

    const auto programs = tmb::sched::generate_programs(cfg);
    std::size_t violations = 0;
    for (std::uint64_t n = 0; n < schedules; ++n) {
        const std::uint64_t round_seed = seed + n;
        if (const auto error = tmb::sched::run_differential(
                cfg, programs, pairs, sched_cfg, round_seed)) {
            ++violations;
            std::cout << "DIFF VIOLATION (round " << n << "): " << *error
                      << '\n';
            sink.write("# diff seed " + std::to_string(round_seed) + ": " +
                       *error);
        }
    }
    std::cout << "differential: " << schedules << " rounds x " << pairs.size()
              << " pairs, " << violations << " violations\n";
    return violations ? 1 : 0;
}

int fuzz_mode(const Config& cli, Subject& subject, const std::string& prefix,
              bool show_sites, ReproSink& sink) {
    tmb::sched::FuzzOptions fopts;
    fopts.budget = cli.get_u64("schedules", 1000);
    fopts.seed = cli.get_u64("seed", 1);
    fopts.init = cli.get_u64("init", fopts.init);
    fopts.sync_every = cli.get_u64("sync_every", fopts.sync_every);
    fopts.shrink = cli.get_bool("shrink", fopts.shrink);
    fopts.shrink_probes = cli.get_u64("shrink_probes", fopts.shrink_probes);
    fopts.kill_every = cli.get_u64("kill_every", fopts.kill_every);
    const std::string corpus_path = cli.get("corpus", "");
    const std::uint64_t jobs = cli.get_u64("jobs", 1);
    const auto pairs = selected_pairs(cli);
    tmb::config::reject_unknown(cli);

    if (!corpus_path.empty()) ::mkdir(corpus_path.c_str(), 0755);
    int exit_code = 0;
    for (const BackendPair& pair : pairs) {
        pair.apply(subject.stm());
        // One corpus subdirectory per backend pair: signatures are only
        // comparable within one engine shape.
        std::string pair_dir;
        if (!corpus_path.empty()) {
            std::string label = pair.label();
            for (char& c : label) {
                if (c == '/') c = '-';
            }
            pair_dir = corpus_path + "/" + label;
        }

        const auto run_worker = [&](std::uint64_t worker) {
            tmb::sched::FuzzOptions wopts = fopts;
            wopts.seed = fopts.seed + worker * 0x9e3779b97f4a7c15ULL;
            tmb::sched::Corpus corpus(pair_dir);
            if (!corpus.dir().empty()) (void)corpus.sync();  // warm start
            const auto result =
                tmb::sched::fuzz_explore(subject, wopts, corpus);
            std::cout << prefix << pair.label()
                      << (jobs > 1 ? " [worker " + std::to_string(worker) + "]"
                                   : "")
                      << ": fuzz " << result.runs << " runs, "
                      << corpus.distinct_signatures() << " signatures, "
                      << corpus.size() << " corpus entries, "
                      << result.new_coverage_mutants << " coverage mutants, "
                      << result.kill_checks << " kill checks, ";
            if (show_sites) {
                std::cout << "sites 0x" << std::hex << result.sites_seen
                          << std::dec << ", ";
            }
            std::cout << result.violations.size() << " violations\n";
            report(std::cout, result.violations, sink);
            return result.violations.empty() ? 0 : 1;
        };

        if (jobs <= 1) {
            if (run_worker(0) != 0) exit_code = 1;
            continue;
        }
        // Forked workers share the pair's corpus directory; each runs the
        // full budget from its own seed stream. Fork happens before any
        // harness threads exist in the child.
        std::vector<pid_t> kids;
        for (std::uint64_t w = 0; w < jobs; ++w) {
            const pid_t pid = ::fork();
            if (pid == 0) {
                const int rc = run_worker(w);
                std::cout.flush();
                std::_Exit(rc);
            }
            if (pid > 0) {
                kids.push_back(pid);
            } else {
                std::cerr << "sched_explorer: fork failed\n";
                exit_code = 1;
            }
        }
        for (const pid_t pid : kids) {
            int status = 0;
            if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
                WEXITSTATUS(status) != 0) {
                exit_code = 1;
            }
        }
    }
    std::cout << (exit_code == 0 ? "sched_explorer: fuzz clean\n"
                                 : "sched_explorer: fuzz VIOLATIONS above\n");
    return exit_code;
}

int explore_mode(const Config& cli, Subject& subject,
                 const std::string& prefix, ReproSink& sink) {
    const std::uint64_t schedules = cli.get_u64("schedules", 1000);
    const std::uint64_t seed = cli.get_u64("seed", 1);
    const Config sched_cfg = schedule_policy(cli);
    const bool minimize = cli.get_bool("minimize", false);
    const auto pairs = selected_pairs(cli);
    tmb::config::reject_unknown(cli);

    std::size_t violations = 0;
    for (const BackendPair& pair : pairs) {
        pair.apply(subject.stm());
        const auto result =
            tmb::sched::explore(subject, sched_cfg, schedules, seed);
        violations += result.violations.size();
        std::cout << prefix << pair.label() << ": " << result.runs
                  << " schedules, " << result.stats.commits << " commits, "
                  << result.stats.aborts << " aborts, "
                  << result.stats.false_conflicts << " false conflicts, "
                  << result.stats.policy_switches << " policy switches, "
                  << result.stats.clock_cas_failures
                  << " clock CAS failures, " << result.violations.size()
                  << " violations\n";
        report(std::cout, result.violations, sink);
        if (minimize) {
            for (const auto& v : result.violations) {
                print_minimized(subject, v.schedule);
            }
        }
    }
    std::cout << (violations == 0
                      ? "sched_explorer: all schedules serializable\n"
                      : "sched_explorer: VIOLATIONS above\n");
    return violations ? 1 : 0;
}

int explorer_main(int argc, char** argv) {
    const Config cli = Config::from_args(argc, argv);
    arm_fault(cli.get("fault", ""));
    ReproSink sink(cli.get("out", ""));

    // The mode: replay (--schedule) over fuzz over diff over explore. A
    // mode flag the chosen mode shadows is never read, so reject_unknown
    // turns the combination into exit 2.
    const bool svc = cli.get_bool("svc", false);
    const std::string picks = cli.get("schedule", "");
    const bool fuzz = picks.empty() && cli.get_bool("fuzz", false);
    if (picks.empty() && !fuzz && !svc && cli.get_bool("diff", false)) {
        return diff_mode(cli, sink);
    }

    const auto subject = tmb::svc::make_subject(cli);
    if (!picks.empty()) return replay_mode(cli, *subject, picks, sink);
    const std::string prefix = svc ? "svc " : "";
    return fuzz ? fuzz_mode(cli, *subject, prefix, svc, sink)
                : explore_mode(cli, *subject, prefix, sink);
}

}  // namespace

int main(int argc, char** argv) {
    return tmb::config::guarded_main(explorer_main, argc, argv);
}
