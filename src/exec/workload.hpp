// workload.hpp — transactional workloads for the execution engine,
// selected by name.
//
// A Workload owns shared transactional state (TVar arrays) and exposes one
// operation that engine threads execute over and over through their
// per-thread stm::Executor. `make_workload` constructs them *by name* —
// exactly like tables and backends — so the parallel bench sweeps
// `--workload=` the way every other driver sweeps `--table=`:
//
//   "counters"  — increment tx_size uniformly random slots of a large
//                 counter array per transaction (low contention when
//                 slots >> threads · tx_size; the scaling baseline).
//   "zipf"      — tx_size-1 Zipf-distributed reads plus one Zipf-
//                 distributed increment per transaction (hot blocks pin hot
//                 table entries; contention rises with `skew`).
//   "bank"      — transfer a random amount between two random accounts
//                 (read-modify-write pairs; the classic STM invariant demo).
//   "replay"    — feed a trace source selected by name (trace/source.hpp,
//                 `source=jbb|zipf|spec:<p>|file:<path>`) through the STM:
//                 each engine thread owns one stream cursor and replays
//                 tx_size consecutive accesses per transaction (reads read,
//                 writes increment), wrapping at end of stream. This closes
//                 the loop between the paper's trace experiments and the
//                 real-thread engine: any trace that drives the simulators
//                 can now contend on real ownership metadata.
//   "vacation"  — STAMP-style travel reservation system over THashMaps:
//                 three resource classes (cars/flights/rooms) with
//                 per-resource availability and per-customer booking
//                 tables. Reservations, cancellations and table updates
//                 insert and erase map nodes through tx_alloc/tx_free, so
//                 the workload exercises the runtime's speculative
//                 allocation and epoch reclamation under contention.
//                 Invariant: per class, available + booked == capacity.
//   "kmeans"    — STAMP-style clustering kernel: points are assigned to the
//                 nearest centroid (cluster accumulator maps grow via
//                 tx_alloc), and periodic recenter transactions absorb the
//                 accumulators into the centroids and erase the rows
//                 (tx_free) — a rebuild-heavy allocation churn pattern.
//                 Invariant: live + absorbed assignments == assign ops.
//   "pipeline"  — intruder-style staged packet processing: decode injects
//                 packets into a bounded transactional queue, analyze moves
//                 them to a second queue while tracking per-flow counts in
//                 a hash map, rebalance retires them — every stage handoff
//                 is a queue-node tx_alloc/tx_free, making this the purest
//                 allocator-throughput workload of the set. Invariant:
//                 injected == queued + retired (packets and payload sums).
//
// Every workload carries a checkable invariant (`verify`) and an
// order-independent `state_hash` so the engine's stress and determinism
// tests apply to all of them uniformly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/config.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"

namespace tmb::exec {

/// A named transactional workload. `op` is called concurrently from many
/// engine threads; all shared state must be accessed through `exec`'s
/// transactions (plus non-transactional initialization in the constructor,
/// before the object is published to threads).
class Workload {
public:
    virtual ~Workload() = default;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// One-time binding to the runtime that will execute the workload,
    /// before any thread runs op(). Workloads built on the transactional
    /// containers create and populate them here (containers need the Stm
    /// at construction); array-based workloads ignore it. ParallelRunner
    /// calls this once from its constructor.
    virtual void prepare(stm::Stm& stm) { (void)stm; }

    /// Executes one operation: exactly one committed transaction (the
    /// engine counts ops and equates them with commits). `rng` is the
    /// calling thread's private substream — operand selection must use it
    /// and nothing else, so a single-threaded run is deterministic.
    virtual void op(stm::Executor& exec, util::Xoshiro256& rng) = 0;

    /// Checks the workload invariant at quiescence (all threads joined);
    /// `committed_ops` is the engine-wide completed-operation count.
    /// Throws std::runtime_error on violation — a lost or doubled update.
    virtual void verify(std::uint64_t committed_ops) const = 0;

    /// Order-independent digest of the shared state at quiescence, for
    /// determinism tests (two 1-thread runs with one seed must agree).
    [[nodiscard]] virtual std::uint64_t state_hash() const = 0;
};

/// The workload names make_workload knows, in the order listed below.
[[nodiscard]] std::vector<std::string> workload_names();

/// Creates a workload from a Config. Keys:
///   workload  counters | zipf | bank | replay | vacation | kmeans |
///             pipeline (default "counters"; any other name throws
///             std::invalid_argument listing these)
///   slots     counter/zipf/replay array size (default 65536; accepts
///             "64k")
///   tx_size   transactional accesses per operation (default 4; replay
///             default 16, up to 4096)
///   skew      zipf skew s (default 0.99)
///   accounts  bank account count (default 1024)
///   source, accesses, profile, ...   replay trace source keys
///             (trace::make_trace_source; `threads` doubles as the
///             generator stream count, so each engine thread replays its
///             own stream)
///   rows, customers, queries   vacation: resources per class (default
///             128), customer count (default 64), itinerary size per
///             operation (default 2, up to 8)
///   clusters, recenter_every, space   kmeans: centroid count (default 8,
///             up to 32), mean ops between recenter transactions (default
///             64), point coordinate space (default 1024)
///   capacity, flows   pipeline: per-stage queue bound (default 256),
///             distinct flow ids (default 64, up to 4096)
[[nodiscard]] std::unique_ptr<Workload> make_workload(const config::Config& cfg);

}  // namespace tmb::exec
