// any_table.hpp — type-erased ownership table, selected by name at runtime.
//
// Simulators, the hybrid-TM model, benches, examples and tools all construct
// their ownership table through this interface so that every workload is
// generic over the metadata organization — the paper's central ablation.
// `make_table` knows the paper's two organizations, the same two names
// `Stm::create` accepts for `table=`:
//
//   "tagless"  — paper Fig. 1 (no tags; aliasing causes FALSE conflicts)
//   "tagged"   — paper Fig. 7 (tags + chaining; no false conflicts)
//
//   auto t = ownership::make_table(config::Config::from_string(
//       "table=tagged entries=16384"));
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/config.hpp"
#include "ownership/ownership.hpp"

namespace tmb::ownership {

/// Virtual interface mirroring the OwnershipTable concept.
class AnyTable {
public:
    virtual ~AnyTable() = default;

    virtual AcquireResult acquire_read(TxId tx, std::uint64_t block) = 0;
    virtual AcquireResult acquire_write(TxId tx, std::uint64_t block) = 0;
    virtual void release(TxId tx, std::uint64_t block, Mode mode) = 0;
    [[nodiscard]] virtual std::uint64_t entry_count() const noexcept = 0;
    [[nodiscard]] virtual TableCounters counters() const noexcept = 0;
    /// First-level slot `block` hashes to (experiments reason about aliasing
    /// without duplicating the hash).
    [[nodiscard]] virtual std::uint64_t index_of(
        std::uint64_t block) const noexcept = 0;
    /// Currently held entries/records; lets simulators sample occupancy
    /// through the erased interface (paper §4's occupancy measurements).
    [[nodiscard]] virtual std::uint64_t occupied_entries() const noexcept = 0;
    /// Permission state a non-transactional access to `block` would observe
    /// (strong-isolation probes, paper §6). For tagless organizations this
    /// is the shared entry's mode — aliases make innocent accesses look
    /// conflicting; for tagged it is the block's own record.
    [[nodiscard]] virtual Mode mode_of_block(
        std::uint64_t block) const noexcept = 0;
    virtual void clear() = 0;
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// The organization names make_table knows: {"tagless", "tagged"}. Benches
/// iterate this to ablate across both.
[[nodiscard]] std::vector<std::string> table_names();

/// Creates a table from a Config. Keys:
///   table    organization name (default "tagless")
///   entries  first-level slot count N (default 4096; accepts "64k")
///   hash     shift-mask | multiplicative | mix64 (default mix64)
[[nodiscard]] std::unique_ptr<AnyTable> make_table(const config::Config& cfg);

/// Creates a table by organization name with an already-parsed shape — the
/// path for drivers that hold a TableConfig (simulators, the hybrid TM).
/// Throws std::invalid_argument listing table_names() for any other name.
[[nodiscard]] std::unique_ptr<AnyTable> make_table(std::string_view name,
                                                   TableConfig config);

/// Parses the table-shape keys (`entries`, `hash`) out of a Config.
[[nodiscard]] TableConfig table_config_from(const config::Config& cfg);

}  // namespace tmb::ownership
