#include "ownership/any_table.hpp"

#include "ownership/tagged_table.hpp"
#include "ownership/tagless_table.hpp"

namespace tmb::ownership {

namespace {

template <OwnershipTable Table>
class AnyTableImpl final : public AnyTable {
public:
    AnyTableImpl(std::string_view name, TableConfig config)
        : name_(name), table_(config) {}

    AcquireResult acquire_read(TxId tx, std::uint64_t block) override {
        return table_.acquire_read(tx, block);
    }
    AcquireResult acquire_write(TxId tx, std::uint64_t block) override {
        return table_.acquire_write(tx, block);
    }
    void release(TxId tx, std::uint64_t block, Mode mode) override {
        table_.release(tx, block, mode);
    }
    [[nodiscard]] std::uint64_t entry_count() const noexcept override {
        return table_.entry_count();
    }
    [[nodiscard]] TableCounters counters() const noexcept override {
        return table_.counters();
    }
    [[nodiscard]] std::uint64_t index_of(
        std::uint64_t block) const noexcept override {
        return table_.index_of(block);
    }
    [[nodiscard]] std::uint64_t occupied_entries() const noexcept override {
        return table_.occupied_entries();
    }
    [[nodiscard]] Mode mode_of_block(
        std::uint64_t block) const noexcept override {
        return table_.mode_of_block(block);
    }
    void clear() override { table_.clear(); }
    [[nodiscard]] std::string_view name() const noexcept override {
        return name_;
    }

private:
    std::string_view name_;  ///< a literal from make_table
    Table table_;
};

}  // namespace

std::vector<std::string> table_names() { return {"tagless", "tagged"}; }

TableConfig table_config_from(const config::Config& cfg) {
    TableConfig out;
    out.entries = cfg.get_u64("entries", out.entries);
    out.hash = util::hash_kind_from_string(
        cfg.get("hash", util::to_string(out.hash)));
    return out;
}

std::unique_ptr<AnyTable> make_table(const config::Config& cfg) {
    const std::string name = cfg.get("table", "tagless");
    return make_table(name, table_config_from(cfg));
}

std::unique_ptr<AnyTable> make_table(std::string_view name,
                                     TableConfig config) {
    if (name == "tagless") {
        return std::make_unique<AnyTableImpl<TaglessTable>>("tagless", config);
    }
    if (name == "tagged") {
        return std::make_unique<AnyTableImpl<TaggedTable>>("tagged", config);
    }
    throw config::unknown_name("table", name, table_names());
}

}  // namespace tmb::ownership
