#include "ownership/any_table.hpp"

#include "ownership/atomic_tagless_table.hpp"
#include "ownership/tagged_table.hpp"

namespace tmb::ownership {

namespace {

template <OwnershipTable Table>
class AnyTableImpl final : public AnyTable {
public:
    explicit AnyTableImpl(TableConfig config) : table_(config) {}

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
    [[nodiscard]] std::uint64_t occupied_entries() const noexcept override {
        return table_.occupied_entries();
    }
    void clear() override { table_.clear(); }

private:
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
        return std::make_unique<AnyTableImpl<AtomicTaglessTable>>(config);
    }
    if (name == "tagged") {
        return std::make_unique<AnyTableImpl<TaggedTable>>(config);
    }
    throw config::unknown_name("table", name, table_names());
}

}  // namespace tmb::ownership
