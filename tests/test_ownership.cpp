// Unit tests for src/ownership: tagless table (Fig. 1), tagged chaining
// table (Fig. 7), type-erased wrapper. Includes the central property the
// paper is about: the tagless table reports alias conflicts that the tagged
// table does not.
#include <gtest/gtest.h>

#include "ownership/any_table.hpp"
#include "ownership/tagged_table.hpp"
#include "ownership/tagless_table.hpp"
#include "util/rng.hpp"

namespace tmb::ownership {
namespace {

// A shift-mask table makes aliasing deterministic: blocks b and b+N collide.
TableConfig direct(std::uint64_t entries) {
    return {.entries = entries, .hash = util::HashKind::kShiftMask};
}

// ---------------------------------------------------------------------------
// TaglessTable
// ---------------------------------------------------------------------------

TEST(Tagless, ReadSharingAllowed) {
    TaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_read(0, 5).ok);
    EXPECT_TRUE(t.acquire_read(1, 5).ok);
    EXPECT_EQ(t.mode_at(5), Mode::kRead);
    EXPECT_EQ(t.sharers_at(5), 2u);
}

TEST(Tagless, WriteExcludesWrite) {
    TaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_write(0, 5).ok);
    const auto r = t.acquire_write(1, 5);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.conflicting, tx_bit(0));
}

TEST(Tagless, WriteExcludesRead) {
    TaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_write(0, 5).ok);
    const auto r = t.acquire_read(1, 5);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.conflicting, tx_bit(0));
}

TEST(Tagless, ReadExcludesForeignWrite) {
    TaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_read(0, 5).ok);
    const auto r = t.acquire_write(1, 5);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.conflicting, tx_bit(0));
}

TEST(Tagless, SoleReaderUpgrades) {
    TaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_read(0, 5).ok);
    EXPECT_TRUE(t.acquire_write(0, 5).ok);
    EXPECT_EQ(t.mode_at(5), Mode::kWrite);
    EXPECT_EQ(t.writer_at(5), 0u);
}

TEST(Tagless, UpgradeBlockedByOtherReader) {
    TaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_read(0, 5).ok);
    EXPECT_TRUE(t.acquire_read(1, 5).ok);
    const auto r = t.acquire_write(0, 5);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.conflicting, tx_bit(1));  // only the OTHER reader conflicts
}

TEST(Tagless, ReacquireIsIdempotent) {
    TaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_read(0, 5).ok);
    EXPECT_TRUE(t.acquire_read(0, 5).ok);
    EXPECT_EQ(t.sharers_at(5), 1u);
    EXPECT_TRUE(t.acquire_write(0, 5).ok);
    EXPECT_TRUE(t.acquire_write(0, 5).ok);
    EXPECT_TRUE(t.acquire_read(0, 5).ok);  // own write covers reads
}

TEST(Tagless, FalseConflictOnAlias) {
    // The paper's core pathology: distinct blocks, same entry.
    TaglessTable t(direct(16));
    EXPECT_TRUE(t.acquire_write(0, 3).ok);
    const auto r = t.acquire_write(1, 3 + 16);  // different block, same entry
    EXPECT_FALSE(r.ok) << "tagless tables must conservatively conflict";
}

TEST(Tagless, ReleaseRead) {
    TaglessTable t(direct(16));
    t.acquire_read(0, 5);
    t.acquire_read(1, 5);
    t.release(0, 5, Mode::kRead);
    EXPECT_EQ(t.sharers_at(5), 1u);
    t.release(1, 5, Mode::kRead);
    EXPECT_EQ(t.mode_at(5), Mode::kFree);
    EXPECT_TRUE(t.acquire_write(2, 5).ok);
}

TEST(Tagless, ReleaseWrite) {
    TaglessTable t(direct(16));
    t.acquire_write(0, 5);
    t.release(0, 5, Mode::kWrite);
    EXPECT_EQ(t.mode_at(5), Mode::kFree);
    EXPECT_TRUE(t.acquire_write(1, 5).ok);
}

TEST(Tagless, ForeignReleaseIsNoOp) {
    TaglessTable t(direct(16));
    t.acquire_write(0, 5);
    t.release(1, 5, Mode::kWrite);  // not the owner
    EXPECT_EQ(t.mode_at(5), Mode::kWrite);
    EXPECT_EQ(t.writer_at(5), 0u);
}

TEST(Tagless, DoubleReleaseTolerated) {
    TaglessTable t(direct(16));
    t.acquire_write(0, 5);
    t.release(0, 5, Mode::kWrite);
    EXPECT_NO_THROW(t.release(0, 5, Mode::kWrite));
    EXPECT_EQ(t.occupied_entries(), 0u);
}

TEST(Tagless, OccupiedEntriesTracksTransitions) {
    TaglessTable t(direct(16));
    EXPECT_EQ(t.occupied_entries(), 0u);
    t.acquire_read(0, 1);
    t.acquire_write(0, 2);
    EXPECT_EQ(t.occupied_entries(), 2u);
    t.acquire_read(1, 1);  // same entry, no change
    EXPECT_EQ(t.occupied_entries(), 2u);
    t.acquire_write(0, 1 + 16);  // aliases entry 1 → conflict, no change
    EXPECT_EQ(t.occupied_entries(), 2u);
    t.release(0, 1, Mode::kRead);
    EXPECT_EQ(t.occupied_entries(), 2u);  // tx1 still reads entry 1
    t.release(1, 1, Mode::kRead);
    t.release(0, 2, Mode::kWrite);
    EXPECT_EQ(t.occupied_entries(), 0u);
}

TEST(Tagless, UpgradeKeepsOccupancyConsistent) {
    TaglessTable t(direct(16));
    t.acquire_read(0, 7);
    t.acquire_write(0, 7);  // upgrade in place
    EXPECT_EQ(t.occupied_entries(), 1u);
    t.release(0, 7, Mode::kWrite);
    EXPECT_EQ(t.occupied_entries(), 0u);
}

TEST(Tagless, ClearFreesEverything) {
    TaglessTable t(direct(16));
    t.acquire_write(0, 1);
    t.acquire_read(1, 2);
    t.clear();
    EXPECT_EQ(t.occupied_entries(), 0u);
    EXPECT_TRUE(t.acquire_write(2, 1).ok);
}

TEST(Tagless, CountersAccumulate) {
    TaglessTable t(direct(16));
    t.acquire_read(0, 1);
    t.acquire_write(0, 2);
    t.acquire_write(1, 2);  // conflict
    const auto c = t.counters();
    EXPECT_EQ(c.read_acquires, 1u);
    EXPECT_EQ(c.write_acquires, 2u);
    EXPECT_EQ(c.conflicts, 1u);
}

TEST(Tagless, RejectsZeroEntries) {
    EXPECT_THROW(TaglessTable(direct(0)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TaggedTable
// ---------------------------------------------------------------------------

TEST(Tagged, NoFalseConflictOnAlias) {
    TaggedTable t(direct(16));
    EXPECT_TRUE(t.acquire_write(0, 3).ok);
    EXPECT_TRUE(t.acquire_write(1, 3 + 16).ok) << "aliases get separate records";
    EXPECT_EQ(t.record_count(), 2u);
    EXPECT_EQ(t.chained_slots(), 1u);
}

TEST(Tagged, TrueConflictStillDetected) {
    TaggedTable t(direct(16));
    EXPECT_TRUE(t.acquire_write(0, 3).ok);
    const auto r = t.acquire_write(1, 3);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.conflicting, tx_bit(0));
}

TEST(Tagged, ReadSharingOnSameBlock) {
    TaggedTable t(direct(16));
    EXPECT_TRUE(t.acquire_read(0, 3).ok);
    EXPECT_TRUE(t.acquire_read(1, 3).ok);
    const auto r = t.acquire_write(2, 3);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.conflicting, tx_bit(0) | tx_bit(1));
}

TEST(Tagged, SoleReaderUpgrades) {
    TaggedTable t(direct(16));
    EXPECT_TRUE(t.acquire_read(0, 3).ok);
    EXPECT_TRUE(t.acquire_write(0, 3).ok);
    const auto r = t.acquire_read(1, 3);
    EXPECT_FALSE(r.ok);
}

TEST(Tagged, ChainGrowsAndShrinks) {
    TaggedTable t(direct(8));
    // Four distinct blocks aliasing to slot 1.
    for (TxId tx = 0; tx < 4; ++tx) {
        EXPECT_TRUE(t.acquire_write(tx, 1 + 8 * tx).ok);
    }
    EXPECT_EQ(t.record_count(), 4u);
    const auto h = t.chain_length_histogram();
    EXPECT_EQ(h.count_at(4), 1u);  // one slot with 4 records
    for (TxId tx = 0; tx < 4; ++tx) t.release(tx, 1 + 8 * tx, Mode::kWrite);
    EXPECT_EQ(t.record_count(), 0u);
    EXPECT_EQ(t.chained_slots(), 0u);
}

TEST(Tagged, ReleaseReadKeepsOtherSharers) {
    TaggedTable t(direct(16));
    t.acquire_read(0, 3);
    t.acquire_read(1, 3);
    t.release(0, 3, Mode::kRead);
    EXPECT_EQ(t.record_count(), 1u);
    const auto r = t.acquire_write(2, 3);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.conflicting, tx_bit(1));
}

TEST(Tagged, ReleaseUnknownBlockIsNoOp) {
    TaggedTable t(direct(16));
    EXPECT_NO_THROW(t.release(0, 99, Mode::kWrite));
    EXPECT_EQ(t.record_count(), 0u);
}

TEST(Tagged, AliasTraversalCounting) {
    TaggedTable t(direct(8));
    t.acquire_write(0, 1);
    EXPECT_EQ(t.alias_traversals(), 0u);
    t.acquire_write(1, 9);  // same slot, different block: one traversal
    EXPECT_GE(t.alias_traversals(), 1u);
    EXPECT_GE(t.probe_steps(), 1u);
    const auto before = t.probe_steps();
    t.acquire_read(1, 9);  // re-find within a 2-record chain: more probes
    EXPECT_GT(t.probe_steps(), before);
}

TEST(Tagged, TagBitsMatchPaperExample) {
    // Paper §5: 32-bit addresses, 64-byte blocks (6 offset bits), 4096-entry
    // table (12 index bits) → 14 tag bits.
    TaggedTable t({.entries = 4096, .hash = util::HashKind::kShiftMask});
    EXPECT_EQ(t.tag_bits(32, 6), 14u);
    EXPECT_EQ(t.tag_bits(64, 6), 46u);
}

TEST(Tagged, ClearRemovesRecords) {
    TaggedTable t(direct(8));
    t.acquire_write(0, 1);
    t.acquire_write(1, 9);
    t.clear();
    EXPECT_EQ(t.record_count(), 0u);
    EXPECT_TRUE(t.acquire_write(2, 1).ok);
}

TEST(Tagged, RejectsZeroEntries) {
    EXPECT_THROW(TaggedTable(direct(0)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cross-organization property: identical outcomes on alias-free workloads,
// tagless-only false conflicts on aliasing workloads.
// ---------------------------------------------------------------------------

TEST(CrossTable, AgreeWithoutAliasing) {
    // Blocks all within [0, N): shift-mask gives a bijection, so the tagless
    // table behaves exactly like the tagged one.
    TaglessTable tagless(direct(64));
    TaggedTable tagged(direct(64));
    util::Xoshiro256 rng{1234};
    for (int i = 0; i < 500; ++i) {
        const TxId tx = static_cast<TxId>(rng.below(4));
        const std::uint64_t block = rng.below(64);
        const bool write = rng.bernoulli(0.4);
        const bool do_release = rng.bernoulli(0.2);
        if (do_release) {
            tagless.release(tx, block, Mode::kWrite);
            tagged.release(tx, block, Mode::kWrite);
        } else if (write) {
            EXPECT_EQ(tagless.acquire_write(tx, block).ok,
                      tagged.acquire_write(tx, block).ok)
                << "step " << i;
        } else {
            EXPECT_EQ(tagless.acquire_read(tx, block).ok,
                      tagged.acquire_read(tx, block).ok)
                << "step " << i;
        }
    }
}

TEST(CrossTable, TaglessConflictsStrictlyMoreUnderAliasing) {
    TaglessTable tagless(direct(32));
    TaggedTable tagged(direct(32));
    util::Xoshiro256 rng{77};
    int tagless_conflicts = 0, tagged_conflicts = 0;
    for (int i = 0; i < 2000; ++i) {
        const TxId tx = static_cast<TxId>(rng.below(4));
        // Disjoint per-transaction block ranges (no true conflicts) that
        // overlap modulo the table size (100000 ≡ 0 mod 32 → heavy aliasing).
        const std::uint64_t block = tx * 100000 + rng.below(1024);
        if (rng.bernoulli(0.5)) {
            tagless_conflicts += tagless.acquire_write(tx, block).ok ? 0 : 1;
            tagged_conflicts += tagged.acquire_write(tx, block).ok ? 0 : 1;
        } else {
            tagless_conflicts += tagless.acquire_read(tx, block).ok ? 0 : 1;
            tagged_conflicts += tagged.acquire_read(tx, block).ok ? 0 : 1;
        }
    }
    EXPECT_EQ(tagged_conflicts, 0) << "tagged tables never falsely conflict";
    EXPECT_GT(tagless_conflicts, 0) << "tagless must alias on this workload";
}

// ---------------------------------------------------------------------------
// AnyTable wrapper
// ---------------------------------------------------------------------------

TEST(AnyTable, DispatchesToBothKinds) {
    for (const std::string& name : table_names()) {
        const auto t = make_table(name, direct(16));
        ASSERT_NE(t, nullptr);
        EXPECT_EQ(t->name(), name);
        EXPECT_EQ(t->entry_count(), 16u);
        EXPECT_TRUE(t->acquire_write(0, 3).ok);
        const bool alias_conflicts = !t->acquire_write(1, 3 + 16).ok;
        EXPECT_EQ(alias_conflicts, name == "tagless");
        t->clear();
        EXPECT_TRUE(t->acquire_write(1, 3).ok);
    }
}

}  // namespace
}  // namespace tmb::ownership
