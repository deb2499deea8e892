// Unit tests: the recently-seen cache.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gossip/seen_cache.hpp"

namespace gossipc {
namespace {

TEST(SeenCacheTest, DetectsDuplicates) {
    SeenCache cache(1024);
    EXPECT_TRUE(cache.insert_if_new(42));
    EXPECT_FALSE(cache.insert_if_new(42));
    EXPECT_TRUE(cache.contains(42));
    EXPECT_FALSE(cache.contains(43));
}

TEST(SeenCacheTest, ZeroIdHandled) {
    SeenCache cache(64);
    EXPECT_TRUE(cache.insert_if_new(0));
    EXPECT_FALSE(cache.insert_if_new(0));
}

TEST(SeenCacheTest, RejectsZeroCapacity) {
    EXPECT_THROW(SeenCache(0), std::invalid_argument);
}

TEST(SeenCacheTest, NoFalseDuplicatesAtLowOccupancy) {
    // Distinct random ids inserted well below capacity must all be "new".
    SeenCache cache(1 << 16);
    Rng rng(1);
    for (int i = 0; i < 4000; ++i) {
        EXPECT_TRUE(cache.insert_if_new(rng.next_u64())) << i;
    }
}

TEST(SeenCacheTest, RecentIdsSurviveModerateChurn) {
    // After inserting far fewer ids than capacity, early ids are still seen.
    SeenCache cache(1 << 14);
    for (std::uint64_t id = 1; id <= 1000; ++id) cache.insert_if_new(id);
    int still_seen = 0;
    for (std::uint64_t id = 1; id <= 1000; ++id) still_seen += cache.contains(id) ? 1 : 0;
    EXPECT_GT(still_seen, 990);  // set-collision evictions are rare
}

TEST(SeenCacheTest, EvictsUnderOverflow) {
    SeenCache cache(256);
    for (std::uint64_t id = 1; id <= 100000; ++id) cache.insert_if_new(id);
    EXPECT_GT(cache.evictions(), 0u);
    // Very old ids were (mostly) forgotten.
    int forgotten = 0;
    for (std::uint64_t id = 1; id <= 100; ++id) forgotten += cache.contains(id) ? 0 : 1;
    EXPECT_GT(forgotten, 90);
}

TEST(SeenCacheTest, CapacityReportsRequestedAndSlotCountRoundedUp) {
    // 1000 rounds up to 256 sets x 4 ways = 1024 slots; capacity() must keep
    // reporting what the caller asked for.
    SeenCache cache(1000);
    EXPECT_EQ(cache.capacity(), 1000u);
    EXPECT_EQ(cache.slot_count(), 1024u);
    // Exact power-of-two requests round to themselves.
    SeenCache exact(1 << 10);
    EXPECT_EQ(exact.capacity(), 1u << 10);
    EXPECT_EQ(exact.slot_count(), 1u << 10);
}

}  // namespace
}  // namespace gossipc
