#include <gtest/gtest.h>

#include "sim/cache.hh"

using namespace perspective::sim;

TEST(Cache, MissThenHit)
{
    Cache c({"t", 1024, 64, 2, 2});
    EXPECT_FALSE(c.access(0x1000));
    c.fill(0x1000);
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache c({"t", 1024, 64, 2, 2});
    c.fill(0x1000);
    EXPECT_TRUE(c.access(0x103f));
    EXPECT_FALSE(c.access(0x1040));
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B lines, 1024B total -> 8 sets. Addresses 64*8 apart
    // map to the same set.
    Cache c({"t", 1024, 64, 2, 2});
    Addr a = 0x0, b = 0x200, d = 0x400;
    c.fill(a);
    c.fill(b);
    EXPECT_TRUE(c.access(a)); // a most recent
    c.fill(d);                // evicts b (LRU)
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, FlushRemovesLine)
{
    Cache c({"t", 1024, 64, 2, 2});
    c.fill(0x1000);
    c.flush(0x1000);
    EXPECT_FALSE(c.probe(0x1000));
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    Cache c({"t", 1024, 64, 2, 2});
    Addr a = 0x0, b = 0x200, d = 0x400;
    c.fill(a);
    c.fill(b);
    // probe(a) must NOT refresh a.
    EXPECT_TRUE(c.probe(a));
    c.fill(d); // evicts a, the true LRU
    EXPECT_FALSE(c.probe(a));
    EXPECT_TRUE(c.probe(b));
}

TEST(Cache, ProbeStormPreservesEvictionOrder)
{
    // Stronger than ProbeDoesNotTouchLru: with a full set, an
    // arbitrary storm of probes must leave the *entire* eviction
    // order exactly what the accesses alone dictate. Guards the
    // shared access/probe set walk (findLine) against ever routing
    // probes through the LRU-updating path.
    Cache c({"t", 1024, 64, 4, 2}); // 4-way, 4 sets
    Addr way[4] = {0x000, 0x400, 0x800, 0xc00}; // one set
    for (Addr a : way)
        c.fill(a);
    // Recency (oldest -> newest) after these accesses: 2, 0, 3, 1.
    EXPECT_TRUE(c.access(way[2]));
    EXPECT_TRUE(c.access(way[0]));
    EXPECT_TRUE(c.access(way[3]));
    EXPECT_TRUE(c.access(way[1]));
    for (int i = 0; i < 100; ++i)
        for (Addr a : way)
            EXPECT_TRUE(c.probe(a));
    // Four conflicting fills must evict in exactly that order.
    const Addr evictOrder[4] = {way[2], way[0], way[3], way[1]};
    Addr fresh = 0x1000;
    for (Addr expected : evictOrder) {
        EXPECT_TRUE(c.probe(expected));
        c.fill(fresh);
        EXPECT_FALSE(c.probe(expected));
        fresh += 0x400;
    }
}

TEST(Cache, FlushAll)
{
    Cache c({"t", 1024, 64, 2, 2});
    c.fill(0x0);
    c.fill(0x40);
    c.flushAll();
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Hierarchy, LatencyOrdering)
{
    CacheHierarchy h(defaultL1I(), defaultL1D(), defaultL2(), 100);
    Addr a = 0x12345000;
    Cycle cold = h.accessData(a).latency;
    Cycle warm = h.accessData(a).latency;
    EXPECT_GT(cold, warm);
    EXPECT_EQ(warm, defaultL1D().hit_latency);
    EXPECT_GE(cold, 100u);
}

TEST(Hierarchy, L2HitAfterL1Evict)
{
    CacheHierarchy h(defaultL1I(), defaultL1D(), defaultL2(), 100);
    Addr a = 0x5000;
    h.accessData(a);
    h.l1d().flush(a);
    Cycle lat = h.accessData(a).latency;
    EXPECT_EQ(lat, defaultL1D().hit_latency + defaultL2().hit_latency);
}

TEST(Hierarchy, ProbeLatencyClassifiesLevels)
{
    CacheHierarchy h(defaultL1I(), defaultL1D(), defaultL2(), 100);
    Addr a = 0x9000;
    EXPECT_GE(h.probeLatency(a), 100u); // DRAM
    h.accessData(a);
    EXPECT_EQ(h.probeLatency(a), defaultL1D().hit_latency);
    h.flush(a);
    EXPECT_GE(h.probeLatency(a), 100u);
}

TEST(Hierarchy, SpeculativeFillPersists)
{
    // The covert-channel property: a fill is visible to later probes
    // regardless of who performed it.
    CacheHierarchy h(defaultL1I(), defaultL1D(), defaultL2(), 100);
    Addr secret_slot = 0xdead000;
    h.accessData(secret_slot);
    EXPECT_TRUE(h.probeL1D(secret_slot));
}

TEST(Hierarchy, NextLinePrefetcherFillsFollowingLine)
{
    CacheHierarchy h(defaultL1I(), defaultL1D(), defaultL2(), 100,
                     /*prefetch=*/true);
    Addr a = 0x40000;
    EXPECT_FALSE(h.probeL1D(a + 64));
    h.accessData(a); // miss -> demand fill + next-line prefetch
    EXPECT_TRUE(h.probeL1D(a));
    EXPECT_TRUE(h.probeL1D(a + 64));
}

TEST(Hierarchy, PrefetcherCanBeDisabled)
{
    CacheHierarchy h(defaultL1I(), defaultL1D(), defaultL2(), 100,
                     /*prefetch=*/false);
    Addr a = 0x50000;
    h.accessData(a);
    EXPECT_TRUE(h.probeL1D(a));
    EXPECT_FALSE(h.probeL1D(a + 64));
}

TEST(Hierarchy, PrefetchDoesNotCrossIntoProbeSlots)
{
    // Covert-channel hygiene: FlushReload slots are 4 KB apart so a
    // 64 B next-line prefetch can never bridge two slots.
    CacheHierarchy h(defaultL1I(), defaultL1D(), defaultL2(), 100);
    Addr slot0 = 0x2000'0000, slot1 = 0x2000'1000;
    h.accessData(slot0);
    EXPECT_FALSE(h.probeL1D(slot1));
}
